"""Seeded inputs for the three workloads.

A workload is one pass: a list of ops, each a CLI argument list (without
the input path) plus the space file it reads.  The timed run replays the
pass until its time is up, so every pass has the same composition.

The generators build spaces from their preorders with this file's own code,
not the program's, so the oracle knows each input independently of what the
program makes of it.  The seed changes the inputs (op order, which points are
doubled, relation order, which command and file form each corpus space gets)
but not their sizes, so a run's cost does not depend on the seed.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

CORPUS_SEED = 20240801
CORPUS_SIZE = 500
CORPUS_MAX_POINTS = 7

# levels x width x doubled: consecutive levels complete bipartite, `doubled`
# levels get one point with an indistinguishable twin.  Each op takes about
# 0.4-1 s on one core, dominated by the dense d∘d check and dense SNF.  The
# costliest shape comes twice (two seeded variants), so the median falls on
# 4x3x2 and the tail percentile on 4x3x3 whatever the number of passes.
LAYERED_LADDER = ((5, 2, 1), (4, 3, 1), (4, 3, 2), (4, 3, 3), (4, 3, 3))

# The fixtures as points and generating relation (x <= y), blown up so that
# every point becomes m indistinguishable copies: 16 to 20 points, where
# the 2^n subset scan of `from_preorder` dominates.  PSEUDO_S1_DUP x4 comes
# twice (two seeded variants), so the median falls on it and the tail
# percentile on the two costlier ops whatever the number of passes.
BASES = {
    "SIERP": (("a", "b"), (("a", "b"),)),
    "PSEUDO_S1": (("a", "b", "c", "d"), (("c", "a"), ("c", "b"), ("d", "a"), ("d", "b"))),
    "PSEUDO_S1_DUP": (
        ("a", "b", "c", "c'", "d"),
        (("c", "a"), ("c", "b"), ("c", "c'"), ("c'", "c"), ("d", "a"), ("d", "b")),
    ),
}
BLOWUP_LADDER = (("SIERP", 8), ("PSEUDO_S1_DUP", 4), ("PSEUDO_S1_DUP", 4), ("PSEUDO_S1", 5), ("SIERP", 10))

FORMS = ("opens", "min_opens", "leq")
SPLICED_LENGTHS = (1, 2, 3, 4, -3)
HOMOLOGY_KINDS = tuple((c, t) for c in ("poset", "ambient", "relative") for t in ("homology", "cohomology"))
HEAVY_SPLICED = ("spliced", "--length", "3", "--max-degree", "11", "--verify-theorem", "--format", "json")


@dataclass(frozen=True)
class Space:
    """A finite space given by its preorder: up[i] has bit j when points[i] <= points[j]."""

    name: str
    points: tuple[str, ...]
    up: tuple[int, ...]
    relation: tuple[tuple[str, str], ...]

    def up_set(self, i: int) -> list[str]:
        return [p for j, p in enumerate(self.points) if self.up[i] >> j & 1]

    def opens(self) -> list[list[str]]:
        """Every up-closed subset, the opens of the Alexandrov topology."""
        n = len(self.points)
        return [
            [p for i, p in enumerate(self.points) if m >> i & 1]
            for m in range(1 << n)
            if all(self.up[i] & ~m == 0 for i in range(n) if m >> i & 1)
        ]


@dataclass(frozen=True)
class Op:
    input_id: str
    space: Space
    document: dict
    args: tuple[str, ...]

    def argv(self, path: str) -> list[str]:
        return [self.args[0], "--input", path, *self.args[1:]]


def make_space(name: str, points, relation) -> Space:
    """Reflexive-transitive closure of the relation, by Warshall on bitmasks."""
    pts = tuple(sorted(points))
    index = {p: i for i, p in enumerate(pts)}
    up = [1 << i for i in range(len(pts))]
    for x, y in relation:
        up[index[x]] |= 1 << index[y]
    for k in range(len(pts)):
        for i in range(len(pts)):
            if up[i] >> k & 1:
                up[i] |= up[k]
    return Space(name, pts, tuple(up), tuple(relation))


def document(space: Space, form: str, rng: random.Random) -> dict:
    """The space file in one of the three schema forms, lists in seeded order."""
    points = list(space.points)
    rng.shuffle(points)
    doc = {"format": "finsplice-space/1", "points": points}
    if form == "opens":
        opens = space.opens()
        rng.shuffle(opens)
        doc["opens"] = opens
    elif form == "min_opens":
        doc["min_opens"] = {p: space.up_set(i) for i, p in enumerate(space.points)}
    else:
        pairs = [list(pair) for pair in space.relation]
        rng.shuffle(pairs)
        doc["leq"] = pairs
    return doc


def corpus_spaces() -> list[Space]:
    """The acceptance corpus, drawn exactly as `random_corpus(500, 7, 20240801)` draws it."""
    rng = random.Random(CORPUS_SEED)
    spaces = []
    for idx in range(CORPUS_SIZE):
        n = rng.randint(1, CORPUS_MAX_POINTS)
        points = tuple(string.ascii_lowercase[:n])
        density = rng.uniform(0.05, 0.5)
        pairs = [(x, y) for x in points for y in points if x != y and rng.random() < density]
        spaces.append(make_space(f"corpus-{idx:03d}", points, pairs))
    return spaces


def _mix(count: int, choices, rng: random.Random) -> list:
    """`count` items cycling through the choices, in seeded order."""
    items = [choices[i % len(choices)] for i in range(count)]
    rng.shuffle(items)
    return items


def corpus(seed: int) -> list[Op]:
    """Every corpus space once: 70% spliced, 20% homology, 10% decompose."""
    rng = random.Random(seed)
    spaces = corpus_spaces()
    rng.shuffle(spaces)
    n_spliced = CORPUS_SIZE * 7 // 10
    n_homology = CORPUS_SIZE * 2 // 10
    commands = (
        [("spliced", "--length", str(n), "--verify-theorem", "--format", "json")
         for n in _mix(n_spliced, SPLICED_LENGTHS, rng)]
        + [("homology", "--complex", c, "--theory", t, "--format", "json")
           for c, t in _mix(n_homology, HOMOLOGY_KINDS, rng)]
        + [("decompose", "--format", "json")] * (CORPUS_SIZE - n_spliced - n_homology)
    )
    rng.shuffle(commands)
    forms = _mix(CORPUS_SIZE, FORMS, rng)
    return [
        Op(f"{space.name}/{form}", space, document(space, form, rng), args)
        for space, form, args in zip(spaces, forms, commands)
    ]


def layered_space(name: str, levels: int, width: int, doubled: int, rng: random.Random) -> Space:
    names = [[f"{string.ascii_lowercase[i]}{j}" for j in range(width)] for i in range(levels)]
    points = [p for level in names for p in level]
    relation = [(x, y) for i in range(levels - 1) for x in names[i] for y in names[i + 1]]
    # One twin per chosen level keeps the face counts independent of the seed.
    for i in sorted(rng.sample(range(levels), doubled)):
        p = rng.choice(names[i])
        twin = p + "'"
        points.append(twin)
        relation += [(p, twin), (twin, p)]
    return make_space(name, points, relation)


def layered(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ladder = list(LAYERED_LADDER)
    rng.shuffle(ladder)
    ops = []
    for k, shape in enumerate(ladder):
        name = "layered-{}x{}x{}-{}".format(*shape, ladder[:k].count(shape) + 1)
        space = layered_space(name, *shape, rng)
        ops.append(Op(space.name, space, document(space, "leq", rng), HEAVY_SPLICED))
    return ops


def blowup_space(name: str, base: str, copies: int, rng: random.Random) -> Space:
    base_points, base_relation = BASES[base]
    # Copy names keep the base order, so the subset scan costs the same for every seed.
    names = {x: [f"{x}{k}" for k in range(copies)] for x in base_points}
    anchor = {x: rng.choice(names[x]) for x in base_points}
    relation = [(anchor[x], anchor[y]) for x, y in base_relation]
    for x in base_points:
        for p in names[x]:
            if p != anchor[x]:
                relation += [(anchor[x], p), (p, anchor[x])]
    points = [p for x in base_points for p in names[x]]
    return make_space(name, points, relation)


def blowup(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ladder = list(BLOWUP_LADDER)
    rng.shuffle(ladder)
    ops = []
    for k, (base, copies) in enumerate(ladder):
        name = f"blowup-{base}x{copies}-{ladder[:k].count((base, copies)) + 1}"
        space = blowup_space(name, base, copies, rng)
        ops.append(Op(space.name, space, document(space, "leq", rng), HEAVY_SPLICED))
    return ops


WORKLOADS = {"corpus": corpus, "layered": layered, "blowup": blowup}
