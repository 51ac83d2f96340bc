"""Independent check of the program's JSON reports.

The oracle never calls the program.  From a workload's own preorder it
enumerates the order complexes (chains of the strict order), takes the rank
of every boundary map by sparse elimination modulo a 61-bit prime, and
derives every free rank by rank-nullity: the decomposition, the complex
sizes, the free ranks of (co)homology groups, of spliced groups through the
block layout, and of the claimed table.  Torsion is not derived here; the
PSEUDO_S1_DUP canary pins it for one known space.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from workloads import Space

PRIME = (1 << 61) - 1

# Spliced groups of PSEUDO_S1_DUP at length 3, degrees 0..5: Z, Z, 0, 0, Z, 0.
CANARY_ARGS = ("spliced", "--length", "3", "--max-degree", "5", "--format", "json")
CANARY_GROUPS = [{"rank": r, "torsion": []} for r in (1, 1, 0, 0, 1, 0)]


def rank_mod_p(columns: list[dict[int, int]]) -> int:
    """Rank over GF(PRIME) of the matrix with these sparse columns.

    Equal to the rank over the rationals unless PRIME divides an invariant
    factor, which does not happen for boundary maps of this size.
    """
    pivots: dict[int, dict[int, int]] = {}
    for column in columns:
        col = {r: v % PRIME for r, v in column.items() if v % PRIME}
        while col:
            low = max(col)
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = col
                break
            factor = col[low] * pow(pivot[low], -1, PRIME) % PRIME
            for r, v in pivot.items():
                x = (col.get(r, 0) - factor * v) % PRIME
                if x:
                    col[r] = x
                else:
                    col.pop(r, None)
    return len(pivots)


def _chains(space: Space, allowed: int) -> list[list[tuple[int, ...]]]:
    """Chains of the strict order inside `allowed`, grouped by dimension."""
    n = len(space.points)
    below = [sum(1 << j for j in range(n) if space.up[j] >> i & 1) for i in range(n)]
    strict_up = [space.up[i] & ~below[i] for i in range(n)]
    by_dim: list[list[tuple[int, ...]]] = []

    def extend(chain: tuple[int, ...]) -> None:
        while len(by_dim) < len(chain):
            by_dim.append([])
        by_dim[len(chain) - 1].append(chain)
        above = strict_up[chain[-1]] & allowed
        for j in range(n):
            if above >> j & 1:
                extend(chain + (j,))

    for i in range(n):
        if allowed >> i & 1:
            extend((i,))
    return by_dim


def _boundary_ranks(by_dim, keep=lambda face: True) -> tuple[list[int], list[int]]:
    """Face counts per dimension and ranks of d_k: C_k -> C_(k-1), k >= 1."""
    faces = [[f for f in fs if keep(f)] for fs in by_dim]
    dims = [len(fs) for fs in faces]
    ranks = []
    for k in range(1, len(faces)):
        row = {f: i for i, f in enumerate(faces[k - 1])}
        columns = []
        for face in faces[k]:
            col = {}
            for i in range(len(face)):
                sub = row.get(face[:i] + face[i + 1:])
                if sub is not None:
                    col[sub] = col.get(sub, 0) + (-1) ** i
            columns.append(col)
        ranks.append(rank_mod_p(columns))
    return dims, ranks


@dataclass(frozen=True)
class Complex:
    """Trimmed degree dimensions and boundary ranks of one chain complex."""

    dims: tuple[int, ...]
    ranks: tuple[int, ...]

    @classmethod
    def trimmed(cls, dims, ranks) -> "Complex":
        top = max((k for k, d in enumerate(dims) if d), default=-1)
        return cls(tuple(dims[: top + 1]), tuple(ranks[: max(top, 0)]))

    def dim(self, k: int) -> int:
        return self.dims[k] if 0 <= k < len(self.dims) else 0

    def rank_out(self, k: int) -> int:
        """Rank of the cochain map leaving degree k, i.e. of d_(k+1)."""
        return self.ranks[k] if 0 <= k < len(self.ranks) else 0

    def free(self, k: int) -> int:
        return self.dim(k) - self.rank_out(k) - self.rank_out(k - 1)


@dataclass(frozen=True)
class Expected:
    points: list[str]
    classes: list[list[str]]
    representatives: list[str]
    complementary: list[str]
    t0: bool
    complexes: dict[str, Complex]

    def sizes(self) -> dict[str, list[int]]:
        return {name: list(c.dims) for name, c in self.complexes.items()}


def expect(space: Space) -> Expected:
    n = len(space.points)
    classes = []
    seen = 0
    for i in range(n):
        if not seen >> i & 1:
            members = [j for j in range(n) if space.up[i] >> j & 1 and space.up[j] >> i & 1]
            seen |= sum(1 << j for j in members)
            classes.append(members)
    reps = sum(1 << cls[0] for cls in classes)
    ambient = _chains(space, (1 << n) - 1)
    poset = _chains(space, reps)
    poset_faces = {f for fs in poset for f in fs}
    a_dims, a_ranks = _boundary_ranks(ambient)
    r_dims, r_ranks = _boundary_ranks(ambient, keep=lambda f: f not in poset_faces)

    def name(indices) -> list[str]:
        return [space.points[i] for i in indices]

    return Expected(
        points=list(space.points),
        classes=[name(cls) for cls in classes],
        representatives=name(cls[0] for cls in classes),
        complementary=[p for i, p in enumerate(space.points) if not reps >> i & 1],
        t0=all(len(cls) == 1 for cls in classes),
        complexes={
            "poset": Complex.trimmed(*_boundary_ranks(poset)),
            "ambient": Complex.trimmed(a_dims, a_ranks),
            "relative": Complex.trimmed(r_dims, r_ranks),
        },
    )


def spliced_free(sources: tuple[Complex, Complex], length: int, degree: int) -> int:
    """Free rank of the spliced complex at `degree`, from the block layout.

    Block k holds degrees k*n..k*n+n-1 and reads source k mod 2 at degrees
    (k div 2)*n + r; maps inside a block are the source's, maps between
    blocks are zero.  A negative length swaps the sources.
    """
    if length < 0:
        sources = (sources[1], sources[0])
    n = abs(length)
    k, r = divmod(degree, n)
    source = sources[k % 2]
    at = (k // 2) * n + r
    out_rank = source.rank_out(at) if r < n - 1 else 0
    in_rank = source.rank_out(at - 1) if r > 0 else 0
    return source.dim(at) - out_rank - in_rank


def claimed_free(c1: Complex, c2: Complex, degree: int, p_max: int) -> int | None:
    """Free rank of the claimed table entry at `degree`, None when uncovered."""
    p, slot = divmod(degree, 6)
    if p > p_max:
        return None
    q = 3 * p
    return (
        c1.free(q),
        c1.dim(q + 2) - c1.rank_out(q + 1),
        c2.dim(q) - c2.rank_out(q),
        c2.free(q),
        c2.dim(q + 2) - c2.rank_out(q + 1),
        c1.dim(q + 3) - c1.rank_out(q + 3),
    )[slot]


def _group(g: dict) -> tuple:
    return (g["rank"], tuple(g["torsion"]))


def check(args, report_bytes: bytes, exp: Expected) -> str | None:
    """None when the report agrees with the oracle, else the first disagreement."""
    try:
        report = json.loads(report_bytes)
    except ValueError:
        return "report is not JSON"
    command = args[0]
    space = report.get("space", {})
    if report.get("command") != command:
        return "wrong command"
    if space.get("points") != exp.points or space.get("point_count") != len(exp.points):
        return "wrong points"
    if space.get("t0") != exp.t0 or (space.get("poset_warning") is None) == exp.t0:
        return "wrong T0 flag"
    if report.get("complex_sizes") != exp.sizes():
        return "wrong complex sizes"
    if command in ("decompose", "spliced"):
        dec = report.get("decomposition", {})
        if (dec.get("classes"), dec.get("representatives"), dec.get("complementary")) != (
            exp.classes, exp.representatives, exp.complementary
        ):
            return "wrong decomposition"
    if command == "homology":
        chain = exp.complexes[args[args.index("--complex") + 1]]
        want = [chain.free(k) for k in range(len(chain.dims))]
        if [g["rank"] for g in report["groups"]] != want:
            return "wrong homology free ranks"
    if command == "spliced":
        length = int(args[args.index("--length") + 1])
        max_degree = report["max_degree"]
        sources = (exp.complexes["poset"], exp.complexes["relative"])
        want = [spliced_free(sources, length, d) for d in range(max_degree + 1)]
        if report.get("length") != length or [g["rank"] for g in report["groups"]] != want:
            return "wrong spliced free ranks"
        if "--verify-theorem" in args:
            reason = _check_theorem(report, sources, max_degree)
            if reason:
                return reason
    return None


def _check_theorem(report: dict, sources: tuple[Complex, Complex], max_degree: int) -> str | None:
    theorem = report.get("theorem", {})
    rows = theorem.get("rows", [])
    if [row["degree"] for row in rows] != list(range(max_degree + 1)):
        return "wrong theorem degrees"
    tally = {"match": 0, "mismatch": 0, "uncovered": 0}
    for row in rows:
        degree, direct, claimed = row["degree"], row["direct"], row["claimed"]
        if _group(direct) != _group(report["groups"][degree]):
            return f"theorem row {degree} disagrees with the spliced groups"
        want = claimed_free(*sources, degree, max_degree // 6)
        if (claimed is None) != (want is None) or (claimed is not None and claimed["rank"] != want):
            return f"wrong claimed free rank at degree {degree}"
        verdict = "uncovered" if claimed is None else (
            "match" if _group(claimed) == _group(direct) else "mismatch"
        )
        if row["verdict"] != verdict:
            return f"wrong verdict at degree {degree}"
        tally[verdict] += 1
    if theorem.get("summary") != tally:
        return "wrong theorem summary"
    return None


def check_canary(report_bytes: bytes) -> bool:
    try:
        groups = json.loads(report_bytes)["groups"]
    except (ValueError, KeyError):
        return False
    return [{"rank": g["rank"], "torsion": g["torsion"]} for g in groups] == CANARY_GROUPS
