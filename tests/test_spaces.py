import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from finsplice import (
    FIXTURES,
    INDISC2,
    InvalidPreorder,
    MissingWholeSet,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    PSEUDO_S1,
    Preorder,
    SIERP,
    TopologyError,
    UnknownPoint,
    from_min_opens,
    from_preorder,
    preorder_from_relation,
    specialisation_preorder,
    validate_topology,
)
from finsplice.fixtures import point_names
from finsplice.spaces import _minimal_opens, _union_closure
from oracles import closure, is_leq, relation_pairs


def oracle_closure(space, subset):
    """Smallest closed superset found by scanning every subset of the points."""
    target = set(subset)
    closed_sets = [set(space.points) - set(o) for o in space.opens]
    best = None
    for candidate in closed_sets:
        if target <= candidate and (best is None or len(candidate) < len(best)):
            best = candidate
    return tuple(sorted(best))


def oracle_up_set_opens(preorder):
    """Every up-closed subset of the points, found by scanning all 2^n subsets."""
    pts = preorder.points
    n = len(pts)
    index = {p: i for i, p in enumerate(pts)}
    up = [0] * n
    for x, y in relation_pairs(preorder):
        up[index[x]] |= 1 << index[y]
    opens = []
    for m in range(1 << n):
        if all(up[i] & ~m == 0 for i in range(n) if m >> i & 1):
            opens.append(tuple(p for i, p in enumerate(pts) if m >> i & 1))
    return tuple(sorted(opens))


def oracle_relation_closure(points, pairs):
    """Reflexive-transitive closure by a fixed-point loop over all pairs of pairs."""
    rel = {(str(x), str(y)) for x, y in pairs} | {(p, p) for p in points}
    changed = True
    while changed:
        changed = False
        for x, y in list(rel):
            for y2, z in list(rel):
                if y == y2 and (x, z) not in rel:
                    rel.add((x, z))
                    changed = True
    return frozenset(rel)


def oracle_specialisation_pairs(space):
    """(x, y) for every x in the closure of {y}, the closure being the least closed superset."""
    pairs = set()
    for y in space.points:
        closed = set(space.points)
        for o in space.opens:
            if y not in o:
                closed &= set(space.points) - set(o)
        pairs.update((x, y) for x in closed)
    return frozenset(pairs)


def oracle_preorder_error(points, pairs):
    """The first violation by a pairwise scan in sorted order, as a message, or None.

    Reflexivity comes first (the least point), then transitivity (the least
    x <= y <= z with x <= z missing).
    """
    rel = {(str(x), str(y)) for x, y in pairs}
    for p in sorted(points):
        if (p, p) not in rel:
            return f"not reflexive: missing ({p}, {p})"
    for x, y in sorted(rel):
        for y2, z in sorted(rel):
            if y2 == y and (x, z) not in rel:
                return f"not transitive: {x} <= {y} <= {z} but not {x} <= {z}"
    return None


def up_rows(points, pairs):
    """The relation's rows as given, not closed: bit j of row i when (points[i], points[j]) is a pair."""
    index = {p: i for i, p in enumerate(points)}
    up = [0] * len(points)
    for x, y in pairs:
        up[index[x]] |= 1 << index[y]
    return up


def preorder_error(points, pairs):
    try:
        Preorder(points, up_rows(points, pairs))
    except InvalidPreorder as exc:
        return str(exc)
    return None


def blown_up(preorder, copies):
    """Every point copied `copies` times; the copies of a point form one class."""
    name = "{}#{}".format
    points = [name(p, k) for p in preorder.points for k in range(copies)]
    pairs = [
        (name(x, a), name(y, b)) for x, y in relation_pairs(preorder) for a in range(copies) for b in range(copies)
    ]
    return preorder_from_relation(points, pairs)


def blown_up_fixtures(copies=(1, 2, 3)):
    """The fixtures' preorders, each blown up by every given number of copies."""
    return [blown_up(specialisation_preorder(space), m) for space in FIXTURES.values() for m in copies]


def oracle_generated_opens(points, min_opens):
    """Closure of the generators, the empty and the full set by a pairwise union/intersection fixed point."""
    opens = {frozenset(), frozenset(points)} | {frozenset(g) for g in min_opens.values()}
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(list(opens), 2):
            for m in (a | b, a & b):
                if m not in opens:
                    opens.add(m)
                    changed = True
    return tuple(sorted(tuple(sorted(m)) for m in opens))


def oracle_pairwise_verdict(points, opens):
    """The first violated axiom and its witness, by scanning every pair of opens.

    Returns (exception name, witness) with the empty and the full set checked
    first, then every union, then every intersection, pairs in sorted mask
    order; ("ok", None) for a topology.
    """
    pts = tuple(sorted(points))
    index = {p: i for i, p in enumerate(pts)}
    masks = {sum(1 << index[p] for p in set(o)) for o in opens}
    if 0 not in masks:
        return "MissingEmptySet", None
    if (1 << len(pts)) - 1 not in masks:
        return "MissingWholeSet", None

    def unmask(m):
        return tuple(p for i, p in enumerate(pts) if m >> i & 1)

    ordered = sorted(masks)
    for name, combine in (("NotClosedUnderUnion", int.__or__), ("NotClosedUnderIntersection", int.__and__)):
        for a, b in itertools.combinations(ordered, 2):
            if combine(a, b) not in masks:
                return name, (unmask(a), unmask(b))
    return "ok", None


@st.composite
def open_families(draw, max_points=6):
    """A point set and a family of subsets.

    Half are up-set topologies with up to two members added or removed, half
    are arbitrary families with the empty and the full set.
    """
    points = point_names(draw(st.integers(min_value=1, max_value=max_points)))
    subsets = st.frozensets(st.sampled_from(points))
    if draw(st.booleans()):
        pairs = draw(st.lists(st.tuples(st.sampled_from(points), st.sampled_from(points)), max_size=2 * len(points)))
        family = {frozenset(o) for o in from_preorder(preorder_from_relation(points, pairs)).opens}
        for flipped in draw(st.lists(subsets, max_size=2)):
            family ^= {flipped}
    else:
        family = set(draw(st.lists(subsets, max_size=10))) | {frozenset(), frozenset(points)}
    return points, [tuple(sorted(o)) for o in family]


@st.composite
def generator_families(draw, max_points=7):
    """Points and, for each point, a generator that contains it."""
    points = point_names(draw(st.integers(min_value=1, max_value=max_points)))
    generators = {p: {p} | set(draw(st.lists(st.sampled_from(points), max_size=len(points)))) for p in points}
    return points, {p: tuple(sorted(g)) for p, g in generators.items()}


@st.composite
def relations(draw, max_points=8):
    """Points and a random relation on them; points drawn into one class form a cycle."""
    n = draw(st.integers(min_value=1, max_value=max_points))
    points = point_names(n)
    pairs = draw(st.lists(st.tuples(st.sampled_from(points), st.sampled_from(points)), max_size=2 * n))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    for label in set(labels):
        members = [p for p, other in zip(points, labels) if other == label]
        pairs += list(zip(members, members[1:] + members[:1]))
    return points, pairs


def test_sierp_is_valid():
    space = validate_topology(["a", "b"], [[], ["b"], ["a", "b"]])
    assert space == SIERP
    assert space.points == ("a", "b")


def test_missing_whole_set():
    with pytest.raises(MissingWholeSet):
        validate_topology(["a", "b"], [[], ["a"], ["b"]])


def test_union_witness():
    with pytest.raises(NotClosedUnderUnion) as info:
        validate_topology(["a", "b", "c"], [[], ["a"], ["b"], ["a", "b", "c"]])
    assert info.value.witness == (("a",), ("b",))


def test_intersection_witness():
    with pytest.raises(NotClosedUnderIntersection) as info:
        validate_topology(["a", "b", "c"], [[], ["a", "b"], ["b", "c"], ["a", "b", "c"]])
    assert info.value.witness == (("a", "b"), ("b", "c"))


@settings(max_examples=400, deadline=None)
@given(open_families())
def test_validation_matches_pairwise_scan(family):
    points, opens = family
    expected = oracle_pairwise_verdict(points, opens)
    try:
        space = validate_topology(points, opens)
    except TopologyError as exc:
        got = type(exc).__name__, getattr(exc, "witness", None)
    else:
        got = "ok", None
        assert set(space.opens) == {tuple(sorted(o)) for o in opens}
    assert got == expected
    if expected[0] not in ("MissingEmptySet", "MissingWholeSet"):
        # A topology never falls back to the pairwise scan.
        index = {p: i for i, p in enumerate(sorted(points))}
        masks = {sum(1 << index[p] for p in o) for o in opens}
        closure = _union_closure(_minimal_opens(masks, len(points)), len(masks))
        assert (closure == masks) == (expected[0] == "ok")


def test_unknown_point_in_open():
    with pytest.raises(UnknownPoint):
        validate_topology(["a"], [[], ["a"], ["z"]])


def test_duplicate_points_rejected():
    with pytest.raises(TopologyError):
        validate_topology(["a", "a"], [[], ["a"]])


def test_empty_point_set_rejected():
    with pytest.raises(TopologyError):
        validate_topology([], [[]])


@pytest.mark.parametrize(
    "space,subset,expected",
    [
        (SIERP, ("b",), ("a", "b")),
        (INDISC2, ("y",), ("x", "y")),
        (PSEUDO_S1, ("a",), ("a", "c", "d")),
    ],
)
def test_closure_examples(space, subset, expected):
    assert closure(space, subset) == expected
    assert oracle_closure(space, subset) == expected


def test_closure_unknown_point():
    with pytest.raises(UnknownPoint):
        closure(SIERP, ("nope",))


def test_specialisation_preorder_examples():
    sierp = specialisation_preorder(SIERP)
    assert {(x, y) for x, y in relation_pairs(sierp) if x != y} == {("a", "b")}

    indisc = specialisation_preorder(INDISC2)
    assert relation_pairs(indisc) == frozenset({("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")})

    circle = specialisation_preorder(PSEUDO_S1)
    assert {(x, y) for x, y in relation_pairs(circle) if x != y} == {
        ("c", "a"),
        ("c", "b"),
        ("d", "a"),
        ("d", "b"),
    }


def test_from_preorder_round_trip_sierp():
    preorder = specialisation_preorder(SIERP)
    rebuilt = from_preorder(preorder)
    assert rebuilt == SIERP
    assert specialisation_preorder(rebuilt) == preorder


def test_from_preorder_discrete():
    discrete = Preorder(("a", "b"), (0b01, 0b10))
    space = from_preorder(discrete)
    assert space.opens == ((), ("a",), ("a", "b"), ("b",))


def test_from_preorder_indiscrete():
    total = Preorder(("x", "y"), (0b11, 0b11))
    space = from_preorder(total)
    assert space.opens == ((), ("x", "y"))


def test_min_opens_generates_seven_opens():
    assert len(PSEUDO_S1.opens) == 7


def test_min_opens_must_contain_their_point():
    with pytest.raises(TopologyError):
        from_min_opens(("a", "b"), {"a": ("b",), "b": ("b",)})


def test_min_opens_checks_in_order():
    with pytest.raises(TopologyError, match="keys must match"):
        from_min_opens(("a", "b"), {"a": ("z",)})
    with pytest.raises(UnknownPoint):
        from_min_opens(("a", "b"), {"a": ("z",), "b": ("a",)})
    with pytest.raises(TopologyError, match="does not contain"):
        from_min_opens(("a", "b"), {"a": ("b",), "b": ("z",)})


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: from_min_opens(("a", "a"), {"a": ("z",)}), UnknownPoint, "unknown point 'z'"),
        (lambda: preorder_from_relation(("a", "a"), [("a", "z")]), UnknownPoint, "unknown point 'z'"),
        (lambda: preorder_from_relation(("a",), [("y", "z")]), UnknownPoint, "unknown point 'y'"),
        (lambda: from_min_opens(("a", "a"), {"a": ("a",)}), InvalidPreorder, "point identifiers must be distinct"),
        (lambda: preorder_from_relation(("a", "a"), []), InvalidPreorder, "point identifiers must be distinct"),
        (lambda: validate_topology(("a", "a"), [[], ["z"]]), TopologyError, "point identifiers must be distinct"),
        (lambda: from_min_opens((), {}), InvalidPreorder, "point set must be nonempty"),
    ],
    ids=[
        "min_opens-unknown-before-duplicate",
        "leq-unknown-before-duplicate",
        "leq-left-name-first",
        "min_opens-duplicate",
        "leq-duplicate",
        "opens-duplicate-before-unknown",
        "min_opens-no-points",
    ],
)
def test_input_errors_keep_their_precedence(build, error, message):
    # Unknown names are read first; duplicate or missing points in generator
    # and relation input are then reported by the Preorder constructor.
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


def test_point_names_are_read_as_given():
    assert preorder_from_relation([1, 2], [(1, 2)]) == Preorder((1, 2), (0b11, 0b10))
    assert validate_topology([1], [[], [1]]).points == (1,)
    assert from_min_opens([1], {1: [1]}).points == (1,)
    with pytest.raises(NotClosedUnderUnion, match=r"\{1\} and \{2\}"):
        validate_topology([1, 2, 3], [[], [1], [2], [1, 2, 3]])


@settings(max_examples=200, deadline=None)
@given(generator_families())
def test_min_opens_match_fixed_point_closure(family):
    points, min_opens = family
    assert from_min_opens(points, min_opens).opens == oracle_generated_opens(points, min_opens)


def test_preorder_invariants_on_corpus(corpus):
    spaces, _ = corpus
    for space in spaces[:50]:
        preorder = specialisation_preorder(space)
        for p in preorder.points:
            assert is_leq(preorder, p, p)
        for x, y in relation_pairs(preorder):
            for y2, z in relation_pairs(preorder):
                if y == y2:
                    assert is_leq(preorder, x, z)


def test_closure_monotone_and_idempotent(corpus):
    spaces, _ = corpus
    for space in spaces[:50]:
        points = space.points
        smaller = points[: len(points) // 2]
        bigger = points
        small_closure = set(closure(space, smaller))
        assert small_closure <= set(closure(space, bigger))
        assert closure(space, closure(space, smaller)) == closure(space, smaller)


@st.composite
def preorders(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    points = point_names(n)
    flags = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    pairs = [
        (points[i], points[j])
        for i in range(n)
        for j in range(n)
        if flags[i * n + j]
    ]
    return preorder_from_relation(points, pairs)


@settings(max_examples=60, deadline=None)
@given(preorders())
def test_round_trip_is_identity(preorder):
    assert specialisation_preorder(from_preorder(preorder)) == preorder


def test_from_preorder_matches_subset_scan_on_corpus(corpus):
    spaces, _ = corpus
    for space in spaces:
        preorder = specialisation_preorder(space)
        assert from_preorder(preorder).opens == oracle_up_set_opens(preorder) == space.opens


def test_relation_closure_matches_fixed_point_on_corpus(corpus):
    spaces, _ = corpus
    rng = random.Random(7)
    for space in spaces:
        pairs = sorted(relation_pairs(specialisation_preorder(space)))
        sample = rng.sample(pairs, rng.randint(0, len(pairs)))
        closed = preorder_from_relation(space.points, sample)
        assert relation_pairs(closed) == oracle_relation_closure(space.points, sample)


@settings(max_examples=150, deadline=None)
@given(relations())
def test_fast_paths_match_oracles_on_drawn_relations(relation):
    points, pairs = relation
    preorder = preorder_from_relation(points, pairs)
    assert relation_pairs(preorder) == oracle_relation_closure(points, pairs)
    assert from_preorder(preorder).opens == oracle_up_set_opens(preorder)


def test_blown_up_sierp_on_thirty_points_has_three_opens():
    # Each point of SIERP copied 15 times; a 2^30 subset scan is out of reach.
    points = point_names(30)
    low, high = points[:15], points[15:]
    pairs = [(low[0], high[0])]
    for cls in (low, high):
        pairs += list(zip(cls, cls[1:] + cls[:1]))
    space = from_preorder(preorder_from_relation(points, pairs))
    assert space.opens == ((), points, high)


@pytest.mark.parametrize(
    "points,pairs,error,message",
    [
        ((), [], InvalidPreorder, "point set must be nonempty"),
        (("a", "b", "a"), [], InvalidPreorder, "point identifiers must be distinct"),
        (("a", "b"), [("a", "a")], InvalidPreorder, r"not reflexive: missing \(b, b\)"),
        (
            ("a", "b", "c", "d"),
            [(p, p) for p in "abcd"] + [("a", "b"), ("b", "d"), ("b", "c")],
            InvalidPreorder,
            "not transitive: a <= b <= c but not a <= c",
        ),
    ],
)
def test_preorder_errors(points, pairs, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        Preorder(points, up_rows(points, pairs))


def test_rows_are_validated():
    assert Preorder(("a", "b"), (0b11, 0b10)) == specialisation_preorder(SIERP)
    with pytest.raises(InvalidPreorder, match="sorted order"):
        Preorder(("b", "a"), (0b11, 0b10))
    with pytest.raises(InvalidPreorder, match="expected 2 rows, got 1"):
        Preorder(("a", "b"), (0b11,))
    with pytest.raises(InvalidPreorder, match="beyond the 2 points"):
        Preorder(("a", "b"), (0b111, 0b10))
    with pytest.raises(InvalidPreorder, match=r"not reflexive: missing \(b, b\)"):
        Preorder(("a", "b"), (0b11, 0b01))
    with pytest.raises(InvalidPreorder, match="not transitive: a <= b <= c but not a <= c"):
        Preorder(("a", "b", "c"), (0b011, 0b110, 0b100))


@settings(max_examples=300, deadline=None)
@given(relations(max_points=6), st.booleans())
def test_preorder_errors_match_pairwise_scan(relation, reflexive):
    points, pairs = relation
    pairs = pairs + [(p, p) for p in points if reflexive]
    assert preorder_error(points, pairs) == oracle_preorder_error(points, pairs)
    assert preorder_error(points, oracle_relation_closure(points, pairs)) is None


def test_specialisation_preorder_matches_closures(corpus):
    spaces, _ = corpus
    for space in [*spaces, *FIXTURES.values(), *map(from_preorder, blown_up_fixtures())]:
        assert relation_pairs(specialisation_preorder(space)) == oracle_specialisation_pairs(space)


def test_blown_up_fixtures_round_trip():
    for preorder in blown_up_fixtures():
        assert specialisation_preorder(from_preorder(preorder)) == preorder
        assert preorder_from_relation(preorder.points, relation_pairs(preorder)) == preorder
