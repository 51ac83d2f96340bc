import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from finsplice import (
    FIXTURES,
    ChainComplex,
    GroupPresentation,
    IntMatrix,
    PSEUDO_S1,
    PSEUDO_S1_DUP,
    all_groups,
    build_pipeline,
    chain_complex,
    cochain,
    from_preorder,
    order_complex,
    preorder_from_relation,
    rational_rank,
    smith_normal_form,
    specialisation_preorder,
)
from finsplice import homology
from finsplice.complexes import HOMOLOGICAL
from finsplice.homology import SmithTable
from finsplice.io import space_from_dict
from oracles import (
    dense_diagonals,
    dense_group,
    from_columns,
    identity,
    layered_poset,
    restricted,
    rp2_face_poset,
    rp2_ordinal_sum,
    smith_transforms,
    sympy_invariant_factors,
    transpose,
)
from test_spaces import blown_up_fixtures
from test_splice import kernel_cokernel_cochains


def minors_invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    """Invariant factors from determinantal divisors, for small matrices.

    The gcd of the k by k minors is the product of the first k invariant
    factors; this never touches the row-reduction code it checks.
    """

    def det(rows, cols):
        if not rows:
            return 1
        if len(rows) == 1:
            return m.entries[rows[0]][cols[0]]
        total = 0
        for position, c in enumerate(cols):
            minor = det(rows[1:], cols[:position] + cols[position + 1:])
            total += (-1) ** position * m.entries[rows[0]][c] * minor
        return total

    factors = []
    previous = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rows in itertools.combinations(range(m.rows), k):
            for cols in itertools.combinations(range(m.cols), k):
                g = math.gcd(g, det(rows, cols))
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    return tuple(factors)


SNF_EXAMPLES = [
    ([[2, 0], [0, 3]], (1, 6)),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], (1, 1, 1)),
    ([[-1], [-1]], (1,)),
    ([[0, 0], [0, 0]], ()),
    ([[6, 4], [4, 6]], (2, 10)),
    ([[0, 2], [3, 0]], (1, 6)),  # pivot off the corner; 2 does not divide 3
    ([[-4, 0], [0, -6]], (2, 12)),  # negative pivots, and 4 does not divide 6
    ([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], (2, 2, 156)),
    ([[2, 1], [0, 2]], (1, 4)),
]


@pytest.mark.parametrize("rows,expected", SNF_EXAMPLES)
def test_snf_examples(rows, expected):
    m = IntMatrix.from_rows(rows, cols=len(rows[0]) if rows else 0)
    assert smith_normal_form(m).diagonal == expected
    assert minors_invariant_factors(m) == expected


def test_snf_empty_matrix():
    assert smith_normal_form(IntMatrix.zeros(0, 3)).diagonal == ()
    assert smith_normal_form(IntMatrix.zeros(3, 0)).diagonal == ()


@pytest.mark.parametrize("rows,expected", SNF_EXAMPLES)
def test_snf_transforms_exact(rows, expected):
    m = IntMatrix.from_rows(rows)
    diagonal, left, right = smith_transforms(m)
    smith = IntMatrix.zeros(m.rows, m.cols).to_lists()
    for i, d in enumerate(diagonal):
        smith[i][i] = d
    assert left.mul(m).mul(right) == IntMatrix.from_rows(smith, cols=m.cols)
    assert _unimodular(left) and _unimodular(right)
    assert diagonal == expected == minors_invariant_factors(m)


def _unimodular(m: IntMatrix) -> bool:
    from fractions import Fraction

    rows = [[Fraction(x) for x in row] for row in m.entries]
    det = Fraction(1)
    n = m.rows
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if rows[i][col]), None)
        if pivot_row is None:
            return False
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            det = -det
        det *= rows[col][col]
        for i in range(col + 1, n):
            if rows[i][col]:
                factor = rows[i][col] / rows[col][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[col])]
    return abs(det) == 1


small_matrices = st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(-9, 9), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    ).map(lambda rows: IntMatrix.from_rows(rows, cols=shape[1]))
)


@settings(max_examples=80, deadline=None)
@given(small_matrices)
def test_snf_properties(m):
    diagonal, left, right = smith_transforms(m)
    assert diagonal == smith_normal_form(m).diagonal
    assert all(d > 0 for d in diagonal)
    for a, b in zip(diagonal, diagonal[1:]):
        assert b % a == 0
    assert len(diagonal) == rational_rank(m)
    assert diagonal == minors_invariant_factors(m)
    if m.rows:
        assert _unimodular(left)
    if m.cols:
        assert _unimodular(right)


unit_biased_matrices = st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda shape: st.lists(
        st.lists(
            st.sampled_from((0, 0, 0, 1, -1, 1, -1, 2, -2, 3, 6, -6)),
            min_size=shape[1],
            max_size=shape[1],
        ),
        min_size=shape[0],
        max_size=shape[0],
    ).map(lambda rows: IntMatrix.from_rows(rows, cols=shape[1]))
)


def one_map_diagonal(m):
    """The diagonal `SmithTable.of` reads for m as the one map of a complex."""
    basis = (tuple((f"c{j}",) for j in range(m.cols)), tuple((f"r{i}",) for i in range(m.rows)))
    return SmithTable.of(ChainComplex(HOMOLOGICAL, basis, (m,))).diagonals[0]


@settings(max_examples=150, deadline=None)
@given(unit_biased_matrices)
def test_snf_without_transforms_matches_oracles(m):
    diagonal = one_map_diagonal(m)
    assert diagonal == minors_invariant_factors(m)
    assert diagonal == smith_normal_form(m).diagonal == smith_transforms(m)[0]


small_integer_matrices = st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(-6, 6), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    ).map(lambda rows: IntMatrix.from_rows(rows, cols=shape[1]))
)


@settings(max_examples=200, deadline=None)
@given(small_integer_matrices)
def test_snf_matches_sympy_invariant_factors(m):
    assert smith_normal_form(m).diagonal == one_map_diagonal(m) == sympy_invariant_factors(m)


@pytest.mark.parametrize("variant, which", [("plain", "poset_chain"), ("cone-doubled", "relative_chain")])
def test_projective_plane_torsion_matches_sympy_invariant_factors(variant, which, monkeypatch):
    complex_ = getattr(build_pipeline(space_from_dict(rp2_face_poset(variant))), which)
    expected = tuple(map(sympy_invariant_factors, complex_.maps))
    assert 2 in expected[-1]
    assert tuple(smith_normal_form(m).diagonal for m in complex_.maps) == expected
    # The Z/2 is no +-1 low, so the bottom-up reduction hands a nonempty block to the dense loop.
    blocks = []
    diagonalize = homology._diagonalize

    def recording(a, m, n):
        blocks.append((m, n))
        return diagonalize(a, m, n)

    monkeypatch.setattr(homology, "_diagonalize", recording)
    assert complex_.smith.diagonals == expected
    assert cochain(complex_).smith.diagonals == expected
    assert any(m and n for m, n in blocks)


def _counting_reduction(monkeypatch):
    """Count `smith_normal_form`'s `dict` and `max` calls and the blocks it hands `_diagonalize`."""
    calls, blocks = Counter(), []
    for name, builtin in (("dict", dict), ("max", max)):

        def counting(*args, name=name, builtin=builtin):
            calls[name] += 1
            return builtin(*args)

        monkeypatch.setattr(homology, name, counting, raising=False)
    diagonalize = homology._diagonalize

    def recording(a, m, n):
        blocks.append((m, n))
        return diagonalize(a, m, n)

    monkeypatch.setattr(homology, "_diagonalize", recording)
    return calls, blocks


# One matrix per branch of the low reduction: rows, diagonal, lows, the
# columns copied into a dict, the `max` calls, and the set-aside block.
SMITH_BRANCHES = {
    # Every column's last pair is a new +-1 low, so each is kept as stored.
    "new unit lows": ([[1, 0], [1, -1], [0, 1]], (1, 1), {1, 2}, 0, 0, (0, 0)),
    # Column 1's low 1 is taken; one clear leaves the new low -1 at row 0,
    # whose reduced column then clears column 2 to zero.
    "taken low to a new unit": ([[1, 1, 3], [1, 2, 0]], (1, 1), {0, 1}, 2, 3, (0, 0)),
    # Lows 2 and 3 are new but not units: both columns are set aside.
    "non-unit lows": ([[2, 0], [0, 3]], (1, 6), set(), 2, 2, (2, 2)),
    # The projective plane's coboundary from edges to faces (see `SmithTable.of`):
    # column 1 clears to zero and column 2 to the non-unit 2 at row 0.
    "projective plane": ([[1, 1, 1], [1, 1, -1]], (1, 2), {1}, 2, 3, (1, 1)),
}


@pytest.mark.parametrize("name", SMITH_BRANCHES)
def test_each_branch_of_the_low_reduction_matches_the_oracles(name, monkeypatch):
    rows, diagonal, lows, copies, maxes, block = SMITH_BRANCHES[name]
    m = IntMatrix.from_rows(rows)
    assert minors_invariant_factors(m) == smith_transforms(m)[0] == diagonal
    calls, blocks = _counting_reduction(monkeypatch)
    assert smith_normal_form(m) == (diagonal, lows)
    assert (calls["dict"], calls["max"], blocks) == (copies, maxes, [block])


def test_projective_plane_coboundaries_set_the_torsion_aside(monkeypatch):
    maps = build_pipeline(space_from_dict(rp2_face_poset("plain"))).poset_cochain.maps
    expected = tuple(smith_transforms(m)[0] for m in maps)
    assert expected[-1][-1] == 2
    calls, blocks = _counting_reduction(monkeypatch)
    assert tuple(smith_normal_form(m).diagonal for m in maps) == expected
    # Most columns keep their stored tuple; the top map leaves a block for the dense loop.
    assert 0 < calls["dict"] < sum(m.cols for m in maps) // 2
    assert blocks[0] == (0, 0) and blocks[-1] > (0, 0)


def test_group_reads_torsion_from_the_map_the_dense_oracle_orients_into_the_degree():
    """`SmithTable.group` against `dense_group` for every pair of kept maps, on complexes with torsion.

    Which kept map gives the torsion depends on the direction, and shows
    only when a map is dropped, so each flag pair is read at every degree
    and one past the top, on the chain complexes of the projective planes
    and on their cochains.
    """
    cases = with_torsion = 0
    for variant in ("plain", "12-doubled", "cone-doubled"):
        data = build_pipeline(space_from_dict(rp2_face_poset(variant)))
        for chain in (data.poset_chain, data.ambient_chain, data.relative_chain):
            for complex_ in (chain, cochain(chain)):
                for k, above, below in itertools.product(range(complex_.top_degree + 2), (True, False), (True, False)):
                    group = complex_.smith.group(k, above, below)
                    assert group == dense_group(complex_, k, above, below), (variant, complex_.direction, k)
                    cases += 1
                    with_torsion += bool(group.torsion)
    assert (cases, with_torsion) == (288, 24)


def _layered_with_twin():
    """Four levels of three points, consecutive levels complete bipartite, b0 doubled."""
    levels = [[f"{name}{j}" for j in range(3)] for name in "abcd"]
    points = [p for level in levels for p in level] + ["b0'"]
    pairs = [(x, y) for lower, upper in zip(levels, levels[1:]) for x in lower for y in upper]
    pairs += [("b0", "b0'"), ("b0'", "b0")]
    return from_preorder(preorder_from_relation(points, pairs))


def test_snf_without_transforms_on_layered_pipeline():
    data = build_pipeline(_layered_with_twin())
    assert data.decomposition.complementary == ("b0'",)
    checked = 0
    for cc in (data.poset_chain, data.ambient_chain, data.relative_chain, data.relative_cochain):
        dense = dense_diagonals(cc)
        assert cc.smith.diagonals == dense
        for m, expected in zip(cc.maps, dense):
            diagonal = one_map_diagonal(m)
            assert diagonal == expected
            assert len(diagonal) == rational_rank(m)
            checked += 1
    assert checked == 12


def _recording_smith(monkeypatch):
    """Route `SmithTable.of`'s calls through a wrapper that lists each (matrix, lows)."""
    received = []
    smith = homology.smith_normal_form

    def recording(matrix):
        result = smith(matrix)
        received.append((matrix, result.lows))
        return result

    monkeypatch.setattr(homology, "smith_normal_form", recording)
    return received


def _expected_calls(cc):
    """The `smith_normal_form` calls of the lows route on cc: (degree, kept columns, cleared, lows) each.

    Replays the stored route: above degree 0, the kept columns of maps[k]
    are its stored columns less the +-1 lows of the reduction of maps[k-1].
    A call is expected at degree 0 and where the kept nonzero columns'
    last rows collide, and nowhere else.
    """
    calls, cleared = [], set()
    for k, m in enumerate(cc.maps):
        kept = [column for i, column in enumerate(m.columns) if i not in cleared]
        lows = [column[-1][0] for column in kept if column]
        result = smith_normal_form(from_columns(m.rows, len(kept), kept))
        if k == 0 or len(set(lows)) < len(lows):
            calls.append((k, kept, cleared, result.lows))
        cleared = result.lows
    return calls


def _torsion_and_layered_pipelines():
    spaces = [_layered_with_twin(), PSEUDO_S1_DUP, space_from_dict(rp2_face_poset("cone-doubled"))]
    return [build_pipeline(space) for space in spaces]


def test_smith_table_reduces_each_coboundary_without_the_pivot_rows_of_the_one_below(monkeypatch):
    # Pins clearing without timing it: above degree 0, a coboundary
    # delta_k = maps[k] whose lows collide reaches the low reduction with
    # exactly dim(k) minus the +-1 lows of delta_(k-1) as columns.
    received = _recording_smith(monkeypatch)
    cleared_columns = collisions = 0
    for data in _torsion_and_layered_pipelines():
        for cc in (data.poset_chain, data.ambient_chain, data.relative_chain):
            received.clear()
            assert SmithTable.of(cc).diagonals == dense_diagonals(cc)
            expected = _expected_calls(cc)
            assert len(received) == len(expected)
            for (matrix, lows), (k, kept, cleared, next_lows) in zip(received, expected):
                assert matrix == from_columns(cc.dim(k + 1), len(kept), kept), k
                assert matrix.cols == cc.dim(k) - len(cleared)
                assert lows == next_lows
                cleared_columns += len(cleared)
                collisions += k > 0
    assert cleared_columns > 0 and collisions > 0


def test_smith_table_calls_smith_normal_form_at_degree_0_and_where_lows_collide(monkeypatch):
    # perfbench's tracer times `homology.smith_normal_form` as the Smith
    # reduction: it runs for degree 0, whose vertex columns always collide,
    # and for each map whose kept lows collide, and for no other map.
    received = _recording_smith(monkeypatch)
    calls = maps = 0
    for data in _torsion_and_layered_pipelines():
        chains = (data.poset_chain, data.ambient_chain, data.relative_chain)
        for cc in chains + (data.poset_cochain, cochain(data.ambient_chain), data.relative_cochain):
            received.clear()
            assert SmithTable.of(cc).diagonals == dense_diagonals(cc)
            expected = _expected_calls(cc)
            assert [(m.rows, m.cols) for m, _ in received] == [(cc.dim(k + 1), len(kept)) for k, kept, _, _ in expected]
            calls += len(received)
            maps += len(cc.maps)
    assert calls < maps


def test_smith_table_hands_the_stored_columns_to_the_reduction(monkeypatch):
    # `SmithTable.of` builds no transposed copy: each column it passes to
    # `smith_normal_form` is a stored column itself, and only the cleared
    # ones are left out.
    received = _recording_smith(monkeypatch)
    passed = 0
    for data in _torsion_and_layered_pipelines():
        for cc in (data.poset_cochain, data.ambient_chain, data.relative_cochain):
            received.clear()
            SmithTable.of(cc)
            expected = _expected_calls(cc)
            assert len(received) == len(expected)
            for (matrix, _), (k, kept, _, _) in zip(received, expected):
                assert matrix.rows == cc.maps[k].rows and len(matrix.columns) == len(kept)
                assert all(a is b for a, b in zip(matrix.columns, kept))
                passed += len(kept)
    assert passed > 250  # 282: the degree-0 and colliding maps only


def _stored_route(cc):
    """The same complex with its maps as a tuple, which `SmithTable.of` reduces map by map."""
    return ChainComplex(cc.direction, cc.basis, tuple(cc.maps))


LAYERED_SHAPES = ((3, 3, 1), (4, 3, 3), (5, 3, 2), (4, 4, 2), (5, 4, 2), (6, 4, 4))


def test_smith_table_from_lowest_cofaces_matches_stored_route_and_dense_reduction(pipelines):
    # Every chain, relative and cochain complex of the pipeline: the table
    # read from the faces against the one reduced from the stored maps, and
    # against dense elimination wherever it runs in time (not on the two
    # RP2 + RP2 spaces, 11,820 faces in degree 3, nor on the layered shapes
    # above 4x3x3).  The projective planes' torsion forces the route where
    # lows collide.
    planes = [rp2_face_poset(v) for v in ("plain", "12-doubled", "cone-doubled")]
    sums = [rp2_ordinal_sum(doubled) for doubled in (False, True)]
    small = [*pipelines, *map(build_pipeline, [*FIXTURES.values(), *map(space_from_dict, planes)])]
    small += [build_pipeline(space_from_dict(layered_poset(*shape))) for shape in LAYERED_SHAPES[:2]]
    large = [build_pipeline(space_from_dict(document)) for document in sums]
    large += [build_pipeline(space_from_dict(layered_poset(*shape))) for shape in LAYERED_SHAPES[2:]]
    checked = collisions = 0
    for data, dense in [(data, True) for data in small] + [(data, False) for data in large]:
        chains = (data.poset_chain, data.ambient_chain, data.relative_chain)
        for cc in chains + (data.poset_cochain, cochain(data.ambient_chain), data.relative_cochain):
            table = SmithTable.of(cc)
            assert table == SmithTable.of(_stored_route(cc))
            if dense:
                assert table.diagonals == dense_diagonals(cc)
            collisions += sum(k > 0 for k, _, _, _ in _expected_calls(cc))
            checked += 1
    assert checked == 6 * (500 + len(FIXTURES) + len(planes) + len(sums) + len(LAYERED_SHAPES))
    assert collisions > 0


def test_every_pipeline_map_reduces_by_its_lows_alone(pipelines):
    # Every low of an order complex's boundary map here is +-1, so no map
    # reaches the dense elimination with an entry; torsion does.
    datas = pipelines + [build_pipeline(space) for space in FIXTURES.values()] + [build_pipeline(_layered_with_twin())]
    checked = 0
    for data in datas:
        for cc in (data.poset_chain, data.ambient_chain, data.relative_chain):
            for m in cc.maps:
                diagonal, lows = smith_normal_form(m)
                assert len(lows) == len(diagonal) == rational_rank(m)
                checked += 1
    assert checked > 1000
    diagonal, lows = smith_normal_form(_projective_plane_chains().maps[1])
    assert len(lows) < len(diagonal)
    assert diagonal[-1] == 2


def _rebased(complex_, steps):
    """The complex in new bases: maps[k] becomes U_(k+1)^-1 maps[k] U_k.

    Each U_k is a product of elementary matrices, built with its inverse:
    a step (i, j, q) adds q times column i of U_k to column j and subtracts
    q times row j of the inverse from row i, or negates column i and row i
    when i == j.
    """
    bases, inverses = [], []
    for labels, degree_steps in zip(complex_.basis, steps):
        n = len(labels)
        u, u_inv = identity(n).to_lists(), identity(n).to_lists()
        for i, j, q in degree_steps:
            i, j = i % n, j % n
            if i == j:
                for row in u:
                    row[i] = -row[i]
                u_inv[i] = [-x for x in u_inv[i]]
            else:
                for row in u:
                    row[j] += q * row[i]
                u_inv[i] = [x - q * y for x, y in zip(u_inv[i], u_inv[j])]
        bases.append(IntMatrix.from_rows(u, cols=n))
        inverses.append(IntMatrix.from_rows(u_inv, cols=n))
        assert bases[-1].mul(inverses[-1]) == identity(n)
    maps = tuple(inverses[k + 1].mul(m).mul(bases[k]) for k, m in enumerate(complex_.maps))
    return ChainComplex(complex_.direction, complex_.basis, maps)


basis_steps = st.lists(
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3)), max_size=8),
    min_size=4,
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["projective plane", "kernel and cokernel"]), basis_steps)
def test_smith_table_matches_dense_diagonals_after_unimodular_rebasing(name, steps):
    # Re-basing keeps d∘d = 0 and every Smith diagonal, but turns the +-1
    # lows that clearing relies on into dense leftovers and torsion.
    complex_ = {"projective plane": _projective_plane_chains, "kernel and cokernel": kernel_cokernel_cochains}[name]()
    rebased = _rebased(complex_, steps)
    for first, second in zip(rebased.maps, rebased.maps[1:]):
        assert second.mul(first).is_zero()
    assert SmithTable.of(rebased).diagonals == dense_diagonals(rebased) == dense_diagonals(complex_)


def test_circle_groups():
    cc = chain_complex(order_complex(specialisation_preorder(PSEUDO_S1), relation="strict"))
    assert cc.smith.group(0) == GroupPresentation(1)
    assert cc.smith.group(1) == GroupPresentation(1)
    assert cc.smith.group(6) == GroupPresentation()
    assert all_groups(cc) == (GroupPresentation(1), GroupPresentation(1))


def test_relative_cochain_groups():
    data = build_pipeline(PSEUDO_S1_DUP)
    dual = data.relative_cochain
    assert dual.smith.group(0) == GroupPresentation()
    assert dual.smith.group(1) == GroupPresentation(1)


def test_single_vertex_groups():
    data = build_pipeline(PSEUDO_S1)
    single = order_complex(restricted(data.preorder, ("a",)))
    assert all_groups(chain_complex(single)) == (GroupPresentation(1),)


def test_dup_ambient_groups():
    data = build_pipeline(PSEUDO_S1_DUP)
    assert all_groups(data.ambient_chain) == (GroupPresentation(1), GroupPresentation(2))


def test_torsion_from_presentation_matrix():
    # Z^2 modulo the image of [[2, 0], [0, 3]] has invariant factors 1 and 6.
    labels = ("e1", "e2")
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    cc = ChainComplex("homological", (labels, labels), (m,))
    assert cc.smith.group(0) == GroupPresentation(0, (6,))


def test_rank_two_routes_agree(pipelines):
    for data in pipelines[:100]:
        for cc in (data.poset_chain, data.ambient_chain, data.relative_chain):
            for k in range(cc.top_degree + 1):
                via_fractions = cc.dim(k) - rational_rank(cc.map_between(k - 1)) - rational_rank(cc.map_between(k))
                assert cc.smith.group(k).rank == via_fractions


def test_cohomology_ranks_match_homology_when_torsion_free(pipelines):
    for data in pipelines[:60]:
        for cc in (data.poset_chain, data.ambient_chain, data.relative_chain):
            homology_groups = all_groups(cc)
            if any(g.torsion for g in homology_groups):
                continue
            cohomology_groups = all_groups(cochain(cc))
            assert [g.rank for g in homology_groups] == [g.rank for g in cohomology_groups]


def test_euler_characteristic_both_ways(pipelines):
    for data in pipelines[:60]:
        cc = data.relative_chain
        by_dims = sum((-1) ** k * cc.dim(k) for k in range(cc.top_degree + 1))
        by_ranks = sum((-1) ** k * g.rank for k, g in enumerate(all_groups(cc)))
        assert by_dims == by_ranks


def _projective_plane_chains():
    """A cell structure with H = (Z, Z/2, 0): 2 vertices, 3 edges, 2 faces.

    The boundaries are written out; the complex holds their transposes.
    """
    d1 = IntMatrix.from_rows([[-1, 1, 0], [1, -1, 0]])
    d2 = IntMatrix.from_rows([[1, 1], [1, 1], [1, -1]])
    return ChainComplex("homological", (("v", "w"), ("a", "b", "c"), ("U", "L")), (transpose(d1), transpose(d2)))


def test_chain_and_cochain_smith_diagonals_agree(pipelines):
    # A chain and its cochain share one table route, relying on a matrix and
    # its transpose having one Smith diagonal.  The oracle is the dense
    # elimination of each explicit transpose; Z/2 torsion included.
    projective = _projective_plane_chains()
    assert all_groups(projective) == (GroupPresentation(1), GroupPresentation(0, (2,)), GroupPresentation())
    assert all_groups(cochain(projective)) == (GroupPresentation(1), GroupPresentation(), GroupPresentation(0, (2,)))
    blown_up = [build_pipeline(from_preorder(preorder)) for preorder in blown_up_fixtures()]
    complexes = [projective]
    for data in [build_pipeline(space) for space in FIXTURES.values()] + pipelines[:250] + blown_up:
        complexes += [data.poset_chain, data.ambient_chain, data.relative_chain]
    for cc in complexes:
        transposed = tuple(smith_transforms(transpose(m))[0] for m in cc.maps)
        assert cochain(cc).smith.diagonals == transposed
    assert cochain(projective).smith.diagonals == ((1,), (1, 2))
