import itertools
import math

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
from oracles import dense_diagonals, from_columns, identity, smith_transforms
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
    basis = (tuple((f"r{i}",) for i in range(m.rows)), tuple((f"c{j}",) for j in range(m.cols)))
    return SmithTable.of(ChainComplex(HOMOLOGICAL, basis, (m,))).diagonals[0]


@settings(max_examples=150, deadline=None)
@given(unit_biased_matrices)
def test_snf_without_transforms_matches_oracles(m):
    diagonal = one_map_diagonal(m)
    assert diagonal == minors_invariant_factors(m)
    assert diagonal == smith_normal_form(m).diagonal == smith_transforms(m)[0]


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


def test_smith_table_reduces_each_map_without_the_pivot_rows_of_the_map_above(monkeypatch):
    # Pins clearing without timing it: below the top, maps[k] reaches the low
    # reduction with exactly dim(k+1) minus the +-1 lows of maps[k+1] columns.
    received = _recording_smith(monkeypatch)
    data = build_pipeline(_layered_with_twin())
    cleared_columns = 0
    for cc in (data.poset_chain, data.ambient_chain, data.relative_chain):
        received.clear()
        assert SmithTable.of(cc).diagonals == dense_diagonals(cc)
        inputs = [m for m, _ in received]
        lows = received[inputs.index(cc.maps[-1])][1]
        for k in reversed(range(len(cc.maps) - 1)):
            kept = [column for j, column in enumerate(cc.maps[k].columns) if j not in lows]
            expected = from_columns(cc.dim(k), len(kept), kept)
            assert expected.cols == cc.dim(k + 1) - len(lows)
            assert expected in inputs, k
            cleared_columns += len(lows)
            lows = received[inputs.index(expected)][1]
    assert cleared_columns > 0


def test_smith_table_calls_smith_normal_form_once_per_map(monkeypatch):
    # perfbench's tracer times `homology.smith_normal_form` as the Smith
    # reduction, so all of it has to run inside that one call per map.
    received = _recording_smith(monkeypatch)
    for space in (_layered_with_twin(), PSEUDO_S1_DUP):
        data = build_pipeline(space)
        chains = (data.poset_chain, data.ambient_chain, data.relative_chain)
        for cc in chains + (data.poset_cochain, cochain(data.ambient_chain), data.relative_cochain):
            received.clear()
            assert SmithTable.of(cc).diagonals == dense_diagonals(cc)
            assert len(received) == len(cc.maps)
            assert [m.rows for m, _ in received] == [full.rows for full in reversed(cc.maps)]


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
    """The complex in new bases: maps[k] becomes U_k^-1 maps[k] U_(k+1).

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
    maps = tuple(inverses[k].mul(m).mul(bases[k + 1]) for k, m in enumerate(complex_.maps))
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
        assert first.mul(second).is_zero()
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
    single = order_complex(data.preorder, points=("a",))
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
    """A cell structure with H = (Z, Z/2, 0): 2 vertices, 3 edges, 2 faces."""
    d1 = IntMatrix.from_rows([[-1, 1, 0], [1, -1, 0]])
    d2 = IntMatrix.from_rows([[1, 1], [1, 1], [1, -1]])
    return ChainComplex("homological", (("v", "w"), ("a", "b", "c"), ("U", "L")), (d1, d2))


def test_chain_and_cochain_smith_diagonals_agree(pipelines):
    # A cochain reduces its chain's boundary matrices, relying on a matrix and
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
        transposed = tuple(smith_transforms(m.transpose())[0] for m in cc.maps)
        assert cochain(cc).smith.diagonals == transposed
    assert cochain(projective).smith.diagonals == ((1,), (1, 2))
