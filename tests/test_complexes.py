import itertools
from functools import cmp_to_key

import pytest
from hypothesis import given, settings, strategies as st

from finsplice import (
    ChainComplex,
    FIXTURES,
    INDISC2,
    IntMatrix,
    NotAPoset,
    NotASubcomplex,
    PSEUDO_S1,
    PSEUDO_S1_DUP,
    SIERP,
    SimplicialComplex,
    all_groups,
    build_pipeline,
    chain_complex,
    cochain,
    decompose,
    equivalence_classes,
    from_preorder,
    is_poset,
    order_complex,
    preorder_from_relation,
    relative_chain_complex,
    specialisation_preorder,
    strictify,
)
from finsplice.complexes import COHOMOLOGICAL, HOMOLOGICAL, checked_complex
from finsplice.homology import SmithTable
from oracles import (
    complex_to_dict,
    dense_diagonals,
    euler_characteristic,
    from_columns,
    is_subcomplex,
    naive_product,
    relation_pairs,
    zero_complex,
)
from test_homology import _layered_with_twin
from test_orders import oracle_strictify_pairs
from test_spaces import blown_up_fixtures, relations


def oracle_order_complex(preorder, points=None, relation="leq"):
    """Chains found by testing every combination of points for pairwise comparability."""
    pairs = relation_pairs(preorder) if relation == "leq" else oracle_strictify_pairs(preorder)

    def leq(x, y):
        return (x, y) in pairs

    pts = tuple(sorted(points)) if points is not None else preorder.points
    for x, y in itertools.combinations(pts, 2):
        if leq(x, y) and leq(y, x):
            raise NotAPoset(x, y)

    def ascending(chain):
        return tuple(sorted(chain, key=cmp_to_key(lambda a, b: -1 if leq(a, b) else 1)))

    faces_by_dim = []
    for size in range(1, len(pts) + 1):
        faces = []
        for combo in itertools.combinations(pts, size):
            if all(leq(x, y) or leq(y, x) for x, y in itertools.combinations(combo, 2)):
                faces.append(ascending(combo))
        if not faces:
            break
        faces_by_dim.append(tuple(sorted(faces)))
    return SimplicialComplex(pts, tuple(faces_by_dim))


def outcome(build, *args):
    """The complex, or the NotAPoset witness the construction raised."""
    try:
        return build(*args)
    except NotAPoset as exc:
        return exc.witness


def assert_order_complexes_match_oracle(preorder, point_sets):
    for points in (None, *point_sets):
        for relation in ("leq", "strict"):
            args = (preorder, points, relation)
            assert outcome(order_complex, *args) == outcome(oracle_order_complex, *args), args


@pytest.fixture(scope="module")
def circle_complex():
    return order_complex(specialisation_preorder(PSEUDO_S1), relation="strict")


@pytest.fixture(scope="module")
def dup_pipeline():
    return build_pipeline(PSEUDO_S1_DUP)


def test_circle_order_complex(circle_complex):
    assert circle_complex.face_counts() == (4, 4)
    assert circle_complex.faces(1) == (("c", "a"), ("c", "b"), ("d", "a"), ("d", "b"))
    assert circle_complex.faces(2) == ()


def test_single_point_complex():
    preorder = specialisation_preorder(SIERP)
    sc = order_complex(preorder, points=("a",))
    assert sc.face_counts() == (1,)


def test_dup_full_complex(dup_pipeline):
    sc = dup_pipeline.ambient_complex
    assert sc.face_counts() == (5, 6)
    assert sc.faces(1) == (
        ("c", "a"), ("c", "b"), ("c'", "a"), ("c'", "b"), ("d", "a"), ("d", "b"),
    )


def test_order_complex_rejects_non_posets():
    with pytest.raises(NotAPoset) as info:
        order_complex(specialisation_preorder(INDISC2), relation="leq")
    assert info.value.witness == ("x", "y")


def test_subcomplex_examples(dup_pipeline):
    assert is_subcomplex(dup_pipeline.sub_complex, dup_pipeline.ambient_complex)
    assert is_subcomplex(dup_pipeline.ambient_complex, dup_pipeline.ambient_complex)
    sierp_complex = order_complex(specialisation_preorder(SIERP), relation="strict")
    circle = order_complex(specialisation_preorder(PSEUDO_S1), relation="strict")
    assert not is_subcomplex(circle, sierp_complex)


def test_circle_boundary_matrix(circle_complex):
    cc = chain_complex(circle_complex)
    assert cc.direction == "homological"
    assert cc.basis[0] == (("a",), ("b",), ("c",), ("d",))
    assert cc.basis[1] == (("c", "a"), ("c", "b"), ("d", "a"), ("d", "b"))
    assert cc.maps[0].to_lists() == [
        [1, 0, 1, 0],
        [0, 1, 0, 1],
        [-1, -1, 0, 0],
        [0, 0, -1, -1],
    ]


def test_chain_basis_is_the_faces():
    for space in FIXTURES.values():
        data = build_pipeline(space)
        for sc in (data.poset_complex, data.ambient_complex, data.sub_complex):
            assert chain_complex(sc).basis == sc.faces_by_dim


def test_relative_basis_is_the_faces_meeting_the_complementary_part(pipelines):
    # The subcomplex is the order complex of the representatives, so a face
    # is relative exactly when one of its points is not a representative.
    blown_up = [build_pipeline(from_preorder(preorder)) for preorder in blown_up_fixtures()]
    slices = 0
    for data in [*pipelines, *map(build_pipeline, FIXTURES.values()), *blown_up]:
        # The pipeline reads T0 off the decomposition; the row scan is the oracle.
        assert data.t0 == is_poset(data.preorder)
        complementary = set(data.decomposition.complementary)
        relative = data.relative_chain
        for k, faces in enumerate(data.ambient_complex.faces_by_dim):
            expected = tuple(face for face in faces if complementary.intersection(face))
            assert (relative.basis[k] if k < len(relative.basis) else ()) == expected
            slices += 1
    assert slices > 1000


def test_single_vertex_chain_complex():
    sc = SimplicialComplex(("v",), ((("v",),),))
    cc = chain_complex(sc)
    assert cc.top_degree == 0
    assert cc.maps == ()


def test_edge_boundary():
    sc = SimplicialComplex(("a", "b"), ((("a",), ("b",)), (("a", "b"),)))
    cc = chain_complex(sc)
    assert cc.maps[0].to_lists() == [[-1], [1]]


def test_relative_complex_of_dup(dup_pipeline):
    rel = dup_pipeline.relative_chain
    assert rel.basis == ((("c'",),), (("c'", "a"), ("c'", "b")))
    assert rel.maps[0].to_lists() == [[-1, -1]]


def test_relative_of_self_is_zero(dup_pipeline):
    cc = dup_pipeline.ambient_chain
    assert relative_chain_complex(cc, cc) == zero_complex("homological")


def test_relative_of_self_is_zero_with_several_differentials():
    # A 3-chain has a 2-simplex: trimming the all-empty basis must drop both differentials.
    preorder = preorder_from_relation(("a", "b", "c"), [("a", "b"), ("b", "c")])
    cc = chain_complex(order_complex(preorder, relation="strict"))
    assert len(cc.maps) == 2
    assert relative_chain_complex(cc, cc) == zero_complex(HOMOLOGICAL)


def test_relative_of_empty_is_identity(dup_pipeline):
    cc = dup_pipeline.ambient_chain
    assert relative_chain_complex(cc, zero_complex("homological")) == cc


def test_relative_rejects_non_subcomplex(dup_pipeline):
    other = chain_complex(order_complex(specialisation_preorder(SIERP), relation="strict"))
    with pytest.raises(NotASubcomplex):
        relative_chain_complex(dup_pipeline.ambient_chain, other)


def test_cochain_of_relative(dup_pipeline):
    dual = dup_pipeline.relative_cochain
    assert (dual.direction, dual.basis) == (COHOMOLOGICAL, dup_pipeline.relative_chain.basis)
    assert dual.maps is dup_pipeline.relative_chain.maps
    assert dual.maps[0].to_lists() == [[-1, -1]]


def test_cochain_of_zero_complex():
    assert cochain(zero_complex("homological")) == zero_complex("cohomological")


def test_cochain_of_circle_is_transpose(circle_complex):
    # The dual holds the boundary itself; its coboundary, as written, is the transpose.
    cc = chain_complex(circle_complex)
    dual = cochain(cc)
    assert (dual.direction, dual.basis) == (COHOMOLOGICAL, cc.basis)
    assert dual.maps is cc.maps
    assert complex_to_dict(dual)["maps"][0]["entries"] == cc.maps[0].transpose().to_lists()


def test_compositions_are_zero(pipelines):
    # The naive dense product is the oracle for the +-1 short cut of `mul`.
    datas = pipelines + [build_pipeline(space) for space in FIXTURES.values()] + [build_pipeline(_layered_with_twin())]
    checked = 0
    for data in datas:
        for cc in (data.poset_chain, data.ambient_chain, data.relative_chain):
            for i in range(len(cc.maps) - 1):
                a, b = cc.maps[i], cc.maps[i + 1]
                product = a.mul(b)
                assert product.to_lists() == naive_product(a.to_lists(), b.to_lists(), a.cols, b.cols)
                assert product.is_zero()
                checked += 1
    assert checked > 400


def test_chain_complex_rejects_unit_terms_that_do_not_pair_up():
    # The triangle's boundary bc - ac + ab with the sign of ab flipped: every
    # term of the composite is +1 or -1, it adds rows [a, a, c] and subtracts
    # rows [b, b, c], and it is 2a - 2b.
    first = IntMatrix.from_rows([[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
    second = IntMatrix.from_rows([[-1], [-1], [1]])
    assert first.mul(second).to_lists() == [[2], [-2], [0]]
    with pytest.raises(ValueError, match="do not compose to zero"):
        checked_complex(HOMOLOGICAL, (("a", "b", "c"), ("ab", "ac", "bc"), ("abc",)), (first, second))


def test_chain_complex_rejects_bad_composition():
    m = IntMatrix.from_rows([[1]])
    with pytest.raises(ValueError):
        checked_complex("homological", (("x",), ("y",), ("z",)), (m, m))


@pytest.mark.parametrize("direction", ["homological", "cohomological"])
def test_chain_complex_rejects_composite_nonzero_off_the_corner(direction):
    # Both directions hold the boundaries, 2x2 then 2x1; the composite is
    # zero except at row 1, column 0.
    first = IntMatrix.from_rows([[0, 0], [0, 1]])
    second = IntMatrix.from_rows([[0], [1]])
    basis = (("x", "y"), ("u", "v"), ("w",))
    with pytest.raises(ValueError, match="do not compose to zero"):
        checked_complex(direction, basis, (first, second))
    # Coboundaries written target-by-source are not the layout: their shapes do not meet.
    with pytest.raises(ValueError, match="shape mismatch"):
        checked_complex(direction, basis, (first.transpose(), second.transpose()))


def test_poset_part_is_subcomplex_everywhere(pipelines):
    for data in pipelines:
        assert is_subcomplex(data.sub_complex, data.ambient_complex)


def test_relation_choice_agrees_on_poset_part(corpus):
    spaces, _ = corpus
    for space in spaces[:100]:
        preorder = specialisation_preorder(space)
        reps = decompose(preorder).representatives
        assert order_complex(preorder, reps, relation="leq") == order_complex(
            preorder, reps, relation="strict"
        )


def test_euler_characteristic_matches_betti(pipelines):
    for data in pipelines[:60]:
        for sc, cc in (
            (data.poset_complex, data.poset_chain),
            (data.ambient_complex, data.ambient_chain),
        ):
            betti = sum((-1) ** k * g.rank for k, g in enumerate(all_groups(cc)))
            assert euler_characteristic(sc) == betti


def test_order_complex_matches_combination_enumerator_on_corpus(corpus):
    spaces, _ = corpus
    for space in spaces:
        preorder = specialisation_preorder(space)
        assert_order_complexes_match_oracle(preorder, [decompose(preorder).representatives])


def assert_witness_is_first_pair_of_each_class(preorder):
    for cls in equivalence_classes(preorder):
        if len(cls) > 1:
            with pytest.raises(NotAPoset) as info:
                order_complex(preorder, cls, relation="leq")
            assert info.value.witness == cls[:2]


@settings(max_examples=150, deadline=None)
@given(relations(), st.lists(st.booleans(), min_size=8, max_size=8))
def test_order_complex_matches_combination_enumerator_on_drawn_relations(relation, keep):
    preorder = preorder_from_relation(*relation)
    subset = tuple(p for p, flag in zip(preorder.points, keep) if flag)
    classes = [cls for cls in equivalence_classes(preorder) if len(cls) > 1]
    assert_order_complexes_match_oracle(
        preorder, [decompose(preorder).representatives, subset, *classes]
    )
    assert_witness_is_first_pair_of_each_class(preorder)


def test_order_complex_matches_combination_enumerator_on_blown_up_fixtures():
    for preorder in blown_up_fixtures():
        classes = equivalence_classes(preorder)
        # One point of each class, then again with the least point of the
        # first class added: a twin of its last point, or the same point repeated.
        spread = tuple(cls[-1] for cls in classes)
        assert_order_complexes_match_oracle(
            preorder, [decompose(preorder).representatives, spread, spread + classes[0][:1], *classes]
        )
        assert_witness_is_first_pair_of_each_class(preorder)


# Four levels of three points, each point below every point of the next
# level, with one point on three of the levels doubled: 15 points, faces up
# to dimension 3 under the strict order, as on the benchmark's layered rung.
LAYERED_LEVELS = (("a0", "a1", "a2"), ("b0", "b1", "b2"), ("c0", "c1", "c2"), ("d0", "d1", "d2"))
LAYERED_TWINS = (("a1", "a1'"), ("c0", "c0'"), ("d2", "d2'"))


def layered_preorder():
    points = [p for level in LAYERED_LEVELS for p in level] + [twin for _, twin in LAYERED_TWINS]
    covers = [(x, y) for lower, upper in zip(LAYERED_LEVELS, LAYERED_LEVELS[1:]) for x in lower for y in upper]
    doubled = [pair for p, twin in LAYERED_TWINS for pair in ((p, twin), (twin, p))]
    return preorder_from_relation(points, covers + doubled)


def test_order_complex_matches_combination_enumerator_on_layered_relation():
    preorder = layered_preorder()
    assert len(preorder.points) == 15
    classes = [cls for cls in equivalence_classes(preorder) if len(cls) > 1]
    assert len(classes) == 3
    assert_order_complexes_match_oracle(preorder, [decompose(preorder).representatives, *classes])
    assert_witness_is_first_pair_of_each_class(preorder)


def reference_chain_complex(complex_):
    """Boundary matrices through `from_columns`, which sums and sorts every column.

    The complex is built by `checked_complex`, so the oracle checks d∘d = 0 too.
    """
    basis = tuple(tuple(faces) for faces in complex_.faces_by_dim)
    maps = []
    for k in range(1, len(complex_.faces_by_dim)):
        rows = {face: i for i, face in enumerate(complex_.faces_by_dim[k - 1])}
        columns = [
            [(rows[face[:i] + face[i + 1:]], (-1) ** i) for i in range(len(face))]
            for face in complex_.faces_by_dim[k]
        ]
        maps.append(from_columns(len(rows), len(columns), columns))
    return checked_complex(HOMOLOGICAL, basis, tuple(maps))


def reference_relative_maps(ambient, sub):
    """The relative differentials through `from_columns`, by face lookup."""
    maps = []
    for k, m in enumerate(ambient.maps):
        sub_rows = set(sub.basis[k]) if k < len(sub.basis) else set()
        sub_cols = set(sub.basis[k + 1]) if k + 1 < len(sub.basis) else set()
        kept_rows = [i for i, face in enumerate(ambient.basis[k]) if face not in sub_rows]
        kept_cols = [j for j, face in enumerate(ambient.basis[k + 1]) if face not in sub_cols]
        new_row = {i: n for n, i in enumerate(kept_rows)}
        columns = [[(new_row[i], x) for i, x in m.columns[j] if i in new_row] for j in kept_cols]
        maps.append(from_columns(len(kept_rows), len(kept_cols), columns))
    return maps


def reference_cochain(chain):
    """The dual with explicitly transposed maps, coboundaries target-by-source.

    Each coboundary after the first composes to zero with the one before it,
    checked here rather than by `checked_complex`, which takes the boundary layout.
    """
    maps = tuple(m.transpose() for m in chain.maps)
    for first, second in zip(maps, maps[1:]):
        assert second.mul(first).is_zero()
    return ChainComplex(COHOMOLOGICAL, chain.basis, maps)


def dense_groups(complex_):
    """Groups read from the dense Smith diagonal of each map on its own.

    `SmithTable.of` clears columns by the rule that consecutive boundaries
    compose to zero, which target-by-source coboundaries do not; this reads
    any layout.
    """
    table = SmithTable(complex_.direction, tuple(map(len, complex_.basis)), dense_diagonals(complex_))
    return tuple(table.group(k) for k in range(len(table.dims)))


def assert_cochain_shares_maps(cc):
    """The cochain holds the chain's maps, and its groups are those of the explicit transposes."""
    dual, reference = cochain(cc), reference_cochain(cc)
    assert (dual.direction, dual.basis) == (reference.direction, reference.basis)
    assert dual.maps is cc.maps
    assert all_groups(dual) == dense_groups(reference)


def assert_canonical_construction(ambient_complex, sub_complex):
    """Both builders give the reference matrices, and every cochain matches the transposed reference."""
    ambient, sub = chain_complex(ambient_complex), chain_complex(sub_complex)
    assert ambient == reference_chain_complex(ambient_complex)
    assert sub == reference_chain_complex(sub_complex)
    relative = relative_chain_complex(ambient, sub)
    assert relative.maps == tuple(reference_relative_maps(ambient, sub)[: len(relative.maps)])
    for cc in (ambient, sub, relative):
        assert_cochain_shares_maps(cc)


def test_canonical_construction_matches_reference_on_fixtures():
    for space in FIXTURES.values():
        data = build_pipeline(space)
        assert_canonical_construction(data.ambient_complex, data.sub_complex)
        assert data.poset_cochain.maps is data.poset_chain.maps
        assert data.relative_cochain.maps is data.relative_chain.maps


def test_canonical_construction_matches_reference_on_corpus(pipelines):
    assert len(pipelines) == 500
    for data in pipelines:
        assert_canonical_construction(data.ambient_complex, data.sub_complex)


def test_canonical_construction_matches_reference_on_blown_up_fixtures():
    for preorder in blown_up_fixtures():
        strict = strictify(preorder)
        representatives = decompose(preorder).representatives
        assert_canonical_construction(
            order_complex(strict, relation="leq"), order_complex(strict, representatives, relation="leq")
        )


def test_canonical_construction_matches_reference_on_layered_relation():
    preorder = layered_preorder()
    strict, representatives = strictify(preorder), decompose(preorder).representatives
    ambient = order_complex(strict, relation="leq")
    assert ambient.dim == 3
    assert_canonical_construction(ambient, order_complex(strict, representatives, relation="leq"))
