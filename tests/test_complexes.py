import itertools
from functools import cmp_to_key

import pytest
from hypothesis import given, settings, strategies as st

from finsplice import (
    FIXTURES,
    GroupPresentation,
    INDISC2,
    IntMatrix,
    NotAPoset,
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
from finsplice.io import space_from_dict
from oracles import (
    complex_to_dict,
    counted_sizes,
    dense_group,
    dimension,
    euler_characteristic,
    faces,
    from_columns,
    inflation_relative_homology,
    is_subcomplex,
    layered_poset,
    naive_product,
    ordinal_sum_homology,
    relation_pairs,
    restricted,
    rp2_face_poset,
    rp2_ordinal_sum,
    strict_poset_complex,
    transpose,
    zero_complex,
)
from test_homology import _layered_with_twin
from test_orders import oracle_strictify_pairs
from test_spaces import blown_up_fixtures, relations


def oracle_order_complex(preorder, relation="leq"):
    """Chains found by testing every combination of points for pairwise comparability."""
    pairs = relation_pairs(preorder) if relation == "leq" else oracle_strictify_pairs(preorder)

    def leq(x, y):
        return (x, y) in pairs

    pts = preorder.points
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
    return SimplicialComplex(tuple(faces_by_dim))


def outcome(build, *args):
    """The complex, or the NotAPoset witness the construction raised."""
    try:
        return build(*args)
    except NotAPoset as exc:
        return exc.witness


def assert_order_complexes_match_oracle(preorder, point_sets):
    """Both builders agree on the whole preorder and on its restriction to each set of points."""
    for points in (preorder.points, *point_sets):
        for relation in ("leq", "strict"):
            args = (restricted(preorder, points), relation)
            assert outcome(order_complex, *args) == outcome(oracle_order_complex, *args), (points, relation)


@pytest.fixture(scope="module")
def circle_complex():
    return order_complex(specialisation_preorder(PSEUDO_S1), relation="strict")


@pytest.fixture(scope="module")
def dup_pipeline():
    return build_pipeline(PSEUDO_S1_DUP)


def test_circle_order_complex(circle_complex):
    assert circle_complex.face_counts() == (4, 4)
    assert faces(circle_complex, 1) == (("c", "a"), ("c", "b"), ("d", "a"), ("d", "b"))
    assert faces(circle_complex, 2) == ()


def test_single_point_complex():
    preorder = specialisation_preorder(SIERP)
    sc = order_complex(restricted(preorder, ("a",)))
    assert sc.face_counts() == (1,)


def test_dup_full_complex(dup_pipeline):
    sc = dup_pipeline.ambient_complex
    assert sc.face_counts() == (5, 6)
    assert faces(sc, 1) == (
        ("c", "a"), ("c", "b"), ("c'", "a"), ("c'", "b"), ("d", "a"), ("d", "b"),
    )


def test_order_complex_rejects_non_posets():
    with pytest.raises(NotAPoset) as info:
        order_complex(specialisation_preorder(INDISC2), relation="leq")
    assert info.value.witness == ("x", "y")


def test_subcomplex_examples(dup_pipeline):
    assert is_subcomplex(strict_poset_complex(dup_pipeline), dup_pipeline.ambient_complex)
    assert is_subcomplex(dup_pipeline.ambient_complex, dup_pipeline.ambient_complex)
    sierp_complex = order_complex(specialisation_preorder(SIERP), relation="strict")
    circle = order_complex(specialisation_preorder(PSEUDO_S1), relation="strict")
    assert not is_subcomplex(circle, sierp_complex)


def test_circle_boundary_matrix(circle_complex):
    cc = chain_complex(circle_complex)
    assert cc.direction == "homological"
    assert cc.basis[0] == (("a",), ("b",), ("c",), ("d",))
    assert cc.basis[1] == (("c", "a"), ("c", "b"), ("d", "a"), ("d", "b"))
    assert transpose(cc.maps[0]).to_lists() == [
        [1, 0, 1, 0],
        [0, 1, 0, 1],
        [-1, -1, 0, 0],
        [0, 0, -1, -1],
    ]


def test_chain_basis_is_the_faces():
    for space in FIXTURES.values():
        data = build_pipeline(space)
        for sc in (data.poset_complex, data.ambient_complex, strict_poset_complex(data)):
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


def test_complex_sizes_are_the_built_dimensions(pipelines):
    # The sizes are face counts, the relative ones the ambient less the poset
    # counts with trailing zeros dropped; the built chains are the oracle.
    rp2 = [space_from_dict(rp2_face_poset(variant)) for variant in ("plain", "12-doubled", "cone-doubled")]
    blown_up = [from_preorder(preorder) for preorder in blown_up_fixtures()]
    trimmed = empty = 0
    for data in [*pipelines, *map(build_pipeline, [*FIXTURES.values(), *blown_up, *rp2])]:
        sizes = data.complex_sizes
        for name in ("poset", "ambient", "relative"):
            chain = getattr(data, f"{name}_chain")
            assert sizes[name] == [chain.dim(k) for k in range(chain.top_degree + 1)]
        trimmed += 0 < len(sizes["relative"]) < len(sizes["ambient"])
        empty += not sizes["relative"]
    # Three corpus spaces lose a trailing relative degree; every T0 space has no relative face.
    assert (trimmed, empty) == (3, 316)


def large_spaces(*shapes):
    """The RP2 variants, both RP2 ⊕ RP2 spaces and the layered spaces of the given shapes."""
    documents = [rp2_face_poset(variant) for variant in ("plain", "12-doubled", "cone-doubled")]
    documents += [rp2_ordinal_sum(doubled) for doubled in (False, True)]
    documents += [layered_poset(*shape) for shape in shapes]
    return [space_from_dict(document) for document in documents]


def test_complex_sizes_equal_the_chain_counting_recurrence(pipelines):
    spaces = [*FIXTURES.values(), *large_spaces((5, 2, 1), (4, 3, 3), (6, 4, 4), (7, 4, 4))]
    for data in [*pipelines, *map(build_pipeline, spaces)]:
        assert counted_sizes(data.preorder, data.decomposition.representatives) == data.complex_sizes
    # 10x5x5 is too large to list: 6^10 - 1 chains of the poset part and
    # 7^5 * 6^5 - 1 of the ambient order, five of whose levels hold a twin.
    preorder = space_from_dict(layered_poset(10, 5, 5))
    sizes = counted_sizes(preorder, decompose(preorder).representatives)
    assert {name: sum(counts) for name, counts in sizes.items()} == {
        "poset": 6**10 - 1,
        "ambient": 7**5 * 6**5 - 1,
        "relative": 70_225_056,
    }


def test_relative_groups_equal_the_inflation_route(pipelines):
    # The ambient order inflates the poset part, so its relative groups sum
    # the reduced groups of links, each a join of ordinal summands of
    # intervals; the poset part's own groups join its summands the same way.
    zero = GroupPresentation()
    spaces = [*FIXTURES.values(), *large_spaces((5, 2, 1), (4, 3, 3), (6, 4, 4))]
    for data in [*pipelines, *map(build_pipeline, spaces)]:
        representatives = data.decomposition.representatives
        listed = list(all_groups(data.relative_chain))
        while listed and listed[-1] == zero:
            listed.pop()
        assert inflation_relative_homology(data.preorder, representatives) == tuple(listed)
        reduced = {k: g._replace(rank=g.rank - (k == 0)) for k, g in enumerate(all_groups(data.poset_chain))}
        assert ordinal_sum_homology(data.preorder, representatives) == {k: g for k, g in reduced.items() if g != zero}
    # 10x5x5 cannot be listed (70,225,056 relative faces).  Its poset part
    # joins ten 5-point antichains, each with reduced H_0 = Z^4, and each
    # chain F of the j twinned points of five levels has a link joining the
    # other 10 - j levels: sum over j of C(5, j) 4^(10 - j) = 4^5 (5^5 - 4^5).
    preorder = space_from_dict(layered_poset(10, 5, 5))
    representatives = decompose(preorder).representatives
    relative = (zero,) * 9 + (GroupPresentation(4**5 * (5**5 - 4**5)),)
    assert inflation_relative_homology(preorder, representatives) == relative
    assert ordinal_sum_homology(preorder, representatives) == {9: GroupPresentation(4**10)}


def test_single_vertex_chain_complex():
    sc = SimplicialComplex(((("v",),),))
    cc = chain_complex(sc)
    assert cc.top_degree == 0
    assert cc.maps == ()


def test_edge_boundary():
    sc = SimplicialComplex(((("a",), ("b",)), (("a", "b"),)))
    cc = chain_complex(sc)
    assert transpose(cc.maps[0]).to_lists() == [[-1], [1]]


def test_relative_complex_of_dup(dup_pipeline):
    rel = dup_pipeline.relative_chain
    assert rel.basis == ((("c'",),), (("c'", "a"), ("c'", "b")))
    assert transpose(rel.maps[0]).to_lists() == [[-1, -1]]


def test_relative_of_self_is_zero(dup_pipeline):
    # Relative to all its vertices, every face lies in the subcomplex.
    ambient = dup_pipeline.ambient_complex
    assert relative_chain_complex(ambient, dup_pipeline.preorder.points) == zero_complex(HOMOLOGICAL)


def test_relative_of_self_is_zero_with_several_differentials():
    # A 3-chain has a 2-simplex: trimming the all-empty basis must drop both differentials.
    preorder = preorder_from_relation(("a", "b", "c"), [("a", "b"), ("b", "c")])
    sc = order_complex(preorder, relation="strict")
    assert len(chain_complex(sc).maps) == 2
    assert relative_chain_complex(sc, preorder.points) == zero_complex(HOMOLOGICAL)


def test_relative_of_empty_is_identity(dup_pipeline):
    # Relative to no points, every face is kept.
    ambient = dup_pipeline.ambient_complex
    assert relative_chain_complex(ambient, ()) == chain_complex(ambient)


def test_relative_chain_equals_the_route_through_a_second_subcomplex_chain(pipelines):
    # The reference filter deletes the strict subcomplex's chain from the
    # ambient chain; the pipeline builds the relative faces on their own.
    spaces = list(FIXTURES.values()) + [_layered_with_twin()]
    spaces += [space_from_dict(rp2_face_poset(variant)) for variant in ("plain", "12-doubled", "cone-doubled")]
    datas = pipelines[:100] + [build_pipeline(space) for space in spaces]
    for data in datas:
        ambient, sub = chain_complex(data.ambient_complex), chain_complex(strict_poset_complex(data))
        new = data.relative_chain
        assert new.maps == tuple(reference_relative_maps(ambient, sub)[: len(new.maps)])
    # The cone over the doubled point puts the projective plane's Z/2 in the relative part.
    assert any(group.torsion == (2,) for group in all_groups(datas[-1].relative_chain))


@pytest.mark.parametrize("doubled", [True, False])
def test_rp2_ordinal_sum_carries_torsion_through_the_relative_route(doubled):
    # Two projective planes, one below the other, join to RP2 * RP2, with
    # H^4 = H^5 = Z/2.  The twin of a lower vertex has the link S^1 * RP2,
    # which puts a Z/2 at relative H^5; without it the relative complex is zero.
    data = build_pipeline(space_from_dict(rp2_ordinal_sum(doubled)))
    points, faces = (63, 36945) if doubled else (62, 33123)
    assert (len(data.preorder.points), sum(data.ambient_complex.face_counts())) == (points, faces)
    z, z2, zero = GroupPresentation(1), GroupPresentation(0, (2,)), GroupPresentation(0)
    assert all_groups(data.poset_cochain) == (z, zero, zero, zero, z2, z2)
    assert all_groups(data.relative_cochain) == ((zero,) * 5 + (z2,) if doubled else ())
    ambient = chain_complex(data.ambient_complex)
    relative = data.relative_chain
    assert relative.maps == tuple(reference_relative_maps(ambient, data.poset_chain)[: len(relative.maps)])


def test_cochain_of_relative(dup_pipeline):
    dual = dup_pipeline.relative_cochain
    assert (dual.direction, dual.basis) == (COHOMOLOGICAL, dup_pipeline.relative_chain.basis)
    assert dual.maps is dup_pipeline.relative_chain.maps
    assert transpose(dual.maps[0]).to_lists() == [[-1, -1]]
    assert complex_to_dict(dual)["maps"][0]["entries"] == [[-1], [-1]]  # the coboundary of c'


def test_cochain_of_zero_complex():
    assert cochain(zero_complex("homological")) == zero_complex("cohomological")


def test_cochain_of_circle_is_transpose(circle_complex):
    # Both hold the coboundary itself; the chain's boundary, as written, is the transpose.
    cc = chain_complex(circle_complex)
    dual = cochain(cc)
    assert (dual.direction, dual.basis) == (COHOMOLOGICAL, cc.basis)
    assert dual.maps is cc.maps
    assert complex_to_dict(dual)["maps"][0]["entries"] == cc.maps[0].to_lists()
    assert complex_to_dict(cc)["maps"][0]["entries"] == transpose(cc.maps[0]).to_lists()


def test_compositions_are_zero(pipelines):
    # No run multiplies the maps its builders write; this is where d∘d = 0 is
    # checked, against the naive dense product.
    datas = pipelines + [build_pipeline(space) for space in FIXTURES.values()] + [build_pipeline(_layered_with_twin())]
    checked = 0
    for data in datas:
        for cc in (data.poset_chain, data.ambient_chain, data.relative_chain):
            for i in range(len(cc.maps) - 1):
                a, b = cc.maps[i + 1], cc.maps[i]
                product = a.mul(b)
                assert product.to_lists() == naive_product(a.to_lists(), b.to_lists(), a.cols, b.cols)
                assert product.is_zero()
                checked += 1
    assert checked > 400
    # Beyond the dense range the oracle is the exact product, each column summed by `from_columns`.
    large = 0
    for data in map(build_pipeline, large_spaces((5, 2, 1), (4, 3, 3), (6, 4, 4))):
        for cc in (data.poset_chain, data.ambient_chain, data.relative_chain):
            for a, b in zip(cc.maps[1:], cc.maps):
                terms = ([(i, x * y) for k, y in column for i, x in a.columns[k]] for column in b.columns)
                product = a.mul(b)
                assert product == from_columns(a.rows, b.cols, terms)
                assert product.is_zero()
                large += 1
    assert large == 58


def test_chain_complex_rejects_unit_terms_that_do_not_pair_up():
    # The triangle's boundary bc - ac + ab with the sign of ab flipped: every
    # term of the composite is +1 or -1, and it is 2a - 2b, the vertex c
    # cancelling.  The complex holds the transposes, whose composite at
    # vertex a adds the face twice, at b subtracts it twice, and at c adds
    # and subtracts it once.
    first = IntMatrix.from_rows([[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
    second = IntMatrix.from_rows([[-1], [-1], [1]])
    assert first.mul(second).to_lists() == [[2], [-2], [0]]
    assert transpose(second).mul(transpose(first)).to_lists() == [[2, -2, 0]]
    with pytest.raises(ValueError, match="do not compose to zero"):
        checked_complex(
            HOMOLOGICAL, (("a", "b", "c"), ("ab", "ac", "bc"), ("abc",)), (transpose(first), transpose(second))
        )


def test_chain_complex_rejects_bad_composition():
    m = IntMatrix.from_rows([[1]])
    with pytest.raises(ValueError):
        checked_complex("homological", (("x",), ("y",), ("z",)), (m, m))


@pytest.mark.parametrize("direction", ["homological", "cohomological"])
def test_chain_complex_rejects_composite_nonzero_off_the_corner(direction):
    # The boundaries, 2x2 then 2x1, compose to zero except at row 1, column
    # 0; both directions hold their transposes, the coboundaries.
    first = IntMatrix.from_rows([[0, 0], [0, 1]])
    second = IntMatrix.from_rows([[0], [1]])
    basis = (("x", "y"), ("u", "v"), ("w",))
    with pytest.raises(ValueError, match="do not compose to zero"):
        checked_complex(direction, basis, (transpose(first), transpose(second)))
    # Boundaries written target-by-source are not the layout: their shapes do not meet.
    with pytest.raises(ValueError, match="shape mismatch"):
        checked_complex(direction, basis, (first, second))


def test_poset_part_is_subcomplex_everywhere(pipelines):
    for data in pipelines:
        assert is_subcomplex(strict_poset_complex(data), data.ambient_complex)


def test_relation_choice_agrees_on_poset_part(corpus):
    spaces, _ = corpus
    for space in spaces[:100]:
        preorder = specialisation_preorder(space)
        poset_part = restricted(preorder, decompose(preorder).representatives)
        assert order_complex(poset_part, relation="leq") == order_complex(poset_part, relation="strict")


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
                order_complex(restricted(preorder, cls), relation="leq")
            assert info.value.witness == cls[:2]


@settings(max_examples=150, deadline=None)
@given(relations(), st.lists(st.booleans(), min_size=8, max_size=8))
def test_order_complex_matches_combination_enumerator_on_drawn_relations(relation, keep):
    preorder = preorder_from_relation(*relation)
    subset = tuple(p for p, flag in zip(preorder.points, keep) if flag)
    classes = [cls for cls in equivalence_classes(preorder) if len(cls) > 1]
    subsets = [subset] if subset else []  # a preorder has at least one point
    assert_order_complexes_match_oracle(
        preorder, [decompose(preorder).representatives, *subsets, *classes]
    )
    assert_witness_is_first_pair_of_each_class(preorder)


def test_order_complex_matches_combination_enumerator_on_blown_up_fixtures():
    for preorder in blown_up_fixtures():
        classes = equivalence_classes(preorder)
        # One point of each class, then again with the least point of the
        # first class added when that is a twin of its last point.
        spread = tuple(cls[-1] for cls in classes)
        twinned = [spread + cls[:1] for cls in classes[:1] if len(cls) > 1]
        assert_order_complexes_match_oracle(
            preorder, [decompose(preorder).representatives, spread, *twinned, *classes]
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


def reference_boundaries(complex_):
    """Boundary matrices, one column per face, through `from_columns`, which sums and sorts every column.

    Each boundary composes to zero with the next, checked here.
    """
    maps = []
    for k in range(1, len(complex_.faces_by_dim)):
        rows = {face: i for i, face in enumerate(complex_.faces_by_dim[k - 1])}
        columns = [
            [(rows[face[:i] + face[i + 1:]], (-1) ** i) for i in range(len(face))]
            for face in complex_.faces_by_dim[k]
        ]
        maps.append(from_columns(len(rows), len(columns), columns))
    for first, second in zip(maps, maps[1:]):
        assert first.mul(second).is_zero()
    return tuple(maps)


def reference_chain_complex(complex_):
    """The transposed reference boundaries, built by `checked_complex`, so it checks d∘d = 0 too."""
    basis = tuple(tuple(faces) for faces in complex_.faces_by_dim)
    return checked_complex(HOMOLOGICAL, basis, tuple(map(transpose, reference_boundaries(complex_))))


def reference_relative_maps(ambient, sub):
    """The relative coboundaries: each boundary restricted through `from_columns` by face lookup, transposed."""
    maps = []
    for k, m in enumerate(map(transpose, ambient.maps)):
        sub_rows = set(sub.basis[k]) if k < len(sub.basis) else set()
        sub_cols = set(sub.basis[k + 1]) if k + 1 < len(sub.basis) else set()
        kept_rows = [i for i, face in enumerate(ambient.basis[k]) if face not in sub_rows]
        kept_cols = [j for j, face in enumerate(ambient.basis[k + 1]) if face not in sub_cols]
        new_row = {i: n for n, i in enumerate(kept_rows)}
        columns = [[(new_row[i], x) for i, x in m.columns[j] if i in new_row] for j in kept_cols]
        maps.append(transpose(from_columns(len(kept_rows), len(kept_cols), columns)))
    return maps


def reference_cochain(chain):
    """The dual Hom(C, Z) built explicitly: each coboundary the transpose of the boundary one degree up.

    The boundaries are the transposes of the chain's stored maps; each
    composes to zero with the next, checked here, and `checked_complex`
    checks the coboundaries.
    """
    boundaries = tuple(map(transpose, chain.maps))
    for first, second in zip(boundaries, boundaries[1:]):
        assert first.mul(second).is_zero()
    return checked_complex(COHOMOLOGICAL, chain.basis, tuple(map(transpose, boundaries)))


def dense_groups(complex_):
    """Groups at every degree by `dense_group`, from sympy's invariant factors of each map on its own."""
    return tuple(dense_group(complex_, k) for k in range(len(complex_.basis)))


def assert_cochain_shares_maps(cc):
    """The cochain holds the chain's maps, which are the explicit dual's, and its groups are the dense ones."""
    dual, reference = cochain(cc), reference_cochain(cc)
    assert (dual.direction, dual.basis) == (reference.direction, reference.basis)
    assert dual.maps is cc.maps
    assert dual.maps == reference.maps
    assert all_groups(dual) == dense_groups(reference)


def assert_canonical_construction(ambient_complex, sub_complex, points):
    """Both builders give the reference matrices, and every cochain matches the transposed reference.

    The subcomplex is the full one on `points`, the representatives it was built from.
    """
    ambient, sub = chain_complex(ambient_complex), chain_complex(sub_complex)
    assert ambient == reference_chain_complex(ambient_complex)
    assert sub == reference_chain_complex(sub_complex)
    relative = relative_chain_complex(ambient_complex, points)
    assert relative.maps == tuple(reference_relative_maps(ambient, sub)[: len(relative.maps)])
    for cc in (ambient, sub, relative):
        assert_cochain_shares_maps(cc)


def test_canonical_construction_matches_reference_on_fixtures():
    for space in FIXTURES.values():
        data = build_pipeline(space)
        assert_canonical_construction(
            data.ambient_complex, strict_poset_complex(data), data.decomposition.representatives
        )
        assert data.poset_cochain.maps is data.poset_chain.maps
        assert data.relative_cochain.maps is data.relative_chain.maps


def test_canonical_construction_matches_reference_on_corpus(pipelines):
    assert len(pipelines) == 500
    for data in pipelines:
        assert_canonical_construction(
            data.ambient_complex, strict_poset_complex(data), data.decomposition.representatives
        )


def test_canonical_construction_matches_reference_on_blown_up_fixtures():
    for preorder in blown_up_fixtures():
        strict = strictify(preorder)
        representatives = decompose(preorder).representatives
        ambient = order_complex(strict, relation="leq")
        assert_canonical_construction(ambient, order_complex(restricted(strict, representatives)), representatives)


def test_canonical_construction_matches_reference_on_layered_relation():
    preorder = layered_preorder()
    strict, representatives = strictify(preorder), decompose(preorder).representatives
    ambient = order_complex(strict, relation="leq")
    assert dimension(ambient) == 3
    assert_canonical_construction(ambient, order_complex(restricted(strict, representatives)), representatives)


def test_chain_complex_columns_are_canonical_coboundaries(pipelines):
    # Each face appends itself to its facets' columns in sorted order, so
    # every stored column is the coboundary of a face, already canonical:
    # rows strictly ascending and no zero.
    spaces = list(FIXTURES.values()) + [_layered_with_twin()]
    columns = 0
    for data in pipelines[:100] + [build_pipeline(space) for space in spaces]:
        for sc in (data.poset_complex, data.ambient_complex):
            maps = chain_complex(sc).maps
            assert maps == tuple(map(transpose, reference_boundaries(sc)))
            for column in (column for m in maps for column in m.columns):
                rows = [i for i, _ in column]
                assert all(i < j for i, j in zip(rows, rows[1:]))
                assert all(x for _, x in column)
                columns += 1
    assert columns > 1000
