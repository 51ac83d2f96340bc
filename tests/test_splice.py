import pytest

from finsplice import (
    FIXTURES,
    ChainComplex,
    GroupPresentation,
    IntMatrix,
    InvalidLength,
    NoSources,
    PSEUDO_S1_DUP,
    SIERP,
    all_groups,
    build_pipeline,
    compare,
    splice,
    splice_negative,
    spliced_cohomology,
    theorem_claimed_groups,
)
from finsplice.io import space_from_dict
from oracles import LengthTooSmall, all_match, limit_check, rp2_face_poset, splice_blocks, zero_complex

Z = GroupPresentation(1)
TRIVIAL = GroupPresentation()


@pytest.fixture(scope="module")
def dup_sources():
    return build_pipeline(PSEUDO_S1_DUP).sources


@pytest.fixture(scope="module")
def sierp_sources():
    return build_pipeline(SIERP).sources


def test_dup_layout(dup_sources):
    spliced = splice(dup_sources, 3)
    assert [spliced.assembled.dim(k) for k in range(9)] == [4, 4, 0, 1, 2, 0, 0, 0, 0]
    assert splice_blocks(spliced) == [
        (0, 0, 0),
        (1, 0, 3),
    ]


def test_single_source_splice_is_identity(dup_sources):
    source = dup_sources[0]
    for length in (1, 2, 3):
        assert splice((source,), length).assembled == source


def test_splice_of_zero_complexes_is_zero():
    zero = zero_complex()
    assert splice((zero, zero), 3).assembled == zero


def test_splice_argument_errors(dup_sources):
    with pytest.raises(NoSources):
        splice((), 3)
    with pytest.raises(InvalidLength):
        splice(dup_sources, 0)
    with pytest.raises(InvalidLength):
        splice(dup_sources, -2)


def test_negative_layout(dup_sources):
    spliced = splice_negative(dup_sources, -3)
    assert spliced.length == -3
    assert [spliced.assembled.dim(k) for k in range(6)] == [1, 2, 0, 4, 4, 0]


def test_negative_with_symmetric_sources(dup_sources):
    source = dup_sources[0]
    positive = splice((source, source), 3)
    negative = splice_negative((source, source), -3)
    assert negative.assembled == positive.assembled


def test_negative_rejects_nonnegative_length(dup_sources):
    with pytest.raises(InvalidLength):
        splice_negative(dup_sources, 0)
    with pytest.raises(InvalidLength):
        splice_negative(dup_sources, 3)


def test_dup_spliced_cohomology(dup_sources):
    spliced = splice(dup_sources, 3)
    assert spliced_cohomology(spliced, 5) == (Z, Z, TRIVIAL, TRIVIAL, Z, TRIVIAL)


def test_poset_input_spliced_cohomology(sierp_sources):
    spliced = splice(sierp_sources, 3)
    assert spliced_cohomology(spliced, 5) == (Z,) + (TRIVIAL,) * 5


def test_zero_sources_spliced_cohomology():
    spliced = splice((zero_complex(), zero_complex()), 3)
    assert spliced_cohomology(spliced, 4) == (TRIVIAL,) * 5


def test_dup_claimed_groups(dup_sources):
    claimed = theorem_claimed_groups(*dup_sources, 5)
    assert claimed == (Z, TRIVIAL, TRIVIAL, TRIVIAL, TRIVIAL, TRIVIAL)


def test_poset_input_claimed_groups(sierp_sources):
    claimed = theorem_claimed_groups(*sierp_sources, 5)
    assert claimed[0] == sierp_sources[0].smith.group(0)
    assert claimed[2] == TRIVIAL
    assert claimed[3] == TRIVIAL
    assert claimed[4] == TRIVIAL


def test_claimed_groups_beyond_top_degree_are_trivial(dup_sources):
    claimed = theorem_claimed_groups(*dup_sources, 17)
    assert claimed[11] == TRIVIAL  # kernel of a zero map out of a zero group
    assert claimed[17] == TRIVIAL


def transcribed_claim(complex1, complex2, max_degree):
    """The claimed groups at degrees 0..max_degree, as the six reads per p are stated."""
    table1, table2 = complex1.smith, complex2.smith
    claimed = []
    for p in range(max_degree // 6 + 1):
        claimed += [
            table1.group(3 * p),
            table1.group(3 * p + 2, above=False),
            table2.group(3 * p, below=False),
            table2.group(3 * p),
            table2.group(3 * p + 2, above=False),
            table1.group(3 * p + 3, below=False),
        ]
    return tuple(claimed[: max_degree + 1])


def test_claim_table_transcribes_the_six_stated_reads(pipelines):
    rp2 = [space_from_dict(rp2_face_poset(variant)) for variant in ("plain", "12-doubled", "cone-doubled")]
    for data in [build_pipeline(space) for space in [*FIXTURES.values(), *rp2]] + pipelines[:100]:
        for max_degree in range(24):
            claimed = theorem_claimed_groups(*data.sources, max_degree)
            assert claimed == transcribed_claim(*data.sources, max_degree), (data.preorder, max_degree)


def kernel_cokernel_cochains():
    """Ranks 1, 1, 2, 1 with coboundaries d1 = (2, 0) and d2 = (0 1), stored as they are."""
    maps = (IntMatrix.zeros(1, 1), IntMatrix.from_rows([[2], [0]]), IntMatrix.from_rows([[0, 1]]))
    return ChainComplex("cohomological", (("a",), ("b",), ("c", "d"), ("e",)), maps)


def test_claimed_groups_are_kernels_and_cokernels_where_stated():
    # At degree 2 the group is Z/2 but the cokernel Z + Z/2; at degree 3 the
    # group is 0 but the kernel Z.
    cc = kernel_cokernel_cochains()
    claimed = theorem_claimed_groups(cc, cc, 11)
    z_plus_z2 = GroupPresentation(1, (2,))
    assert claimed == (
        Z, z_plus_z2, Z, Z, z_plus_z2, Z, TRIVIAL, TRIVIAL, Z, TRIVIAL, TRIVIAL, TRIVIAL,
    )


def test_dup_comparison(dup_sources):
    spliced = splice(dup_sources, 3)
    direct = spliced_cohomology(spliced, 5)
    claimed = theorem_claimed_groups(*dup_sources, 5)
    verdicts = compare(direct, claimed)
    assert verdicts == ("match", "mismatch", "match", "match", "mismatch", "match")
    assert (direct[1], claimed[1]) == (Z, TRIVIAL)  # both sides of the first mismatch


def test_poset_input_comparison_matches(sierp_sources):
    direct = spliced_cohomology(splice(sierp_sources, 3), 5)
    assert all_match(compare(direct, theorem_claimed_groups(*sierp_sources, 5)))


def test_empty_degree_range(dup_sources):
    assert compare((), ()) == ()


def test_compare_rejects_unaligned_groups(dup_sources):
    direct = spliced_cohomology(splice(dup_sources, 3), 7)
    with pytest.raises(ValueError, match="8 direct groups against 6 claimed"):
        compare(direct, theorem_claimed_groups(*dup_sources, 5))


def test_limit_check_examples(dup_sources, sierp_sources):
    assert limit_check(dup_sources, 2)
    assert limit_check(sierp_sources, 2)
    assert limit_check(sierp_sources, 5)
    with pytest.raises(LengthTooSmall):
        limit_check(dup_sources, 1)


def test_assembled_complexes_compose_to_zero(pipelines):
    for data in pipelines[:50]:
        for length in (1, 2, 3, 4):
            assembled = splice(data.sources, length).assembled
            for k in range(13):
                assert assembled.map_between(k + 1).mul(assembled.map_between(k)).is_zero()


def test_degree_layout_bijection(pipelines):
    for data in pipelines[:50]:
        for length in (1, 2, 3):
            spliced = splice(data.sources, length)
            seen = {}
            for i, source_start, spliced_start in splice_blocks(spliced):
                for offset in range(length):
                    degree = source_start + offset
                    if degree <= spliced.sources[i].top_degree:
                        key = (i, degree)
                        assert key not in seen
                        seen[key] = spliced_start + offset
            for i, source in enumerate(spliced.sources):
                positions = [seen[(i, d)] for d in range(source.top_degree + 1)]
                assert positions == sorted(positions)
                assert len(set(positions)) == len(positions)
            assembled = spliced.assembled
            for (i, degree), position in seen.items():
                assert assembled.dim(position) == spliced.sources[i].dim(degree)


def test_interior_degrees_agree_with_source(pipelines):
    for data in pipelines[:30]:
        length = 3
        spliced = splice(data.sources, length)
        table = spliced.assembled.smith
        for i, source_start, spliced_start in splice_blocks(spliced):
            source = spliced.sources[i]
            for offset in range(1, length - 1):
                spliced_degree = spliced_start + offset
                source_degree = source_start + offset
                assert table.group(spliced_degree) == source.smith.group(
                    source_degree
                )


def test_block_boundary_groups(pipelines):
    for data in pipelines[:30]:
        for length in (2, 3):
            spliced = splice(data.sources, length)
            blocks = splice_blocks(spliced)
            if len(set(i for i, _, _ in blocks)) < 2:
                continue
            table = spliced.assembled.smith
            for i, source_start, spliced_start in blocks:
                source = spliced.sources[i]
                first = spliced_start
                last = spliced_start + length - 1
                assert table.group(first) == source.smith.group(
                    source_start, below=False
                )
                assert table.group(last) == source.smith.group(
                    source_start + length - 1, above=False
                )


def test_policy_swap_preserves_verdicts(corpus):
    spaces, _ = corpus
    for space in spaces[:40]:
        verdicts = []
        for policy in ("least", "greatest"):
            data = build_pipeline(space, policy=policy)
            direct = spliced_cohomology(splice(data.sources, 3), 5)
            verdicts.append(compare(direct, theorem_claimed_groups(*data.sources, 5)))
        assert verdicts[0] == verdicts[1]


def test_three_source_round_robin():
    data = build_pipeline(PSEUDO_S1_DUP)
    c1, c2 = data.sources
    third = data.poset_cochain
    spliced = splice((c1, c2, third), 2)
    assert [i for i, _, _ in splice_blocks(spliced)[:3]] == [0, 1, 2]
    assert spliced.assembled.dim(0) == c1.dim(0)
    assert spliced.assembled.dim(2) == c2.dim(0)
    assert spliced.assembled.dim(4) == third.dim(0)
    assert spliced.assembled.dim(5) == third.dim(1)


def test_homological_splice(pipelines):
    data = pipelines[0]
    spliced = splice((data.poset_chain, data.relative_chain), 3)
    assert spliced.assembled.direction == "homological"
    for k in range(10):
        assert spliced.assembled.map_between(k + 1).mul(spliced.assembled.map_between(k)).is_zero()


def closed_form_splices(data, negative_lengths):
    """The cochain pair, the pair swapped, one source alone and the chain pair at lengths 1-5, and negative splices."""
    c1, c2 = data.sources
    splices = [
        splice(sources, length)
        for length in range(1, 6)
        for sources in ((c1, c2), (c2, c1), (c1,), (data.poset_chain, data.relative_chain))
    ]
    return splices + [splice_negative((c1, c2), -length) for length in negative_lengths]


def test_closed_form_matches_assembled_complex(pipelines):
    """`spliced_cohomology` against the groups of the directly assembled complex.

    The projective planes put torsion at the seams, which the fixtures and
    the corpus do not have.
    """
    degrees = 14
    rp2 = [space_from_dict(rp2_face_poset(variant)) for variant in ("plain", "12-doubled", "cone-doubled")]
    cases = [(data, range(1, 5)) for data in [build_pipeline(space) for space in FIXTURES.values()] + pipelines[:250]]
    cases += [(build_pipeline(space), range(1, 6)) for space in rp2]
    checked = with_torsion = 0
    for data, negative_lengths in cases:
        for spliced in closed_form_splices(data, negative_lengths):
            direct = (all_groups(spliced.assembled) + (TRIVIAL,) * degrees)[:degrees]
            assert spliced_cohomology(spliced, degrees - 1) == direct, (data.preorder, spliced.length)
            checked += 1
            with_torsion += sum(1 for group in direct if group.torsion)
    assert (checked, with_torsion) == (254 * 24 + 3 * 25, 46)
