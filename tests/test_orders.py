import itertools

import pytest
from hypothesis import given, settings

from finsplice import (
    FIXTURES,
    INDISC2,
    PSEUDO_S1,
    PSEUDO_S1_DUP,
    SIERP,
    Preorder,
    decompose,
    equivalence_classes,
    is_poset,
    preorder_from_relation,
    specialisation_preorder,
    strictify,
)
from oracles import is_leq, relation_pairs
from test_spaces import blown_up_fixtures, relations


def oracle_strictify_pairs(preorder):
    """The pairs of the strict order, read off the pair set."""
    pairs = relation_pairs(preorder)
    return frozenset((x, y) for x, y in pairs if x == y or (y, x) not in pairs)


def oracle_classes(preorder):
    """Classes of mutually related points by pair lookups, in order of least member."""
    pairs = relation_pairs(preorder)
    seen = set()
    classes = []
    for x in preorder.points:
        if x not in seen:
            cls = tuple(y for y in preorder.points if (x, y) in pairs and (y, x) in pairs)
            seen.update(cls)
            classes.append(cls)
    return tuple(classes)


def oracle_is_poset(preorder):
    pairs = relation_pairs(preorder)
    return all(x == y or (y, x) not in pairs for x, y in pairs)


def assert_preorder_layers_match_oracles(preorder):
    strict = strictify(preorder)
    assert relation_pairs(strict) == oracle_strictify_pairs(preorder)
    assert is_poset(strict)
    classes = oracle_classes(preorder)
    class_of = {x: cls for cls in classes for x in cls}
    assert [preorder.unmask(row) for row in preorder.same] == [class_of[x] for x in preorder.points]
    assert equivalence_classes(preorder) == classes
    assert is_poset(preorder) == oracle_is_poset(preorder)
    for pick, policy in ((0, "least"), (-1, "greatest")):
        dec = decompose(preorder, policy)
        assert dec.classes == classes
        assert dec.representatives == tuple(sorted(cls[pick] for cls in classes))
        assert dec.complementary == tuple(sorted(p for cls in classes for p in cls if p != cls[pick]))


@pytest.fixture(scope="module")
def dup_preorder():
    return specialisation_preorder(PSEUDO_S1_DUP)


def test_strictify_indiscrete():
    strict = strictify(specialisation_preorder(INDISC2))
    assert relation_pairs(strict) == frozenset({("x", "x"), ("y", "y")})


def test_strictify_poset_is_unchanged():
    preorder = specialisation_preorder(PSEUDO_S1)
    assert strictify(preorder) == preorder


def test_strictify_drops_exactly_the_symmetric_pairs(dup_preorder):
    strict = strictify(dup_preorder)
    dropped = relation_pairs(dup_preorder) - relation_pairs(strict)
    assert dropped == {("c", "c'"), ("c'", "c")}
    kept = {(x, y) for x, y in relation_pairs(strict) if x != y}
    assert kept == {
        ("c", "a"), ("c", "b"), ("c'", "a"), ("c'", "b"), ("d", "a"), ("d", "b"),
    }


def test_classes_indiscrete():
    assert equivalence_classes(specialisation_preorder(INDISC2)) == (("x", "y"),)


def test_classes_poset_are_singletons():
    classes = equivalence_classes(specialisation_preorder(PSEUDO_S1))
    assert classes == (("a",), ("b",), ("c",), ("d",))


def test_classes_dup(dup_preorder):
    assert equivalence_classes(dup_preorder) == (("a",), ("b",), ("c", "c'"), ("d",))


def test_decompose_indiscrete():
    dec = decompose(specialisation_preorder(INDISC2))
    assert dec.representatives == ("x",)
    assert dec.complementary == ("y",)


def test_decompose_poset_has_empty_complementary():
    dec = decompose(specialisation_preorder(PSEUDO_S1))
    assert dec.representatives == ("a", "b", "c", "d")
    assert dec.complementary == ()


def test_decompose_dup(dup_preorder):
    dec = decompose(dup_preorder)
    assert dec.representatives == ("a", "b", "c", "d")
    assert dec.complementary == ("c'",)


def test_decompose_greatest_policy(dup_preorder):
    dec = decompose(dup_preorder, policy="greatest")
    assert dec.representatives == ("a", "b", "c'", "d")
    assert dec.complementary == ("c",)


def test_decompose_rejects_unknown_policy(dup_preorder):
    with pytest.raises(ValueError):
        decompose(dup_preorder, policy="middle")


def test_is_poset_examples(dup_preorder):
    assert is_poset(specialisation_preorder(PSEUDO_S1))
    assert not is_poset(specialisation_preorder(INDISC2))
    assert is_poset(specialisation_preorder(SIERP))
    assert not is_poset(dup_preorder)


def test_partition_and_antisymmetry_on_corpus(corpus):
    spaces, _ = corpus
    for space in spaces[:100]:
        preorder = specialisation_preorder(space)
        dec = decompose(preorder)
        assert sorted(dec.representatives + dec.complementary) == list(preorder.points)
        for r, s in itertools.combinations(dec.representatives, 2):
            assert not (is_leq(preorder, r, s) and is_leq(preorder, s, r))
        strict = strictify(preorder)
        for r, s in itertools.permutations(dec.representatives, 2):
            # on the poset part the two relations coincide
            assert is_leq(preorder, r, s) == is_leq(strict, r, s)
        if is_poset(preorder):
            assert dec.complementary == ()
            assert all(len(cls) == 1 for cls in dec.classes)


def test_large_class_breaks_antisymmetry_in_complement(corpus):
    spaces, _ = corpus
    seen_large_class = False
    for space in spaces:
        preorder = specialisation_preorder(space)
        dec = decompose(preorder)
        for cls in dec.classes:
            if len(cls) >= 3:
                seen_large_class = True
                leftovers = [p for p in cls if p in set(dec.complementary)]
                assert len(leftovers) >= 2
                x, y = leftovers[:2]
                assert is_leq(preorder, x, y) and is_leq(preorder, y, x)
    assert seen_large_class, "corpus never produced a class of size >= 3"


def test_preorder_layers_match_oracles_on_corpus(corpus):
    spaces, _ = corpus
    for space in spaces:
        assert_preorder_layers_match_oracles(specialisation_preorder(space))


@settings(max_examples=150, deadline=None)
@given(relations())
def test_preorder_layers_match_oracles_on_drawn_relations(relation):
    assert_preorder_layers_match_oracles(preorder_from_relation(*relation))


def test_preorder_layers_match_oracles_on_blown_up_fixtures():
    for preorder in blown_up_fixtures():
        assert_preorder_layers_match_oracles(preorder)


def assert_passes_the_public_checks(preorder):
    """The public constructor, which checks every row, accepts the rows and derives the same classes."""
    rebuilt = Preorder(preorder.points, preorder.up)
    assert rebuilt == preorder
    assert rebuilt.same == preorder.same


def test_preorders_valid_by_construction_pass_the_public_checks(corpus):
    # `strictify` and `preorder_from_relation` skip the row checks; the
    # public constructor repeats them on every result.
    spaces, _ = corpus
    for space in [*spaces, *FIXTURES.values(), *blown_up_fixtures()]:
        assert_passes_the_public_checks(strictify(space))
        closed = preorder_from_relation(space.points, relation_pairs(space))
        assert_passes_the_public_checks(closed)
        assert closed == space


@settings(max_examples=150, deadline=None)
@given(relations())
def test_preorders_valid_by_construction_pass_the_public_checks_on_drawn_relations(relation):
    closed = preorder_from_relation(*relation)
    assert_passes_the_public_checks(closed)
    assert_passes_the_public_checks(strictify(closed))
