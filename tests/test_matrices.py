import pytest
from hypothesis import example, given, settings, strategies as st

from finsplice import IntMatrix
from oracles import from_columns, identity, naive_product


def dense(max_dim=5, values=st.integers(-4, 4)):
    """Row lists of a random shape, zero dimensions included."""
    return st.tuples(st.integers(0, max_dim), st.integers(0, max_dim)).flatmap(
        lambda shape: st.tuples(
            st.just(shape[1]),
            st.lists(st.lists(values, min_size=shape[1], max_size=shape[1]), min_size=shape[0], max_size=shape[0]),
        )
    )


@settings(max_examples=100, deadline=None)
@given(dense())
def test_from_rows_round_trips(case):
    cols, rows = case
    m = IntMatrix.from_rows(rows, cols=cols)
    assert (m.rows, m.cols) == (len(rows), cols)
    assert m.to_lists() == rows
    assert m.entries == tuple(map(tuple, rows))
    hash(m.entries)


@settings(max_examples=100, deadline=None)
@given(dense(), st.randoms(use_true_random=False))
def test_equality_and_hash_do_not_depend_on_construction(case, rng):
    cols, rows = case
    from_rows = IntMatrix.from_rows(rows, cols=cols)
    stored = tuple(tuple((i, row[j]) for i, row in enumerate(rows) if row[j]) for j in range(cols))
    plain = IntMatrix(len(rows), cols, stored)
    columns = []
    for j in range(cols):
        pairs = [(i, row[j]) for i, row in enumerate(rows)]
        pairs += [(i, 1) for i, _ in pairs[:2]] + [(i, -1) for i, _ in pairs[:2]]  # cancelling extras
        rng.shuffle(pairs)
        columns.append(pairs)
    sparse = from_columns(len(rows), cols, columns)
    twice = from_rows.transpose().transpose()
    for other in (plain, sparse, twice):
        assert other == from_rows
        assert hash(other) == hash(from_rows)
    assert len({from_rows, plain, sparse, twice}) == 1


def factors(values):
    """(a, b, inner, n_cols): dense factors with entries from `values`, zero dimensions included."""
    entries = st.sampled_from(values)

    def rows(n, width):
        return st.lists(st.lists(entries, min_size=width, max_size=width), min_size=n, max_size=n)

    return st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)).flatmap(
        lambda shape: st.tuples(rows(shape[0], shape[1]), rows(shape[1], shape[2]), st.just(shape[1]), st.just(shape[2]))
    )


# Each example draws its entries from one of two value sets.  The second
# makes every term +1 or -1, so product columns that cancel in pairs and
# columns that do not both reach the unit short cut's row comparison.
@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(0, 0, 0, 1, -1, 2, -3), (0, 1, -1)]).flatmap(factors))
# +1 rows [0] and -1 rows [1]: as many of each, but different rows.
@example(([[1, 0], [0, 1]], [[1], [-1]], 2, 1))
# Left column 0 holds a 2 beside its +1 and -1, whose rows alone would cancel column 1's.
@example(([[1, 1], [2, 0], [-1, -1]], [[1], [-1]], 2, 1))
# Left column 0 holds a -2 beside a +1; read as -1 it would cancel column 1.
@example(([[1, 1], [-2, -1]], [[1], [-1]], 2, 1))
# Terms 2 and -2 times all +-1 left columns: read as +-1 they would cancel.
@example(([[1, -1], [-1, 1]], [[2, -2], [1, -1]], 2, 2))
# Left column 0 is empty: a term on it adds no rows.
@example(([[0, 1], [0, -1]], [[-1, 1], [0, 1]], 2, 2))
# Right column 0 is empty.
@example(([[1], [-1]], [[0, 1]], 1, 2))
# Zero inner dimension: every product column is empty.
@example(([[], []], [], 0, 3))
def test_mul_matches_naive_dense_product(case):
    a, b, inner, n_cols = case
    product = IntMatrix.from_rows(a, cols=inner).mul(IntMatrix.from_rows(b, cols=n_cols))
    assert (product.rows, product.cols) == (len(a), n_cols)
    assert product.to_lists() == naive_product(a, b, inner, n_cols)
    assert product.is_zero() == all(x == 0 for row in product.to_lists() for x in row)


@settings(max_examples=100, deadline=None)
@given(dense())
def test_transpose_is_the_dense_transpose_and_an_involution(case):
    cols, rows = case
    m = IntMatrix.from_rows(rows, cols=cols)
    t = m.transpose()
    assert (t.rows, t.cols) == (cols, len(rows))
    assert t.to_lists() == [[row[j] for row in rows] for j in range(cols)]
    assert t.transpose() == m


def test_mul_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        IntMatrix.zeros(2, 3).mul(IntMatrix.zeros(2, 3))


def test_constructors_reject_bad_shapes():
    with pytest.raises(ValueError, match="expected 2 columns, got 1"):
        IntMatrix.from_rows([[1, 0], [0]])
    with pytest.raises(ValueError):
        from_columns(2, 1, [[(2, 1)]])
    with pytest.raises(ValueError):
        from_columns(2, 2, [[(0, 1)]])


def test_zeros_and_identity_are_sparse():
    assert IntMatrix.zeros(3, 2).columns == ((), ())
    assert IntMatrix.zeros(3, 2) == IntMatrix.from_rows([[0, 0]] * 3)
    assert identity(3) == IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert IntMatrix.zeros(0, 4).entries == ()
    assert IntMatrix.zeros(4, 0).entries == ((),) * 4

