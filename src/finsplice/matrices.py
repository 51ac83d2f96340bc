"""Exact integer matrices stored by column.

Entries are Python ints, so there is no overflow and no dtype trap.  Each
column keeps only its nonzero entries, as (row, value) pairs in ascending
row order: a coboundary of an order complex holds, in the column of a
face, one nonzero per face one degree up that contains it, so a product
costs what the nonzeros cost, not rows x cols.  Shapes are explicit even
when a dimension is zero, which matters for the empty maps at the ends of
a chain complex.  `mul` sums each product column exactly; only
`complexes.checked_complex` and the tests multiply.

`IntMatrix(rows, cols, columns)` takes the stored form as it is and checks
nothing: its caller, here, in `complexes` or in `homology`, guarantees
that every column is a tuple of (row, value) pairs sorted by row, every
row is in range, and no value is zero.  `from_rows`, `entries` and
`to_lists` are the only dense views, and no command calls them:
`from_rows` writes doctests and test matrices, `entries` (rows of
`to_lists`) feeds `rational_rank`, perfbench's tracer and the tests, and
`to_lists` the tests' dense oracles.  `homology.smith_normal_form` writes
its leftover block into dense rows itself.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple


class IntMatrix(NamedTuple):
    rows: int
    cols: int
    columns: tuple[tuple[tuple[int, int], ...], ...]

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], cols: int | None = None) -> "IntMatrix":
        """Dense constructor: `rows` lists the rows; `cols` gives the width when there are none."""
        dense = tuple(tuple(int(x) for x in row) for row in rows)
        width = len(dense[0]) if dense else cols or 0
        for row in dense:
            if len(row) != width:
                raise ValueError(f"expected {width} columns, got {len(row)}")
        columns = tuple(tuple((i, row[j]) for i, row in enumerate(dense) if row[j]) for j in range(width))
        return cls(len(dense), width, columns)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, ((),) * cols)

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The dense rows, as a hashable tuple of int tuples."""
        return tuple(map(tuple, self.to_lists()))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        """The product, each column summed exactly.

        The triangle's coboundary from vertices to edges, after the one
        from edges to its face (row 0), composes to zero; row 1 of the left
        factor is not a coboundary:

        >>> coboundary = IntMatrix.from_rows([[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])
        >>> IntMatrix.from_rows([[1, -1, 1], [2, 0, 0]]).mul(coboundary).columns
        (((1, -2),), ((1, 2),), ())
        """
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} times {other.rows}x{other.cols}")
        left, product = self.columns, []
        for column in other.columns:
            total: dict[int, int] = {}
            for k, y in column:
                for i, x in left[k]:
                    total[i] = total.get(i, 0) + x * y
            product.append(tuple(sorted((i, x) for i, x in total.items() if x)))
        return IntMatrix(self.rows, other.cols, tuple(product))

    def is_zero(self) -> bool:
        return not any(self.columns)

    def to_lists(self) -> list[list[int]]:
        dense = [[0] * self.cols for _ in range(self.rows)]
        for j, column in enumerate(self.columns):
            for i, x in column:
                dense[i][j] = x
        return dense
