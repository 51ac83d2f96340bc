"""Finitely generated abelian groups of integer chain complexes.

Groups are presented as a free rank plus invariant factors.  Everything
reduces to the Smith normal form of the differentials, computed once per
complex into a `SmithTable`, from which `SmithTable.group` reads every
group: kernels, cokernels and kernel modulo image alike.

Every complex holds its maps as boundaries, dim(i) x dim(i+1) (see
`complexes`); a cochain complex shares its chain's maps and reads them
transposed.  A matrix and its transpose have the same Smith diagonal, so
a cochain's table is computed on the boundary matrices; the direction
only tells `SmithTable.group` which map leaves a degree and which enters.

`smith_normal_form` is the one Smith routine: it reduces a column-sparse
map by its lowest entries over Z, each +-1 low giving a 1 on the
diagonal, and finishes the leftover block with `_diagonalize`, one dense
elimination loop.  That block is empty on every input of perfbench's
workloads and not when there is torsion (the projective plane's face
poset, say).  The tests' transform oracle runs the same loop on a matrix
augmented by two identities and reads U and V off the margins.

`SmithTable.of` reduces a complex's maps top-down and clears, the way
persistent homology codes do (Chen and Kerber, "Persistent homology
computation with a twist", EuroCG 2011; Bauer, Kerber and Reininghaus,
"Clear and Compress", 2014).  A +-1 low p of maps[k+1] makes basis
vector p of degree k+1, plus earlier ones, a boundary, so column p of
maps[k] is deleted before maps[k] is reduced, and its Smith diagonal
does not change.
"""

from __future__ import annotations

from typing import NamedTuple

from .complexes import HOMOLOGICAL, ChainComplex
from .matrices import IntMatrix


class GroupPresentation(NamedTuple):
    """rank copies of Z plus cyclic factors in divisibility order.

    A plain record: `SmithTable.group` builds it from a Smith diagonal,
    whose factors above 1 are already in divisibility order.

    >>> str(GroupPresentation(2, (2, 6)))
    'Z^2 + Z/2 + Z/6'
    >>> str(GroupPresentation(1))
    'Z'
    >>> str(GroupPresentation())
    '0'
    """

    rank: int = 0
    torsion: tuple[int, ...] = ()

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"

    def as_dict(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion), "pretty": str(self)}


TRIVIAL_GROUP = GroupPresentation()


class SmithNormalForm(NamedTuple):
    diagonal: tuple[int, ...]
    lows: set[int]


def smith_normal_form(matrix: IntMatrix) -> SmithNormalForm:
    """The Smith diagonal of an integer matrix, and the rows of its +-1 lows.

    The diagonal is positive, each entry divides the next, and its length
    is the rank.  Left to right, a column subtracts the earlier reduced
    column with the same lowest row, whose entry there is +-1, until its
    lowest row is new (Zomorodian and Carlsson, "Computing persistent
    homology", 2005).  A +-1 there is a low and a 1 on the diagonal; any
    other entry sets the column aside.  Lows against their columns form a
    triangular block with +-1 on its diagonal, so `_diagonalize` finishes
    only the set-aside columns, reduced off every low, highest first, and
    restricted to the rows where they still have entries: a block that is
    empty unless there is torsion.  All arithmetic is exact.

    >>> smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]])).diagonal
    (1, 6)
    >>> smith_normal_form(IntMatrix.from_rows([[1, 1], [1, 1], [1, -1]]))
    SmithNormalForm(diagonal=(1, 2), lows={2})
    """
    reduced: dict[int, dict[int, int]] = {}
    aside = []

    def clear(column: dict[int, int], p: int) -> None:
        """Cancel the column's entry at p with the reduced column whose +-1 low is p."""
        pivot = reduced[p]
        q = column[p] * pivot[p]
        for i, x in pivot.items():
            if y := column.get(i, 0) - q * x:
                column[i] = y
            else:
                del column[i]

    for entries in matrix.columns:
        column = dict(entries)
        while column and (low := max(column)) in reduced:
            clear(column, low)
        if column and column[low] in (1, -1):
            reduced[low] = column
        elif column:
            aside.append(column)
    for p in sorted(reduced, reverse=True) if aside else ():
        for column in aside:
            if p in column:
                clear(column, p)
    rows = sorted({i for column in aside for i in column})
    block = [[column.get(i, 0) for column in aside] for i in rows]
    return SmithNormalForm((1,) * len(reduced) + _diagonalize(block, len(rows), len(aside)), set(reduced))


def _diagonalize(a: list[list[int]], m: int, n: int) -> tuple[int, ...]:
    """Bring the top-left m x n block of the dense rows a to Smith form in place; return its diagonal.

    One loop (Cohen, "A Course in Computational Algebraic Number Theory",
    1993, section 2.4).  Each pass moves the nonzero entry of smallest
    absolute value in the unfinished block to the corner, ties broken by
    row then column, and reduces the corner's column, then its row, by it.
    A nonzero remainder, at most half the pivot, makes the loop scan again.
    So does an entry below and right of the corner that the pivot does not
    divide: its row is added to the pivot row, whose reduction then leaves
    a remainder.  Pivots come only from the block, but every row and column
    operation runs on all of a, so rows and columns beyond the block record
    them (the tests' transform oracle reads U and V there).
    """
    t = 0
    while t < min(m, n):
        # The smallest absolute value in the block, at its first row, then column.
        sizes = [min(filter(None, map(abs, row[t:n])), default=0) for row in a[t:m]]
        size = min(filter(None, sizes), default=0)
        if not size:
            break
        i = sizes.index(size) + t
        j = list(map(abs, a[i])).index(size, t)
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        top = a[t]
        pivot = top[t]
        # Quotients round to the nearest integer, so a remainder is at most half the pivot.
        for i in range(t + 1, m):
            if q := (2 * a[i][t] + pivot) // (2 * pivot):
                a[i] = [x - q * y for x, y in zip(a[i], top)]
        if any(a[i][t] for i in range(t + 1, m)):
            continue
        steps = [(j, q) for j in range(t + 1, n) if (q := (2 * top[j] + pivot) // (2 * pivot))]
        for row in a:
            x = row[t]
            if x:
                for j, q in steps:
                    row[j] -= q * x
        if any(top[t + 1:n]):
            continue
        bad = next((i for i in range(t + 1, m) if any(x % pivot for x in a[i][t + 1:n])), None)
        if bad is not None:
            a[t] = [x + y for x, y in zip(top, a[bad])]
            continue
        t += 1
    return tuple(a[i][i] for i in range(t))


def rational_rank(matrix: IntMatrix) -> int:
    """Rank over the rationals by Gaussian elimination with exact fractions.

    Independent of the Smith normal form path; the test suite checks the
    two against each other.  `fractions` is imported here, not with the
    module, because no command calls this.
    """
    from fractions import Fraction

    rows = [[Fraction(x) for x in row] for row in matrix.entries]
    rank = 0
    for col in range(matrix.cols):
        pivot_row = next((i for i in range(rank, matrix.rows) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col]
        for i in range(rank + 1, matrix.rows):
            if rows[i][col]:
                factor = rows[i][col] / pivot
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == matrix.rows:
            break
    return rank


class SmithTable(NamedTuple):
    """Dimensions and Smith diagonals of a complex; diagonals[i] is that of maps[i].

    `ChainComplex.smith` builds it on first use and keeps it.

    >>> from finsplice import PSEUDO_S1, build_pipeline
    >>> str(build_pipeline(PSEUDO_S1).poset_cochain.smith.group(1))
    'Z'
    """

    direction: str
    dims: tuple[int, ...]
    diagonals: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, complex_: ChainComplex) -> SmithTable:
        """The table of a complex whose maps are boundaries that compose to zero.

        The maps are reduced top-down with clearing (Chen and Kerber, EuroCG
        2011; Bauer, Kerber and Reininghaus, "Clear and Compress", 2014).
        Say a reduced column R of maps[k+1] has its low at p.  R is maps[k+1]
        of an integer chain v, has +-1 at p and entries only above p.  As
        maps[k] R = 0, column p of maps[k] is an integer combination of
        earlier columns.  Deleting those columns from the highest p down is
        a sequence of unimodular column operations followed by dropping a
        zero column, so maps[k] without the columns of all of maps[k+1]'s
        +-1 lows has the same Smith diagonal as maps[k], and the reduction
        and the dense elimination run on that narrower matrix.  Each map, the
        bottom one included, goes through `smith_normal_form` once, and its
        lows are the columns cleared from the map below.

        The Z/2 projective plane (two vertices, three edges, two faces):

        >>> from finsplice.complexes import HOMOLOGICAL
        >>> d1 = IntMatrix.from_rows([[-1, 1, 0], [1, -1, 0]])
        >>> d2 = IntMatrix.from_rows([[1, 1], [1, 1], [1, -1]])
        >>> rp2 = ChainComplex(HOMOLOGICAL, ((("v",), ("w",)), (("a",), ("b",), ("c",)), (("U",), ("L",))), (d1, d2))
        >>> SmithTable.of(rp2).diagonals
        ((1,), (1, 2))
        """
        diagonals = []
        cleared: set[int] = set()
        for k in reversed(range(len(complex_.maps))):
            m = complex_.maps[k]
            if cleared:
                kept = tuple(column for j, column in enumerate(m.columns) if j not in cleared)
                m = IntMatrix(m.rows, len(kept), kept)
            diagonal, cleared = smith_normal_form(m)
            diagonals.append(diagonal)
        return cls(complex_.direction, tuple(len(faces) for faces in complex_.basis), tuple(reversed(diagonals)))

    def group(self, k: int, outgoing: bool = True, incoming: bool = True) -> GroupPresentation:
        """Kernel of the outgoing map modulo the image of the incoming one at degree k.

        Free rank is dim(k) minus both ranks, torsion the invariant factors
        above 1 of the incoming map.  Leaving a map out gives a kernel or a
        cokernel.  Degrees outside the support are trivial.
        """
        if not 0 <= k < len(self.dims):
            return TRIVIAL_GROUP
        below = self.diagonals[k - 1] if k > 0 else ()
        above = self.diagonals[k] if k < len(self.diagonals) else ()
        out, into = (below, above) if self.direction == HOMOLOGICAL else (above, below)
        out, into = out if outgoing else (), into if incoming else ()
        rank = self.dims[k] - len(out) - len(into)
        assert rank >= 0
        return GroupPresentation(rank, tuple(d for d in into if d > 1))


def all_groups(complex_: ChainComplex) -> tuple[GroupPresentation, ...]:
    """Groups at every degree 0..top_degree, read from the complex's table."""
    table = complex_.smith
    return tuple(table.group(k) for k in range(len(table.dims)))
