"""Finitely generated abelian groups of integer chain complexes.

Groups are presented as a free rank plus invariant factors.  Everything
reduces to the Smith normal form of the differentials, computed once per
complex into a `SmithTable`, from which `SmithTable.group` reads every
group: kernels, cokernels and kernel modulo image alike.

Every complex holds its maps as coboundaries, dim(i+1) x dim(i) (see
`complexes`); a chain complex reads them transposed, and its cochain
complex shares them.  A matrix and its transpose have the same Smith
diagonal, so chain and cochain tables are computed the same way.
`SmithTable.group` names the maps at degree k by their place, maps[k]
above and maps[k-1] below; the direction only tells it which one enters.

`smith_normal_form` is the one Smith routine: it reduces a column-sparse
map by its lowest entries over Z, each +-1 low giving a 1 on the
diagonal, and finishes the leftover block with `_diagonalize`, one dense
elimination loop.  A stored column whose last pair is a new +-1 low is
kept as the stored tuple, with no copy; on perfbench's workloads most
columns are.  The leftover block is empty on every input of perfbench's
workloads and not when there is torsion (the projective plane's face
poset, say).  The tests' transform oracle runs the same loop on a matrix
augmented by two identities and reads U and V off the margins.

`SmithTable.of` reduces the coboundaries, the stored maps, bottom-up and
clears, the way cohomology codes do (de Silva, Morozov and
Vejdemo-Johansson, "Dualities in persistent (co)homology", Inverse
Problems 27, 2011; Bauer, "Ripser", J. Appl. Comput. Topol. 5, 2021).  A
+-1 low p of the coboundary out of degree k-1 makes column p of the
coboundary out of degree k a combination of earlier columns, so that
column is deleted before the reduction and the Smith diagonal does not
change.  No top-degree face is ever a column, where a top-down pass over
the boundaries reduces every top-degree cycle to zero column by column.
Above degree 0, the maps of a complex built from faces are read by their
lowest cofaces first, Ripser's emergent pairs: when the kept columns' lows
are distinct, the map's diagonal and lows are read off the faces and the
map is never built, so `smith_normal_form` runs only for degree 0 and
where lows collide (torsion, say).
"""

from __future__ import annotations

from typing import NamedTuple

from .complexes import HOMOLOGICAL, ChainComplex, Coboundaries
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
    other entry sets the column aside.  Stored columns are sorted by row,
    so a column's low is its last pair: a column whose low is new and +-1
    is kept as the stored tuple itself, with no dict and no `max`.  Only a
    column whose low is taken or is not +-1 is copied into a dict to be
    reduced or set aside; one reduced to a new +-1 low is kept sorted
    again, so every reduced column has its low as its last pair.

    Lows against their columns form a triangular block with +-1 on its
    diagonal, so `_diagonalize` finishes only the set-aside columns,
    reduced off every low, highest first, and restricted to the rows where
    they still have entries: a block that is empty unless there is
    torsion.  All arithmetic is exact.

    >>> smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]])).diagonal
    (1, 6)
    >>> smith_normal_form(IntMatrix.from_rows([[1, 1], [1, 1], [1, -1]]))
    SmithNormalForm(diagonal=(1, 2), lows={2})
    """
    reduced: dict[int, tuple[tuple[int, int], ...]] = {}
    aside = []

    def clear(column: dict[int, int], p: int) -> None:
        """Cancel the column's entry at p with the reduced column whose +-1 low is p, its last pair."""
        pivot = reduced[p]
        q = column[p] * pivot[-1][1]
        for i, x in pivot:
            if y := column.get(i, 0) - q * x:
                column[i] = y
            else:
                del column[i]

    for entries in matrix.columns:
        if not entries:
            continue
        low, x = entries[-1]
        if low not in reduced and x in (1, -1):
            reduced[low] = entries
            continue
        column = dict(entries)
        while column and (low := max(column)) in reduced:
            clear(column, low)
        if column and column[low] in (1, -1):
            reduced[low] = tuple(sorted(column.items()))
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
        """The table of a complex whose maps are coboundaries that compose to zero.

        The coboundaries delta_k = maps[k], with one column per k-face, are
        reduced bottom-up with clearing (de Silva, Morozov and
        Vejdemo-Johansson, Inverse Problems 27, 2011; Bauer, "Ripser",
        2021).  Say a reduced column R of delta_(k-1) has its low at p.  R
        is delta_(k-1) of an integer cochain v, has +-1 at p and entries
        only above p.  As delta_k R = 0, column p of delta_k is an integer
        combination of earlier columns.  Deleting those columns from the
        highest p down is a sequence of unimodular column operations
        followed by dropping a zero column, so delta_k without the columns
        of all of delta_(k-1)'s +-1 lows has the same Smith diagonal as
        delta_k, and the reduction and the dense elimination run on that
        narrower matrix, whose columns are the stored ones themselves.
        The lows of a map's reduction are the columns cleared from the map
        above.  Both directions take this one route.

        Maps built from faces, a `Coboundaries`, are read by their lowest
        cofaces above degree 0: one pass over the facets of the
        (k+1)-faces gives each k-face's highest coface, the last row of
        its column, without building delta_k.  Every entry of delta_k is
        +-1.  If the kept nonzero columns have pairwise distinct lows,
        they are in echelon form with +-1 pivots, so `smith_normal_form`
        would keep each as it is stored, reduce nothing and set nothing
        aside: its diagonal is one 1 per kept nonzero column and its lows
        are those last rows.  The table takes both from the pass and never
        builds the map.  Where lows collide, the map is built from the
        same pass and its kept columns reduced as above.  Degree 0 is
        always reduced from its map: nothing is cleared there, and the
        vertex columns of an order complex with an edge collide, its
        highest edge being the lowest coface of both its ends (a relative
        complex's need not, and are reduced all the same).
        Complexes given their maps as a tuple (hand-built ones,
        `SplicedComplex.assembled`) reduce every map.

        The Z/2 projective plane (two vertices, three edges, two faces), its
        coboundaries from vertices to edges and from edges to faces.  The
        chain reads H_1 = Z/2 from the map above degree 1, the cochain H^2 =
        Z/2 from the map below degree 2:

        >>> from finsplice.complexes import HOMOLOGICAL, cochain
        >>> d0 = IntMatrix.from_rows([[-1, 1], [1, -1], [0, 0]])
        >>> d1 = IntMatrix.from_rows([[1, 1, 1], [1, 1, -1]])
        >>> rp2 = ChainComplex(HOMOLOGICAL, ((("v",), ("w",)), (("a",), ("b",), ("c",)), (("U",), ("L",))), (d0, d1))
        >>> SmithTable.of(rp2).diagonals
        ((1,), (1, 2))
        >>> str(SmithTable.of(rp2).group(1)), str(SmithTable.of(cochain(rp2)).group(2))
        ('Z/2', 'Z/2')
        """
        maps, diagonals = complex_.maps, []
        cleared: set[int] = set()
        for k in range(len(maps)):
            if k and isinstance(maps, Coboundaries):
                facet_rows = maps.facet_rows(k)
                lows = maps.lowest_cofaces(k, facet_rows)
                columns = lows.keys() - cleared  # the kept nonzero columns
                pivots = set(map(lows.__getitem__, columns))
                if len(pivots) == len(columns):
                    diagonals.append((1,) * len(columns))
                    cleared = pivots
                    continue
                m = maps.build(k, facet_rows)
            else:
                m = maps[k]
            kept = tuple([column for i, column in enumerate(m.columns) if i not in cleared])
            diagonal, cleared = smith_normal_form(IntMatrix(m.rows, len(kept), kept))
            diagonals.append(diagonal)
        return cls(complex_.direction, tuple(len(faces) for faces in complex_.basis), tuple(diagonals))

    def group(self, k: int, above: bool = True, below: bool = True) -> GroupPresentation:
        """The group at degree k keeping maps[k] above it and maps[k-1] below it as flagged.

        Free rank is dim(k) minus the kept maps' ranks, torsion the
        invariant factors above 1 of the kept map into degree k: the one
        above for a chain complex, below for a cochain complex.  Only here
        is the direction read.  Leaving a map out gives a kernel or a
        cokernel.  Degrees outside the support are trivial.
        """
        if not 0 <= k < len(self.dims):
            return TRIVIAL_GROUP
        up = self.diagonals[k] if above and k < len(self.diagonals) else ()
        down = self.diagonals[k - 1] if below and k > 0 else ()
        rank = self.dims[k] - len(up) - len(down)
        assert rank >= 0
        into = up if self.direction == HOMOLOGICAL else down
        return GroupPresentation(rank, tuple(d for d in into if d > 1))


def all_groups(complex_: ChainComplex) -> tuple[GroupPresentation, ...]:
    """Groups at every degree 0..top_degree, read from the complex's table."""
    table = complex_.smith
    return tuple(table.group(k) for k in range(len(table.dims)))
