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

`SmithTable.of` first eliminates +-1 pivots on the column-sparse matrix,
as in Dumas, Saunders and Villard, "On efficient sparse integer matrix
Smith normal form computations" (J. Symb. Comput. 32, 2001); each adds a
1 to the diagonal.  Boundary maps of order complexes, whose columns hold
k+1 entries each, reduce almost entirely this way, short columns first,
and `smith_normal_form`, a dense elimination, runs only on the leftover
block.  Given a whole matrix and asked for unimodular transforms, it
serves the tests as oracle.

`SmithTable.of` reduces a complex's maps top-down and clears, the way
persistent homology codes do (Chen and Kerber, "Persistent homology
computation with a twist", EuroCG 2011; Bauer, Kerber and Reininghaus,
"Clear and Compress", 2014), here over Z with the +-1 pivots.  A unit
pivot of maps[k+1] in row p makes basis vector p of degree k+1 a
boundary, so maps[k] sends it to zero: column p of maps[k] is deleted
before maps[k] is reduced, and its Smith diagonal does not change.
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
    left: IntMatrix | None
    right: IntMatrix | None


def _unit_pivots(matrix: IntMatrix) -> tuple[set[int], IntMatrix]:
    """Eliminate +-1 pivots sparsely; return their rows and the leftover block.

    A pivot at (p, j) clears the rest of row p by column operations, after
    which row operations clear column j without touching anything else, so
    the matrix is equivalent to a 1 beside the updated matrix with row p
    and column j deleted.  Short columns go first, and within a column the pivot row
    with the fewest entries, to keep fill-in low.  Passes repeat while they
    find pivots, since elimination can create new +-1 entries.
    """
    columns = {j: dict(column) for j, column in enumerate(matrix.columns) if column}
    in_row: dict[int, set[int]] = {}
    for j, column in columns.items():
        for i in column:
            in_row.setdefault(i, set()).add(j)
    pivots: set[int] = set()
    progress = True
    while progress:
        progress = False
        for j in sorted(columns, key=lambda j: (len(columns[j]), j)):
            pivot_column = columns.get(j, {})
            candidates = [i for i, x in pivot_column.items() if x in (1, -1)]
            if not candidates:
                continue
            p = min(candidates, key=lambda i: (len(in_row[i]), i))
            del columns[j]
            for i in pivot_column:
                in_row[i].discard(j)
            sign = pivot_column.pop(p)
            for other in in_row.pop(p):
                target = columns[other]
                q = target.pop(p) * sign
                for i, x in pivot_column.items():
                    y = target.get(i, 0) - q * x
                    if not y:
                        del target[i]
                        in_row[i].discard(other)
                    else:
                        if i not in target:
                            in_row[i].add(other)
                        target[i] = y
                if not target:
                    del columns[other]
            pivots.add(p)
            progress = True
    rows = {i: new for new, i in enumerate(sorted(i for i, js in in_row.items() if js))}
    block = [[(rows[i], x) for i, x in columns[j].items()] for j in sorted(columns)]
    return pivots, IntMatrix.from_columns(len(rows), len(block), block)


def smith_normal_form(matrix: IntMatrix, want_transforms: bool = False) -> SmithNormalForm:
    """Diagonalize an integer matrix by unimodular row and column operations.

    The diagonal entries are positive and each divides the next; their
    number is the rank.  With want_transforms, unimodular matrices U and V
    are returned with U * matrix * V equal to the diagonal form exactly.

    The elimination is dense; `SmithTable.of` hands it only the block its
    sparse unit pass leaves.  Pivots are chosen by smallest nonzero
    absolute value, ties broken by row then column index.  All arithmetic
    is exact.

    >>> smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]])).diagonal
    (1, 6)
    >>> smith_normal_form(IntMatrix.identity(3)).diagonal
    (1, 1, 1)
    >>> smith_normal_form(IntMatrix.from_rows([[-1], [-1]])).diagonal
    (1,)
    """
    n_rows, n_cols = matrix.rows, matrix.cols
    a = matrix.to_lists()
    u = IntMatrix.identity(n_rows).to_lists() if want_transforms else None
    v = IntMatrix.identity(n_cols).to_lists() if want_transforms else None

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        if v is not None:
            for row in v:
                row[i], row[j] = row[j], row[i]

    def row_sub(i, j, q):  # row i -= q * row j
        ai, aj = a[i], a[j]
        for k in range(n_cols):
            ai[k] -= q * aj[k]
        if u is not None:
            ui, uj = u[i], u[j]
            for k in range(n_rows):
                ui[k] -= q * uj[k]

    def col_sub(i, j, q):  # col i -= q * col j
        for row in a:
            row[i] -= q * row[j]
        if v is not None:
            for row in v:
                row[i] -= q * row[j]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]

    def smallest_pivot(t):
        best = None
        for i in range(t, n_rows):
            for j in range(t, n_cols):
                x = a[i][j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        return best

    t = 0
    limit = min(n_rows, n_cols)
    while t < limit:
        found = smallest_pivot(t)
        if found is None:
            break
        while True:
            _, bi, bj = found
            if bi != t:
                row_swap(t, bi)
            if bj != t:
                col_swap(t, bj)
            if a[t][t] < 0:
                row_negate(t)
            # Euclid passes until the cross through the pivot is clear.
            while True:
                for i in range(t + 1, n_rows):
                    if a[i][t]:
                        q = a[i][t] // a[t][t]
                        if q:
                            row_sub(i, t, q)
                remainder_rows = [i for i in range(t + 1, n_rows) if a[i][t]]
                if remainder_rows:
                    i = min(remainder_rows, key=lambda i: (abs(a[i][t]), i))
                    row_swap(t, i)
                    if a[t][t] < 0:
                        row_negate(t)
                    continue
                for j in range(t + 1, n_cols):
                    if a[t][j]:
                        q = a[t][j] // a[t][t]
                        if q:
                            col_sub(j, t, q)
                remainder_cols = [j for j in range(t + 1, n_cols) if a[t][j]]
                if remainder_cols:
                    j = min(remainder_cols, key=lambda j: (abs(a[t][j]), j))
                    col_swap(t, j)
                    if a[t][t] < 0:
                        row_negate(t)
                    continue  # column may be dirty again after the swap
                break
            pivot = a[t][t]
            violation = None
            for i in range(t + 1, n_rows):
                if any(a[i][j] % pivot for j in range(t + 1, n_cols)):
                    violation = i
                    break
            if violation is None:
                break
            # Pull the offending row through the pivot row; the next round
            # shrinks the pivot to a divisor of everything below.
            row_sub(t, violation, -1)
            found = smallest_pivot(t)
        t += 1

    diagonal = tuple(a[i][i] for i in range(limit) if a[i][i])
    left = right = None
    if want_transforms:
        left = IntMatrix.from_rows(u, cols=n_rows)
        right = IntMatrix.from_rows(v, cols=n_cols)
        smith = IntMatrix.zeros(n_rows, n_cols).to_lists()
        for i, d in enumerate(diagonal):
            smith[i][i] = d
        assert left.mul(matrix).mul(right) == IntMatrix.from_rows(smith, cols=n_cols)
    return SmithNormalForm(diagonal, left, right)


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
        Say the unit pass on maps[k+1] pivots at (p, j) with +-1.  After the
        row operations that clear column j, basis vector p of degree k+1 is
        the boundary of a chain, so maps[k] sends it to zero, while the other
        basis vectors of degree k+1 stay as they were.  So maps[k] with the
        columns of all of maps[k+1]'s pivot rows deleted has the same Smith
        diagonal as maps[k], and the unit pass and the dense elimination run
        on that narrower matrix.  Every map, the bottom one included, goes
        through the unit pass, and `smith_normal_form` reduces what is left.

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
            cleared, m = _unit_pivots(m)
            diagonals.append((1,) * len(cleared) + smith_normal_form(m).diagonal)
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
