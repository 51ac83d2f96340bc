"""Oracles the tests share that the program itself does not call.

Each computes from first principles something the program derives on its
own route (the relation as pairs, closures, subcomplex inclusion, Euler
characteristics, face labels and the `finsplice-complex/1` form, summed
sparse columns, dense products, whole-matrix Smith forms with their
transforms, the large-length limits of a splice), so the tests can set
the two against each other.  `all_match` reads a comparison report for
the tests that expect every degree to match.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from finsplice import ChainComplex, ComparisonReport, FiniteSpace, IntMatrix, Preorder, SimplicialComplex, all_groups
from finsplice import splice, splice_negative, spliced_cohomology
from finsplice.cli import escape_names
from finsplice.complexes import COHOMOLOGICAL
from finsplice.homology import _diagonalize
from finsplice.splice import MATCH

COMPLEX_FORMAT = "finsplice-complex/1"


def relation_pairs(preorder: Preorder) -> frozenset:
    """The relation as (x, y) pairs meaning x <= y."""
    return frozenset((x, y) for x, row in zip(preorder.points, preorder.up) for y in preorder.unmask(row))


def is_leq(preorder: Preorder, x: str, y: str) -> bool:
    """x <= y in the preorder; False when either is not one of its points."""
    pts = preorder.points
    return x in pts and y in pts and bool(preorder.up[pts.index(x)] >> pts.index(y) & 1)


def closure(space: FiniteSpace, subset: Iterable[str]) -> tuple[str, ...]:
    """Smallest closed set containing the subset: the union of its points' closures.

    The closure of {y} is the down-set of y, since x <= y exactly when x
    lies in it.
    """
    preorder = space.preorder
    target = preorder.mask_of(subset)
    result = 0
    for i, row in enumerate(preorder.down):
        if target >> i & 1:
            result |= row
    return preorder.unmask(result)


def zero_complex(direction: str = COHOMOLOGICAL) -> ChainComplex:
    return ChainComplex(direction, (), ())


def is_subcomplex(candidate: SimplicialComplex, ambient: SimplicialComplex) -> bool:
    """True when every face of the candidate is a face of the ambient complex."""
    for dim, faces in enumerate(candidate.faces_by_dim):
        ambient_faces = set(ambient.faces(dim))
        if any(face not in ambient_faces for face in faces):
            return False
    return True


def face_label(face: tuple[str, ...]) -> str:
    """The vertices, escaped by `escape_names`, joined by commas, so labels are injective."""
    return ",".join(escape_names(face))


def complex_to_dict(complex_: ChainComplex) -> dict:
    """The `finsplice-complex/1` form: each face written as its label, each map target-by-source.

    A cochain holds its chain's boundary maps and reads them transposed
    (see `complexes`), so its coboundaries are transposed here.
    """
    maps = complex_.maps
    if complex_.direction == COHOMOLOGICAL:
        maps = tuple(m.transpose() for m in maps)
    return {
        "format": COMPLEX_FORMAT,
        "direction": complex_.direction,
        "basis": [[face_label(face) for face in faces] for faces in complex_.basis],
        "maps": [{"rows": m.rows, "cols": m.cols, "entries": m.to_lists()} for m in maps],
    }


def naive_product(a: list[list[int]], b: list[list[int]], inner: int, cols: int) -> list[list[int]]:
    """The dense product of row lists; `inner` and `cols` give the shapes when a dimension is zero."""
    return [[sum(row[k] * b[k][j] for k in range(inner)) for j in range(cols)] for row in a]


def from_columns(rows: int, cols: int, columns: Iterable[Iterable[tuple[int, int]]]) -> IntMatrix:
    """Column j lists (row, value) pairs in any order; values at a repeated row add up, zeros drop."""
    data = []
    for column in columns:
        total: dict[int, int] = {}
        for i, x in column:
            if not 0 <= i < rows:
                raise ValueError(f"row index {i} outside a matrix with {rows} rows")
            total[i] = total.get(i, 0) + int(x)
        data.append(tuple(sorted((i, x) for i, x in total.items() if x)))
    if len(data) != cols:
        raise ValueError(f"expected {cols} columns, got {len(data)}")
    return IntMatrix(rows, cols, tuple(data))


def identity(n: int) -> IntMatrix:
    return IntMatrix(n, n, tuple(((j, 1),) for j in range(n)))


def smith_transforms(matrix: IntMatrix) -> tuple[tuple[int, ...], IntMatrix, IntMatrix]:
    """The diagonal D of the whole dense matrix A, with unimodular U and V such that U A V = D.

    `homology._diagonalize` runs on [[A, I], [I, 0]] with its pivots in A,
    so its row operations write U beside A and its column operations write
    V below it.  No low reduction runs first.
    """
    m, n = matrix.rows, matrix.cols
    a = [row + unit for row, unit in zip(matrix.to_lists(), identity(m).to_lists())]
    a += [unit + [0] * m for unit in identity(n).to_lists()]
    diagonal = _diagonalize(a, m, n)
    left = IntMatrix.from_rows([row[n:] for row in a[:m]], cols=m)
    right = IntMatrix.from_rows([row[:n] for row in a[m:]], cols=n)
    smith = from_columns(m, n, [[(j, d)] for j, d in enumerate(diagonal)] + [[]] * (n - len(diagonal)))
    assert left.mul(matrix).mul(right) == smith
    return diagonal, left, right


def dense_diagonals(complex_: ChainComplex) -> tuple[tuple[int, ...], ...]:
    """The whole-matrix dense Smith diagonal of each map on its own, in any layout."""
    return tuple(smith_transforms(m)[0] for m in complex_.maps)


def all_match(report: ComparisonReport) -> bool:
    """Every row of the comparison is a match."""
    return all(row.verdict == MATCH for row in report.rows)


def euler_characteristic(complex_: SimplicialComplex) -> int:
    return sum((-1) ** k * len(faces) for k, faces in enumerate(complex_.faces_by_dim))


class LengthTooSmall(ValueError):
    pass


def limit_check(sources: Sequence[ChainComplex], length: int) -> bool:
    """Testable reading of the large-length limits.

    For length at least one past the top degree of the first source, the
    positive splice must reproduce the first source's groups on its whole
    support, and the negative splice must reproduce the second source's
    groups on its support.  This is one precise rendering of the informal
    statement that growing the length recovers the plain cohomology in the
    positive direction and the relative cohomology in the negative one.
    """
    if len(sources) != 2:
        raise ValueError("limit_check takes exactly two sources")
    complex1, complex2 = sources
    minimum = max(complex1.top_degree + 1, 1)
    if length < minimum:
        raise LengthTooSmall(f"length {length} is below {minimum}")
    positive = splice(sources, length)
    if spliced_cohomology(positive, complex1.top_degree) != all_groups(complex1):
        return False
    negative = splice_negative(sources, -length)
    return spliced_cohomology(negative, complex2.top_degree) == all_groups(complex2)
