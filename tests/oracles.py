"""Oracles the tests share that the program itself does not call.

Each computes from first principles something the program derives on its
own route (the relation as pairs, closures, a preorder restricted to some
of its points, the poset part's complex listed on its own under the strict
order, subcomplex inclusion, Euler characteristics, face labels and the
`finsplice-complex/1` form, summed sparse columns, transposes, dense
products, whole-matrix Smith forms with their transforms, groups from
sympy's invariant factors, complex sizes from a chain-counting recurrence,
relative groups by the inflation route and a poset's groups by its ordinal
summands, the block layout and the large-length limits of a splice), so
the tests can set the two against each other.  `all_match` reads
`compare`'s verdicts for the tests that expect every degree to match;
`rp2_face_poset` and `rp2_ordinal_sum` write the projective-plane space
files whose groups carry torsion, and `layered_poset` the layered spaces
of the benchmark's ladder.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import gcd, prod
from typing import Iterable, Sequence

from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors

from finsplice import ChainComplex, GroupPresentation, IntMatrix, Preorder
from finsplice import SimplicialComplex, SplicedComplex, all_groups, order_complex, splice, splice_negative
from finsplice import chain_complex, spliced_cohomology, strictify
from finsplice.cli import escape_names
from finsplice.complexes import COHOMOLOGICAL, HOMOLOGICAL
from finsplice.homology import _diagonalize
from finsplice.pipeline import PipelineData
from finsplice.splice import MATCH

COMPLEX_FORMAT = "finsplice-complex/1"


def relation_pairs(preorder: Preorder) -> frozenset:
    """The relation as (x, y) pairs meaning x <= y."""
    return frozenset((x, y) for x, row in zip(preorder.points, preorder.up) for y in preorder.unmask(row))


def is_leq(preorder: Preorder, x: str, y: str) -> bool:
    """x <= y in the preorder; False when either is not one of its points."""
    pts = preorder.points
    return x in pts and y in pts and bool(preorder.up[pts.index(x)] >> pts.index(y) & 1)


def closure(preorder: Preorder, subset: Iterable[str]) -> tuple[str, ...]:
    """Smallest closed set containing the subset: the union of its points' closures.

    The closure of {y} is the down-set of y, since x <= y exactly when x
    lies in it: x is in the closure when its up row meets the subset.
    """
    target = preorder.mask_of(subset)
    return tuple(x for x, row in zip(preorder.points, preorder.up) if row & target)


def zero_complex(direction: str = COHOMOLOGICAL) -> ChainComplex:
    return ChainComplex(direction, (), ())


def faces(complex_: SimplicialComplex, dim: int) -> tuple[tuple[str, ...], ...]:
    """The faces of one dimension; none outside the complex's range."""
    return complex_.faces_by_dim[dim] if 0 <= dim < len(complex_.faces_by_dim) else ()


def dimension(complex_: SimplicialComplex) -> int:
    """The largest face dimension; -1 for the empty complex."""
    return len(complex_.faces_by_dim) - 1


def is_subcomplex(candidate: SimplicialComplex, ambient: SimplicialComplex) -> bool:
    """True when every face of the candidate is a face of the ambient complex."""
    for dim, candidate_faces in enumerate(candidate.faces_by_dim):
        ambient_faces = set(faces(ambient, dim))
        if any(face not in ambient_faces for face in candidate_faces):
            return False
    return True


def restricted(preorder: Preorder, points: Iterable[str]) -> Preorder:
    """The preorder on the given points alone, each row remapped to their positions.

    Repeated, unknown or no points raise, as `Preorder` or `index` do.
    """
    pts = tuple(sorted(points))
    where = [preorder.points.index(p) for p in pts]
    rows = (sum(1 << j for j, k in enumerate(where) if preorder.up[i] >> k & 1) for i in where)
    return Preorder(pts, rows)


def strict_poset_complex(data: PipelineData) -> SimplicialComplex:
    """The poset part's order complex, listed on its own from the strict order restricted to the representatives.

    The pipeline reads it off the ambient complex instead; on the
    representatives the preorder is antisymmetric, so the two must be equal,
    and this must be a subcomplex of `data.ambient_complex`.
    """
    return order_complex(restricted(strictify(data.preorder), data.decomposition.representatives))


def face_label(face: tuple[str, ...]) -> str:
    """The vertices, escaped by `escape_names`, joined by commas, so labels are injective."""
    return ",".join(escape_names(face))


def complex_to_dict(complex_: ChainComplex) -> dict:
    """The `finsplice-complex/1` form: each face written as its label, each map target-by-source.

    Every complex holds its maps as coboundaries and a chain complex reads
    them transposed (see `complexes`), so its boundaries are transposed here.
    """
    maps = complex_.maps
    if complex_.direction == HOMOLOGICAL:
        maps = tuple(map(transpose, maps))
    return {
        "format": COMPLEX_FORMAT,
        "direction": complex_.direction,
        "basis": [[face_label(face) for face in faces] for faces in complex_.basis],
        "maps": [{"rows": m.rows, "cols": m.cols, "entries": m.to_lists()} for m in maps],
    }


def transpose(matrix: IntMatrix) -> IntMatrix:
    rows: list[list[tuple[int, int]]] = [[] for _ in range(matrix.rows)]
    for j, column in enumerate(matrix.columns):
        for i, x in column:
            rows[i].append((j, x))
    return IntMatrix(matrix.cols, matrix.rows, tuple(map(tuple, rows)))


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


def dense_group(complex_: ChainComplex, k: int, above: bool = True, below: bool = True) -> GroupPresentation:
    """The group at degree k with maps[k] (above) and maps[k-1] (below) kept as flagged, by sympy.

    Each map is oriented as the complex's direction reads it: a chain
    complex's boundaries are the transposes of the stored maps, so
    transpose(maps[k]) enters degree k from k+1 and transpose(maps[k-1])
    leaves it; a cochain complex's coboundaries are the stored maps, so
    maps[k-1] enters and maps[k] leaves.  Free rank is dim(k) less the
    kept maps' ranks, torsion the invariant factors above 1 of the kept
    map that enters.  No code is shared with `SmithTable`.
    """
    if complex_.direction == HOMOLOGICAL:
        into, out = transpose(complex_.map_between(k)), transpose(complex_.map_between(k - 1))
        keep_into, keep_out = above, below
    else:
        into, out = complex_.map_between(k - 1), complex_.map_between(k)
        keep_into, keep_out = below, above
    assert into.rows == out.cols == complex_.dim(k)
    factors_into = sympy_invariant_factors(into) if keep_into else ()
    factors_out = sympy_invariant_factors(out) if keep_out else ()
    rank = complex_.dim(k) - len(factors_into) - len(factors_out)
    return GroupPresentation(rank, tuple(d for d in factors_into if d > 1))


@cache
def sympy_invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    """The nonzero invariant factors by sympy, which shares no code with the program's Smith routine.

    Kept per matrix: `dense_group` reads each map at up to four flag pairs.
    """
    flat = [x for row in m.to_lists() for x in row]
    return tuple(int(d) for d in invariant_factors(Matrix(m.rows, m.cols, flat), domain=ZZ) if d)


def splice_blocks(spliced: SplicedComplex) -> list[tuple[int, int, int]]:
    """(source, source start, spliced start) of each block: block k reads source k mod s from degree floor(k/s)*n.

    Blocks run until every source is past its top degree.
    """
    n, s = abs(spliced.length), len(spliced.sources)
    rounds = max(-(-(c.top_degree + 1) // n) for c in spliced.sources)
    return [(k % s, k // s * n, k * n) for k in range(rounds * s)]


def all_match(verdicts: Sequence[str]) -> bool:
    """Every verdict of the comparison is a match."""
    return all(verdict == MATCH for verdict in verdicts)


def euler_characteristic(complex_: SimplicialComplex) -> int:
    return sum((-1) ** k * len(faces) for k, faces in enumerate(complex_.faces_by_dim))


def counted_sizes(preorder: Preorder, representatives: Iterable[str]) -> dict[str, list[int]]:
    """The poset, ambient and relative face counts of `PipelineData.complex_sizes`, listing no face.

    Faces are chains of the strict order, y above x when y is in
    up[x] & ~same[x].  Among chosen points, f_0(x) = 1 and f_j(x) sums
    f_{j-1}(y) over the chosen y above x, so dimension j has the sum of
    f_j(x) faces (Stanley, Enumerative Combinatorics I, ch. 3).  The poset
    part chooses the representatives and the ambient every point.  A
    relative face is an ambient chain through a complementary point:
    g_0(x) = 1 when x is complementary, and g_j(x) is f_j(x) for a
    complementary x and otherwise sums g_{j-1}(y) over the y above x.
    """
    n = len(preorder.points)
    reps = preorder.mask_of(representatives)
    above = [[j for j in range(n) if (preorder.up[i] & ~preorder.same[i]) >> j & 1] for i in range(n)]

    def counts(chosen: int) -> list[list[int]]:
        f, rows = [chosen >> i & 1 for i in range(n)], []
        while any(f):
            rows.append(f)
            f = [sum(f[j] for j in above[i]) if chosen >> i & 1 else 0 for i in range(n)]
        return rows

    poset, ambient = counts(reps), counts((1 << n) - 1)
    relative, g = [], [0] * n
    for f in ambient:
        g = [sum(g[j] for j in above[i]) if reps >> i & 1 else f[i] for i in range(n)]
        relative.append(sum(g))
    while relative and not relative[-1]:
        relative.pop()
    return {"poset": [sum(f) for f in poset], "ambient": [sum(f) for f in ambient], "relative": relative}


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _strict_up(preorder: Preorder) -> list[int]:
    """Row i: the points strictly above points[i]."""
    return [row & ~same for row, same in zip(preorder.up, preorder.same)]


def _ordinal_summands(preorder: Preorder, mask: int) -> list[int]:
    """The points of `mask`, a poset, cut into ordinal summands Q1 < Q2 < ..., each as a mask.

    The points are taken by decreasing strict up-set, a linear extension,
    and a cut falls wherever every point taken so far lies below every
    later point.  A layered interval cuts into its single levels.
    """
    up = _strict_up(preorder)
    summands, part, below_all, rest = [], 0, -1, mask
    for i in sorted(_bits(mask), key=lambda i: -up[i].bit_count()):
        part, below_all, rest = part | 1 << i, below_all & up[i], rest & ~(1 << i)
        if not rest & ~below_all:
            summands.append(part)
            part = 0
    return summands


def _add(graded: dict, degree: int, rank: int, orders: list[int]) -> None:
    """Add Z^rank and the cyclic groups of the given orders to one degree of (rank, cyclic orders) per degree."""
    old_rank, old_orders = graded.get(degree, (0, []))
    graded[degree] = (old_rank + rank, old_orders + [d for d in orders if d > 1])


def _join(x: dict, y: dict) -> dict:
    """Reduced homology of the join X * Y from that of X and of Y (Milnor).

    Each side maps a degree to (rank, cyclic orders); the empty complex is
    {-1: (1, [])}.  H~_{n+1}(X * Y) sums H~_i X (x) H~_j Y over i + j = n and
    Tor(H~_i X, H~_j Y) over i + j = n - 1, with Z/a (x) Z/b = Tor(Z/a, Z/b) =
    Z/gcd(a, b).
    """
    out: dict[int, tuple[int, list[int]]] = {}
    for i, (a, s) in x.items():
        for j, (b, t) in y.items():
            tor = [gcd(u, v) for u in s for v in t]
            _add(out, i + j + 1, a * b, s * b + t * a + tor)
            _add(out, i + j + 2, 0, tor)
    return out


def _reduced_by_summands(preorder: Preorder, mask: int) -> dict:
    """Reduced homology of the points of `mask` as (rank, cyclic orders) per degree: its summands listed and joined."""
    joined = {-1: (1, [])}
    for summand in _ordinal_summands(preorder, mask):
        groups = all_groups(chain_complex(order_complex(restricted(preorder, preorder.unmask(summand)))))
        joined = _join(joined, {k: (g.rank - (k == 0), list(g.torsion)) for k, g in enumerate(groups)})
    return joined


def _presentations(graded: dict) -> dict[int, GroupPresentation]:
    """The nonzero degrees, each group with its torsion as invariant factors, since Z/2 + Z/3 is Z/6."""
    out = {}
    for degree, (rank, orders) in sorted(graded.items()):
        diagonal = from_columns(len(orders), len(orders), [[(j, d)] for j, d in enumerate(orders)])
        torsion = tuple(d for d in sympy_invariant_factors(diagonal) if d > 1)
        if rank or torsion:
            out[degree] = GroupPresentation(rank, torsion)
    return out


def ordinal_sum_homology(preorder: Preorder, points: Iterable[str]) -> dict[int, GroupPresentation]:
    """The nonzero reduced homology groups of the order complex of `points`, a poset, by ordinal summands.

    K(Q1 + Q2) = K(Q1) * K(Q2), so only each summand is listed.
    """
    return _presentations(_reduced_by_summands(preorder, preorder.mask_of(points)))


def inflation_relative_homology(preorder: Preorder, representatives: Iterable[str]) -> tuple[GroupPresentation, ...]:
    """H_k(ambient, poset part) for k = 0 up to the last nonzero group, listing only summands of intervals.

    The ambient order is the poset part P with each point x blown up to an
    antichain of its m_x class members, so (Björner, Wachs & Welker, "Poset
    fiber theorems", Trans. AMS 2005, section 6) H_k(ambient, P) sums, over
    the chains F = x1 < ... < xj of P whose points all have m_x >= 2,
    nu(F) = prod(m_x - 1) copies of H~_{k-j}(lk F).  lk F is the join of the
    open intervals (-inf, x1), (x1, x2), ..., (xj, inf) of P; an empty one
    has H~_{-1} = Z.
    """
    reps, up = preorder.mask_of(representatives), _strict_up(preorder)
    down = [sum(1 << j for j in _bits(reps) if up[j] >> i & 1) for i in range(len(up))]
    doubled = [i for i in _bits(reps) if preorder.same[i].bit_count() > 1]
    total: dict[int, tuple[int, list[int]]] = {}
    chains = [[i] for i in doubled]
    while chains:
        for chain in chains:
            between = [up[x] & down[y] for x, y in zip(chain, chain[1:])]
            intervals = [down[chain[0]], *between, reps & up[chain[-1]]]
            link = {-1: (1, [])}
            for interval in intervals:
                link = _join(link, _reduced_by_summands(preorder, interval))
            nu = prod(preorder.same[x].bit_count() - 1 for x in chain)
            for degree, (rank, orders) in link.items():
                _add(total, degree + len(chain), nu * rank, orders * nu)
        chains = [chain + [y] for chain in chains for y in doubled if up[chain[-1]] >> y & 1]
    groups = _presentations(total)
    return tuple(groups.get(k, GroupPresentation()) for k in range(max(groups, default=-1) + 1))


# The 6-vertex real projective plane, as its ten triangles.
RP2_TRIANGLES = ("123", "126", "134", "145", "156", "235", "245", "246", "346", "356")


def rp2_face_poset(variant: str) -> dict:
    """A `leq` space document: the face poset of the projective plane, x <= y when face x lies in face y.

    "plain" is the 31 faces; "12-doubled" adds a twin of the edge 12;
    "cone-doubled" adds a point o below every face and its twin o'.
    """
    points = sorted({"".join(face) for t in RP2_TRIANGLES for k in (1, 2, 3) for face in combinations(t, k)})
    leq = [[x, y] for x in points for y in points if x != y and set(x) <= set(y)]
    if variant == "12-doubled":
        points.append("12'")
        leq += [["12", "12'"], ["12'", "12"]]
    elif variant == "cone-doubled":
        leq += [[o, face] for o in ("o", "o'") for face in points] + [["o", "o'"], ["o'", "o"]]
        points += ["o", "o'"]
    return {"points": points, "leq": leq}


def rp2_ordinal_sum(doubled: bool) -> dict:
    """A `leq` space document: every point of one projective-plane face poset lies below every point of a second copy.

    The lower copy's points are the faces prefixed "l", the upper copy's
    prefixed "u".  `doubled` adds "l1'", a twin of the lower vertex 1.
    """
    plain = rp2_face_poset("plain")
    lower, upper = ["l" + x for x in plain["points"]], ["u" + x for x in plain["points"]]
    leq = [[prefix + x, prefix + y] for prefix in "lu" for x, y in plain["leq"]]
    leq += [[x, y] for x in lower for y in upper]
    if doubled:  # the twin takes l1's relations through the closure
        lower.append("l1'")
        leq += [["l1", "l1'"], ["l1'", "l1"]]
    return {"points": lower + upper, "leq": leq}


def layered_poset(levels: int, width: int, doubled: int) -> dict:
    """A `leq` space document: the benchmark's levels x width x doubled shape.

    Level i holds the points "<letter i><j>" for j below the width, and every
    point lies below every point of the next level.  The first point of each
    of the lowest `doubled` levels gets a twin; the face counts do not depend
    on which levels or points are doubled.
    """
    names = [[f"{chr(ord('a') + i)}{j}" for j in range(width)] for i in range(levels)]
    points = [p for level in names for p in level]
    leq = [[x, y] for lower, upper in zip(names, names[1:]) for x in lower for y in upper]
    for level in names[:doubled]:
        points.append(level[0] + "'")
        leq += [[level[0], level[0] + "'"], [level[0] + "'", level[0]]]
    return {"points": points, "leq": leq}


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
