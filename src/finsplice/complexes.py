"""Order complexes and integer (co)chain complexes.

The order complex of a poset has the chains (totally ordered subsets) as
faces.  Faces are stored in relation-ascending vertex order, so the
boundary of [v0 < ... < vk] is the usual alternating sum over deleted
vertices.  A chain complex built from an order complex takes its faces,
vertex-name tuples, as the basis.  Chain complexes carry column-sparse
integer matrices, one layout for both directions: maps[i] is the boundary
from degree i+1 to degree i, one column per face of degree i+1.  The
relative complex keeps the faces outside the subcomplex and their
columns, with the subcomplex entries dropped.  Both builders write each
column already canonical (sorted rows, no zeros), so no matrix is
re-summed.  The cochain complex, the dual Hom(C, Z), holds its chain's
maps as they are and reads them transposed (see `cochain`).

`ChainComplex` and `SimplicialComplex` check nothing; outside input is
checked in `io` and `spaces`.  The builders check only a library caller's
arguments: `order_complex` raises `NotAPoset` on chosen points that are
repeated or twins, `relative_chain_complex` raises `NotASubcomplex`, and
it and `cochain` reject a complex of the wrong direction.  The one check
on the program's own output, that consecutive differentials compose to
zero, is in `checked_complex`, which chain, relative and spliced
complexes go through; a cochain shares its chain's maps and check.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .matrices import IntMatrix
from .orders import strictify
from .records import Record
from .spaces import Preorder

if TYPE_CHECKING:
    from .homology import SmithTable

HOMOLOGICAL = "homological"
COHOMOLOGICAL = "cohomological"


class NotAPoset(ValueError):
    def __init__(self, x: str, y: str):
        self.witness = (x, y)
        super().__init__(f"relation is not antisymmetric: {x} <= {y} and {y} <= {x}")


class NotASubcomplex(ValueError):
    pass


class SimplicialComplex(NamedTuple):
    """Faces by dimension, each sorted; `order_complex` makes them downward closed and vertex-covering."""

    vertices: tuple[str, ...]
    faces_by_dim: tuple[tuple[tuple[str, ...], ...], ...]

    @property
    def dim(self) -> int:
        return len(self.faces_by_dim) - 1

    def faces(self, dim: int) -> tuple[tuple[str, ...], ...]:
        if 0 <= dim < len(self.faces_by_dim):
            return self.faces_by_dim[dim]
        return ()

    def face_counts(self) -> tuple[int, ...]:
        return tuple(len(faces) for faces in self.faces_by_dim)


def order_complex(
    preorder: Preorder,
    points: Iterable[str] | None = None,
    relation: str = "leq",
) -> SimplicialComplex:
    """Order complex of the relation restricted to the given points.

    relation "leq" uses the preorder itself, "strict" its strictification.
    The restriction must be antisymmetric; callers with an indistinguishable
    pair must decompose first.  Chains are listed level by level: each
    k-face, in sorted order, is extended by each strict successor of its
    last point, in name order as read off that point's row.  So every chain
    is listed once, ascending, and each level comes out sorted without a
    sort.  The four-point circle has two minima below two maxima:

    >>> from finsplice import PSEUDO_S1, specialisation_preorder
    >>> order_complex(specialisation_preorder(PSEUDO_S1)).faces_by_dim
    ((('a',), ('b',), ('c',), ('d',)), (('c', 'a'), ('c', 'b'), ('d', 'a'), ('d', 'b')))
    """
    if relation not in ("leq", "strict"):
        raise ValueError(f"unknown relation selector {relation!r}")
    rel = preorder if relation == "leq" else strictify(preorder)
    pts = tuple(sorted(points)) if points is not None else preorder.points
    chosen = preorder.mask_of(pts)
    repeated = preorder.mask_of(x for x, y in zip(pts, pts[1:]) if x == y)
    # The first pair of the sorted points related both ways starts at the
    # least chosen point that is repeated or has a chosen twin in its class.
    above = {}
    for i, x in enumerate(preorder.points):
        if not chosen >> i & 1:
            continue
        if repeated >> i & 1:
            raise NotAPoset(x, x)
        twins = rel.up[i] & rel.down[i] & chosen & ~(1 << i)
        if twins:
            raise NotAPoset(x, rel.unmask(twins)[0])
        above[x] = rel.unmask(rel.up[i] & chosen & ~(1 << i))
    faces_by_dim, faces = [], [(x,) for x in pts]
    while faces:
        faces_by_dim.append(tuple(faces))
        faces = [face + (y,) for face in faces for y in above[face[-1]]]
    return SimplicialComplex(pts, tuple(faces_by_dim))


class ChainComplex(Record):
    """Graded free abelian groups with integer differentials.

    Homological complexes lower degree, cohomological raise it.  In both
    directions maps[i] is the boundary from degree i+1 to degree i, of
    shape dim(i) x dim(i+1); a cohomological complex reads it transposed as
    its coboundary from degree i to i+1.  Ranks and Smith diagonals do not
    change under transposition, so of the group readers only
    `SmithTable.group` and `spliced_cohomology`, which tell a kernel from a
    cokernel, read the direction.  basis[k] lists the degree-k basis
    elements, faces for the complexes made here.  Built through
    `checked_complex`, its maps compose to zero and its top degree is
    nonempty.  `smith` assumes both the boundary layout and maps that
    compose to zero: `SmithTable.of` deletes the columns of maps[k] that the
    +-1 lows of maps[k+1] make boundaries.
    """

    __slots__ = ("direction", "basis", "maps", "__dict__")
    _fields = ("direction", "basis", "maps")

    def __init__(self, direction: str, basis: tuple[tuple[tuple[str, ...], ...], ...], maps: tuple[IntMatrix, ...]):
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "maps", maps)

    @property
    def top_degree(self) -> int:
        return len(self.basis) - 1

    def dim(self, k: int) -> int:
        if 0 <= k < len(self.basis):
            return len(self.basis[k])
        return 0

    def map_between(self, i: int) -> IntMatrix:
        """maps[i], the dim(i) x dim(i+1) map between degrees i and i+1, zero outside range."""
        if 0 <= i < len(self.maps):
            return self.maps[i]
        return IntMatrix.zeros(self.dim(i), self.dim(i + 1))

    @cached_property
    def smith(self) -> SmithTable:
        """Dimensions and Smith diagonals of the differentials, built on first use."""
        from .homology import SmithTable  # homology imports this module

        return SmithTable.of(self)


def checked_complex(
    direction: str, basis: Sequence[Sequence[tuple[str, ...]]], maps: Sequence[IntMatrix]
) -> ChainComplex:
    """The complex, trailing empty degrees dropped, once its maps compose to zero.

    The maps are in the one layout of `ChainComplex` whatever the direction,
    so the check is maps[i] times maps[i+1]; for a cochain that product is
    the transpose of the composite coboundary.  A map whose shape does not
    meet its neighbour's raises in `IntMatrix.mul`.  An all-empty basis
    gives the zero complex.
    """
    top = -1
    for k, faces in enumerate(basis):
        if faces:
            top = k
    basis, maps = tuple(basis[: top + 1]), tuple(maps[: max(top, 0)])
    for i in range(len(maps) - 1):
        if not maps[i].mul(maps[i + 1]).is_zero():
            raise ValueError(f"differentials at degrees {i}..{i + 2} do not compose to zero")
    return ChainComplex(direction, basis, maps)


def chain_complex(complex_: SimplicialComplex) -> ChainComplex:
    """Simplicial chain complex over the integers.

    Degree-k basis elements are the k-faces, in the complex's sorted order:
    the basis is `complex_.faces_by_dim` itself.  The boundary of a face is
    the alternating sum over deleted vertices: `combinations(face, k)`
    lists the facets from the last vertex deleted to the first, so their
    signs run (-1)^k down to (-1)^0.  A face lists its vertices in relation
    order, not name order, so the rows of its k+1 facets are sorted before
    the column is stored.
    """
    maps = []
    for k in range(1, len(complex_.faces_by_dim)):
        rows = {face: i for i, face in enumerate(complex_.faces_by_dim[k - 1])}
        signs = [(-1) ** i for i in range(k, -1, -1)]
        columns = tuple([tuple(sorted(zip(map(rows.__getitem__, combinations(face, k)), signs)))
                         for face in complex_.faces_by_dim[k]])
        maps.append(IntMatrix(len(rows), len(columns), columns))
    return checked_complex(HOMOLOGICAL, complex_.faces_by_dim, maps)


def relative_chain_complex(ambient: ChainComplex, sub: ChainComplex) -> ChainComplex:
    """Quotient of the ambient chain complex by a subcomplex.

    Degree-k basis elements are the ambient faces not in the subcomplex;
    differentials are the ambient ones with the subcomplex coordinates
    deleted.  The kept rows are renumbered in ascending order, so each
    filtered column stays sorted and free of zeros.  The subcomplex is
    contained in the ambient complex when, in each degree, as many ambient
    faces lie in it as it has faces.
    """
    if ambient.direction != HOMOLOGICAL or sub.direction != HOMOLOGICAL:
        raise ValueError("relative complexes are built from homological complexes")
    keep: list[list[int]] = []
    for k, ambient_faces in enumerate(ambient.basis):
        sub_faces = set(sub.basis[k]) if k < len(sub.basis) else set()
        keep.append([i for i, face in enumerate(ambient_faces) if face not in sub_faces])
        if len(ambient_faces) - len(keep[k]) != len(sub_faces):
            raise NotASubcomplex(f"degree {k} basis of the subcomplex is not contained in the ambient basis")
    if len(sub.basis) > len(ambient.basis) and any(len(b) for b in sub.basis[len(ambient.basis):]):
        raise NotASubcomplex("subcomplex has degrees beyond the ambient complex")
    basis = tuple(tuple(faces[i] for i in kept) for faces, kept in zip(ambient.basis, keep))
    maps = []
    for k, m in enumerate(ambient.maps):
        rows = {i: new for new, i in enumerate(keep[k])}
        columns = tuple([tuple([(rows[i], x) for i, x in m.columns[j] if i in rows]) for j in keep[k + 1]])
        maps.append(IntMatrix(len(rows), len(columns), columns))
    return checked_complex(HOMOLOGICAL, basis, maps)


def cochain(chain: ChainComplex) -> ChainComplex:
    """The dual complex Hom(C, Z): the same bases and the very same maps, read transposed.

    The coboundary from degree k to k+1 is the transpose of the boundary
    maps[k], and the two share one Smith diagonal, so the dual keeps the
    boundary orientation that reduces cheaply.  The chain's maps compose to
    zero, so the dual is wrapped without repeating that check.  The
    four-point circle has H^1 = Z:

    >>> from finsplice import PSEUDO_S1, build_pipeline
    >>> circle = build_pipeline(PSEUDO_S1).poset_chain
    >>> cochain(circle).maps is circle.maps
    True
    >>> str(cochain(circle).smith.group(1))
    'Z'
    """
    if chain.direction != HOMOLOGICAL:
        raise ValueError("cochain expects a homological complex")
    return ChainComplex(COHOMOLOGICAL, chain.basis, chain.maps)
