"""Order complexes and integer (co)chain complexes.

The order complex of a poset has the chains (totally ordered subsets) as
faces.  Faces are stored in relation-ascending vertex order, so the
boundary of [v0 < ... < vk] is the usual alternating sum over deleted
vertices.  A chain complex built from an order complex takes its faces,
vertex-name tuples, as the basis.  Chain complexes carry column-sparse
integer matrices, one layout for both directions: maps[i] is the
coboundary from degree i to degree i+1, one column per face of degree i
listing the faces of degree i+1 that hold it, with their signs.  The
complex relative to a set of points has the faces that hold a point
outside it; the faces on those points alone span a full subcomplex.  Both
builders go through `_coboundaries`, which builds no map: its maps are a
`Coboundaries` of the faces, which builds each degree's map on first read,
each column already canonical (sorted rows, no zeros), so no matrix is
re-summed.  `SmithTable.of` reads the lows of every map above degree 0
from the faces, with `Coboundaries.lowest_cofaces`, and builds a map only
where they collide.  A homological complex reads its maps transposed, as
boundaries; the cochain complex, the dual Hom(C, Z), holds its chain's
maps as they are (see `cochain`).

`ChainComplex` and `SimplicialComplex` check nothing; outside input is
checked in `io` and `spaces`.  The builders check only a library caller's
arguments: `order_complex` raises `NotAPoset` on a relation that is not
antisymmetric, and `cochain` rejects a complex of the wrong direction.
No builder multiplies its maps: boundaries of sorted faces closed under
taking facets compose to zero, and so do their restrictions to the
upward-closed relative faces.  `checked_complex` multiplies each
pair of consecutive maps and raises unless the product is zero;
`SplicedComplex.assembled` and the tests build through it, and
`test_compositions_are_zero` multiplies out the chain and relative maps.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import chain, combinations, count, repeat
from typing import TYPE_CHECKING, NamedTuple

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


class SimplicialComplex(NamedTuple):
    """Faces by dimension, each sorted; `order_complex` makes them downward closed."""

    faces_by_dim: tuple[tuple[tuple[str, ...], ...], ...]

    def face_counts(self) -> tuple[int, ...]:
        return tuple(len(faces) for faces in self.faces_by_dim)


def order_complex(preorder: Preorder, relation: str = "leq") -> SimplicialComplex:
    """Order complex of the relation on all of the preorder's points.

    relation "leq" uses the preorder itself, "strict" its strictification.
    The relation must be antisymmetric, or `NotAPoset` names the first point
    with a twin and that twin; callers with an indistinguishable pair must
    decompose first.  Chains are listed level by level: each k-face, in
    sorted order, is extended by each strict successor of its last point,
    in name order as read off that point's row.  So every chain is listed
    once, ascending, and each level comes out sorted without a sort.  The
    four-point circle has two minima below two maxima:

    >>> from finsplice import PSEUDO_S1, specialisation_preorder
    >>> order_complex(specialisation_preorder(PSEUDO_S1)).faces_by_dim
    ((('a',), ('b',), ('c',), ('d',)), (('c', 'a'), ('c', 'b'), ('d', 'a'), ('d', 'b')))
    """
    if relation not in ("leq", "strict"):
        raise ValueError(f"unknown relation selector {relation!r}")
    rel = preorder if relation == "leq" else strictify(preorder)
    above = {}
    for i, x in enumerate(rel.points):
        twins = rel.same[i] & ~(1 << i)
        if twins:
            raise NotAPoset(x, rel.unmask(twins)[0])
        above[x] = rel.unmask(rel.up[i] & ~(1 << i))
    faces_by_dim, faces = [], [(x,) for x in rel.points]
    while faces:
        faces_by_dim.append(tuple(faces))
        faces = [face + (y,) for face in faces for y in above[face[-1]]]
    return SimplicialComplex(tuple(faces_by_dim))


class ChainComplex(Record):
    """Graded free abelian groups with integer differentials.

    Homological complexes lower degree, cohomological raise it.  In both
    directions maps[i] is the coboundary from degree i to degree i+1, of
    shape dim(i+1) x dim(i); a homological complex reads it transposed as
    its boundary from degree i+1 to i.  Ranks and Smith diagonals do not
    change under transposition, so the group readers name the maps at
    degree k by their place, maps[k] above and maps[k-1] below, and only
    `SmithTable.group`, which takes the torsion from the one entering
    degree k, reads the direction.  basis[k] lists the degree-k basis
    elements, faces for the complexes made here.  Built by `_coboundaries`
    or `checked_complex`, its maps compose to zero and its top degree is
    nonempty.  `maps` is a sequence of `IntMatrix`: a tuple when given,
    a `Coboundaries` that builds each map on first read when built from
    faces.  `smith` assumes both the coboundary layout and maps that
    compose to zero: `SmithTable.of` reduces the maps bottom-up, and
    deletes the columns of the coboundary out of degree k that the +-1
    lows of the one out of degree k-1 make coboundaries.
    """

    __slots__ = ("direction", "basis", "maps", "__dict__")
    _fields = ("direction", "basis", "maps")

    @property
    def top_degree(self) -> int:
        return len(self.basis) - 1

    def dim(self, k: int) -> int:
        if 0 <= k < len(self.basis):
            return len(self.basis[k])
        return 0

    def map_between(self, i: int) -> IntMatrix:
        """maps[i], the dim(i+1) x dim(i) map between degrees i and i+1, zero outside range."""
        if 0 <= i < len(self.maps):
            return self.maps[i]
        return IntMatrix.zeros(self.dim(i + 1), self.dim(i))

    @cached_property
    def smith(self) -> SmithTable:
        """Dimensions and Smith diagonals of the differentials, built on first use.

        Chain and cochain complexes alike go through `SmithTable.of`, which
        reduces the maps from degree 0 up, reading the lows of a
        `Coboundaries` above degree 0 from the faces.
        """
        from .homology import SmithTable  # homology imports this module

        return SmithTable.of(self)


def checked_complex(
    direction: str, basis: Sequence[Sequence[tuple[str, ...]]], maps: Sequence[IntMatrix]
) -> ChainComplex:
    """The complex, trailing empty degrees dropped, once its maps compose to zero.

    `SplicedComplex.assembled` and the tests build complexes through here.
    The maps are in the one layout of `ChainComplex` whatever the direction,
    so the check is maps[i+1] times maps[i]; for a chain complex that
    product is the transpose of the composite boundary.  A map whose shape
    does not meet its neighbour's raises in `IntMatrix.mul`.  An all-empty
    basis gives the zero complex.
    """
    basis = _through_top(basis)
    maps = tuple(maps[: max(len(basis) - 1, 0)])
    for i in range(len(maps) - 1):
        if not maps[i + 1].mul(maps[i]).is_zero():
            raise ValueError(f"differentials at degrees {i}..{i + 2} do not compose to zero")
    return ChainComplex(direction, basis, maps)


def _through_top(basis: Sequence[Sequence[tuple[str, ...]]]) -> tuple:
    """The degrees of `basis` up to its last nonempty one; none when every degree is empty."""
    top = max((k for k, faces in enumerate(basis) if faces), default=-1)
    return tuple(basis[: top + 1])


def chain_complex(complex_: SimplicialComplex) -> ChainComplex:
    """Simplicial chain complex over the integers: the basis is `complex_.faces_by_dim` itself."""
    return _coboundaries(complex_.faces_by_dim)


def relative_chain_complex(ambient: SimplicialComplex, points: Iterable[str]) -> ChainComplex:
    """Quotient of the ambient chain complex by the full subcomplex on the given points.

    Degree-k basis elements are the ambient k-faces holding a point outside
    `points`, in the ambient sorted order.  Every coface of such a face holds
    that point too, so the relative faces are closed upward, and a facet of
    a relative face either is relative or lies in the subcomplex, where
    `_coboundaries` skips it.  No points give `chain_complex(ambient)`, all
    of its vertices the zero complex.
    """
    inside = frozenset(points)
    return _coboundaries([tuple(f for f in faces if not inside.issuperset(f)) for faces in ambient.faces_by_dim])


def _coboundaries(basis: Sequence[tuple[tuple[str, ...], ...]]) -> ChainComplex:
    """The homological complex on the basis, faces by degree, each degree sorted and closed upward.

    `chain_complex` and `relative_chain_complex` build through here.  Trailing
    empty degrees, which only a relative basis has, are dropped: a T0
    space's relative basis gives the zero complex.  No map is built here:
    the maps are a `Coboundaries` of the basis, which builds each degree's
    map on first read, and `SmithTable.of` reads the lows of every map
    above degree 0 from the faces, building a map only where they collide.
    The maps compose to zero (see the module docstring), so nothing here
    multiplies them.
    """
    basis = _through_top(basis)
    return ChainComplex(HOMOLOGICAL, basis, Coboundaries(basis))


class Coboundaries(Sequence):
    """The coboundaries of a basis of faces, maps[k] from degree k to k+1, each built on first read.

    A read-only sequence of `IntMatrix`: indexing builds that one degree's
    map and keeps it, and it compares, hashes and prints as the tuple of
    its maps.  It pickles as its basis, which fixes every map.

    The boundary of a face is the alternating sum over deleted vertices:
    `combinations(face, k + 1)` lists the facets of a (k+1)-face from the
    last vertex deleted to the first, so their signs run (-1)^(k+1) down to
    (-1)^0.  `facet_rows(k)` is one C-level pass over those facets, face by
    face, giving each one's row in basis[k], or -1 outside it.  `build`
    appends each (k+1)-face, with its sign, to the column of each of its
    facets, sharing its two (row, +-1) pairs; the faces come in sorted
    order and meet each facet once, so every column comes out sorted with
    no entry summed.  The last pair of a column is its lowest coface, so
    `lowest_cofaces` reads every column's low off the same pass without
    building the map.
    """

    __slots__ = ("basis", "_built")

    def __init__(self, basis: tuple[tuple[tuple[str, ...], ...], ...]):
        self.basis = basis
        self._built: list[IntMatrix | None] = [None] * max(len(basis) - 1, 0)

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, k):
        degrees = range(len(self._built))[k]  # raises IndexError, as a tuple would
        if isinstance(degrees, range):
            return tuple(map(self.__getitem__, degrees))
        return self._built[degrees] or self.build(degrees, self.facet_rows(degrees))

    def __eq__(self, other):
        if isinstance(other, (tuple, Coboundaries)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __reduce__(self):
        return Coboundaries, (self.basis,)

    def facet_rows(self, k: int) -> list[int]:
        """The row in basis[k] of each facet of each (k+1)-face, face by face; -1 for a facet outside it."""
        rows = dict(zip(self.basis[k], count()))
        return list(map(rows.get, chain.from_iterable(map(combinations, self.basis[k + 1], repeat(k + 1))), repeat(-1)))

    def lowest_cofaces(self, k: int, facet_rows: list[int]) -> dict[int, int]:
        """The lowest coface of each k-face that has one: its column of maps[k] and that column's last row.

        Each facet row is paired with its face's index, and the last write
        wins, so each k-face keeps its highest coface, the lowest entry.
        """
        cofaces = chain.from_iterable(map(repeat, range(len(self.basis[k + 1])), repeat(k + 2)))
        lows = dict(zip(facet_rows, cofaces))
        lows.pop(-1, None)
        return lows

    def build(self, k: int, facet_rows: list[int]) -> IntMatrix:
        """maps[k] from `facet_rows(k)`, built once and kept."""
        if self._built[k] is None:
            odd = [i % 2 for i in range(k + 1, -1, -1)]
            columns: list[list[tuple[int, int]]] = [[] for _ in range(len(self.basis[k]) + 1)]
            for j, rows in enumerate(zip(*[iter(facet_rows)] * (k + 2))):
                entries = ((j, 1), (j, -1))
                for row, sign in zip(rows, odd):
                    columns[row].append(entries[sign])
            columns.pop()  # the spare column of the facets outside the basis
            self._built[k] = IntMatrix(len(self.basis[k + 1]), len(columns), tuple(map(tuple, columns)))
        return self._built[k]


def cochain(chain: ChainComplex) -> ChainComplex:
    """The dual complex Hom(C, Z): the same bases and the very same maps.

    The chain complex stores each map as the coboundary, maps[k] from
    degree k to k+1, and reads it transposed; the dual reads it as it is.
    The two share the one maps object, so a map built on first read by
    either is built once.  The dual's table is the chain's: `SmithTable.of`
    takes the same route over the same maps for either, and the dual's
    maps compose to zero as the chain's do.  The four-point circle has
    H^1 = Z:

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
