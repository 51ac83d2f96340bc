"""Finite topological spaces, held as their specialisation preorders.

The specialisation preorder sets x <= y exactly when x lies in the closure
of {y}; it is reflexive and transitive but in general not antisymmetric.
By the Alexandrov correspondence it determines the space, whose opens are
its up-closed sets, so a finite space is held as its `Preorder`.  Opens
exist only at the I/O edge: `validate_topology` reads an explicit family,
and `Preorder.opens` lists the family for the writers.

Subsets of the points are bitmasks over the sorted points, and a
`Preorder` is one such row per point: its up-set, which is also the
point's minimal open.  Two points are indistinguishable exactly when
their up rows are equal, so each point's class row, derived once from
that grouping, is kept beside them.  Every layer that reads a preorder
works on these rows with word operations;
(x, y) pairs appear only in relation input.  Names become bits in one
place, `_mask`, against a name-to-position index; it alone raises
`UnknownPoint`, and it reads names as given, never as their `str()`.
Relation input is closed by Warshall's algorithm on the rows, and
minimal-open generators and explicit families are intersected into rows,
so no input form lists the opens or the 2^n subsets of the points.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Mapping

from .records import Record


def _fmt(points: Iterable[str]) -> str:
    return "{" + ", ".join(map(str, points)) + "}"


class TopologyError(ValueError):
    """Input does not describe a topology on the given points."""


class MissingEmptySet(TopologyError):
    def __init__(self):
        super().__init__("the empty set is not in the open-set family")


class MissingWholeSet(TopologyError):
    def __init__(self):
        super().__init__("the full point set is not in the open-set family")


class NotClosedUnderUnion(TopologyError):
    def __init__(self, a: tuple[str, ...], b: tuple[str, ...]):
        self.witness = (a, b)
        super().__init__(f"union of opens {_fmt(a)} and {_fmt(b)} is not open")


class NotClosedUnderIntersection(TopologyError):
    def __init__(self, a: tuple[str, ...], b: tuple[str, ...]):
        self.witness = (a, b)
        super().__init__(f"intersection of opens {_fmt(a)} and {_fmt(b)} is not open")


class UnknownPoint(TopologyError):
    def __init__(self, point: str):
        self.point = point
        super().__init__(f"unknown point {point!r}")


class InvalidPreorder(ValueError):
    """Relation is not reflexive or not transitive over its points."""


def _mask(names: Iterable[str], index: Mapping[str, int]) -> int:
    """The bitmask of the names under the index; the first unknown name raises UnknownPoint."""
    m = 0
    for p in names:
        try:
            m |= 1 << index[p]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise UnknownPoint(p) from None
    return m


def _minimal_opens(masks: Iterable[int], n: int) -> list[int]:
    """Each point's minimal open: the intersection of the members that contain it.

    A point in no member keeps the full mask.  The work is the total size of
    the members.
    """
    minimal = [(1 << n) - 1] * n
    for m in masks:
        rest = m
        while rest:
            low = rest & -rest
            minimal[low.bit_length() - 1] &= m
            rest ^= low
    return minimal


def _union_closure(rows: Iterable[int], limit: int | None = None) -> set[int] | None:
    """The unions of the distinct rows, the empty union included.

    The work grows with the size of the closure, not with the 2^n subsets;
    None is returned as soon as the closure holds more than `limit` masks.
    """
    closure = {0}
    for u in set(rows):
        closure |= {m | u for m in closure}
        if limit is not None and len(closure) > limit:
            return None
    return closure


def _lowest(m: int) -> int:
    """Index of the lowest set bit of a nonzero mask."""
    return (m & -m).bit_length() - 1


def _sorted_points(points: Iterable[str]) -> tuple[str, ...]:
    pts = tuple(sorted(points))
    if not pts:
        raise InvalidPreorder("point set must be nonempty")
    if any(a == b for a, b in zip(pts, pts[1:])):
        raise InvalidPreorder("point identifiers must be distinct")
    return pts


class Preorder(Record):
    """A reflexive transitive relation on sorted points, stored as bit rows.

    Bit j of up[i] is set when points[i] <= points[j], so up[i] is the
    minimal open of points[i].  `Preorder(points, up)` takes the points in
    sorted order and the up rows, and validates them: every bit i of up[i]
    is set, and up[j] lies inside up[i] for every j in up[i].  The first
    violation in point order is named.  Points with equal rows (an
    indistinguishability class) share one transitivity check and one pass
    over the row's bits, and that grouping gives same[i], the class of
    points[i]: the points whose up row equals up[i], those related to it
    both ways.  `strictify` and `preorder_from_relation`, whose rows are
    valid by construction, skip the checks through `_from_valid_rows`.

    The Sierpinski space, with opens {}, {b} and {a, b}, has a <= b:

    >>> from finsplice import SIERP
    >>> SIERP.points, SIERP.up, SIERP.same
    (('a', 'b'), (3, 2), (1, 2))
    >>> SIERP.unmask(SIERP.up[0])
    ('a', 'b')
    """

    __slots__ = ("points", "up", "same", "__dict__")
    _fields = ("points", "up")  # same and opens are derived from up

    def __init__(self, points: Iterable[str], up: Iterable[int]):
        pts, up = tuple(points), tuple(up)
        if pts != _sorted_points(pts):
            raise InvalidPreorder("rows need the points in sorted order")
        n = len(pts)
        if len(up) != n:
            raise InvalidPreorder(f"expected {n} rows, got {len(up)}")
        members: dict[int, int] = {}
        for i, row in enumerate(up):
            if row >> n:
                raise InvalidPreorder(f"row of {pts[i]} has bits beyond the {n} points")
            if not row >> i & 1:
                raise InvalidPreorder(f"not reflexive: missing ({pts[i]}, {pts[i]})")
            members[row] = members.get(row, 0) | 1 << i
        for row, who in members.items():
            rest = row
            while rest:
                low = rest & -rest
                j = low.bit_length() - 1
                missing = up[j] & ~row
                if missing:
                    x, y, z = pts[_lowest(who)], pts[j], pts[_lowest(missing)]
                    raise InvalidPreorder(f"not transitive: {x} <= {y} <= {z} but not {x} <= {z}")
                rest ^= low
        self._set_rows(pts, up, members)

    @classmethod
    def _from_valid_rows(cls, points: tuple[str, ...], up: tuple[int, ...]) -> Preorder:
        """The preorder of rows that are valid by construction: only `same` is derived, nothing checked.

        `orders.strictify` (a strict order plus its diagonal) and
        `preorder_from_relation` (a Warshall closure) build through here.
        """
        self = object.__new__(cls)
        members: dict[int, int] = {}
        for i, row in enumerate(up):
            members[row] = members.get(row, 0) | 1 << i
        self._set_rows(points, up, members)
        return self

    def _set_rows(self, points: tuple[str, ...], up: tuple[int, ...], members: dict[int, int]) -> None:
        """Set the fields, and same[i] from `members`, the points of each distinct row."""
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "same", tuple(map(members.__getitem__, up)))

    def mask_of(self, subset: Iterable[str]) -> int:
        return _mask(subset, {p: i for i, p in enumerate(self.points)})

    def unmask(self, m: int) -> tuple[str, ...]:
        """The points whose bits are set in m, in sorted order."""
        out = []
        while m:
            low = m & -m
            out.append(self.points[low.bit_length() - 1])
            m ^= low
        return tuple(out)

    @cached_property
    def opens(self) -> tuple[tuple[str, ...], ...]:
        """Every open, sorted, built on first use as the union-closure of the up-set rows.

        The Sierpinski space:

        >>> Preorder(("a", "b"), (0b11, 0b10)).opens
        ((), ('a', 'b'), ('b',))
        """
        return tuple(sorted(map(self.unmask, _union_closure(self.up))))


def validate_topology(points: Iterable[str], opens: Iterable[Iterable[str]]) -> Preorder:
    """The preorder of an explicit family of opens, the one reader of such a family.

    A TopologyError subclass names the first violation: bad points, an
    unknown point, a missing empty or full set.  Then the family must equal
    the union-closure of its minimal opens (the intersection of the members
    containing each point), in time about n times the number of members; a
    family that does not is scanned pair by pair for the first pair whose
    union (then intersection) is missing.  The minimal opens are the rows
    of the returned preorder.
    """
    pts = list(points)
    if not pts:
        raise TopologyError("point set must be nonempty")
    if len(set(pts)) != len(pts):
        raise TopologyError("point identifiers must be distinct")
    pts = tuple(sorted(pts))
    index = {p: i for i, p in enumerate(pts)}

    masks = {_mask(open_set, index) for open_set in opens}

    if 0 not in masks:
        raise MissingEmptySet()
    if (1 << len(pts)) - 1 not in masks:
        raise MissingWholeSet()
    # Minimal-open rows are reflexive and transitive for any family, so this
    # cannot raise.
    preorder = Preorder(pts, _minimal_opens(masks, len(pts)))
    # A topology is exactly the union-closure of its minimal opens; conversely,
    # if the family equals that closure, the intersection of two minimal opens
    # is the union of the minimal opens of its points, so it is open too.
    if _union_closure(preorder.up, len(masks)) != masks:
        ordered = sorted(masks)
        for ma, mb in itertools.combinations(ordered, 2):
            if ma | mb not in masks:
                raise NotClosedUnderUnion(preorder.unmask(ma), preorder.unmask(mb))
        for ma, mb in itertools.combinations(ordered, 2):
            if ma & mb not in masks:
                raise NotClosedUnderIntersection(preorder.unmask(ma), preorder.unmask(mb))
    return preorder


def specialisation_preorder(space: Preorder) -> Preorder:
    """The space itself: by Alexandrov, a finite space is its specialisation preorder."""
    return space


def from_preorder(preorder: Preorder) -> Preorder:
    """The preorder itself: by Alexandrov, a preorder is the finite space of its up-closed sets."""
    return preorder


def from_min_opens(points: Iterable[str], min_opens: Mapping[str, Iterable[str]]) -> Preorder:
    """Build a space from minimal-open-set generators.

    The family is the closure of the generators (plus the empty and full
    sets) under union and intersection.  Its minimal open at x is the
    intersection U_x of the generators containing x, so it is the space of
    the preorder whose row at x is U_x.  Every point must lie in its own
    generator.
    """
    pts = tuple(sorted(points))
    if set(min_opens) != set(pts):
        missing = sorted(set(pts) ^ set(min_opens))
        raise TopologyError(f"min_opens keys must match the point set (mismatch: {missing})")
    index = {p: i for i, p in enumerate(pts)}
    generators = []
    for p in pts:
        m = _mask(min_opens[p], index)
        if not m >> index[p] & 1:
            raise TopologyError(f"minimal open of {p!r} does not contain it")
        generators.append(m)
    return Preorder(pts, _minimal_opens(generators, len(pts)))


def preorder_from_relation(points: Iterable[str], pairs: Iterable[tuple[str, str]]) -> Preorder:
    """Reflexive-transitive closure of an arbitrary relation on the points.

    Warshall's algorithm on bitmask rows: after step k, row x holds every y
    reachable from x through intermediate points among the first k.  The
    rows are the preorder's up-set rows, reflexive and transitive by
    construction, so they are not checked again; an unknown name in a pair,
    then an empty or repeated point, raise as `Preorder` would.
    """
    pts = tuple(sorted(points))
    index = {p: i for i, p in enumerate(pts)}
    reach = [1 << i for i in range(len(pts))]
    for x, y in pairs:
        pair = _mask((x, y), index)  # row x holds bit x already
        reach[index[x]] |= pair
    for k in range(len(pts)):
        bit, row_k = 1 << k, reach[k]
        for i, row in enumerate(reach):
            if row & bit:
                reach[i] = row | row_k
    return Preorder._from_valid_rows(_sorted_points(pts), tuple(reach))
