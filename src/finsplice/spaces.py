"""Finite topological spaces and the specialisation preorder.

A space is a finite point set with an explicit family of open sets.  The
specialisation preorder sets x <= y exactly when x lies in the closure of
{y}; it is reflexive and transitive but in general not antisymmetric.  The
Alexandrov correspondence identifies finite spaces with preorders, and
`from_preorder` is the inverse of `specialisation_preorder` under the
up-set convention (the round trip is checked by the test suite).

Subsets of the points are bitmasks over the sorted points, and a
`Preorder` is one such row per point: its up-set, which is also the
point's minimal open, kept with the transposed down-set rows.  Every
layer that reads a preorder works on these rows with word operations;
the (x, y) pairs are only a derived view.  `specialisation_preorder`
takes each point's minimal open (the intersection of the opens containing
it) as its row, relation input is closed by Warshall's algorithm on the
rows, and `from_preorder` builds the opens as unions of the distinct rows,
so none of them enumerates the 2^n subsets of the points.
`from_min_opens` intersects its generators into rows the same way and
goes through `from_preorder`.

An explicit family of opens is validated against the union-closure of its
minimal opens (the intersection of the opens containing each point), which
a topology equals; the pairwise union and intersection scan runs only on a
family that is not a topology, to name the first offending pair.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Mapping


def _fmt(points: Iterable[str]) -> str:
    return "{" + ", ".join(points) + "}"


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


def _generated_by_minimal_opens(masks: set[int], n: int) -> bool:
    """Whether a family holding the empty and the full set is a topology.

    A topology is exactly the union-closure of its minimal opens plus the
    empty set; conversely, if the family equals that closure, the
    intersection of two minimal opens is the union of the minimal opens of
    its points, so the family is closed under intersection too.  The closure
    is given up as soon as it outgrows the family, so the work is at most
    n times the number of members.
    """
    closure = {0}
    for u in set(_minimal_opens(masks, n)):
        closure |= {m | u for m in closure}
        if len(closure) > len(masks):
            return False
    return closure == masks


@dataclass(frozen=True)
class FiniteSpace:
    """A validated finite topological space.

    Point identifiers are opaque strings kept in lexicographic order; that
    order is the tie-breaker everywhere downstream.  Opens are stored
    canonically (each open sorted, family sorted, duplicates removed).
    Construction validates all topology axioms and raises a TopologyError
    subclass naming the first violation.  A family with the empty and the
    full set is accepted when it equals the union-closure of its points'
    minimal opens, in time about n times the number of opens; only a family
    that fails this test is scanned pair by pair, so that the error names
    the same first pair whose union (then intersection) is missing.
    """

    points: tuple[str, ...]
    opens: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        pts = [str(p) for p in self.points]
        if not pts:
            raise TopologyError("point set must be nonempty")
        if len(set(pts)) != len(pts):
            raise TopologyError("point identifiers must be distinct")
        pts = tuple(sorted(pts))
        index = {p: i for i, p in enumerate(pts)}
        full = (1 << len(pts)) - 1

        masks = set()
        for open_set in self.opens:
            m = 0
            for p in open_set:
                if p not in index:
                    raise UnknownPoint(p)
                m |= 1 << index[p]
            masks.add(m)

        def unmask(m: int) -> tuple[str, ...]:
            return tuple(p for i, p in enumerate(pts) if m >> i & 1)

        if 0 not in masks:
            raise MissingEmptySet()
        if full not in masks:
            raise MissingWholeSet()
        if not _generated_by_minimal_opens(masks, len(pts)):
            ordered = sorted(masks)
            for ma, mb in itertools.combinations(ordered, 2):
                if ma | mb not in masks:
                    raise NotClosedUnderUnion(unmask(ma), unmask(mb))
            for ma, mb in itertools.combinations(ordered, 2):
                if ma & mb not in masks:
                    raise NotClosedUnderIntersection(unmask(ma), unmask(mb))

        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "opens", tuple(sorted(unmask(m) for m in masks)))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_masks", frozenset(masks))
        object.__setattr__(self, "_full", full)

    def mask_of(self, subset: Iterable[str]) -> int:
        m = 0
        for p in subset:
            i = self._index.get(p)
            if i is None:
                raise UnknownPoint(p)
            m |= 1 << i
        return m

    def unmask(self, m: int) -> tuple[str, ...]:
        return tuple(p for i, p in enumerate(self.points) if m >> i & 1)


def _lowest(m: int) -> int:
    """Index of the lowest set bit of a nonzero mask."""
    return (m & -m).bit_length() - 1


def _sorted_points(points: Iterable[str]) -> tuple[str, ...]:
    pts = tuple(sorted(str(p) for p in points))
    if not pts:
        raise InvalidPreorder("point set must be nonempty")
    if any(a == b for a, b in zip(pts, pts[1:])):
        raise InvalidPreorder("point identifiers must be distinct")
    return pts


@dataclass(frozen=True, init=False)
class Preorder:
    """A reflexive transitive relation on sorted points, stored as bit rows.

    Bit j of up[i] is set when points[i] <= points[j], so up[i] is the
    minimal open of points[i]; down is the transpose (bit j of down[i] when
    points[j] <= points[i]).  `Preorder(points, pairs)` builds the rows from
    (x, y) pairs meaning x <= y; `from_rows` takes the rows directly.  Both
    validate: every bit i of up[i] is set, and up[j] lies inside up[i] for
    every j in up[i].  Violations are named in sorted order, so the message
    does not depend on the iteration order of the input.  `pairs` and `leq`
    are views derived from the rows.

    The Sierpinski space, with opens {}, {b} and {a, b}, has a <= b:

    >>> from finsplice import SIERP, specialisation_preorder
    >>> sierp = specialisation_preorder(SIERP)
    >>> sierp.points, sierp.up, sierp.down
    (('a', 'b'), (3, 2), (1, 3))
    >>> sorted(sierp.pairs)
    [('a', 'a'), ('a', 'b'), ('b', 'b')]
    """

    points: tuple[str, ...]
    up: tuple[int, ...]
    down: tuple[int, ...] = field(compare=False, repr=False)

    def __init__(self, points: Iterable[str], pairs: Iterable[tuple[str, str]]):
        pts = _sorted_points(points)
        index = {p: i for i, p in enumerate(pts)}
        up = [0] * len(pts)
        unknown = []
        for x, y in pairs:
            x, y = str(x), str(y)
            if x in index and y in index:
                up[index[x]] |= 1 << index[y]
            else:
                unknown.append((x, y))
        if unknown:
            x, y = min(unknown)
            raise UnknownPoint(x if x not in index else y)
        self._set_rows(pts, tuple(up))

    @classmethod
    def from_rows(cls, points: Iterable[str], up: Iterable[int]) -> Preorder:
        """The preorder with the given up-set rows over the given sorted points."""
        pts = tuple(points)
        if pts != _sorted_points(pts):
            raise InvalidPreorder("rows need the points in sorted order")
        preorder = cls.__new__(cls)
        preorder._set_rows(pts, tuple(up))
        return preorder

    def _set_rows(self, pts: tuple[str, ...], up: tuple[int, ...]) -> None:
        """Validate the rows and store them with their transpose.

        Points with equal rows (an indistinguishability class) share one
        transitivity check and one pass over the row's bits.
        """
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
        down = [0] * n
        for row, who in members.items():
            rest = row
            while rest:
                low = rest & -rest
                j = low.bit_length() - 1
                missing = up[j] & ~row
                if missing:
                    x, y, z = pts[_lowest(who)], pts[j], pts[_lowest(missing)]
                    raise InvalidPreorder(f"not transitive: {x} <= {y} <= {z} but not {x} <= {z}")
                down[j] |= who
                rest ^= low
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "down", tuple(down))

    def _position(self, p: str) -> int:
        """Index of p among the points, or -1."""
        if isinstance(p, str):
            i = bisect_left(self.points, p)
            if i < len(self.points) and self.points[i] == p:
                return i
        return -1

    def mask_of(self, subset: Iterable[str]) -> int:
        m = 0
        for p in subset:
            i = self._position(p)
            if i < 0:
                raise UnknownPoint(p)
            m |= 1 << i
        return m

    def unmask(self, m: int) -> tuple[str, ...]:
        """The points whose bits are set in m, in sorted order."""
        out = []
        while m:
            low = m & -m
            out.append(self.points[low.bit_length() - 1])
            m ^= low
        return tuple(out)

    @property
    def pairs(self) -> frozenset:
        """The relation as (x, y) pairs meaning x <= y."""
        return frozenset((x, y) for x, row in zip(self.points, self.up) for y in self.unmask(row))

    def leq(self, x: str, y: str) -> bool:
        i, j = self._position(x), self._position(y)
        return i >= 0 and j >= 0 and bool(self.up[i] >> j & 1)


def validate_topology(points: Iterable[str], opens: Iterable[Iterable[str]]) -> FiniteSpace:
    """Check the open-set family axioms and return the validated space."""
    return FiniteSpace(tuple(points), tuple(tuple(o) for o in opens))


def closure(space: FiniteSpace, subset: Iterable[str]) -> tuple[str, ...]:
    """Smallest closed set (complement of an open) containing the subset."""
    target = space.mask_of(subset)
    result = space._full
    for open_mask in space._masks:
        closed = space._full & ~open_mask
        if closed & target == target:
            result &= closed
    return space.unmask(result)


def specialisation_preorder(space: FiniteSpace) -> Preorder:
    """The preorder with x <= y exactly when x lies in the closure of {y}.

    That is, y lies in every open containing x, so the row of x is its
    minimal open.
    """
    return Preorder.from_rows(space.points, _minimal_opens(space._masks, len(space.points)))


def from_preorder(preorder: Preorder) -> FiniteSpace:
    """The finite space whose opens are the up-closed sets of the relation.

    The up-set of x is the minimal open of x, and every open is a union of
    minimal opens, so the family is the union-closure of the distinct
    up-sets (plus the empty set): the work grows with the number of opens,
    not with the 2^n subsets of the points.  With this convention the
    specialisation preorder of the result is the input relation again.
    """
    masks = {0}
    for u in set(preorder.up):
        masks |= {m | u for m in masks}
    return FiniteSpace(preorder.points, tuple(preorder.unmask(m) for m in masks))


def from_min_opens(points: Iterable[str], min_opens: Mapping[str, Iterable[str]]) -> FiniteSpace:
    """Build a space from minimal-open-set generators.

    The family is the closure of the generators (plus the empty and full
    sets) under union and intersection.  Its minimal open at x is the
    intersection U_x of the generators containing x, so it is the space of
    the preorder whose row at x is U_x.  Every point must lie in its own
    generator.
    """
    pts = tuple(sorted(str(p) for p in points))
    if set(min_opens) != set(pts):
        missing = sorted(set(pts) ^ set(min_opens))
        raise TopologyError(f"min_opens keys must match the point set (mismatch: {missing})")
    index = {p: i for i, p in enumerate(pts)}
    generators = []
    for p in pts:
        m = 0
        for q in min_opens[p]:
            if q not in index:
                raise UnknownPoint(q)
            m |= 1 << index[q]
        if not m >> index[p] & 1:
            raise TopologyError(f"minimal open of {p!r} does not contain it")
        generators.append(m)
    return from_preorder(Preorder.from_rows(pts, _minimal_opens(generators, len(pts))))


def preorder_from_relation(points: Iterable[str], pairs: Iterable[tuple[str, str]]) -> Preorder:
    """Reflexive-transitive closure of an arbitrary relation on the points.

    Warshall's algorithm on bitmask rows: after step k, row x holds every y
    reachable from x through intermediate points among the first k.  The
    rows are the preorder's up-set rows.
    """
    pts = tuple(sorted(str(p) for p in points))
    index = {p: i for i, p in enumerate(pts)}
    reach = [1 << i for i in range(len(pts))]
    for x, y in pairs:
        x, y = str(x), str(y)
        if x not in index:
            raise UnknownPoint(x)
        if y not in index:
            raise UnknownPoint(y)
        reach[index[x]] |= 1 << index[y]
    for k in range(len(pts)):
        bit, row_k = 1 << k, reach[k]
        for i, row in enumerate(reach):
            if row & bit:
                reach[i] = row | row_k
    return Preorder.from_rows(pts, reach)
