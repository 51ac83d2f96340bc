"""Finite topological spaces and the specialisation preorder.

A space is a finite point set with an explicit family of open sets.  The
specialisation preorder sets x <= y exactly when x lies in the closure of
{y}; it is reflexive and transitive but in general not antisymmetric.  The
Alexandrov correspondence identifies finite spaces with preorders, and
`from_preorder` is the inverse of `specialisation_preorder` under the
up-set convention (the round trip is checked by the test suite).

Subsets of the points are bitmasks over the sorted points.  Relation input
is closed by Warshall's algorithm on bitmask rows, and `from_preorder`
builds the opens as unions of the minimal opens (the up-sets), so neither
enumerates the 2^n subsets of the points.  `from_min_opens` reduces its
generators to the preorder they define and goes through `from_preorder`.

An explicit family of opens is validated against the union-closure of its
minimal opens (the intersection of the opens containing each point), which
a topology equals; the pairwise union and intersection scan runs only on a
family that is not a topology, to name the first offending pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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


def _generated_by_minimal_opens(masks: set[int], n: int) -> bool:
    """Whether a family holding the empty and the full set is a topology.

    The minimal open of point i is the intersection of the members that
    contain i.  A topology is exactly the union-closure of its minimal opens
    plus the empty set; conversely, if the family equals that closure, the
    intersection of two minimal opens is the union of the minimal opens of
    its points, so the family is closed under intersection too.  The closure
    is given up as soon as it outgrows the family, so the work is at most
    n times the number of members.
    """
    minimal = [(1 << n) - 1] * n
    for m in masks:
        rest = m
        while rest:
            low = rest & -rest
            minimal[low.bit_length() - 1] &= m
            rest ^= low
    closure = {0}
    for u in set(minimal):
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


@dataclass(frozen=True)
class Preorder:
    """A reflexive transitive relation; (x, y) in pairs means x <= y."""

    points: tuple[str, ...]
    pairs: frozenset

    def __post_init__(self):
        pts = [str(p) for p in self.points]
        if not pts:
            raise InvalidPreorder("point set must be nonempty")
        if len(set(pts)) != len(pts):
            raise InvalidPreorder("point identifiers must be distinct")
        pts = tuple(sorted(pts))
        known = set(pts)
        pairs = frozenset((str(x), str(y)) for x, y in self.pairs)
        for x, y in pairs:
            if x not in known:
                raise UnknownPoint(x)
            if y not in known:
                raise UnknownPoint(y)
        for p in pts:
            if (p, p) not in pairs:
                raise InvalidPreorder(f"not reflexive: missing ({p}, {p})")
        succ: dict[str, set[str]] = {p: set() for p in pts}
        for x, y in pairs:
            succ[x].add(y)
        for x, y in pairs:
            for z in succ[y]:
                if (x, z) not in pairs:
                    raise InvalidPreorder(f"not transitive: {x} <= {y} <= {z} but not {x} <= {z}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "pairs", pairs)

    def leq(self, x: str, y: str) -> bool:
        return (x, y) in self.pairs


def validate_topology(points: Iterable[str], opens: Iterable[Iterable[str]]) -> FiniteSpace:
    """Check the open-set family axioms and return the validated space."""
    return FiniteSpace(tuple(points), tuple(tuple(o) for o in opens))


def _closure_mask(space: FiniteSpace, target: int) -> int:
    """Intersection of the closed sets (complements of opens) containing the target mask."""
    result = space._full
    for open_mask in space._masks:
        closed = space._full & ~open_mask
        if closed & target == target:
            result &= closed
    return result


def closure(space: FiniteSpace, subset: Iterable[str]) -> tuple[str, ...]:
    """Smallest closed set (complement of an open) containing the subset."""
    return space.unmask(_closure_mask(space, space.mask_of(subset)))


def specialisation_preorder(space: FiniteSpace) -> Preorder:
    """The preorder with x <= y exactly when x lies in the closure of {y}."""
    closures = {y: _closure_mask(space, space.mask_of((y,))) for y in space.points}
    pairs = set()
    for y in space.points:
        for i, x in enumerate(space.points):
            if closures[y] >> i & 1:
                pairs.add((x, y))
    return Preorder(space.points, frozenset(pairs))


def from_preorder(preorder: Preorder) -> FiniteSpace:
    """The finite space whose opens are the up-closed sets of the relation.

    The up-set of x is the minimal open of x, and every open is a union of
    minimal opens, so the family is the union-closure of the distinct
    up-sets (plus the empty set): the work grows with the number of opens,
    not with the 2^n subsets of the points.  With this convention the
    specialisation preorder of the result is the input relation again.
    """
    pts = preorder.points
    index = {p: i for i, p in enumerate(pts)}
    up = [0] * len(pts)
    for x, y in preorder.pairs:
        up[index[x]] |= 1 << index[y]
    masks = {0}
    for u in set(up):
        masks |= {m | u for m in masks}
    opens = (tuple(p for i, p in enumerate(pts) if m >> i & 1) for m in masks)
    return FiniteSpace(pts, tuple(opens))


def from_min_opens(points: Iterable[str], min_opens: Mapping[str, Iterable[str]]) -> FiniteSpace:
    """Build a space from minimal-open-set generators.

    The family is the closure of the generators (plus the empty and full
    sets) under union and intersection.  Its minimal open at x is the
    intersection U_x of the generators containing x, so it is the space of
    the preorder with x <= y exactly when y lies in U_x.  Every point must
    lie in its own generator.
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
    pairs = set()
    for i, x in enumerate(pts):
        smallest = (1 << len(pts)) - 1
        for m in generators:
            if m >> i & 1:
                smallest &= m
        pairs.update((x, y) for j, y in enumerate(pts) if smallest >> j & 1)
    return from_preorder(Preorder(pts, frozenset(pairs)))


def preorder_from_relation(points: Iterable[str], pairs: Iterable[tuple[str, str]]) -> Preorder:
    """Reflexive-transitive closure of an arbitrary relation on the points.

    Warshall's algorithm on bitmask rows: after step k, row x holds every y
    reachable from x through intermediate points among the first k.
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
    rel = frozenset((x, y) for x, row in zip(pts, reach) for j, y in enumerate(pts) if row >> j & 1)
    return Preorder(pts, rel)
