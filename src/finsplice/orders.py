"""Preorder algebra: strict order, indistinguishability classes, decomposition.

Two points are topologically indistinguishable (x ~ y) when x <= y and
y <= x.  Choosing one representative per class yields the poset part, on
which <= is antisymmetric; the remaining points form the complementary
part, which in general is not a poset.

Everything here is a word operation on the preorder's rows.  up[i] holds
the points above points[i], and x ~ y exactly when their up rows are
equal, so same[i], the points whose up row is up[i], is the class of
points[i].  The strict order keeps up[i] & ~same[i] plus the point
itself, and the relation is a poset when no two up rows are equal.
"""

from __future__ import annotations

from typing import NamedTuple

from .spaces import Preorder


class Decomposition(NamedTuple):
    """Poset part (representatives), complementary part, and the indistinguishability classes."""

    representatives: tuple[str, ...]
    complementary: tuple[str, ...]
    classes: tuple[tuple[str, ...], ...]


def strictify(preorder: Preorder) -> Preorder:
    """The partial order with x < y when x <= y holds one-way, plus equality.

    Row i keeps the points above points[i] outside its class, and its own
    bit.
    """
    rows = (u & ~s | 1 << i for i, (u, s) in enumerate(zip(preorder.up, preorder.same)))
    return Preorder(preorder.points, rows)


def equivalence_classes(preorder: Preorder) -> tuple[tuple[str, ...], ...]:
    """Partition into classes of mutually related points, sorted by least member.

    The classes are the distinct class rows, met in point order.
    """
    return tuple(map(preorder.unmask, dict.fromkeys(preorder.same)))


def is_poset(preorder: Preorder) -> bool:
    """True when the relation is antisymmetric (the space is T0): no two up rows are equal."""
    return len(set(preorder.up)) == len(preorder.up)


def decompose(preorder: Preorder, policy: str = "least") -> Decomposition:
    """Split the points into the poset part and the complementary part.

    The representative of each class is its lexicographically least member
    (policy "least", the default) or greatest ("greatest").  All homological
    output downstream is invariant under this choice; the default makes it
    deterministic.
    """
    if policy not in ("least", "greatest"):
        raise ValueError(f"unknown representative policy {policy!r}")
    pick = 0 if policy == "least" else -1
    classes = equivalence_classes(preorder)
    representatives = tuple(sorted(cls[pick] for cls in classes))
    chosen = set(representatives)
    complementary = tuple(p for p in preorder.points if p not in chosen)
    return Decomposition(representatives, complementary, classes)
