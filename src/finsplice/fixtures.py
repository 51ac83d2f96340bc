"""Canonical example spaces and the random-space generator."""

from __future__ import annotations

import random
from typing import Iterable

from .spaces import Preorder, from_min_opens, preorder_from_relation, validate_topology

SIERP = validate_topology(("a", "b"), ((), ("b",), ("a", "b")))

INDISC2 = validate_topology(("x", "y"), ((), ("x", "y")))

# Four-point model of the circle: the order complex is a 4-cycle.
PSEUDO_S1 = from_min_opens(
    ("a", "b", "c", "d"),
    {"a": ("a",), "b": ("b",), "c": ("a", "b", "c"), "d": ("a", "b", "d")},
)

# Same with c doubled into an indistinguishable pair c ~ c'.
PSEUDO_S1_DUP = from_min_opens(
    ("a", "b", "c", "c'", "d"),
    {
        "a": ("a",),
        "b": ("b",),
        "c": ("a", "b", "c", "c'"),
        "c'": ("a", "b", "c", "c'"),
        "d": ("a", "b", "d"),
    },
)

FIXTURES: dict[str, Preorder] = {
    "SIERP": SIERP,
    "INDISC2": INDISC2,
    "PSEUDO_S1": PSEUDO_S1,
    "PSEUDO_S1_DUP": PSEUDO_S1_DUP,
}


def point_names(count: int) -> tuple[str, ...]:
    if count <= 26:
        return tuple("abcdefghijklmnopqrstuvwxyz"[:count])
    return tuple(f"p{i:03d}" for i in range(count))


def random_space(num_points: int, seed: int | None = None, rng: random.Random | None = None) -> Preorder:
    """A space from a uniform random relation, closed to a preorder.

    Each ordered pair of distinct points enters the relation with a
    per-space density drawn from [0.05, 0.5]; the reflexive-transitive
    closure is then a preorder and the Alexandrov correspondence gives the
    space.  Deterministic for a fixed seed.
    """
    if num_points < 1:
        raise ValueError("need at least one point")
    if rng is None:
        rng = random.Random(seed)
    points = point_names(num_points)
    density = rng.uniform(0.05, 0.5)
    pairs = {
        (x, y)
        for x in points
        for y in points
        if x != y and rng.random() < density
    }
    return preorder_from_relation(points, pairs)


def random_corpus(count: int, max_points: int = 7, seed: int = 0) -> list[Preorder]:
    """A reproducible list of random spaces on 1..max_points points."""
    rng = random.Random(seed)
    return [random_space(rng.randint(1, max_points), rng=rng) for _ in range(count)]
