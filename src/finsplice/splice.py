"""Spliced complexes and the formula verification harness.

A splice of length n interleaves several (co)chain complexes in blocks of
n consecutive degrees, visiting the sources round-robin; each source
resumes at its next unconsumed degree.  The connecting map between blocks
of distinct sources is the zero homomorphism, so the assembled sequence is
again a complex.  With a single source the splice is the identity.

Each spliced group is thus a group, kernel or cokernel of one source map,
read from the sources' Smith tables whatever the length.  The harness
compares these groups, degree by degree, against the closed-form group
table claimed for the length-3 splice of a poset-part cochain complex with
a relative cochain complex.  Disagreements are findings, not errors; the
comparison report states both sides verbatim.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

from .complexes import COHOMOLOGICAL, ChainComplex, checked_complex
from .homology import GroupPresentation
from .matrices import IntMatrix
from .records import Record


class InvalidLength(ValueError):
    pass


class NoSources(ValueError):
    pass


class Block(NamedTuple):
    """One run of n consecutive degrees drawn from a single source."""

    source: int
    source_start: int
    spliced_start: int
    span: int


class SplicedComplex(Record):
    __slots__ = ("sources", "length", "blocks", "__dict__")
    _fields = ("sources", "length", "blocks")

    def __init__(self, sources: tuple[ChainComplex, ...], length: int, blocks: tuple[Block, ...]):
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "blocks", blocks)

    @cached_property
    def assembled(self) -> ChainComplex:
        """The spliced complex itself, built block by block; tests use it as the oracle."""
        if len(self.sources) == 1:
            return self.sources[0]
        n = abs(self.length)
        basis: list[tuple[tuple[str, ...], ...]] = []
        maps: list[IntMatrix] = []
        for block in self.blocks:
            source = self.sources[block.source]
            for degree in range(block.source_start, block.source_start + n):
                basis.append(source.basis[degree] if degree <= source.top_degree else ())
                maps.append(source.map_between(degree))
        for end in range(n - 1, len(basis) - 1, n):
            maps[end] = IntMatrix.zeros(len(basis[end]), len(basis[end + 1]))
        return checked_complex(self.sources[0].direction, basis, maps)


def splice(sources: Sequence[ChainComplex], length: int) -> SplicedComplex:
    """Round-robin splice of the sources in blocks of `length` degrees.

    Block k holds degrees [k*n, (k+1)*n) of the spliced complex and
    consumes the next n degrees of source k mod s.  Sources exhausted above
    their top degree contribute zero groups.  Blocks continue until every
    source is exhausted; beyond that everything is zero.
    """
    if not sources:
        raise NoSources("at least one source complex is required")
    if length < 1:
        raise InvalidLength(f"length must be >= 1, got {length}")
    srcs = tuple(sources)
    direction = srcs[0].direction
    if any(c.direction != direction for c in srcs):
        raise ValueError("all sources must share a direction")
    n, s = length, len(srcs)
    rounds = max((c.top_degree + n) // n for c in srcs)
    blocks = tuple(Block(k % s, k // s * n, k * n, n) for k in range(rounds * s))
    return SplicedComplex(srcs, length, blocks)


def splice_negative(sources: Sequence[ChainComplex], length: int) -> SplicedComplex:
    """Splice of negative length: the two sources swap places.

    The convention for negative lengths puts the second complex (the
    relative one, in the canonical pipeline) first.
    """
    if len(sources) != 2:
        raise ValueError("negative-length splicing takes exactly two sources")
    if length > -1:
        raise InvalidLength(f"length must be <= -1, got {length}")
    swapped = splice((sources[1], sources[0]), -length)
    return SplicedComplex(swapped.sources, length, swapped.blocks)


def spliced_cohomology(spliced: SplicedComplex, max_degree: int) -> tuple[GroupPresentation, ...]:
    """Groups of the spliced complex at degrees 0..max_degree, read from the sources' tables.

    Degree k*n + r is degree floor(k/s)*n + r of source k mod s, with the
    zero maps between blocks left out: r = 0 gives, for cochains, the kernel
    of the outgoing map, r = n-1 the cokernel of the incoming one, and n = 1
    the free module.
    """
    n, s = abs(spliced.length), len(spliced.sources)
    if s == 1:  # the identity: one block holds every degree asked for
        n = max_degree + 2
    groups = []
    for degree in range(max_degree + 1):
        k, r = divmod(degree, n)
        table = spliced.sources[k % s].smith
        keep = (r < n - 1, r > 0)  # the maps to the next and from the previous degree
        outgoing, incoming = keep if table.direction == COHOMOLOGICAL else keep[::-1]
        groups.append(table.group(k // s * n + r, outgoing, incoming))
    return tuple(groups)


def theorem_claimed_groups(
    complex1: ChainComplex, complex2: ChainComplex, p_max: int
) -> dict[int, GroupPresentation]:
    """The closed-form group table for the length-3 splice of two cochains.

    For every p up to p_max the six claimed groups are, at degrees 6p
    through 6p+5: the degree-3p cohomology of complex 1; the cokernel of
    its map into degree 3p+2; the kernel of complex 2's map out of degree
    3p; the degree-3p cohomology of complex 2; the cokernel of its map
    into degree 3p+2; and the kernel of complex 1's map out of degree
    3p+3.  These are evaluated exactly as claimed, as a claim under test;
    the ground truth is `spliced_cohomology`.
    """
    if complex1.direction != COHOMOLOGICAL or complex2.direction != COHOMOLOGICAL:
        raise ValueError("the claimed groups are stated for cochain complexes")
    table1, table2 = complex1.smith, complex2.smith
    claimed: dict[int, GroupPresentation] = {}
    for p in range(p_max + 1):
        claimed[6 * p] = table1.group(3 * p)
        claimed[6 * p + 1] = table1.group(3 * p + 2, outgoing=False)
        claimed[6 * p + 2] = table2.group(3 * p, incoming=False)
        claimed[6 * p + 3] = table2.group(3 * p)
        claimed[6 * p + 4] = table2.group(3 * p + 2, outgoing=False)
        claimed[6 * p + 5] = table1.group(3 * p + 3, incoming=False)
    return claimed


MATCH = "match"
MISMATCH = "mismatch"
UNCOVERED = "uncovered"


class ComparisonRow(NamedTuple):
    degree: int
    direct: GroupPresentation
    claimed: GroupPresentation | None
    verdict: str


class ComparisonReport(NamedTuple):
    """Per-degree verdicts of direct versus claimed groups."""

    rows: tuple[ComparisonRow, ...]

    def counts(self) -> dict[str, int]:
        out = {MATCH: 0, MISMATCH: 0, UNCOVERED: 0}
        for row in self.rows:
            out[row.verdict] += 1
        return out

    def summary(self) -> str:
        c = self.counts()
        return f"{c[MATCH]} match / {c[MISMATCH]} mismatch / {c[UNCOVERED]} uncovered"

    def as_dict(self) -> dict:
        return {
            "rows": [
                {
                    "degree": row.degree,
                    "direct": row.direct.as_dict(),
                    "claimed": None if row.claimed is None else row.claimed.as_dict(),
                    "verdict": row.verdict,
                }
                for row in self.rows
            ],
            "summary": self.counts(),
        }


def compare(
    direct: Sequence[GroupPresentation],
    claimed: Mapping[int, GroupPresentation],
    degrees: Iterable[int],
) -> ComparisonReport:
    """Verdict per degree; a mismatch is a finding, never an exception."""
    rows = []
    for degree in degrees:
        if degree < 0 or degree >= len(direct):
            raise ValueError(f"degree {degree} outside the computed direct range")
        direct_group = direct[degree]
        claimed_group = claimed.get(degree)
        if claimed_group is None:
            verdict = UNCOVERED
        elif claimed_group == direct_group:
            verdict = MATCH
        else:
            verdict = MISMATCH
        rows.append(ComparisonRow(degree, direct_group, claimed_group, verdict))
    return ComparisonReport(tuple(rows))

