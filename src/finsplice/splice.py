"""Spliced complexes and the formula verification harness.

A splice of length n interleaves several (co)chain complexes in blocks of
n consecutive degrees, visiting the sources round-robin; each source
resumes at its next unconsumed degree.  One rule joins the blocks: the
map between two blocks is zero when they come from distinct sources and
the source's own map otherwise.  So the assembled sequence is again a
complex, and with a single source the splice is the identity.

Each spliced group is thus one source's group at one degree, a seam
dropping the map above it, below it or both, read from the sources'
Smith tables whatever the length.  The closed-form table claimed for the
length-3 splice of a poset-part cochain complex with a relative cochain
complex is read the same way, degree by degree, so the direct and the
claimed groups are two aligned tuples.  Both sides are lists of places,
(source, degree, above, below), read by one function.  Disagreements are
findings, not errors: `compare` returns one verdict per degree.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .complexes import COHOMOLOGICAL, ChainComplex, checked_complex
from .homology import GroupPresentation
from .matrices import IntMatrix


class InvalidLength(ValueError):
    pass


class NoSources(ValueError):
    pass


class SplicedComplex(NamedTuple):
    sources: tuple[ChainComplex, ...]
    length: int

    @property
    def assembled(self) -> ChainComplex:
        """The spliced complex itself, built block by block as `splice` lays it out; tests use it as the oracle."""
        n, s = abs(self.length), len(self.sources)
        rounds = max((c.top_degree + n) // n for c in self.sources)
        basis: list[tuple[tuple[str, ...], ...]] = []
        maps: list[IntMatrix] = []
        for k in range(rounds * s):
            source, start = self.sources[k % s], k // s * n
            if k and s > 1:  # the seam between distinct sources
                maps[-1] = IntMatrix.zeros(source.dim(start), len(basis[-1]))
            for degree in range(start, start + n):
                basis.append(source.basis[degree] if degree <= source.top_degree else ())
                maps.append(source.map_between(degree))
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
    return SplicedComplex(srcs, length)


def splice_negative(sources: Sequence[ChainComplex], length: int) -> SplicedComplex:
    """Splice of negative length: the two sources swap places.

    The convention for negative lengths puts the second complex (the
    relative one, in the canonical pipeline) first.
    """
    if len(sources) != 2:
        raise ValueError("negative-length splicing takes exactly two sources")
    if length > -1:
        raise InvalidLength(f"length must be <= -1, got {length}")
    return splice((sources[1], sources[0]), -length)._replace(length=length)


def spliced_cohomology(spliced: SplicedComplex, max_degree: int) -> tuple[GroupPresentation, ...]:
    """Groups of the spliced complex at degrees 0..max_degree, read from the sources' tables.

    Degree k*n + r is degree floor(k/s)*n + r of source k mod s.  Only the
    seams between blocks of distinct sources are zero maps, and with two or
    more sources every seam is one: r = 0 drops the map below, r = n-1 the
    map above, and n = 1 both, leaving the free module.  A single source
    keeps every map, so its groups are its own.
    """
    n, s = abs(spliced.length), len(spliced.sources)
    blocks = (divmod(degree, n) for degree in range(max_degree + 1))
    return _read(spliced.sources, [(k % s, k // s * n + r, r < n - 1 or s == 1, r > 0 or s == 1) for k, r in blocks])


def _read(sources: Sequence[ChainComplex], places: Iterable[tuple]) -> tuple[GroupPresentation, ...]:
    """The group at each (source, degree, above, below) place, from that source's Smith table."""
    return tuple(sources[i].smith.group(degree, above, below) for i, degree, above, below in places)


# Row j gives the claimed group at degree 6p + j: the source (0 for complex
# 1), its degree d less 3p, and whether maps[d] above and maps[d-1] below
# are kept; for cochains, the maps out of and into degree d.
CLAIM_TABLE = (
    (0, 0, True, True),  # H^{3p}(C1)
    (0, 2, False, True),  # coker(C1 into 3p+2)
    (1, 0, True, False),  # ker(C2 out of 3p)
    (1, 0, True, True),  # H^{3p}(C2)
    (1, 2, False, True),  # coker(C2 into 3p+2)
    (0, 3, True, False),  # ker(C1 out of 3p+3)
)


def theorem_claimed_groups(
    complex1: ChainComplex, complex2: ChainComplex, max_degree: int
) -> tuple[GroupPresentation, ...]:
    """The closed-form group table for the length-3 splice of two cochains, at degrees 0..max_degree.

    Degree 6p + j reads row j of `CLAIM_TABLE`.  The groups are evaluated
    exactly as claimed, as a claim under test; the ground truth is
    `spliced_cohomology`, whose tuple this one aligns with.
    """
    if complex1.direction != COHOMOLOGICAL or complex2.direction != COHOMOLOGICAL:
        raise ValueError("the claimed groups are stated for cochain complexes")
    rows = zip(range(max_degree + 1), CLAIM_TABLE * (max_degree // 6 + 1))
    places = [(i, degree // 6 * 3 + d, above, below) for degree, (i, d, above, below) in rows]
    return _read((complex1, complex2), places)


MATCH = "match"
MISMATCH = "mismatch"


def compare(direct: Sequence[GroupPresentation], claimed: Sequence[GroupPresentation]) -> tuple[str, ...]:
    """`MATCH` or `MISMATCH` per degree of two aligned tuples; a mismatch is a finding, never an exception."""
    if len(direct) != len(claimed):
        raise ValueError(f"{len(direct)} direct groups against {len(claimed)} claimed")
    return tuple(MATCH if d == c else MISMATCH for d, c in zip(direct, claimed))
