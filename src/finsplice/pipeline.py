"""The canonical pipeline from a space to the two spliced sources.

`build_pipeline` takes a space as its specialisation preorder and builds
its poset/complementary decomposition.  The rest is built on first read:
the ambient order complex, the one listing, under the strictification of
the preorder; the poset part's complex, read off that listing as the full
subcomplex on the representatives, where the preorder is a poset and so
equals its strict order; the chain complexes of the poset part, of the
ambient order and of the ambient order relative to the poset part; and the
two cochain complexes that feed the splicer.  Each map is stored as the
coboundary the cochains read (see `complexes`).
"""

from __future__ import annotations

from functools import cached_property
from itertools import takewhile, zip_longest

from .complexes import ChainComplex, SimplicialComplex, chain_complex, cochain, order_complex, relative_chain_complex
from .orders import decompose, strictify
from .records import Record
from .spaces import Preorder, specialisation_preorder

POSET_WARNING = (
    "input is already a poset; the spliced construction degenerates "
    "(complementary part empty, relative complex zero)"
)


class PipelineData(Record):
    """A preorder and its decomposition; every complex is built when first read.

    The builders are called through this module's globals, so a caller that
    rebinds `order_complex`, `strictify`, `chain_complex`,
    `relative_chain_complex` or `cochain` here sees every complex the
    pipeline builds.  The poset part's complex is the ambient one less the
    faces holding a complementary point, c' on the doubled circle:

    >>> from finsplice import PSEUDO_S1_DUP
    >>> data = build_pipeline(PSEUDO_S1_DUP)
    >>> data.poset_complex.faces_by_dim == tuple(
    ...     tuple(f for f in faces if "c'" not in f) for faces in data.ambient_complex.faces_by_dim)
    True
    """

    __slots__ = ("preorder", "decomposition", "__dict__")
    _fields = ("preorder", "decomposition")

    @property
    def t0(self) -> bool:
        return not self.decomposition.complementary  # T0: every class is one point

    @property
    def complex_sizes(self) -> dict[str, list[int]]:
        """Faces per degree of the poset, ambient and relative complexes, trailing empty degrees dropped.

        The relative faces are the ambient faces outside the poset part's
        complex, so their counts are the ambient less the poset counts.
        """
        poset, ambient = self.poset_complex.face_counts(), self.ambient_complex.face_counts()
        relative = [a - p for a, p in zip_longest(ambient, poset, fillvalue=0)]
        while relative and not relative[-1]:
            relative.pop()
        return {"poset": list(poset), "ambient": list(ambient), "relative": relative}

    @cached_property
    def ambient_complex(self) -> SimplicialComplex:
        return order_complex(strictify(self.preorder), relation="leq")

    @cached_property
    def poset_complex(self) -> SimplicialComplex:
        """The ambient faces inside the representatives, in ambient order, trailing empty degrees dropped."""
        inside = frozenset(self.decomposition.representatives).issuperset
        kept = (tuple(filter(inside, faces)) for faces in self.ambient_complex.faces_by_dim)
        return SimplicialComplex(tuple(takewhile(bool, kept)))  # closed downward: no face after an empty degree

    @cached_property
    def poset_chain(self) -> ChainComplex:
        return chain_complex(self.poset_complex)

    @cached_property
    def ambient_chain(self) -> ChainComplex:
        return chain_complex(self.ambient_complex)

    @cached_property
    def relative_chain(self) -> ChainComplex:
        return relative_chain_complex(self.ambient_complex, self.decomposition.representatives)

    @cached_property
    def poset_cochain(self) -> ChainComplex:
        return cochain(self.poset_chain)

    @cached_property
    def relative_cochain(self) -> ChainComplex:
        return cochain(self.relative_chain)

    @property
    def sources(self) -> tuple[ChainComplex, ChainComplex]:
        return (self.poset_cochain, self.relative_cochain)


def build_pipeline(space: Preorder, policy: str = "least") -> PipelineData:
    preorder = specialisation_preorder(space)
    return PipelineData(preorder, decompose(preorder, policy))
