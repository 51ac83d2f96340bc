"""The canonical pipeline from a space to the two spliced sources.

`build_pipeline` takes a space as its specialisation preorder and builds,
in order: the poset/complementary decomposition, and the two order
complexes (poset part under <=, ambient under its strictification).  On the
representatives the preorder is a poset, so it equals its strict order
there, and the poset part's complex is the full subcomplex of the ambient
one on the representatives.  The chain complexes of the poset part, of the
ambient order and of the ambient order relative to the poset part, and
the two cochain complexes that feed the splicer, are each built on first
read; each map is stored as the coboundary the cochains read (see
`complexes`).  The face counts give the complex sizes without building
any of them.
"""

from __future__ import annotations

from functools import cached_property
from itertools import zip_longest

from .complexes import (
    ChainComplex,
    chain_complex,
    cochain,
    order_complex,
    relative_chain_complex,
)
from .orders import decompose, strictify
from .records import Record
from .spaces import Preorder, specialisation_preorder

POSET_WARNING = (
    "input is already a poset; the spliced construction degenerates "
    "(complementary part empty, relative complex zero)"
)


class PipelineData(Record):
    """The built stages of one preorder; the chain and cochain complexes are built when first read.

    The builders are called through this module's globals, so a caller that
    rebinds `chain_complex`, `relative_chain_complex` or `cochain` here sees
    every complex the pipeline builds.
    """

    __slots__ = ("preorder", "decomposition", "poset_complex", "ambient_complex", "__dict__")
    _fields = ("preorder", "decomposition", "poset_complex", "ambient_complex")

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
    decomposition = decompose(preorder, policy)
    return PipelineData(
        preorder,
        decomposition,
        order_complex(preorder, decomposition.representatives, relation="leq"),
        order_complex(strictify(preorder), relation="leq"),
    )
