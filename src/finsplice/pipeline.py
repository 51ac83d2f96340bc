"""The canonical pipeline from a space to the two spliced sources.

Builds, in order: the specialisation preorder, its strictification, the
poset/complementary decomposition, the three order complexes (poset part
under <=, ambient under the strict order, poset part under the strict
order), the integer chain complexes, the relative complex of the ambient
pair, and the two cochain complexes that feed the splicer.  The strict
order is computed once and read by both strict complexes; the poset part
under <= is built from the preorder itself, so the check that it equals
the strict one compares two complexes built from different relations.
"""

from __future__ import annotations

from typing import NamedTuple

from .complexes import (
    ChainComplex,
    SimplicialComplex,
    chain_complex,
    cochain,
    order_complex,
    relative_chain_complex,
)
from .orders import Decomposition, decompose, strictify
from .spaces import FiniteSpace, Preorder, specialisation_preorder

POSET_WARNING = (
    "input is already a poset; the spliced construction degenerates "
    "(complementary part empty, relative complex zero)"
)


class PipelineData(NamedTuple):
    space: FiniteSpace
    preorder: Preorder
    decomposition: Decomposition
    t0: bool
    poset_complex: SimplicialComplex
    ambient_complex: SimplicialComplex
    sub_complex: SimplicialComplex
    poset_chain: ChainComplex
    ambient_chain: ChainComplex
    relative_chain: ChainComplex
    poset_cochain: ChainComplex
    relative_cochain: ChainComplex

    @property
    def sources(self) -> tuple[ChainComplex, ChainComplex]:
        return (self.poset_cochain, self.relative_cochain)


def build_pipeline(space: FiniteSpace, policy: str = "least") -> PipelineData:
    preorder = specialisation_preorder(space)
    strict = strictify(preorder)
    decomposition = decompose(preorder, policy)
    poset_complex = order_complex(preorder, decomposition.representatives, relation="leq")
    ambient_complex = order_complex(strict, relation="leq")
    sub_complex = order_complex(strict, decomposition.representatives, relation="leq")
    # On the representatives the two relations coincide face for face.
    assert poset_complex == sub_complex
    poset_chain = chain_complex(poset_complex)
    ambient_chain = chain_complex(ambient_complex)
    relative_chain = relative_chain_complex(ambient_chain, chain_complex(sub_complex))
    return PipelineData(
        space=space,
        preorder=preorder,
        decomposition=decomposition,
        t0=not decomposition.complementary,  # T0: every class is one point
        poset_complex=poset_complex,
        ambient_complex=ambient_complex,
        sub_complex=sub_complex,
        poset_chain=poset_chain,
        ambient_chain=ambient_chain,
        relative_chain=relative_chain,
        poset_cochain=cochain(poset_chain),
        relative_cochain=cochain(relative_chain),
    )
