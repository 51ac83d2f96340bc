"""(Co)homology for finite topological spaces under the specialisation preorder.

The pipeline: validate a finite space, take its specialisation preorder,
split the points into the poset part and the complementary part, build
order complexes and their integer (co)chain complexes (including the
relative complex of the ambient pair), compute finitely generated abelian
groups by Smith normal form, and splice the two cochain complexes into
length-n complexes whose cohomology is compared against a closed-form
group table.
"""

from .complexes import (
    ChainComplex,
    NotAPoset,
    SimplicialComplex,
    chain_complex,
    cochain,
    order_complex,
    relative_chain_complex,
)
from .fixtures import FIXTURES, INDISC2, PSEUDO_S1, PSEUDO_S1_DUP, SIERP, random_corpus, random_space
from .homology import (
    GroupPresentation,
    TRIVIAL_GROUP,
    all_groups,
    rational_rank,
    smith_normal_form,
)
from .matrices import IntMatrix
from .orders import Decomposition, decompose, equivalence_classes, is_poset, strictify
from .pipeline import POSET_WARNING, PipelineData, build_pipeline
from .spaces import (
    InvalidPreorder,
    MissingEmptySet,
    MissingWholeSet,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    Preorder,
    TopologyError,
    UnknownPoint,
    from_min_opens,
    from_preorder,
    preorder_from_relation,
    specialisation_preorder,
    validate_topology,
)
from .splice import (
    InvalidLength,
    NoSources,
    SplicedComplex,
    compare,
    splice,
    splice_negative,
    spliced_cohomology,
    theorem_claimed_groups,
)

__version__ = "0.1.0"
