"""Value semantics of the package's records: named tuples and `Record` classes alike.

Each factory builds a fresh instance from fresh but equal field values, so
two calls give two objects that must compare and hash as one value.
"""

import pickle

import pytest

from finsplice import (
    PSEUDO_S1,
    PSEUDO_S1_DUP,
    GroupPresentation,
    IntMatrix,
    Preorder,
    build_pipeline,
    cochain,
    decompose,
    order_complex,
    specialisation_preorder,
    splice,
)
from finsplice.homology import SmithTable
from finsplice.io import space_from_dict
from oracles import relation_pairs


FACTORIES = {
    "IntMatrix": (lambda: IntMatrix.from_rows([[1, 0], [0, -1]]), "rows"),
    "Decomposition": (lambda: decompose(specialisation_preorder(PSEUDO_S1_DUP)), "classes"),
    "SimplicialComplex": (lambda: order_complex(specialisation_preorder(PSEUDO_S1)), "faces_by_dim"),
    "GroupPresentation": (lambda: GroupPresentation(1, (2,)), "rank"),
    "SmithTable": (lambda: SmithTable.of(build_pipeline(PSEUDO_S1).poset_chain), "diagonals"),
    "PipelineData": (lambda: build_pipeline(PSEUDO_S1_DUP), "t0"),
    "Preorder": (lambda: Preorder(("a", "b"), (0b11, 0b10)), "up"),
    "ChainComplex": (lambda: build_pipeline(PSEUDO_S1).poset_chain, "maps"),
    "SplicedComplex": (lambda: splice(build_pipeline(PSEUDO_S1_DUP).sources, 3), "length"),
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_record_value_semantics(name):
    make, field = FACTORIES[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(a, field))
    fields = ", ".join(f"{f}={getattr(a, f)!r}" for f in type(a)._fields)
    assert repr(a) == f"{name}({fields})"
    assert pickle.loads(pickle.dumps(a)) == a


def test_a_complex_keeps_its_smith_table_and_shares_its_maps_with_its_cochain():
    chain = build_pipeline(PSEUDO_S1).poset_chain
    assert chain.smith is chain.smith
    dual = cochain(chain)
    assert dual.maps is chain.maps
    assert dual != chain  # the direction differs
    assert splice((dual,), 1).assembled == dual  # a single source splices to itself


def test_the_three_input_forms_of_one_space_give_one_value():
    preorder = PSEUDO_S1_DUP
    points = list(preorder.points)
    documents = [
        {"points": points, "opens": [list(o) for o in PSEUDO_S1_DUP.opens]},
        {"points": points, "min_opens": {p: list(preorder.unmask(row)) for p, row in zip(points, preorder.up)}},
        {"points": points, "leq": [list(pair) for pair in sorted(relation_pairs(preorder))]},
    ]
    spaces = [space_from_dict(document) for document in documents]
    spaces[0].opens  # a listed family is a cache, not a field
    assert spaces[0] == spaces[1] == spaces[2] == PSEUDO_S1_DUP
    assert len({hash(space) for space in spaces}) == 1
    assert spaces[0] != PSEUDO_S1
