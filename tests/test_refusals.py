"""Constructor and library refusals that no file or verb reaches: each
raises ValueError with its exact text."""

from __future__ import annotations

from dataclasses import replace

import pytest

from pfdual import algebra as alg
from pfdual import transducer as td
from pfdual.algebra import FinAlgebra, Homomorphism
from pfdual.pfun import Base, PFunc, as_abstract, close_under_ops
from pfdual.topcat import MultiFunctor, generate_topology

from conftest import build_swap_const, make_category

B1, B2 = Base(("1",)), Base(("1", "2"))
SWAP = build_swap_const()[0]
CAT = make_category(["x", "y"], [("1x", "x", "x"), ("1y", "y", "y"), ("f", "x", "y")], {"x": "1x", "y": "1y"},
                    {("1x", "1x"): "1x", ("1y", "1y"): "1y", ("1x", "f"): "f", ("f", "1y"): "f"})
# Zero, and two domain elements p and q with A(p) = q and A(q) = p, but no
# element above both: the override p|q has no join to come from.
NO_JOIN = FinAlgebra.from_tables([[0, 0, 0], [0, 1, 0], [0, 0, 2]], [1, 2, 1], [0, 1, 2],
                                 [[0, 1, 2], [1, 1, 1], [2, 2, 2]], ["0", "p", "q"])


def machine(alphabet: str) -> td.Transducer:
    """The one-state machine over alphabet that accepts only the empty word."""
    return td.from_names(["q"], alphabet, "q", {}, {"q": ""})


CASES = [
    ("algebra with no element", lambda: FinAlgebra((), (), (), ()), "an algebra needs at least one element"),
    ("short range vector", lambda: FinAlgebra(((0,),), (0,), (), ((0,),)), "range table must have 1 entries"),
    ("override with no join", lambda: alg.pref_from_join(NO_JOIN),
     "compatible pair (1,2) has no upper bound; override undefined"),
    ("short homomorphism", lambda: Homomorphism(SWAP, SWAP, ()), "mapping must cover every source element"),
    ("homomorphism off the target", lambda: Homomorphism(SWAP, SWAP, (SWAP.size,) * SWAP.size),
     "mapping value out of range"),
    ("short graph", lambda: PFunc(B2, (0,)), "graph length must equal base size"),
    ("graph off the base", lambda: PFunc(B2, (0, 2)), "graph value 2 out of range for base of size 2"),
    ("point mapped twice", lambda: PFunc.from_pairs(B2, [("1", "1"), ("1", "2")]), "point '1' mapped twice"),
    ("generators on two bases", lambda: close_under_ops([PFunc.identity(B2), PFunc.identity(B1)]),
     "generators live on different bases"),
    ("no function", lambda: as_abstract([]), "an algebra needs at least one element"),
    ("functions on two bases", lambda: as_abstract([PFunc.identity(B2), PFunc.identity(B1)]),
     "operands live on different bases"),
    ("topology of another size", lambda: replace(CAT, obj_top=generate_topology(3, [])),
     "topology sizes must match carrier sizes"),
    ("short src", lambda: replace(CAT, src=CAT.src[:-1]), "src/tgt/id_of sizes are wrong"),
    ("short composition row", lambda: replace(CAT, comp_t=(CAT.comp_t[0][:-1],) + CAT.comp_t[1:]),
     "the composition table must have one row and one column per arrow"),
    ("short object map", lambda: MultiFunctor(CAT, CAT, (0,), (1, 2, 4)), "object map must cover every source object"),
    ("short arrow relation", lambda: MultiFunctor(CAT, CAT, (0, 1), (1, 2)),
     "arrow relation must cover every source arrow"),
    ("override across alphabets", lambda: td.pref_union(machine("ab"), machine("a")),
     "transducers must share an alphabet"),
    ("sweep of no machine", lambda: td.check_bound([], 3), "at least one transducer is required"),
    ("sweep across alphabets", lambda: td.check_bound([machine("ab"), machine("a")], 3),
     "transducers must share an alphabet"),
]


@pytest.mark.parametrize("build, text", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_refusal_text(build, text):
    with pytest.raises(ValueError) as refusal:
        build()
    assert str(refusal.value) == text
