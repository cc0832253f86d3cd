"""Shared corpus: the eight-element swap/constant algebra on a three-point
base, its six-element subalgebra, assorted small algebras, homomorphisms
between them, and a few hand-built categories."""

from __future__ import annotations

import pytest
from hypothesis import settings

from pfdual.algebra import FinAlgebra, Homomorphism
from pfdual.pfun import Base, PFunc, as_abstract, close_under_ops, enumerate_all
from pfdual.topcat import TopCategory, make_category

# Every run draws the same examples: derandomized, with no example database
# carrying failures from one run into the next.  A test's own max_examples
# still applies.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

BASE3 = Base((1, 2, 3))

SWAP_CONST_GRAPHS = {
    "0": {},
    "e12": {1: 1, 2: 2},
    "e3": {3: 3},
    "1": {1: 1, 2: 2, 3: 3},
    "s": {1: 2, 2: 1},
    "s3": {1: 2, 2: 1, 3: 3},
    "c": {1: 3, 2: 3},
    "c3": {1: 3, 2: 3, 3: 3},
}
SWAP_ONLY_NAMES = ("0", "e12", "e3", "1", "s", "s3")


def swap_const_functions() -> dict[str, PFunc]:
    return {name: PFunc.from_pairs(BASE3, graph) for name, graph in SWAP_CONST_GRAPHS.items()}


def build_swap_const() -> tuple[FinAlgebra, dict[str, PFunc]]:
    funcs = swap_const_functions()
    alg, _ = as_abstract(funcs.values(), {f: n for n, f in funcs.items()})
    return alg, funcs


def build_swap_only() -> tuple[FinAlgebra, dict[str, PFunc]]:
    funcs = {n: f for n, f in swap_const_functions().items() if n in SWAP_ONLY_NAMES}
    alg, _ = as_abstract(funcs.values(), {f: n for n, f in funcs.items()})
    return alg, funcs


def permuted_copy(alg: FinAlgebra, perm: tuple[int, ...]) -> tuple[FinAlgebra, Homomorphism]:
    """An isomorphic copy with elements renumbered, plus the isomorphism."""
    n = alg.size
    inv = [0] * n
    for a, v in enumerate(perm):
        inv[v] = a
    copy = FinAlgebra.from_tables(
        [[perm[alg.comp(inv[a], inv[b])] for b in range(n)] for a in range(n)],
        [perm[alg.anti(inv[a])] for a in range(n)],
        [perm[alg.rng(inv[a])] for a in range(n)],
        [[perm[alg.pref(inv[a], inv[b])] for b in range(n)] for a in range(n)],
        [alg.names[inv[a]] + "'" for a in range(n)],
    )
    return copy, Homomorphism(alg, copy, perm)


@pytest.fixture(scope="session")
def swap_const() -> FinAlgebra:
    return build_swap_const()[0]


@pytest.fixture(scope="session")
def swap_only() -> FinAlgebra:
    return build_swap_only()[0]


@pytest.fixture(scope="session")
def one_elem() -> FinAlgebra:
    return FinAlgebra.from_tables([[0]], [0], [0], [[0]], ["0"])


@pytest.fixture(scope="session")
def full2() -> FinAlgebra:
    alg, _ = as_abstract(enumerate_all(Base(("x", "y"))))
    return alg


@pytest.fixture(scope="session")
def incl_hom(swap_only, swap_const) -> Homomorphism:
    return Homomorphism(swap_only, swap_const, tuple(swap_const.index_of(n) for n in swap_only.names))


@pytest.fixture(scope="session")
def swap_const_perm(swap_const):
    return permuted_copy(swap_const, tuple(reversed(range(swap_const.size))))


@pytest.fixture(scope="session")
def collapse_hom(swap_const, one_elem) -> Homomorphism:
    return Homomorphism(swap_const, one_elem, (0,) * swap_const.size)


@pytest.fixture(scope="session")
def corpus_algebras(swap_const, swap_only, one_elem, full2) -> tuple[FinAlgebra, ...]:
    swap_gens = close_under_ops([PFunc.from_pairs(BASE3, {1: 2, 2: 1}), PFunc.identity(BASE3)])
    extra, _ = as_abstract(swap_gens)
    return (swap_const, swap_only, one_elem, full2, extra)


@pytest.fixture(scope="session")
def corpus_homs(swap_const, swap_only, one_elem, incl_hom, swap_const_perm, collapse_hom) -> tuple[Homomorphism, ...]:
    from pfdual.algebra import identity_hom

    _, iso = swap_const_perm
    return (
        identity_hom(swap_const),
        identity_hom(swap_only),
        identity_hom(one_elem),
        incl_hom,
        iso,
        collapse_hom,
    )


@pytest.fixture(scope="session")
def one_arrow_category() -> TopCategory:
    return make_category(["x"], [("ix", "x", "x")], {"x": "ix"}, {("ix", "ix"): "ix"})


def zero_extended_cyclic(n: int, arr_opens=None) -> TopCategory:
    """The one-object category of the cyclic group of order n, its arrows
    discrete unless arr_opens gives a subbasis."""
    names = [f"g{k}" for k in range(n)]
    return make_category(
        ["x"], [(a, "x", "x") for a in names], {"x": "g0"},
        {(names[i], names[j]): names[(i + j) % n] for i in range(n) for j in range(n)},
        arr_opens=arr_opens,
    )


def build_nonepi_category() -> TopCategory:
    """Three objects, everything discrete, with a non-right-cancellable
    arrow: a.b = a.c = d while b and c stay distinct."""
    arrows = [
        ("ix", "x", "x"), ("iy", "y", "y"), ("iz", "z", "z"),
        ("a", "x", "y"), ("b", "y", "z"), ("c", "y", "z"), ("d", "x", "z"),
    ]
    comp = {
        ("ix", "ix"): "ix", ("iy", "iy"): "iy", ("iz", "iz"): "iz",
        ("ix", "a"): "a", ("a", "iy"): "a",
        ("iy", "b"): "b", ("b", "iz"): "b",
        ("iy", "c"): "c", ("c", "iz"): "c",
        ("ix", "d"): "d", ("d", "iz"): "d",
        ("a", "b"): "d", ("a", "c"): "d",
    }
    return make_category(["x", "y", "z"], arrows, {"x": "ix", "y": "iy", "z": "iz"}, comp)


@pytest.fixture(scope="session")
def nonepi_category() -> TopCategory:
    return build_nonepi_category()
