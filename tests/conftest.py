"""Shared corpus: the eight-element swap/constant algebra on a three-point
base, its six-element subalgebra, assorted small algebras, homomorphisms
between them, and a few hand-built categories."""

from __future__ import annotations

import functools
import json
import operator
import random
from typing import Iterable, Optional, Sequence

import pytest
from hypothesis import settings

from pfdual.algebra import FinAlgebra, Homomorphism
from pfdual.bitsets import bits, mask_of
from pfdual.pfun import Base, PFunc, as_abstract, close_under_ops, enumerate_all
from pfdual.topcat import (FinTopology, MultiFunctor, TopCategory, discrete_topology, generate_topology,
                           is_plain_functor)
from pfdual.transducer import Transducer

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


def random_closed_sets(count: int, seed: int, points: int = 3) -> list[FinAlgebra]:
    """count distinct seeded random closed sets on points 1..points, each
    generated by one to three random partial functions."""
    rnd = random.Random(seed)
    functions = enumerate_all(Base(tuple(range(1, points + 1))))
    closed: dict[tuple, list] = {}
    while len(closed) < count:
        members = close_under_ops(rnd.sample(functions, rnd.randint(1, 3)))
        closed.setdefault(tuple(members), members)
    return [as_abstract(members)[0] for members in closed.values()]


def comp_table(n_arrows: int, triples: Iterable[tuple[int, int, int]]) -> tuple[tuple[int, ...], ...]:
    """The table with composite h at (f, g) for each triple (f, g, h), and
    the zero index n_arrows everywhere else."""
    table = [[n_arrows] * n_arrows for _ in range(n_arrows)]
    for f, g, h in triples:
        table[f][g] = h
    return tuple(map(tuple, table))


def make_category(obj_names, arrows, id_of, comp, obj_opens=None, arr_opens=None) -> TopCategory:
    """A category from names: arrows are (name, src, tgt) triples, comp maps
    name pairs to names, and each list of opens is a subbasis, discrete when
    not given.  No file limit applies."""
    objs = tuple(obj_names)
    arrs = tuple(arrows)
    arr_names = tuple(a[0] for a in arrs)
    oi = {o: i for i, o in enumerate(objs)}
    ai = {a: i for i, a in enumerate(arr_names)}

    def topology(index: dict, opens) -> FinTopology:
        if opens is None:
            return discrete_topology(len(index))
        return generate_topology(len(index), (mask_of(index[x] for x in U) for U in opens))

    return TopCategory(
        obj_names=objs, arr_names=arr_names, obj_top=topology(oi, obj_opens), arr_top=topology(ai, arr_opens),
        src=tuple(oi[a[1]] for a in arrs), tgt=tuple(oi[a[2]] for a in arrs),
        id_of=tuple(ai[id_of[o]] for o in objs),
        comp_t=comp_table(len(arrs), ((ai[f], ai[g], ai[h]) for (f, g), h in comp.items())),
    )


def index_of(alg: FinAlgebra, name: str) -> int:
    """The element of alg named name."""
    return alg.names.index(name)


def element_names(alg: FinAlgebra, members: int) -> tuple[str, ...]:
    """The names of the elements in a member mask of alg, in index order."""
    return tuple(alg.names[i] for i in bits(members))


def identity_hom(alg: FinAlgebra) -> Homomorphism:
    return Homomorphism(alg, alg, tuple(range(alg.size)))


def identity_multifunctor(cat: TopCategory) -> MultiFunctor:
    return MultiFunctor(cat, cat, tuple(range(cat.n_objects)), tuple(1 << f for f in range(cat.n_arrows)))


def is_open(top: FinTopology, mask: int) -> bool:
    """Whether mask is open: the union of the basis sets inside it."""
    return mask == functools.reduce(operator.or_, (b for b in top.basis if not b & ~mask), 0)


def is_clopen(top: FinTopology, mask: int) -> bool:
    return is_open(top, mask) and is_open(top, top.full & ~mask)


def inverse(perm: Sequence[int]) -> tuple[int, ...]:
    """The inverse of a permutation of range(len(perm))."""
    assert sorted(perm) == list(range(len(perm)))
    back = [0] * len(perm)
    for a, v in enumerate(perm):
        back[v] = a
    return tuple(back)


def inverse_hom(h: Homomorphism) -> Homomorphism:
    """The inverse map of a bijective map between algebras, not yet checked
    to be a homomorphism."""
    assert h.source.size == h.target.size
    return Homomorphism(h.target, h.source, inverse(h.mapping))


def inverse_functor(fun: MultiFunctor) -> Optional[MultiFunctor]:
    """The inverse of a plain functor that is bijective on objects and on
    arrows, not yet checked to be a functor; None for any other relation."""
    arrows = [m.bit_length() - 1 for m in fun.arr_rel]
    if (not is_plain_functor(fun) or sorted(fun.obj_map) != list(range(fun.target.n_objects))
            or sorted(arrows) != list(range(fun.target.n_arrows))):
        return None
    return MultiFunctor(fun.target, fun.source, inverse(fun.obj_map), tuple(1 << f for f in inverse(arrows)))


def compose_homs(h1: Homomorphism, h2: Homomorphism) -> Homomorphism:
    """First h1, then h2."""
    assert h1.target == h2.source
    return Homomorphism(h1.source, h2.target, tuple(h2.mapping[v] for v in h1.mapping))


def algebra_to_dict(alg: FinAlgebra) -> dict:
    """The abstract algebra file of alg as a JSON object."""
    names = alg.names
    return {
        "elements": list(names),
        "compose": [[names[v] for v in row] for row in alg.compose_t],
        "antidomain": [names[v] for v in alg.anti_t],
        "range": [names[v] for v in alg.range_t],
        "pref": [[names[v] for v in row] for row in alg.pref_t],
    }


def category_to_dict(cat: TopCategory) -> dict:
    """The category file of cat as a JSON object."""
    def basis(top: FinTopology, names: tuple[str, ...]) -> list[list[str]]:
        return [[names[i] for i in bits(m)] for m in top.basis]

    return {
        "objects": list(cat.obj_names),
        "opens_obj": basis(cat.obj_top, cat.obj_names),
        "arrows": [
            {"name": cat.arr_names[f], "src": cat.obj_names[cat.src[f]], "tgt": cat.obj_names[cat.tgt[f]]}
            for f in range(cat.n_arrows)
        ],
        "opens_arr": basis(cat.arr_top, cat.arr_names),
        "id": {cat.obj_names[x]: cat.arr_names[cat.id_of[x]] for x in range(cat.n_objects)},
        "comp": {
            f"{cat.arr_names[f]},{cat.arr_names[g]}": cat.arr_names[h]
            for f, row in enumerate(cat.comp_t) for g, h in enumerate(row) if h != cat.n_arrows
        },
    }


def transducer_to_dict(t: Transducer) -> dict:
    """The machine file of t as a JSON object."""
    names, al = t.names, t.alphabet
    return {
        "alphabet": list(al),
        "states": list(names),
        "initial": names[t.initial],
        "final": dict(sorted((names[q], v) for q, v in enumerate(t.final) if v is not None)),
        "trans": [
            {"from": names[q], "in": al[j], "out": out, "to": to}
            for q in sorted(range(len(names)), key=names.__getitem__)
            for j in sorted(range(len(al)), key=al.__getitem__)
            for out, to in sorted((out, names[q2]) for out, q2 in t.delta[q][j])
        ],
    }


def dfa_to_dict(d: Transducer) -> dict:
    """The acceptor file of the identity machine d as a JSON object."""
    names = d.names
    return {
        "alphabet": list(d.alphabet),
        "states": list(names),
        "initial": names[d.initial],
        "accepting": sorted(names[q] for q, v in enumerate(d.final) if v is not None),
        "trans": [
            {"from": names[q], "in": a, "to": names[to]}
            for q, row in enumerate(d.delta)
            for a, step in zip(d.alphabet, row)
            for _, to in step
        ],
    }


def dump_oracle(data: dict) -> str:
    """The bytes a file writer must give: json.dumps of the file's object."""
    return json.dumps(data, indent=2) + "\n"


def hom_to_dict(h: Homomorphism, source_label: str, target_label: str) -> dict:
    """The homomorphism file of h, naming its algebra files by the labels."""
    return {
        "source": source_label,
        "target": target_label,
        "map": {h.source.names[a]: h.target.names[h(a)] for a in range(h.source.size)},
    }


def functor_to_dict(fun: MultiFunctor, source_label: str, target_label: str) -> dict:
    """The functor file of fun, naming its category files by the labels."""
    return {
        "source": source_label,
        "target": target_label,
        "obj_map": {x: fun.target.obj_names[y] for x, y in zip(fun.source.obj_names, fun.obj_map)},
        "arr_rel": [[f, fun.target.arr_names[g]] for f, m in zip(fun.source.arr_names, fun.arr_rel) for g in bits(m)],
    }


def permuted_copy(alg: FinAlgebra, perm: tuple[int, ...]) -> tuple[FinAlgebra, Homomorphism]:
    """An isomorphic copy with elements renumbered, plus the isomorphism."""
    n = alg.size
    inv = inverse(perm)
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
    return Homomorphism(swap_only, swap_const, tuple(index_of(swap_const, n) for n in swap_only.names))


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
