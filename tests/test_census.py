"""The duality on a whole small base: every closed set of partial functions
on 2 points, every homomorphism between two of them, and the dual of each.

Every nonempty closed set holds the empty function 0 = A(a)*a and the
identity A(0), so each is reached from the closure of those two by adding
one function at a time and closing again.  The homomorphisms are found by
backtracking over the images of the elements in index order, with every
operation checked as soon as its operands and its result have images."""

from __future__ import annotations

import itertools

import pytest

from pfdual import algebra as alg
from pfdual import topcat as tc
from pfdual.dualize import pf_morphism
from pfdual.duality import check_naturality_phi, check_naturality_theta
from pfdual.pfun import Base, as_abstract, close_under_ops, enumerate_all, graph_key


def closed_sets(base: Base) -> list[frozenset]:
    """Every nonempty set of partial functions on base closed under the
    four operations, by breadth-first search from the closure of 0."""
    functions = enumerate_all(base)
    empty = next(f for f in functions if all(v is None for v in f.graph))
    start = frozenset(close_under_ops([empty]))
    found, frontier = {start}, [start]
    while frontier:
        grown = {frozenset(close_under_ops([*s, f])) for s in frontier for f in functions if f not in s}
        frontier = list(grown - found)
        found |= grown
    return sorted(found, key=lambda s: (len(s), sorted(map(graph_key, s))))


def homomorphisms(a: alg.FinAlgebra, b: alg.FinAlgebra) -> list[tuple[int, ...]]:
    """Every map a -> b that preserves compose, pref, antidomain and range,
    in lexicographic order of the image tuples."""
    n = a.size
    binary = ((a.compose_t, b.compose_t), (a.pref_t, b.pref_t))
    unary = ((a.anti_t, b.anti_t), (a.range_t, b.range_t))
    h: list[int] = []

    def consistent() -> bool:
        """Every law whose operands and result have images, with the last
        element assigned among them."""
        k = len(h) - 1
        for S, T in unary:
            for x in range(k + 1):
                if (x == k or S[x] == k) and S[x] <= k and T[h[x]] != h[S[x]]:
                    return False
        for S, T in binary:
            for x, y in itertools.product(range(k + 1), repeat=2):
                z = S[x][y]
                if k in (x, y, z) and z <= k and T[h[x]][h[y]] != h[z]:
                    return False
        return True

    def extend():
        if len(h) == n:
            yield tuple(h)
            return
        for v in range(b.size):
            h.append(v)
            if consistent():
                yield from extend()
            h.pop()

    return list(extend())


@pytest.fixture(scope="module")
def census2() -> list[alg.FinAlgebra]:
    return [as_abstract(s)[0] for s in closed_sets(Base(("x", "y")))]


def test_two_points_have_six_closed_sets(census2):
    assert [a.size for a in census2] == [2, 3, 4, 6, 6, 9]  # 0 and the identity at least
    assert all(alg.check_axioms(a).passed for a in census2)


def test_backtracking_finds_what_a_search_of_every_map_finds(census2):
    for a, b in itertools.product(census2, repeat=2):
        if b.size ** a.size <= 4096:
            every_map = itertools.product(range(b.size), repeat=a.size)
            assert homomorphisms(a, b) == [m for m in every_map if alg.check_homomorphism(alg.Homomorphism(a, b, m))]


def test_every_homomorphism_and_its_dual(census2):
    """Both naturality squares commute, every dual is star-coherent, and a
    homomorphism is locally proper exactly when its dual is a plain
    functor."""
    counts = {"homs": 0, "proper": 0}
    for a, b in itertools.product(census2, repeat=2):
        for mapping in homomorphisms(a, b):
            h = alg.Homomorphism(a, b, mapping)
            fun = pf_morphism(h)
            assert check_naturality_theta(h)
            assert check_naturality_phi(fun)
            assert tc.star_checks(fun).coherent
            proper, _ = alg.check_locally_proper(h)
            assert proper == tc.is_plain_functor(fun)
            counts["homs"] += 1
            counts["proper"] += proper
    assert counts["homs"] == 44 and 0 < counts["proper"] < counts["homs"]
