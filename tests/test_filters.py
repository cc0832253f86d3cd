"""Filter calculus checks: generation, primality, enumeration, and the
source/target/composition laws used to build dual categories."""

from __future__ import annotations

import ast
import itertools
from functools import partial
from pathlib import Path

import pytest

from pfdual import algebra as alg
from pfdual import filters as flt
from pfdual.bitsets import bits, mask_of

from conftest import index_of


def named(a, *names):
    return mask_of(index_of(a, n) for n in names)


@pytest.fixture(scope="module")
def primes(swap_const):
    return {p.element_names()[0]: p for p in flt.enumerate_prime_filters(swap_const)}


@pytest.fixture(scope="module")
def ultras(swap_const):
    ufs = flt.enumerate_domain_ultrafilters(swap_const)
    return {
        "mu12": next(u for u in ufs if "e12" in u.element_names()),
        "mu3": next(u for u in ufs if "e3" in u.element_names()),
    }


class TestGeneratedFilter:
    def test_single_generator(self, swap_const, primes):
        got = flt.generated_filter(swap_const, named(swap_const, "s"))
        assert got == primes["s"]
        assert got.element_names() == ("s", "s3")

    def test_top_like_element(self, swap_const):
        assert flt.generated_filter(swap_const, named(swap_const, "1")).element_names() == ("1",)

    def test_incompatible_pair_is_improper(self, swap_const):
        got = flt.generated_filter(swap_const, named(swap_const, "s", "c"))
        assert not flt.is_proper(swap_const, got.members)
        assert got.members == (1 << swap_const.size) - 1

    def test_empty_seed_rejected(self, swap_const):
        with pytest.raises(ValueError):
            flt.generated_filter(swap_const, 0)

    def test_least_filter(self, swap_const):
        """The result is contained in every filter that includes the seed."""
        n = swap_const.size
        for seed in range(1, 1 << n):
            gen = flt.generated_filter(swap_const, seed).members
            assert flt.is_filter(swap_const, gen)
            for candidate in range(1, 1 << n):
                if candidate & seed == seed and flt.is_filter(swap_const, candidate):
                    assert gen & ~candidate == 0


class TestPrimeMaximal:
    def test_examples(self, swap_const, primes):
        assert flt.is_prime(swap_const, primes["s"])
        assert flt.is_prime(swap_const, primes["e3"])
        only_top = flt.FilterSet(swap_const, named(swap_const, "1"))
        assert not flt.is_prime(swap_const, only_top)

    def test_non_filter_rejected(self, swap_const):
        with pytest.raises(ValueError):
            flt.is_prime(swap_const, flt.FilterSet(swap_const, named(swap_const, "s", "c")))

    def test_prime_iff_maximal_exhaustive(self, swap_const, full2):
        for a in (swap_const, full2):
            for members in range(1, 1 << a.size):
                if not flt.is_filter(a, members) or not flt.is_proper(a, members):
                    continue
                f = flt.FilterSet(a, members)
                assert flt.is_prime(a, f) == flt.is_maximal(a, f)


class TestEnumeration:
    def test_counts(self, swap_const, swap_only, one_elem):
        assert len(flt.enumerate_prime_filters(swap_const)) == 4
        assert len(flt.enumerate_domain_ultrafilters(swap_const)) == 2
        assert len(flt.enumerate_prime_filters(swap_only)) == 3
        assert len(flt.enumerate_prime_filters(one_elem)) == 0
        assert len(flt.enumerate_domain_ultrafilters(one_elem)) == 0

    def test_subalgebra_prime_generators(self, swap_only):
        leasts = {p.element_names()[0] for p in flt.enumerate_prime_filters(swap_only)}
        assert leasts == {"e12", "e3", "s"}

    def test_enumeration_matches_brute_force(self, swap_const, full2):
        for a in (swap_const, full2):
            enumerated = {p.members for p in flt.enumerate_prime_filters(a)}
            brute = {
                members
                for members in range(1, 1 << a.size)
                if flt.is_filter(a, members)
                and flt.is_prime(a, flt.FilterSet(a, members))
            }
            assert enumerated == brute

    def test_four_way_equivalence(self, swap_const):
        """prime = maximal = upward-closed product with an ultrafilter,
        for every element of the filter."""
        prime_masks = {p.members for p in flt.enumerate_prime_filters(swap_const)}
        ufs = flt.enumerate_domain_ultrafilters(swap_const)
        from_products = set()
        for mu in ufs:
            for a in range(swap_const.size):
                cand = flt.prime_from(swap_const, mu, a)
                if flt.is_proper(swap_const, cand.members):
                    from_products.add(cand.members)
        assert from_products == prime_masks
        for p in flt.enumerate_prime_filters(swap_const):
            mu = flt.source_of(swap_const, p)
            for a in bits(p.members):
                assert flt.prime_from(swap_const, mu, a) == p


class TestSourceTarget:
    def test_examples(self, swap_const, primes, ultras):
        assert flt.source_of(swap_const, primes["c"]) == ultras["mu12"]
        assert flt.target_of(swap_const, primes["c"]) == ultras["mu3"]
        assert flt.source_of(swap_const, primes["e3"]) == ultras["mu3"]
        assert flt.target_of(swap_const, primes["e3"]) == ultras["mu3"]

    def test_ultrafilter_upset_recovers_itself(self, swap_const):
        for mu in flt.enumerate_domain_ultrafilters(swap_const):
            up = flt.FilterSet(swap_const, flt.upward_closure(swap_const, mu.members))
            assert flt.is_prime(swap_const, up)
            assert flt.source_of(swap_const, up) == mu


class TestComposeFilters:
    def test_examples(self, swap_const, primes):
        assert flt.compose_filters(swap_const, primes["s"], primes["s"]) == primes["e12"]
        assert flt.compose_filters(swap_const, primes["s"], primes["c"]) == primes["c"]
        improper = flt.compose_filters(swap_const, primes["c"], primes["s"])
        assert not flt.is_proper(swap_const, improper.members)

    def test_proper_iff_target_matches_source(self, swap_const):
        primes = flt.enumerate_prime_filters(swap_const)
        for p, q in itertools.product(primes, repeat=2):
            composite = flt.compose_filters(swap_const, p, q)
            matches = flt.target_of(swap_const, p) == flt.source_of(swap_const, q)
            assert flt.is_proper(swap_const, composite.members) == matches
            if matches:
                assert flt.is_prime(swap_const, composite)
                assert flt.target_of(swap_const, composite) == flt.target_of(swap_const, q)

    def test_left_cancellation(self, swap_const):
        primes = flt.enumerate_prime_filters(swap_const)
        for p, q, r in itertools.product(primes, repeat=3):
            pq = flt.compose_filters(swap_const, p, q)
            pr = flt.compose_filters(swap_const, p, r)
            if flt.is_proper(swap_const, pq.members) and pq == pr:
                assert q == r

    def test_nondisjoint_same_source_equal(self, swap_const):
        primes = flt.enumerate_prime_filters(swap_const)
        for p, q in itertools.product(primes, repeat=2):
            if p.members & q.members and flt.source_of(swap_const, p) == flt.source_of(swap_const, q):
                assert p == q


class TestPrimeFrom:
    def test_examples(self, swap_const, primes, ultras):
        i = partial(index_of, swap_const)
        assert flt.prime_from(swap_const, ultras["mu12"], i("s")) == primes["s"]
        improper = flt.prime_from(swap_const, ultras["mu3"], i("s"))
        assert not flt.is_proper(swap_const, improper.members)

    def test_identity_case(self, swap_const, ultras):
        con = alg.derive_constants(swap_const)
        for mu in ultras.values():
            p = flt.prime_from(swap_const, mu, con.ident)
            assert p.members == flt.upward_closure(swap_const, mu.members)
            assert flt.is_prime(swap_const, p)


class TestFindPrimeWithRange:
    def test_examples(self, swap_const, primes, ultras):
        i = partial(index_of, swap_const)
        assert flt.find_prime_with_range(swap_const, ultras["mu3"], i("c")) == primes["c"]
        assert flt.find_prime_with_range(swap_const, ultras["mu12"], i("e12")) == primes["e12"]
        assert flt.find_prime_with_range(swap_const, ultras["mu12"], i("s")) == primes["s"]

    def test_precondition(self, swap_const, ultras):
        with pytest.raises(ValueError):
            flt.find_prime_with_range(swap_const, ultras["mu3"], index_of(swap_const, "s"))

    def test_exhaustive_over_corpus(self, corpus_algebras):
        for a in corpus_algebras:
            for mu in flt.enumerate_domain_ultrafilters(a):
                for x in range(a.size):
                    if not mu.members >> a.rng(x) & 1:
                        continue
                    p = flt.find_prime_with_range(a, mu, x)
                    assert p.members >> x & 1
                    assert flt.target_of(a, p) == mu


def test_no_pipeline_module_imports_filters():
    """The calculus is the oracle the tests check the pipeline against, so
    no pipeline module may use it; the package re-exports it only."""
    importers = set()
    for path in (Path(flt.__file__).parent).glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:
                continue
            if any(m.split(".")[-1] == "filters" for m in modules):
                importers.add(path.name)
    assert importers == {"__init__.py"}
