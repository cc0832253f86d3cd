"""Dualization checks: the shape of dual categories and dual functors."""

from __future__ import annotations

import pytest

from pfdual import algebra as alg
from pfdual import topcat as tc
from pfdual.algebra import identity_hom
from pfdual.bitsets import bits, mask_of
from pfdual.dualize import pf_is_functor_iff_locally_proper, pf_morphism, pf_object
from pfdual.duality import sections_of, theta
from pfdual.filters import (
    compose_filters,
    domain_mask,
    enumerate_domain_ultrafilters,
    enumerate_prime_filters,
    is_proper,
    prime_from,
    source_of,
    target_of,
    upward_closure,
)

from conftest import compose_homs


@pytest.fixture(scope="module")
def dual1(swap_const):
    return pf_object(swap_const)


class TestDualObjects:
    def test_swap_const_shape(self, dual1):
        cat = dual1.category
        assert cat.n_objects == 2 and cat.n_arrows == 4
        assert len(set(cat.id_of)) == 2
        # loops at both objects plus exactly one crossing arrow
        crossings = [f for f in range(cat.n_arrows) if cat.src[f] != cat.tgt[f]]
        assert len(crossings) == 1

    def test_composition_table(self, dual1, swap_const):
        cat = dual1.category
        a = {name: k for k, name in enumerate(cat.arr_names)}
        assert cat.compose(a["p_s"], a["p_s"]) == a["p_e12"]
        assert cat.compose(a["p_s"], a["p_e12"]) == a["p_s"]
        assert cat.compose(a["p_e12"], a["p_s"]) == a["p_s"]
        assert cat.compose(a["p_s"], a["p_c"]) == a["p_c"]
        assert cat.compose(a["p_c"], a["p_e3"]) == a["p_c"]
        assert cat.tgt[a["p_c"]] != cat.src[a["p_s"]]

    def test_one_element_gives_empty_category(self, one_elem):
        cat = pf_object(one_elem).category
        assert cat.n_objects == 0 and cat.n_arrows == 0
        assert tc.validate_object_of_C(cat).passed

    def test_subalgebra_shape(self, swap_only):
        cat = pf_object(swap_only).category
        assert cat.n_objects == 2 and cat.n_arrows == 3

    def test_axiom_failure_rejected(self, swap_const):
        table = list(swap_const.range_t)
        table[swap_const.index_of("s")] = swap_const.index_of("0")
        broken = alg.FinAlgebra.from_tables(
            swap_const.compose_t, swap_const.anti_t, table, swap_const.pref_t, swap_const.names
        )
        with pytest.raises(ValueError, match="not representable"):
            pf_object(broken)

    def test_every_corpus_dual_validates(self, corpus_algebras):
        for a in corpus_algebras:
            assert tc.validate_object_of_C(pf_object(a).category).passed

    def test_source_injective_on_basic_opens(self, dual1, swap_const):
        cat = dual1.category
        for a in range(swap_const.size):
            arrows = list(bits(dual1.element_opens[a]))
            sources = [cat.src[f] for f in arrows]
            assert len(set(sources)) == len(sources)

    def test_endpoint_images_of_basic_opens(self, dual1, swap_const):
        cat = dual1.category
        for a in range(swap_const.size):
            arrows = list(bits(dual1.element_opens[a]))
            assert mask_of(cat.src[f] for f in arrows) == dual1.domain_opens[swap_const.dom(a)]
            assert mask_of(cat.tgt[f] for f in arrows) == dual1.domain_opens[swap_const.rng(a)]


class TestFilterCalculusOracle:
    """The principal dual read off minimal elements and atoms agrees with
    the general filter calculus, which checks every filter it builds.  The
    corpus holds swap_const and the full algebra on two points."""

    def test_principal_dual_matches_filter_calculus(self, corpus_algebras):
        for a in corpus_algebras:
            dual = pf_object(a)
            cat = dual.category
            up = alg.derive_constants(a).up
            primes = enumerate_prime_filters(a)
            ultras = enumerate_domain_ultrafilters(a)
            assert tuple(up[m] for m in dual.arrow_elements) == tuple(p.members for p in primes)
            assert tuple(up[e] & domain_mask(a) for e in dual.object_atoms) == tuple(u.members for u in ultras)
            obj_of = {u.members: o for o, u in enumerate(ultras)}
            arr_of = {p.members: k for k, p in enumerate(primes)}
            assert cat.src == tuple(obj_of[source_of(a, p).members] for p in primes)
            assert cat.tgt == tuple(obj_of[target_of(a, p).members] for p in primes)
            assert cat.id_of == tuple(arr_of[upward_closure(a, u.members)] for u in ultras)
            for i, p in enumerate(primes):
                for j, q in enumerate(primes):
                    r = compose_filters(a, p, q)
                    if cat.tgt[i] == cat.src[j]:
                        assert r.members == primes[cat.compose(i, j)].members
                    else:
                        assert not is_proper(a, r.members)
            for x in range(a.size):
                assert dual.element_opens[x] == mask_of(k for k, p in enumerate(primes) if x in p)
                assert dual.domain_opens[x] == mask_of(o for o, u in enumerate(ultras) if x in u)

    def test_theta_choices_match_prime_from(self, corpus_algebras):
        for a in corpus_algebras:
            dual = pf_object(a)
            primes = enumerate_prime_filters(a)
            ultras = enumerate_domain_ultrafilters(a)
            _, secs = sections_of(dual.category)
            iso = theta(a)
            for x in range(a.size):
                section = secs[iso.fwd[x]]
                assert mask_of(dual.category.src[k] for k in bits(section)) == dual.domain_opens[a.dom(x)]
                for k in bits(section):
                    assert primes[k] == prime_from(a, ultras[dual.category.src[k]], x)


class TestDualMorphisms:
    def test_identity_dualizes_to_identity(self, swap_const, dual1):
        fun = pf_morphism(identity_hom(swap_const))
        ident = tc.identity_multifunctor(dual1.category)
        assert fun.obj_map == ident.obj_map and fun.arr_rel == ident.arr_rel

    def test_inclusion_values(self, incl_hom, swap_const, swap_only, dual1):
        fun = pf_morphism(incl_hom)
        dual_b = pf_object(swap_only)
        by_least = {swap_const.names[m]: k for k, m in enumerate(dual1.arrow_elements)}
        by_least_b = {swap_only.names[m]: k for k, m in enumerate(dual_b.arrow_elements)}
        assert fun.arr_rel[by_least["c"]] == 0
        assert fun.arr_rel[by_least["s"]] == 1 << by_least_b["s"]
        assert fun.arr_rel[by_least["e3"]] == 1 << by_least_b["e3"]

    def test_arrow_relation_matches_subset_characterization(self, corpus_homs):
        for h in corpus_homs:
            fun = pf_morphism(h)
            dual_b = pf_object(h.target)
            dual_a = pf_object(h.source)
            up_a, up_b = alg.derive_constants(h.source).up, alg.derive_constants(h.target).up
            for k, p in enumerate(dual_b.arrow_elements):
                inv = mask_of(
                    a for a in range(h.source.size) if up_b[p] >> h(a) & 1
                )
                expected = mask_of(
                    j for j, q in enumerate(dual_a.arrow_elements)
                    if up_a[q] & ~inv == 0
                )
                assert fun.arr_rel[k] == expected

    def test_functoriality(self, incl_hom, swap_const_perm):
        _, iso = swap_const_perm
        h12 = compose_homs(incl_hom, iso)
        lhs = pf_morphism(h12)
        rhs = tc.compose_multifunctors(pf_morphism(iso), pf_morphism(incl_hom))
        assert lhs.obj_map == rhs.obj_map and lhs.arr_rel == rhs.arr_rel

    def test_duals_are_coherent(self, corpus_homs):
        for h in corpus_homs:
            fun = pf_morphism(h)
            assert tc.check_multifunctor(fun).passed
            assert tc.is_continuous_multifunctor(fun)
            assert tc.star_checks(fun).coherent


class TestFunctorIffLocallyProper:
    def test_identity(self, swap_const):
        verdict = pf_is_functor_iff_locally_proper(identity_hom(swap_const))
        assert verdict.plain_functor and verdict.locally_proper and verdict.agree

    def test_inclusion(self, incl_hom):
        verdict = pf_is_functor_iff_locally_proper(incl_hom)
        assert not verdict.plain_functor and not verdict.locally_proper and verdict.agree

    def test_isomorphism(self, swap_const_perm):
        _, iso = swap_const_perm
        verdict = pf_is_functor_iff_locally_proper(iso)
        assert verdict.plain_functor and verdict.locally_proper

    def test_whole_corpus_agrees(self, corpus_homs):
        for h in corpus_homs:
            assert pf_is_functor_iff_locally_proper(h).agree
