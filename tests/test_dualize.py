"""Dualization checks: the shape of dual categories and dual functors."""

from __future__ import annotations

import dataclasses
import random

import pytest

from pfdual import algebra as alg
from pfdual import dualize as dz
from pfdual import topcat as tc
from pfdual.bitsets import bits, mask_of
from pfdual.dualize import pf_is_functor_iff_locally_proper, pf_morphism, pf_object
from pfdual.duality import sections_of, theta
from pfdual.errors import InconsistencyError
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

from conftest import compose_homs, identity_hom, identity_multifunctor, index_of, permuted_copy, random_closed_sets


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
        assert tc.validate_object_of_C(cat) == ()

    def test_subalgebra_shape(self, swap_only):
        cat = pf_object(swap_only).category
        assert cat.n_objects == 2 and cat.n_arrows == 3

    def test_axiom_failure_rejected(self, swap_const):
        table = list(swap_const.range_t)
        table[index_of(swap_const, "s")] = index_of(swap_const, "0")
        broken = alg.FinAlgebra.from_tables(
            swap_const.compose_t, swap_const.anti_t, table, swap_const.pref_t, swap_const.names
        )
        with pytest.raises(ValueError, match="not representable"):
            pf_object(broken)

    def test_every_corpus_dual_validates(self, corpus_algebras):
        for a in corpus_algebras:
            assert tc.validate_object_of_C(pf_object(a).category) == ()

    def test_source_injective_on_basic_opens(self, dual1, swap_const):
        cat = dual1.category
        for a in range(swap_const.size):
            arrows = list(bits(arrows_containing(swap_const, a)))
            sources = [cat.src[f] for f in arrows]
            assert len(set(sources)) == len(sources)

    def test_endpoint_images_of_basic_opens(self, dual1, swap_const):
        cat = dual1.category
        for a in range(swap_const.size):
            arrows = list(bits(arrows_containing(swap_const, a)))
            assert mask_of(cat.src[f] for f in arrows) == objects_containing(swap_const, swap_const.dom(a))
            assert mask_of(cat.tgt[f] for f in arrows) == objects_containing(swap_const, swap_const.rng(a))


def corrupted(a: alg.FinAlgebra, compose=(), rng=()) -> alg.FinAlgebra:
    """a with the named compose entries (x, y, v) and range entries (x, v)
    overwritten."""
    comp, rng_t = [list(row) for row in a.compose_t], list(a.range_t)
    for x, y, v in compose:
        comp[index_of(a, x)][index_of(a, y)] = index_of(a, v)
    for x, v in rng:
        rng_t[index_of(a, x)] = index_of(a, v)
    return alg.FinAlgebra.from_tables(comp, a.anti_t, rng_t, a.pref_t, a.names)


class TestGuards:
    """Each invariant guard of pf_object fires on a hand-built table, which
    reaches it only with the representability check switched off."""

    @pytest.fixture(autouse=True)
    def unchecked(self, monkeypatch):
        monkeypatch.setattr(dz, "require_representable", lambda a: None)

    def test_endpoint_that_is_not_an_atom(self, swap_const):
        with pytest.raises(InconsistencyError, match="^the domain or range of a minimal element is not an atom$"):
            pf_object(corrupted(swap_const, rng=[("c", "1")]))

    @pytest.mark.parametrize("value", ["0", "1"])
    def test_composite_that_is_not_minimal(self, swap_const, value):
        # s ends where it starts, and s then s is e12
        with pytest.raises(InconsistencyError, match="^composite of s and s is not a minimal element$"):
            pf_object(corrupted(swap_const, compose=[("s", "s", value)]))

    @pytest.mark.parametrize("value", ["c", "c3"])
    def test_nonzero_product_that_does_not_compose(self, swap_const, value):
        # c ends at e3 and s starts at e12, so c then s is 0
        with pytest.raises(InconsistencyError, match="^product of c and s is nonzero but they do not compose$"):
            pf_object(corrupted(swap_const, compose=[("c", "s", value)]))


class TestMorphismGuards:
    """Each invariant guard of pf_morphism fires when the order it reads of
    one side of the inclusion swap_only -> swap_const is corrupted."""

    @staticmethod
    def dualize_with(monkeypatch, incl_hom, side: str, up):
        """pf_morphism of a new copy of incl_hom, reading up(a) as the
        up-sets of the algebra a on the given side."""
        alg._canonical.clear()  # so no kept dual of an equal homomorphism is reused
        h = alg.Homomorphism(incl_hom.source, incl_hom.target, incl_hom.mapping)
        corrupt = getattr(h, side)

        def constants(a: alg.FinAlgebra) -> alg.Constants:
            con = alg.derive_constants(a)
            return dataclasses.replace(con, up=up(a)) if a is corrupt else con

        monkeypatch.setattr(dz, "derive_constants", constants)
        return pf_morphism(h)

    def test_overlapping_up_sets(self, monkeypatch, incl_hom):
        # every target element above every other: the first object pulls
        # back to all domain elements of swap_only, whose atoms e3 and e12
        # are both below 1
        with pytest.raises(InconsistencyError, match="^up-sets chosen for an inverse image overlap$"):
            self.dualize_with(monkeypatch, incl_hom, "target", lambda a: ((1 << a.size) - 1,) * a.size)

    def test_up_sets_that_miss_the_inverse_image(self, monkeypatch, incl_hom):
        # each source element above itself alone: up(e3) no longer holds 1
        with pytest.raises(InconsistencyError, match="^inverse image is not the union of the up-sets chosen for it$"):
            self.dualize_with(monkeypatch, incl_hom, "source", lambda a: tuple(1 << k for k in range(a.size)))

    def test_ultrafilter_that_pulls_back_to_no_object(self, monkeypatch, incl_hom):
        # empty target up-sets: every inverse image is empty, a union of no
        # up-sets, so an object of the target pulls back to none
        with pytest.raises(InconsistencyError, match="^pulled-back ultrafilter is not an object of the dual$"):
            self.dualize_with(monkeypatch, incl_hom, "target", lambda a: (0,) * a.size)


class TestMapsThatAreNotHomomorphisms:
    """A map that is not a homomorphism is bad input, never an internal
    error."""

    def test_random_self_maps_dualize_or_are_refused(self, full2):
        rnd = random.Random(3)
        refused = 0
        for _ in range(300):
            h = alg.Homomorphism(full2, full2, tuple(rnd.randrange(full2.size) for _ in range(full2.size)))
            try:
                pf_morphism(h)
            except ValueError as e:
                assert str(e) == "map is not a homomorphism" and not alg.check_homomorphism(h)
                refused += 1
        assert refused > 250

    def test_corpus_homomorphisms_dualize(self, corpus_homs):
        for h in corpus_homs:
            assert pf_morphism(h).source == pf_object(h.target).category


def arrows_containing(a: alg.FinAlgebra, x: int) -> int:
    """The dual arrows containing x: the section theta maps x to."""
    return sections_of(pf_object(a).category)[1][theta(a).mapping[x]]


def objects_containing(a: alg.FinAlgebra, d: int) -> int:
    """The dual objects containing d, as the domain ultrafilters that do."""
    return mask_of(o for o, u in enumerate(enumerate_domain_ultrafilters(a)) if d in u)


class TestFilterCalculusOracle:
    """The principal dual read off minimal elements and atoms agrees with
    the general filter calculus, which checks every filter it builds, and
    so does theta.  The corpus holds swap_const and the full algebra on two
    points; seeded random closed sets on three points extend it."""

    def check_principal_dual(self, a: alg.FinAlgebra) -> None:
        dual = pf_object(a)
        cat = dual.category
        up = alg.derive_constants(a).up
        primes = enumerate_prime_filters(a)
        ultras = enumerate_domain_ultrafilters(a)
        assert tuple(up[m] for m in dual.arrow_elements) == tuple(p.members for p in primes)
        assert tuple(up[dual.arrow_elements[e]] & domain_mask(a) for e in cat.id_of) == tuple(u.members for u in ultras)
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
            section = arrows_containing(a, x)
            assert section == mask_of(k for k, p in enumerate(primes) if x in p)
            assert mask_of(cat.src[k] for k in bits(section)) == objects_containing(a, a.dom(x))

    def check_theta_choices(self, a: alg.FinAlgebra) -> None:
        """theta's section of x as the paper builds it: at each object e
        containing D(x), the prime filter of e*x, which is a dual arrow
        starting at e and the filter prime_from generates."""
        dual = pf_object(a)
        primes = enumerate_prime_filters(a)
        ultras = enumerate_domain_ultrafilters(a)
        for x in range(a.size):
            objects = [o for o, u in enumerate(ultras) if a.dom(x) in u]
            atoms = [dual.arrow_elements[dual.category.id_of[o]] for o in objects]
            choices = [dual.arr_index[a.compose_t[e][x]] for e in atoms]
            assert [dual.category.src[k] for k in choices] == objects
            assert arrows_containing(a, x) == mask_of(choices)
            for o, k in zip(objects, choices):
                assert primes[k] == prime_from(a, ultras[o], x)

    def test_principal_dual_matches_filter_calculus(self, corpus_algebras):
        for a in corpus_algebras:
            self.check_principal_dual(a)

    def test_theta_choices_match_prime_from(self, corpus_algebras):
        for a in corpus_algebras:
            self.check_theta_choices(a)

    def test_random_closed_sets_match_filter_calculus(self):
        for a in random_closed_sets(30, seed=1):
            self.check_principal_dual(a)
            self.check_theta_choices(a)


class TestDualMorphisms:
    def test_identity_dualizes_to_identity(self, swap_const, dual1):
        fun = pf_morphism(identity_hom(swap_const))
        ident = identity_multifunctor(dual1.category)
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

    def test_object_map_matches_domain_ultrafilters(self, corpus_homs):
        """Object o goes to the domain ultrafilter of the source that is the
        inverse image of domain ultrafilter o of the target, among the
        source's domain elements; seeded isomorphisms of random closed sets
        extend the corpus."""
        rnd = random.Random(1)
        isos = [permuted_copy(a, tuple(rnd.sample(range(a.size), a.size)))[1]
                for a in random_closed_sets(30, seed=1)]
        for h in (*corpus_homs, *isos):
            ultras = [u.members for u in enumerate_domain_ultrafilters(h.source)]
            domain = domain_mask(h.source)
            expected = tuple(ultras.index(mask_of(a for a in bits(domain) if u.members >> h(a) & 1))
                             for u in enumerate_domain_ultrafilters(h.target))
            assert pf_morphism(h).obj_map == expected

    def test_functoriality(self, incl_hom, swap_const_perm):
        _, iso = swap_const_perm
        h12 = compose_homs(incl_hom, iso)
        lhs = pf_morphism(h12)
        rhs = tc.compose_multifunctors(pf_morphism(iso), pf_morphism(incl_hom))
        assert lhs.obj_map == rhs.obj_map and lhs.arr_rel == rhs.arr_rel

    def test_duals_are_coherent(self, corpus_homs):
        for h in corpus_homs:
            fun = pf_morphism(h)
            assert tc.check_multifunctor(fun) is None
            assert tc.is_continuous_multifunctor(fun)
            assert tc.star_checks(fun).coherent


class TestFunctorIffLocallyProper:
    def test_identity(self, swap_const):
        verdict = pf_is_functor_iff_locally_proper(identity_hom(swap_const))
        assert verdict.plain_functor and verdict.locally_proper

    def test_inclusion(self, incl_hom):
        verdict = pf_is_functor_iff_locally_proper(incl_hom)
        assert not verdict.plain_functor and not verdict.locally_proper

    def test_isomorphism(self, swap_const_perm):
        _, iso = swap_const_perm
        verdict = pf_is_functor_iff_locally_proper(iso)
        assert verdict.plain_functor and verdict.locally_proper

    def test_whole_corpus_agrees(self, corpus_homs):
        for h in corpus_homs:
            verdict = pf_is_functor_iff_locally_proper(h)
            assert verdict.plain_functor == verdict.locally_proper

    def test_disagreement_is_an_internal_error(self, monkeypatch, swap_const):
        """A verdict is returned only when the two sides agree."""
        monkeypatch.setattr(dz, "check_locally_proper", lambda h: (False, None))
        with pytest.raises(InconsistencyError, match="verdicts disagree"):
            pf_is_functor_iff_locally_proper(identity_hom(swap_const))
