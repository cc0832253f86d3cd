"""Double-dual isomorphisms, naturality squares, and the restricted duality."""

from __future__ import annotations

import collections
import dataclasses
import gc
import weakref
from pathlib import Path

import pytest

from pfdual import algebra as alg
from pfdual import duality as du
from pfdual import formats as fmt
from pfdual import topcat as tc
from pfdual.bitsets import bits, mask_of
from pfdual.dualize import pf_morphism
from pfdual.errors import InconsistencyError

from conftest import identity_hom, identity_multifunctor, index_of, inverse_functor, inverse_hom, zero_extended_cyclic


DATA = Path(__file__).resolve().parent.parent / "data"


def is_topcat_iso(fun: tc.MultiFunctor) -> bool:
    """A bijective continuous functor between categories with a continuous
    inverse."""
    back = inverse_functor(fun)
    return (back is not None and tc.check_multifunctor(fun) is None
            and tc.is_continuous_multifunctor(fun) and tc.is_continuous_multifunctor(back))


class TestTheta:
    def test_swap_const_is_bijective_homomorphism(self, swap_const):
        iso = du.theta(swap_const)
        assert iso.source == swap_const
        assert sorted(iso.mapping) == list(range(8))
        assert alg.check_homomorphism(iso)
        assert alg.check_homomorphism(inverse_hom(iso))

    def test_empty_function_goes_to_empty_section(self, swap_const):
        iso = du.theta(swap_const)
        dual = du.dual_of(swap_const)
        _, secs = du.sections_of(dual.category)
        target = secs[iso.mapping[index_of(swap_const, "0")]]
        assert target == 0

    def test_swap_with_fixed_point_section(self, swap_const):
        """s3 picks the swap filter over one object and the identity filter
        over the other."""
        iso = du.theta(swap_const)
        dual = du.dual_of(swap_const)
        _, secs = du.sections_of(dual.category)
        target = secs[iso.mapping[index_of(swap_const, "s3")]]
        assert mask_of(dual.category.src[f] for f in bits(target)) == (1 << dual.category.n_objects) - 1
        chosen = {swap_const.names[dual.arrow_elements[f]] for f in bits(target)}
        assert chosen == {"s", "e3"}

    def test_corpus_isomorphisms(self, corpus_algebras):
        for a in corpus_algebras:
            iso = du.theta(a)
            assert iso.target.size == a.size

    def test_one_element(self, one_elem):
        assert du.theta(one_elem).target.size == 1

    def test_inverses_are_homomorphisms(self, corpus_algebras):
        """theta checks only its forward map: on every algebra of the corpus
        and of data/, the inverse map is a homomorphism too."""
        algebras = [*corpus_algebras, *map(fmt.load_algebra, sorted(DATA.glob("*.alg.json")))]
        assert len(algebras) == len(corpus_algebras) + 2
        for a in algebras:
            iso = du.theta(a)
            assert iso.source == a and iso.target == du.sections_of(du.dual_of(a).category)[0]
            assert alg.check_homomorphism(iso) and alg.check_homomorphism(inverse_hom(iso))


def test_derived_data_dies_with_its_algebra(swap_const):
    """theta, phi and the morphism duals are kept on the objects they are
    derived from, and the canonical table holds no object alive."""
    alg._canonical.clear()
    names = [f"t{k}" for k in range(swap_const.size)]
    a = alg.FinAlgebra.from_tables(swap_const.compose_t, swap_const.anti_t, swap_const.range_t,
                                   swap_const.pref_t, names)
    kept = (du.theta(a), du.phi(du.dual_of(a).category), pf_morphism(identity_hom(a)))
    assert du.theta(a) is kept[0] and len(alg._canonical) > 0
    alive = weakref.ref(a)
    del a, kept
    gc.collect()
    assert alive() is None and len(alg._canonical) == 0


class TestPhi:
    def test_dual_of_swap_const(self, swap_const):
        iso = du.phi(du.dual_of(swap_const).category)
        assert iso.target.n_objects == 2 and iso.target.n_arrows == 4

    def test_arrow_goes_to_sections_containing_it(self, swap_const):
        dual = du.dual_of(swap_const)
        cat = dual.category
        iso = du.phi(cat)
        secalg, secs = du.sections_of(cat)
        dd = du.dual_of(secalg)
        for c in range(cat.n_arrows):
            image_arrow = next(bits(iso.arr_rel[c]))
            expected = {i for i, m in enumerate(secs) if m >> c & 1}
            assert set(bits(alg.derive_constants(secalg).up[dd.arrow_elements[image_arrow]])) == expected

    def test_empty_category(self, one_elem):
        cat = du.dual_of(one_elem).category
        iso = du.phi(cat)
        assert iso.target.n_objects == 0 and iso.target.n_arrows == 0

    def test_one_object_one_arrow(self, one_arrow_category):
        iso = du.phi(one_arrow_category)
        assert iso.target.n_objects == 1 and iso.target.n_arrows == 1

    def test_corpus_categories(self, corpus_algebras):
        for a in corpus_algebras:
            cat = du.dual_of(a).category
            iso = du.phi(cat)
            assert iso.target.n_objects == cat.n_objects
            assert iso.target.n_arrows == cat.n_arrows

    def test_isomorphisms_of_topological_categories(self, corpus_algebras, corpus_homs, one_arrow_category):
        """phi checks only that its forward map is a functor: on every
        category it meets in the tests, it and its inverse are continuous
        functors.  Both sides of every category are discrete, so continuity
        holds without a test in phi."""
        algebras = [*corpus_algebras, *map(fmt.load_algebra, sorted(DATA.glob("*.alg.json")))]
        cats = [du.dual_of(a).category for a in algebras]
        cats += [c for h in corpus_homs for c in (pf_morphism(h).source, pf_morphism(h).target)]
        cats += [zero_extended_cyclic(n) for n in (1, 2, 5, 12, 64)] + [one_arrow_category]
        for cat in cats:
            iso = du.phi(cat)
            assert iso.source == cat and tc.is_plain_functor(iso)
            assert is_topcat_iso(iso)
            back = inverse_functor(iso)
            assert tc.check_multifunctor(back) is None
            assert cat.obj_top.is_discrete() and cat.arr_top.is_discrete()
            assert iso.target.obj_top.is_discrete() and iso.target.arr_top.is_discrete()


def test_each_isomorphism_is_checked_in_one_direction(monkeypatch, swap_const):
    """theta checks its forward map only, and phi its forward functor only:
    the inverse of a bijective homomorphism, or of a functor bijective on
    objects and arrows, is one too."""
    calls = collections.Counter()
    for name in ("check_homomorphism", "check_multifunctor"):
        def counted(x, check=getattr(du, name), name=name):
            calls[name] += 1
            return check(x)
        monkeypatch.setattr(du, name, counted)
    alg._canonical.clear()  # so nothing derived earlier is reused
    a = alg.FinAlgebra.from_tables(swap_const.compose_t, swap_const.anti_t, swap_const.range_t,
                                   swap_const.pref_t, [f"u{k}" for k in range(swap_const.size)])
    du.theta(a)
    assert calls == {"check_homomorphism": 1}
    du.phi(zero_extended_cyclic(64))
    assert calls == {"check_homomorphism": 1, "check_multifunctor": 1}


class TestRefusals:
    """A theta or phi that is not an isomorphism is an internal error."""

    @pytest.fixture(autouse=True)
    def fresh(self):
        alg._canonical.clear()  # so theta and phi run again on a new copy of an object

    def test_theta_not_onto(self, monkeypatch, swap_const, full2):
        a = dataclasses.replace(swap_const)
        secs = du.sections_of(du.dual_of(a).category)[1]
        monkeypatch.setattr(du, "sections_of", lambda cat: (full2, secs + (1 << 60,)))
        with pytest.raises(InconsistencyError, match="^double dual has 9 sections but the algebra has 8 elements$"):
            du.theta(a)

    def test_theta_image_not_enumerated(self, monkeypatch, swap_const):
        a = dataclasses.replace(swap_const)
        secalg, secs = du.sections_of(du.dual_of(a).category)
        monkeypatch.setattr(du, "sections_of", lambda cat: (secalg, secs[:-1] + (1 << 60,)))
        with pytest.raises(InconsistencyError, match="^image section was not enumerated$"):
            du.theta(a)

    def test_theta_not_a_homomorphism(self, monkeypatch, swap_const):
        monkeypatch.setattr(du, "check_homomorphism", lambda h: False)
        with pytest.raises(InconsistencyError, match="^theta is not a homomorphism$"):
            du.theta(dataclasses.replace(swap_const))

    def test_phi_shape(self, monkeypatch):
        z5 = zero_extended_cyclic(5)
        secalg, secs = du.sections_of(z5)
        monkeypatch.setattr(du, "sections_of", lambda cat: (secalg, secs[:-1]))
        with pytest.raises(InconsistencyError, match="^double dual of the category has a different shape$"):
            du.phi(z5)

    def test_phi_not_a_functor(self, monkeypatch):
        monkeypatch.setattr(du, "check_multifunctor", lambda fun: ("identity", 0))
        with pytest.raises(InconsistencyError, match="^direction map is not a functor$"):
            du.phi(zero_extended_cyclic(5))


class TestNaturalityTheta:
    def test_identity(self, swap_const):
        assert du.check_naturality_theta(identity_hom(swap_const))

    def test_inclusion(self, incl_hom):
        assert du.check_naturality_theta(incl_hom)

    def test_whole_corpus(self, corpus_homs):
        for h in corpus_homs:
            assert du.check_naturality_theta(h)

    def test_negative_control(self, incl_hom):
        lhs, rhs = du.naturality_theta_sides(incl_hom)
        assert lhs == rhs
        perturbed = list(lhs)
        perturbed[0] = (perturbed[0] + 1) % len(lhs)
        assert tuple(perturbed) != rhs


class TestNaturalityPhi:
    def test_identity_functor(self, swap_const):
        fun = identity_multifunctor(du.dual_of(swap_const).category)
        assert du.check_naturality_phi(fun)

    def test_dual_of_inclusion(self, incl_hom):
        assert du.check_naturality_phi(pf_morphism(incl_hom))

    def test_duals_of_corpus_homs(self, corpus_homs):
        for h in corpus_homs:
            assert du.check_naturality_phi(pf_morphism(h))

    def test_negative_control(self, incl_hom):
        lhs, rhs = du.naturality_phi_sides(pf_morphism(incl_hom))
        assert lhs.obj_map == rhs.obj_map and lhs.arr_rel == rhs.arr_rel
        nonzero = next(k for k, m in enumerate(lhs.arr_rel) if m)
        rel = list(lhs.arr_rel)
        rel[nonzero] = 0
        assert tuple(rel) != rhs.arr_rel


class TestRestrictedDuality:
    def test_identity_hom(self, swap_const):
        report = du.restricted_duality_check(identity_hom(swap_const))
        assert report.kind == "homomorphism"
        assert report.input_restricted and report.preserved

    def test_identity_functor(self, swap_const):
        fun = identity_multifunctor(du.dual_of(swap_const).category)
        report = du.restricted_duality_check(fun)
        assert report.kind == "functor"
        assert report.input_restricted and report.preserved

    def test_isomorphism(self, swap_const_perm):
        _, iso = swap_const_perm
        report = du.restricted_duality_check(iso)
        assert report.input_restricted and report.preserved

    def test_locally_proper_corpus_survives(self, corpus_homs):
        for h in corpus_homs:
            report = du.restricted_duality_check(h)
            assert report.preserved

    def test_inclusion_observed_not_asserted(self, incl_hom):
        """The inclusion is not locally proper; its double dual happens not
        to be either.  Recorded as an observation only."""
        report = du.restricted_duality_check(incl_hom)
        assert not report.input_restricted
        assert report.preserved  # vacuously


class TestDualRouteIsomorphism:
    def test_locally_proper_object_bijective_duals_are_isos(self, corpus_homs):
        """Re-verifies the isomorphism property through the dual: a locally
        proper hom whose dual is bijective on objects dualizes to an
        isomorphism of topological categories."""
        checked = 0
        for h in corpus_homs:
            proper, _ = alg.check_locally_proper(h)
            if not proper:
                continue
            fun = pf_morphism(h)
            if sorted(fun.obj_map) != list(range(fun.target.n_objects)):
                continue
            assert is_topcat_iso(fun)
            checked += 1
        assert checked >= 3

    def test_inclusion_dual_is_not_an_iso(self, incl_hom):
        assert not is_topcat_iso(pf_morphism(incl_hom))

    def test_bijection_that_is_not_a_functor(self):
        """g1 and g2 swapped is a bijection of Z_5 on objects and arrows,
        continuous for the discrete topology, but g1*g1 = g2 goes to
        g2*g2 = g4, not to g1."""
        z5 = zero_extended_cyclic(5)
        swap = (0, 2, 1, 3, 4)
        assert is_topcat_iso(tc.MultiFunctor(z5, z5, (0,), tuple(1 << g for g in range(5))))
        assert not is_topcat_iso(tc.MultiFunctor(z5, z5, (0,), tuple(1 << g for g in swap)))
