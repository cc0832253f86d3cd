"""Section enumeration, the four section operations, the section algebra,
and its homomorphisms."""

from __future__ import annotations

import itertools

import pytest

from pfdual import algebra as alg
from pfdual import sections as sc
from pfdual import topcat as tc
from pfdual.algebra import identity_hom
from pfdual.bitsets import bits, mask_of, popcount
from pfdual.dualize import pf_morphism, pf_object
from pfdual.duality import theta
from pfdual.sections import Section


@pytest.fixture(scope="module")
def dual1(swap_const):
    return pf_object(swap_const)


@pytest.fixture(scope="module")
def secs1(dual1):
    return sc.enumerate_sections(dual1.category)


def identities_only(n: int) -> tc.TopCategory:
    """n discrete objects and their identities: 2^n sections."""
    objs = [f"x{i}" for i in range(n)]
    return tc.make_category(
        objs, [(f"i{x}", x, x) for x in objs], {x: f"i{x}" for x in objs},
        {(f"i{x}", f"i{x}"): f"i{x}" for x in objs},
    )


def theta_section(dual, name: str) -> Section:
    """The section of arrows containing the named element."""
    a = dual.algebra.index_of(name)
    return sc.section_from_arrows(dual.category, bits(dual.element_opens[a]))


class TestEnumeration:
    def test_count_eight(self, secs1):
        assert len(secs1) == 8

    def test_subalgebra_count_six(self, swap_only):
        # fixed by this very enumeration: (2+1) choices at one object times
        # (1+1) at the other, all domains clopen in the discrete topology
        cat = pf_object(swap_only).category
        assert len(sc.enumerate_sections(cat)) == 6

    def test_empty_category(self, one_elem):
        cat = pf_object(one_elem).category
        secs = sc.enumerate_sections(cat)
        assert len(secs) == 1 and secs[0].domain == 0

    def test_one_arrow_category(self, one_arrow_category):
        assert len(sc.enumerate_sections(one_arrow_category)) == 2

    def test_all_enumerated_sections_valid(self, secs1):
        for s in secs1:
            assert s.is_valid()

    def test_enumeration_complete(self, dual1):
        """Brute force: every clopen-domain choice map with open image
        appears exactly once."""
        cat = dual1.category
        found = set()
        for dom in range(1 << cat.n_objects):
            if not cat.obj_top.is_clopen(dom):
                continue
            objs = list(bits(dom))
            for picks in itertools.product(*(cat.star(x) for x in objs)):
                s = Section(cat, dom, tuple(zip(objs, picks)))
                if cat.arr_top.is_open(s.image):
                    found.add((s.domain, s.choice))
        enumerated = {(s.domain, s.choice) for s in sc.enumerate_sections(cat)}
        assert enumerated == found
        assert len(enumerated) == len(sc.enumerate_sections(cat))

    def test_order_is_size_then_mask(self, secs1):
        keys = [(popcount(s.domain), s.domain, s.choice) for s in secs1]
        assert keys == sorted(keys)

    def test_invalid_category_rejected(self):
        # source map not a local homeomorphism: two parallel arrows that no
        # open set of the indiscrete arrow topology separates
        cat = tc.make_category(
            ["x"], [("ix", "x", "x"), ("f", "x", "x")],
            {"x": "ix"},
            {("ix", "ix"): "ix", ("ix", "f"): "f", ("f", "ix"): "f", ("f", "f"): "ix"},
            arr_opens=[[]],
        )
        with pytest.raises(ValueError, match="cannot enumerate sections"):
            sc.enumerate_sections(cat)

    def test_section_bound_admits_the_limit_and_refuses_beyond(self):
        assert len(sc.enumerate_sections(identities_only(11))) == sc.MAX_SECTIONS == 2048
        with pytest.raises(ValueError, match="4096 sections, over the limit of 2048"):
            sc.enumerate_sections(identities_only(12))

    def test_nonepi_category_still_enumerable(self, nonepi_category):
        # the epimorphism condition is deliberately not part of the
        # enumeration precondition
        assert len(sc.enumerate_sections(nonepi_category)) == 32


class TestSectionOperations:
    def test_compose_swap_with_itself(self, dual1):
        got = sc.sec_compose(theta_section(dual1, "s"), theta_section(dual1, "s"))
        assert got == theta_section(dual1, "e12")

    def test_antidomain_of_empty_is_identity_section(self, dual1):
        cat = dual1.category
        empty = Section(cat, 0, ())
        got = sc.sec_antidomain(empty)
        assert got.domain == (1 << cat.n_objects) - 1
        assert got.image == cat.identity_mask()

    def test_pref_glues_domains(self, dual1):
        got = sc.sec_pref(theta_section(dual1, "s"), theta_section(dual1, "e3"))
        assert got == theta_section(dual1, "s3")

    def test_range_of_crossing_arrow(self, dual1):
        got = sc.sec_range(theta_section(dual1, "c"))
        assert got == theta_section(dual1, "e3")


class TestSectionAlgebra:
    def test_double_dual_of_swap_const(self, dual1, swap_const):
        algebra, secs = sc.seccl_object(dual1.category)
        assert algebra.size == 8
        assert alg.check_axioms(algebra).passed

    def test_empty_category_gives_one_element(self, one_elem):
        cat = pf_object(one_elem).category
        algebra, _ = sc.seccl_object(cat)
        assert algebra.size == 1
        assert alg.check_axioms(algebra).passed

    def test_corpus_section_algebras_pass_axioms(self, corpus_algebras):
        for a in corpus_algebras:
            algebra, _ = sc.seccl_object(pf_object(a).category)
            assert alg.check_axioms(algebra).passed

    def test_subalgebra_double_dual_isomorphic(self, swap_only):
        assert theta(swap_only).target.size == 6


class TestEpiNecessity:
    def test_section_algebra_fails_range_cancellation(self, nonepi_category):
        cat = nonepi_category
        report = tc.validate_object_of_C(cat)
        assert not report.arrows_epi
        # everything else about the category is fine
        assert not report.category_problems and report.topology.passed
        assert report.src_local_homeo and report.tgt_open and report.objects_stone

        algebra, secs = sc.seccl_object(cat)
        axioms = alg.check_axioms(algebra)
        r8 = axioms.result(8)
        assert not r8.passed
        assert not alg.axiom_instance_holds(algebra, 8, r8.witness)
        # every other axiom still holds
        for idx in (1, 2, 3, 4, 5, 6, 7, 9, 10):
            assert axioms.result(idx).passed

    def test_witness_is_the_noncancellable_triangle(self, nonepi_category):
        cat = nonepi_category
        algebra, secs = sc.seccl_object(cat)
        arr = {n: k for k, n in enumerate(cat.arr_names)}
        by_image = {s.image: k for k, s in enumerate(secs)}
        a = by_image[1 << arr["a"]]
        b = by_image[1 << arr["b"]]
        c = by_image[1 << arr["c"]]
        assert algebra.comp(a, b) == algebra.comp(a, c)
        assert algebra.comp(algebra.rng(a), b) != algebra.comp(algebra.rng(a), c)


class TestSectionHomomorphisms:
    def test_identity_functor(self, dual1):
        fun = tc.identity_multifunctor(dual1.category)
        h = sc.seccl_morphism(fun)
        assert h.mapping == tuple(range(h.source.size))

    def test_dual_of_inclusion_is_homomorphism(self, incl_hom):
        fun = pf_morphism(incl_hom)
        h = sc.seccl_morphism(fun)
        assert alg.check_homomorphism(h)
        assert h.source.size == 6 and h.target.size == 8

    def test_incoherent_rejected(self, incl_hom):
        fun = pf_morphism(identity_hom(incl_hom.source))
        rel = list(fun.arr_rel)
        rel[0] = 0
        broken = tc.MultiFunctor(fun.source, fun.target, fun.obj_map, tuple(rel))
        with pytest.raises(ValueError, match="star coherent"):
            sc.seccl_morphism(broken)


class TestBasis:
    def test_sections_form_basis_on_corpus(self, corpus_algebras, one_arrow_category):
        cats = [pf_object(a).category for a in corpus_algebras]
        cats.append(one_arrow_category)
        for cat in cats:
            assert sc.sections_form_basis(cat)


# ---------------------------------------------------------------------------
# Reference: the four operations computed pointwise on (domain, choice)
# ---------------------------------------------------------------------------


def ref_arrow_at(s: Section, x: int):
    for obj, f in s.choice:
        if obj == x:
            return f
    return None


def ref_compose(a: Section, b: Section) -> Section:
    cat = a.category
    pairs = []
    for x, f in a.choice:
        g = ref_arrow_at(b, cat.tgt[f])
        if g is not None:
            pairs.append((x, cat.compose(f, g)))
    return Section(cat, mask_of(x for x, _ in pairs), tuple(pairs))


def ref_antidomain(a: Section) -> Section:
    cat = a.category
    pairs = tuple((x, cat.id_of[x]) for x in range(cat.n_objects) if not a.domain >> x & 1)
    return Section(cat, mask_of(x for x, _ in pairs), pairs)


def ref_range(a: Section) -> Section:
    cat = a.category
    hit = sorted({cat.tgt[f] for _, f in a.choice})
    return Section(cat, mask_of(hit), tuple((x, cat.id_of[x]) for x in hit))


def ref_pref(a: Section, b: Section) -> Section:
    rest = ref_compose(ref_antidomain(a), b)
    return Section(a.category, a.domain | rest.domain, tuple(sorted(a.choice + rest.choice)))


class TestImageOracle:
    """The image-mask operations against the pointwise reference."""

    @pytest.fixture(scope="class")
    def cats(self, corpus_algebras, nonepi_category, one_arrow_category):
        return [pf_object(a).category for a in corpus_algebras] + [nonepi_category, one_arrow_category]

    def test_tables_match_reference(self, cats):
        for cat in cats:
            algebra, secs = sc.seccl_object(cat)
            key = {(s.domain, s.choice): i for i, s in enumerate(secs)}

            def look(s: Section) -> int:
                assert s.is_valid()
                return key[(s.domain, s.choice)]

            assert algebra.compose_t == tuple(tuple(look(ref_compose(a, b)) for b in secs) for a in secs)
            assert algebra.anti_t == tuple(look(ref_antidomain(a)) for a in secs)
            assert algebra.range_t == tuple(look(ref_range(a)) for a in secs)
            assert algebra.pref_t == tuple(tuple(look(ref_pref(a, b)) for b in secs) for a in secs)

    def test_section_wrappers_match_reference(self, cats):
        for cat in cats:
            secs = sc.enumerate_sections(cat)
            for a in secs:
                assert sc.sec_antidomain(a) == ref_antidomain(a)
                assert sc.sec_range(a) == ref_range(a)
                for b in secs:
                    assert sc.sec_compose(a, b) == ref_compose(a, b)
                    assert sc.sec_pref(a, b) == ref_pref(a, b)

    def test_morphism_matches_pull_back(self, incl_hom):
        fun = pf_morphism(incl_hom)
        h = sc.seccl_morphism(fun)
        _, secs_d = sc.seccl_object(fun.target)
        _, secs_c = sc.seccl_object(fun.source)
        key = {(s.domain, s.choice): i for i, s in enumerate(secs_c)}
        pulled = (sc.section_from_arrows(fun.source, bits(tc.relation_preimage(fun, s.image))) for s in secs_d)
        assert h.mapping == tuple(key[(p.domain, p.choice)] for p in pulled)
