"""Section enumeration, the four section operations, the section algebra,
and its homomorphisms.

pfdual keeps a section as its image mask alone; the tests decode it into
the (domain, choice) pair of the definition to check it pointwise."""

from __future__ import annotations

import functools
import itertools
import operator

import pytest

from pfdual import algebra as alg
from pfdual import sections as sc
from pfdual import topcat as tc
from pfdual.bitsets import bits, image, mask_of, preimage
from pfdual.dualize import pf_morphism, pf_object
from pfdual.duality import theta
from pfdual.errors import InconsistencyError
from pfdual.pfun import Base, as_abstract, enumerate_all

from conftest import (identity_hom, identity_multifunctor, index_of, is_clopen, is_open, make_category,
                      random_closed_sets, zero_extended_cyclic)

# A section as the definition states it: the domain mask, and the
# (object, arrow) pairs sorted by object.
Pair = tuple[int, tuple[tuple[int, int], ...]]


def decode(cat: tc.TopCategory, image: int) -> Pair:
    choice = tuple(sorted((cat.src[f], f) for f in bits(image)))
    return mask_of(x for x, _ in choice), choice


def is_section(cat: tc.TopCategory, s: Pair) -> bool:
    """One arrow per object of a clopen domain, each starting at its object,
    with an open image (the continuity criterion)."""
    domain, choice = s
    objs = [x for x, _ in choice]
    return (
        objs == sorted(set(objs)) and mask_of(objs) == domain
        and all(cat.src[f] == x for x, f in choice)
        and is_clopen(cat.obj_top, domain) and is_open(cat.arr_top, mask_of(f for _, f in choice))
    )


@pytest.fixture(scope="module")
def dual1(swap_const):
    return pf_object(swap_const)


@pytest.fixture(scope="module")
def secs1(dual1):
    return sc.enumerate_sections(dual1.category)


def identities_only(n: int) -> tc.TopCategory:
    """n discrete objects and their identities: 2^n sections."""
    objs = [f"x{i}" for i in range(n)]
    return make_category(
        objs, [(f"i{x}", x, x) for x in objs], {x: f"i{x}" for x in objs},
        {(f"i{x}", f"i{x}"): f"i{x}" for x in objs},
    )


def cyclic_groupoid(k: int, m: int) -> tc.TopCategory:
    """The groupoid with k objects and, between any two of them, one arrow
    for each element of the cyclic group of order m: (k * m + 1)^k sections,
    with arrows across objects."""
    objs = [f"x{a}" for a in range(k)]
    arrows = [(f"g{a}{b}_{g}", objs[a], objs[b]) for a in range(k) for b in range(k) for g in range(m)]
    comp = {(f"g{a}{b}_{g}", f"g{b}{c}_{h}"): f"g{a}{c}_{(g + h) % m}"
            for a in range(k) for b in range(k) for c in range(k) for g in range(m) for h in range(m)}
    return make_category(objs, arrows, {x: f"g{a}{a}_0" for a, x in enumerate(objs)}, comp)


def seccl_by_columns(cat: tc.TopCategory) -> tuple[alg.FinAlgebra, tuple[int, ...]]:
    """Oracle for `seccl_object`: the section algebra built by columns.

    Row s of the compose table is the union of one column per arrow f of s,
    whose entry j is the bit of f then section j's arrow at tgt f, or 0 if
    it has none.  Antidomain, range and pref read the objects each section
    covers.  Every result is looked up among the enumerated images, so the
    lookup is the validity check."""
    images = sc.enumerate_sections(cat)
    look = {m: i for i, m in enumerate(images)}.__getitem__
    n, src, tgt = cat.n_arrows, cat.src, cat.tgt
    # at[y][j]: the arrow of section j at object y, or the zero index n
    at = [[n] * len(images) for _ in range(cat.n_objects)]
    for j, m in enumerate(images):
        for f in bits(m):
            at[src[f]][j] = f
    bit = [1 << h for h in range(n)] + [0]
    columns = [tuple(map(bit.__getitem__, map((row + (n,)).__getitem__, at[y]))) for row, y in zip(cat.comp_t, tgt)]
    union = functools.partial(map, operator.or_)
    covered = [image(src, m) for m in images]
    # the arrows out of the objects each section leaves uncovered
    rest = [~preimage(src, d) for d in covered]
    try:
        compose_t = tuple(
            tuple(map(look, functools.reduce(union, (columns[f] for f in bits(m)), (0,) * len(images))))
            for m in images
        )
        anti_t = tuple(look(image(cat.id_of, (1 << cat.n_objects) - 1 & ~d)) for d in covered)
        range_t = tuple(look(image(cat.id_of, image(tgt, m))) for m in images)
        pref_t = tuple(tuple(map(look, map(m.__or__, map(r.__and__, images)))) for m, r in zip(images, rest))
    except KeyError:
        raise InconsistencyError("sections are not closed under the operations") from None
    names = tuple(f"s{i}" for i in range(len(images)))
    return alg.FinAlgebra(compose_t=compose_t, anti_t=anti_t, range_t=range_t, pref_t=pref_t, names=names), images


def theta_section(algebra: alg.FinAlgebra, name: str) -> int:
    """The index in the section algebra of the arrows containing the named
    element, those whose minimal element lies below it."""
    dual = pf_object(algebra)
    up = alg.derive_constants(algebra).up
    x = index_of(algebra, name)
    _, images = sc.seccl_object(dual.category)
    return images.index(mask_of(k for k, m in enumerate(dual.arrow_elements) if up[m] >> x & 1))


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
        assert len(secs) == 1 and decode(cat, secs[0])[0] == 0

    def test_one_arrow_category(self, one_arrow_category):
        assert len(sc.enumerate_sections(one_arrow_category)) == 2

    def test_all_enumerated_sections_valid(self, dual1, secs1):
        for s in secs1:
            assert is_section(dual1.category, decode(dual1.category, s))

    def test_enumeration_complete(self, dual1):
        """Brute force: every clopen-domain choice map with open image
        appears exactly once."""
        cat = dual1.category
        found = set()
        for dom in range(1 << cat.n_objects):
            if not is_clopen(cat.obj_top, dom):
                continue
            objs = list(bits(dom))
            for picks in itertools.product(*(cat.stars[x] for x in objs)):
                if is_open(cat.arr_top, mask_of(picks)):
                    found.add((dom, tuple(zip(objs, picks))))
        enumerated = {decode(cat, s) for s in sc.enumerate_sections(cat)}
        assert enumerated == found
        assert len(enumerated) == len(sc.enumerate_sections(cat))

    def test_order_is_size_then_mask(self, dual1, secs1):
        keys = [(dom.bit_count(), dom, choice) for dom, choice in (decode(dual1.category, s) for s in secs1)]
        assert keys == sorted(keys)

    def test_invalid_category_rejected(self):
        # source map not a local homeomorphism: two parallel arrows that no
        # open set of the indiscrete arrow topology separates
        cat = make_category(
            ["x"], [("ix", "x", "x"), ("f", "x", "x")],
            {"x": "ix"},
            {("ix", "ix"): "ix", ("ix", "f"): "f", ("f", "ix"): "f", ("f", "f"): "ix"},
            arr_opens=[[]],
        )
        with pytest.raises(ValueError, match="cannot enumerate sections"):
            sc.enumerate_sections(cat)

    def test_non_stone_category_rejected(self):
        # two objects that the indiscrete object topology does not separate
        cat = make_category(
            ["x", "y"], [("ix", "x", "x"), ("iy", "y", "y")], {"x": "ix", "y": "iy"},
            {("ix", "ix"): "ix", ("iy", "iy"): "iy"}, obj_opens=[[]], arr_opens=[[]],
        )
        with pytest.raises(ValueError, match="^cannot enumerate sections: object space is not Stone$"):
            sc.enumerate_sections(cat)

    def test_continuity_failure_is_refused_as_local_homeomorphism(self):
        # the arrows are indiscrete over two discrete objects, so src and
        # tgt are not continuous; a local homeomorphism is continuous, so
        # its failure is the one line of validate_object_of_C's report
        cat = make_category(
            ["x", "y"], [("ix", "x", "x"), ("iy", "y", "y")], {"x": "ix", "y": "iy"},
            {("ix", "ix"): "ix", ("iy", "iy"): "iy"}, arr_opens=[[]],
        )
        with pytest.raises(ValueError) as refused:
            sc.enumerate_sections(cat)
        assert str(refused.value) == "cannot enumerate sections: source map is not a local homeomorphism"

    def test_section_bound_refuses_more_arrows_than_a_file_may_hold(self):
        # 1 + arrows <= the product of 1 + |star x|, so the section bound
        # also bounds the arrows
        with pytest.raises(ValueError, match=f"^category may have {2 ** 2049} sections, "
                                             "over the limit MAX_ELEMENTS = 2048$"):
            sc.enumerate_sections(identities_only(alg.MAX_ELEMENTS + 1))

    def test_section_bound_admits_the_limit_and_refuses_beyond(self):
        assert len(sc.enumerate_sections(identities_only(11))) == alg.MAX_ELEMENTS == 2048
        with pytest.raises(ValueError, match="4096 sections, over the limit MAX_ELEMENTS = 2048"):
            sc.enumerate_sections(identities_only(12))

    def test_nonepi_category_still_enumerable(self, nonepi_category):
        # the epimorphism condition is deliberately not part of the
        # enumeration precondition
        assert len(sc.enumerate_sections(nonepi_category)) == 32


class TestSectionOperations:
    """The four operations, read off the tables of the section algebra."""

    @pytest.fixture(scope="class")
    def secalg(self, dual1):
        return sc.seccl_object(dual1.category)[0]

    def test_compose_swap_with_itself(self, swap_const, secalg):
        got = secalg.comp(theta_section(swap_const, "s"), theta_section(swap_const, "s"))
        assert got == theta_section(swap_const, "e12")

    def test_antidomain_of_empty_is_identity_section(self, dual1, secalg):
        cat = dual1.category
        _, images = sc.seccl_object(cat)
        got = images[secalg.anti(images.index(0))]
        assert decode(cat, got)[0] == (1 << cat.n_objects) - 1
        assert got == mask_of(cat.id_of)

    def test_pref_glues_domains(self, swap_const, secalg):
        got = secalg.pref(theta_section(swap_const, "s"), theta_section(swap_const, "e3"))
        assert got == theta_section(swap_const, "s3")

    def test_range_of_crossing_arrow(self, swap_const, secalg):
        got = secalg.rng(theta_section(swap_const, "c"))
        assert got == theta_section(swap_const, "e3")


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

    def test_composite_outside_the_sections_is_internal(self, monkeypatch):
        # iy;iy = f, an arrow out of x, so the section {ix, iy} composed
        # with itself would be {ix, f}: two arrows at x.  Validation would
        # refuse the category; forced to pass, the composite guard fires,
        # as the oracle's lookup does.
        cat = make_category(
            ["x", "y"], [("ix", "x", "x"), ("iy", "y", "y"), ("f", "x", "y")], {"x": "ix", "y": "iy"},
            {("ix", "ix"): "ix", ("ix", "f"): "f", ("f", "iy"): "f", ("iy", "iy"): "f"},
        )
        monkeypatch.setattr(sc, "validate_object_of_C", lambda cat: ())
        for build in (sc.seccl_object, seccl_by_columns):
            with pytest.raises(InconsistencyError, match="^sections are not closed under the operations$"):
                build(cat)

    def test_identity_at_another_object_is_internal(self, monkeypatch):
        # the identity of x is f, an arrow out of y, so the antidomain of
        # the empty section would be {f, iy}: two arrows at y.  Every
        # composite stays at its source, so only the identity guard fires.
        cat = make_category(
            ["x", "y"], [("ix", "x", "x"), ("iy", "y", "y"), ("f", "y", "x")], {"x": "f", "y": "iy"},
            {("ix", "ix"): "ix", ("iy", "iy"): "iy", ("iy", "f"): "f", ("f", "ix"): "f"},
        )
        monkeypatch.setattr(sc, "validate_object_of_C", lambda cat: ())
        for build in (sc.seccl_object, seccl_by_columns):
            with pytest.raises(InconsistencyError, match="^sections are not closed under the operations$"):
                build(cat)

    def test_missing_composite_is_internal(self, monkeypatch):
        # g then g is the zero index, though g ends where g starts
        cat = make_category(["x"], [("ix", "x", "x"), ("g", "x", "x")], {"x": "ix"},
                            {("ix", "ix"): "ix", ("ix", "g"): "g", ("g", "ix"): "g"})
        monkeypatch.setattr(sc, "validate_object_of_C", lambda cat: ())
        with pytest.raises(InconsistencyError, match="^sections are not closed under the operations$"):
            sc.seccl_object(cat)

    def test_subalgebra_double_dual_isomorphic(self, swap_only):
        assert theta(swap_only).target.size == 6


class TestEpiNecessity:
    def test_section_algebra_fails_range_cancellation(self, nonepi_category):
        cat = nonepi_category
        # the epimorphism condition fails, and everything else about the
        # category is fine
        assert tc.validate_object_of_C(cat) == (tc.NOT_EPI,)

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
        by_image = {m: k for k, m in enumerate(secs)}
        a = by_image[1 << arr["a"]]
        b = by_image[1 << arr["b"]]
        c = by_image[1 << arr["c"]]
        assert algebra.comp(a, b) == algebra.comp(a, c)
        assert algebra.comp(algebra.rng(a), b) != algebra.comp(algebra.rng(a), c)


class TestSectionHomomorphisms:
    def test_identity_functor(self, dual1):
        fun = identity_multifunctor(dual1.category)
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

    def test_preimage_that_is_not_a_section_is_internal(self, dual1, monkeypatch):
        # every arrow of the dual of swap_const, two of them out of one
        # object, as the inverse image of each section
        alg._canonical.clear()  # so no kept result of an equal functor is reused
        fun = identity_multifunctor(dual1.category)
        every = (1 << fun.source.n_arrows) - 1
        monkeypatch.setattr(sc, "relation_preimage", lambda fun, mask: every)
        with pytest.raises(InconsistencyError, match="^inverse image of a section is not a section$"):
            sc.seccl_morphism(fun)


# ---------------------------------------------------------------------------
# Reference: the four operations computed pointwise on (domain, choice)
# ---------------------------------------------------------------------------


def ref_compose(cat: tc.TopCategory, a: Pair, b: Pair) -> Pair:
    at = dict(b[1])
    pairs = tuple((x, cat.compose(f, at[cat.tgt[f]])) for x, f in a[1] if cat.tgt[f] in at)
    return mask_of(x for x, _ in pairs), pairs


def ref_antidomain(cat: tc.TopCategory, a: Pair) -> Pair:
    pairs = tuple((x, cat.id_of[x]) for x in range(cat.n_objects) if not a[0] >> x & 1)
    return mask_of(x for x, _ in pairs), pairs


def ref_range(cat: tc.TopCategory, a: Pair) -> Pair:
    hit = sorted({cat.tgt[f] for _, f in a[1]})
    return mask_of(hit), tuple((x, cat.id_of[x]) for x in hit)


def ref_pref(cat: tc.TopCategory, a: Pair, b: Pair) -> Pair:
    rest = ref_compose(cat, ref_antidomain(cat, a), b)
    return a[0] | rest[0], tuple(sorted(a[1] + rest[1]))


class TestImageOracle:
    """The image-mask operations against the pointwise reference."""

    @pytest.fixture(scope="class")
    def cats(self, corpus_algebras, nonepi_category, one_arrow_category):
        # the full algebra on 3 points has 64 sections; the cyclic group's
        # one star holds seven arrows besides the identity; the groupoid
        # has 289 sections, past one byte a code
        full3, _ = as_abstract(enumerate_all(Base((1, 2, 3))))
        return [pf_object(a).category for a in (*corpus_algebras, full3)] + [
            nonepi_category, one_arrow_category, zero_extended_cyclic(8), cyclic_groupoid(2, 8)]

    def test_the_added_categories_are_covered(self, cats):
        assert len(sc.enumerate_sections(cats[-5])) == 64
        assert len(sc.enumerate_sections(cats[-2])) == 9
        assert len(sc.enumerate_sections(cats[-1])) == 289

    def test_tables_match_reference(self, cats):
        for cat in cats:
            algebra, images = sc.seccl_object(cat)
            secs = [decode(cat, m) for m in images]
            key = {s: i for i, s in enumerate(secs)}

            def look(s: Pair) -> int:
                assert is_section(cat, s)
                return key[s]

            row = alg.row_type(len(secs))
            assert algebra.compose_t == tuple(row(look(ref_compose(cat, a, b)) for b in secs) for a in secs)
            assert algebra.anti_t == row(look(ref_antidomain(cat, a)) for a in secs)
            assert algebra.range_t == row(look(ref_range(cat, a)) for a in secs)
            assert algebra.pref_t == tuple(row(look(ref_pref(cat, a, b)) for b in secs) for a in secs)

    def test_morphism_matches_pull_back(self, incl_hom):
        fun = pf_morphism(incl_hom)
        h = sc.seccl_morphism(fun)
        _, secs_d = sc.seccl_object(fun.target)
        _, secs_c = sc.seccl_object(fun.source)
        key = {decode(fun.source, m): i for i, m in enumerate(secs_c)}
        pulled = (decode(fun.source, tc.relation_preimage(fun, m)) for m in secs_d)
        assert h.mapping == tuple(key[p] for p in pulled)


class TestColumnsOracle:
    """`seccl_object` against `seccl_by_columns`: equal tables, images and
    names, on both sides of one byte a code."""

    @pytest.fixture(scope="class")
    def cats(self, corpus_algebras, nonepi_category, one_arrow_category):
        full4, _ = as_abstract(enumerate_all(Base((1, 2, 3, 4))))
        closed = random_closed_sets(12, seed=5) + random_closed_sets(4, seed=5, points=4)
        return [pf_object(a).category for a in (*corpus_algebras, *closed, full4)] + [
            zero_extended_cyclic(255), zero_extended_cyclic(256), zero_extended_cyclic(257),
            identities_only(9), cyclic_groupoid(2, 8), nonepi_category, one_arrow_category]

    def test_sizes_straddle_one_byte(self, cats):
        sizes = [len(sc.enumerate_sections(cat)) for cat in cats[-8:]]
        assert sizes == [625, 256, 257, 258, 512, 289, 32, 2]

    def test_equal_to_columns(self, cats):
        for cat in cats:
            assert sc.seccl_object(cat) == seccl_by_columns(cat)
