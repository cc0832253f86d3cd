"""Topology generation, category validation, and multivalued functors."""

from __future__ import annotations

import collections
import dataclasses
import functools
import itertools
import operator
import random
import time
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfdual import bitsets
from pfdual import formats as fmt
from pfdual import topcat as tc
from pfdual.bitsets import bits, mask_of
from pfdual.dualize import pf_morphism, pf_object
from pfdual.topcat import MultiFunctor

from conftest import (category_to_dict, comp_table, identity_hom, identity_multifunctor, is_clopen, is_open,
                      make_category, zero_extended_cyclic)

# The membership problems of validate_object_of_C besides the category
# axioms and tc.NOT_EPI.
NOT_LOCAL = "source map is not a local homeomorphism"
NOT_STONE = "object space is not Stone"


def is_topology(size: int, family) -> bool:
    """The family is exactly the opens of the topology it generates."""
    fam = set(family)
    return fam == set(tc.generate_topology(size, fam).opens)


def indiscrete_topology(size: int) -> tc.FinTopology:
    return tc.FinTopology(((1 << size) - 1,) * size)


class TestTopologyGeneration:
    def test_sierpinski(self):
        top = tc.generate_topology(2, [0b01])
        assert top.opens == (0b00, 0b01, 0b11)

    def test_singletons_generate_powerset(self):
        top = tc.generate_topology(3, [0b001, 0b010, 0b100])
        assert top.opens == tuple(range(8))
        assert top.is_discrete()

    def test_intersection_added(self):
        top = tc.generate_topology(3, [0b011, 0b110])
        assert is_open(top, 0b010)
        assert top.opens == (0b000, 0b010, 0b011, 0b110, 0b111)

    def test_is_topology(self):
        assert is_topology(2, [0b00, 0b01, 0b11])
        assert not is_topology(2, [0b00, 0b01, 0b10, 0b11][:-1])
        assert not is_topology(3, [0b000, 0b011, 0b110, 0b111])

    def test_empty_carrier(self):
        top = tc.generate_topology(0, [])
        assert top.opens == (0,)

    def test_refusal_names_the_first_failing_point(self):
        """Each point in turn: its neighbourhood lies in the carrier, holds
        the point and contains the neighbourhood of each of its points."""
        def reference(nbhds):
            for i, m in enumerate(nbhds):
                if m >> 3:
                    return f"neighbourhood of point {i} lies outside the carrier"
                if not m >> i & 1:
                    return f"neighbourhood of point {i} does not contain it"
                if any(nbhds[j] & ~m for j in bits(m)):
                    return f"neighbourhood of point {i} is not open"
            return None

        seen = set()
        for nbhds in itertools.product(range(16), repeat=3):
            try:
                tc.FinTopology(nbhds)
                got = None
            except ValueError as e:
                got = str(e)
            assert got == reference(nbhds)
            seen.add(got and got.split(" ", 4)[-1])
        assert len(seen) == 4  # passing, and each of the three refusals

    def test_min_nbhd_and_clopens(self):
        top = tc.generate_topology(3, [0b011, 0b110])
        assert top.nbhds[1] == 0b010
        assert top.nbhds[0] == 0b011
        assert {m for m in range(8) if is_clopen(top, m)} == {0b000, 0b111}


@pytest.fixture(scope="module")
def dual_cat(swap_const):
    return pf_object(swap_const).category


class TestTopologicalCategory:
    def test_dual_category_continuous(self, dual_cat):
        assert pullback_check_topological_category(dual_cat) == ()

    def test_dual_topologies_discrete(self, corpus_algebras):
        for a in corpus_algebras:
            cat = pf_object(a).category
            assert cat.obj_top.is_discrete() and cat.arr_top.is_discrete()

    def test_identity_arrows_open(self, corpus_algebras):
        for a in corpus_algebras:
            cat = pf_object(a).category
            assert is_open(cat.arr_top, mask_of(cat.id_of))

    def test_src_discontinuity_detected(self):
        # two discrete objects, indiscrete arrows, nonconstant source: a
        # local homeomorphism is continuous, so that is the failure reported
        cat = make_category(
            ["x", "y"], [("ix", "x", "x"), ("iy", "y", "y")],
            {"x": "ix", "y": "iy"},
            {("ix", "ix"): "ix", ("iy", "iy"): "iy"},
            arr_opens=[[]],
        )
        assert any(label == "src" for label, _ in pullback_check_topological_category(cat))
        assert not tc.is_local_homeo(cat)
        assert tc.validate_object_of_C(cat) == (NOT_LOCAL,)

    def test_one_object_one_arrow_passes(self, one_arrow_category):
        assert tc.validate_object_of_C(one_arrow_category) == ()


class TestEtaleChecks:
    def test_dual_is_etale_stone_epi(self, dual_cat):
        assert tc.validate_object_of_C(dual_cat) == ()

    def test_nonepi_detected(self, nonepi_category):
        assert not tc.all_arrows_epi(nonepi_category)
        assert tc.validate_object_of_C(nonepi_category) == (tc.NOT_EPI,)

    def test_indiscrete_not_stone(self):
        assert not indiscrete_topology(2).is_discrete()
        assert tc.discrete_topology(3).is_discrete()
        assert indiscrete_topology(1).is_discrete()

    def test_epimorphisms_undecided_without_the_category_axioms(self):
        # both identities are iy: each row is injective on the arrows after
        # its arrow, but epimorphisms are decided only on a category
        cat = make_category(
            ["x", "y"], [("ix", "x", "x"), ("iy", "y", "y")],
            {"x": "iy", "y": "iy"},
            {("ix", "ix"): "ix", ("iy", "iy"): "iy"},
        )
        assert tc.all_arrows_epi(cat)
        assert tc.validate_object_of_C(cat) == (
            "identity of object 'x' has wrong endpoints",
            "left unit law fails at arrow 'ix'",
            "right unit law fails at arrow 'ix'",
        )

    def test_local_homeo_failure(self):
        # two arrows with the same source and indiscrete arrow topology:
        # no neighbourhood separates them
        cat = make_category(
            ["x"], [("ix", "x", "x"), ("f", "x", "x")],
            {"x": "ix"},
            {("ix", "ix"): "ix", ("ix", "f"): "f", ("f", "ix"): "f", ("f", "f"): "ix"},
            arr_opens=[[]],
        )
        assert not tc.is_local_homeo(cat)

    def test_open_map_failure(self):
        # discrete arrows over indiscrete objects: images of singletons are
        # not open; src is not open either, and the objects are not Stone,
        # which is what is reported
        cat = make_category(
            ["x", "y"], [("ix", "x", "x"), ("iy", "y", "y")],
            {"x": "ix", "y": "iy"},
            {("ix", "ix"): "ix", ("iy", "iy"): "iy"},
            obj_opens=[[]],
        )
        assert not is_open(cat.obj_top, image(cat.tgt, 0b01))
        assert tc.validate_object_of_C(cat) == (NOT_LOCAL, NOT_STONE)


class TestMultiFunctors:
    def test_identity_functor_valid(self, dual_cat):
        fun = identity_multifunctor(dual_cat)
        assert tc.check_multifunctor(fun) is None
        assert tc.is_continuous_multifunctor(fun)
        stars = tc.star_checks(fun)
        assert stars.injective and stars.surjective and stars.pseudo and stars.co_pseudo
        assert stars.coherent
        assert tc.is_plain_functor(fun)

    def test_dual_of_inclusion(self, incl_hom):
        fun = pf_morphism(incl_hom)
        assert tc.check_multifunctor(fun) is None
        assert tc.is_continuous_multifunctor(fun)
        assert tc.star_checks(fun).coherent
        assert not tc.is_plain_functor(fun)
        # some arrow has an empty image (zero values are allowed)
        assert any(m == 0 for m in fun.arr_rel)

    def test_missing_identity_pair_detected(self, dual_cat):
        fun = identity_multifunctor(dual_cat)
        rel = list(fun.arr_rel)
        x = 0
        rel[dual_cat.id_of[x]] = 0
        broken = MultiFunctor(dual_cat, dual_cat, fun.obj_map, tuple(rel))
        witness = tc.check_multifunctor(broken)
        assert witness is not None and witness[0] == "identity"

    def test_wrong_endpoints_detected(self, dual_cat):
        fun = identity_multifunctor(dual_cat)
        f = next(
            k for k in range(dual_cat.n_arrows)
            if dual_cat.src[k] != dual_cat.tgt[k] or k not in dual_cat.id_of
        )
        rel = list(fun.arr_rel)
        other = dual_cat.id_of[(dual_cat.src[f] + 1) % dual_cat.n_objects]
        rel[f] |= 1 << other
        broken = MultiFunctor(dual_cat, dual_cat, fun.obj_map, tuple(rel))
        assert tc.check_multifunctor(broken) is not None

    def test_star_surjectivity_failure_after_deletion(self, incl_hom):
        fun = pf_morphism(identity_hom(incl_hom.source))
        donor = next(f for f in range(fun.source.n_arrows) if fun.arr_rel[f])
        rel = list(fun.arr_rel)
        rel[donor] = 0
        broken = MultiFunctor(fun.source, fun.target, fun.obj_map, tuple(rel))
        assert not tc.star_checks(broken).surjective

    def test_compose_with_identity(self, incl_hom):
        fun = pf_morphism(incl_hom)
        left = tc.compose_multifunctors(identity_multifunctor(fun.source), fun)
        right = tc.compose_multifunctors(fun, identity_multifunctor(fun.target))
        for other in (left, right):
            assert other.obj_map == fun.obj_map and other.arr_rel == fun.arr_rel

    def test_composition_preserves_coherence(self, corpus_homs):
        duals = [pf_morphism(h) for h in corpus_homs]
        for f, g in itertools.product(duals, repeat=2):
            if f.target != g.source:
                continue
            both = tc.compose_multifunctors(f, g)
            assert tc.check_multifunctor(both) is None
            assert tc.star_checks(both).coherent
            assert tc.is_continuous_multifunctor(both)

    def test_mismatched_composition_rejected(self, incl_hom, dual_cat):
        fun = pf_morphism(incl_hom)
        with pytest.raises(ValueError):
            tc.compose_multifunctors(fun, fun)


# ---------------------------------------------------------------------------
# The checks as pfdual made them on a dict of composable pairs: loops over
# pairs and triples, and continuity, composition on the pullback space.
# They are the oracles for the checks that read the table; continuity also
# shows the failures that the membership report leaves to other lines.
# ---------------------------------------------------------------------------


def comp_dict(cat: tc.TopCategory) -> dict[tuple[int, int], int]:
    return {(f, g): h for f, row in enumerate(cat.comp_t) for g, h in enumerate(row) if h != cat.n_arrows}


def loop_check_category(cat: tc.TopCategory) -> list[str]:
    """Raises KeyError where a composable triple reads a pair with no composite."""
    problems = []
    comp = comp_dict(cat)
    name = cat.arr_names
    for x in range(cat.n_objects):
        e = cat.id_of[x]
        if cat.src[e] != x or cat.tgt[e] != x:
            problems.append(f"identity of object {cat.obj_names[x]!r} has wrong endpoints")
    for f in range(cat.n_arrows):
        for g in range(cat.n_arrows):
            defined = (f, g) in comp
            if defined != (cat.tgt[f] == cat.src[g]):
                problems.append(f"composition defined on wrong pair ({name[f]},{name[g]})")
            elif defined:
                h = comp[(f, g)]
                if cat.src[h] != cat.src[f] or cat.tgt[h] != cat.tgt[g]:
                    problems.append(f"composite of ({name[f]},{name[g]}) has wrong endpoints")
    for f in range(cat.n_arrows):
        if comp.get((cat.id_of[cat.src[f]], f)) != f:
            problems.append(f"left unit law fails at arrow {name[f]!r}")
        if comp.get((f, cat.id_of[cat.tgt[f]])) != f:
            problems.append(f"right unit law fails at arrow {name[f]!r}")
    for f in range(cat.n_arrows):
        for g in range(cat.n_arrows):
            if cat.tgt[f] != cat.src[g]:
                continue
            for h in range(cat.n_arrows):
                if cat.tgt[g] != cat.src[h]:
                    continue
                if comp[(comp[(f, g)], h)] != comp[(f, comp[(g, h)])]:
                    problems.append(f"associativity fails at ({name[f]},{name[g]},{name[h]})")
    return problems


def pullback_check_topological_category(cat: tc.TopCategory) -> tuple[tuple[str, int], ...]:
    """Composition checked as a map on the pullback topology of the pairs
    with a composite."""
    witnesses = []

    def record(pre, domain, codomain, label):
        witnesses.extend((label, n) for n in codomain.basis if not is_open(domain, pre(n)))

    record(lambda n: preimage(cat.src, n), cat.arr_top, cat.obj_top, "src")
    record(lambda n: preimage(cat.tgt, n), cat.arr_top, cat.obj_top, "tgt")
    record(lambda n: preimage(cat.id_of, n), cat.obj_top, cat.arr_top, "id")
    comp = comp_dict(cat)
    pairs = sorted(comp)
    near = cat.arr_top.nbhds
    first = [mask_of(i for i, (f, _) in enumerate(pairs) if m >> f & 1) for m in near]
    second = [mask_of(i for i, (_, g) in enumerate(pairs) if m >> g & 1) for m in near]
    # Each pair's neighbourhood is open by construction, so the quadratic
    # check of FinTopology's constructor is skipped: on the 4,096 pairs of
    # a 64-arrow group it alone took 20 s (2 vCPUs, Python 3.11).
    pullback = object.__new__(tc.FinTopology)
    object.__setattr__(pullback, "nbhds", tuple(first[f] & second[g] for f, g in pairs))
    composite = tuple(comp[p] for p in pairs)
    record(lambda n: preimage(composite, n), pullback, cat.arr_top, "comp")
    return tuple(witnesses)


def loop_all_arrows_epi(cat: tc.TopCategory) -> bool:
    for a in range(cat.n_arrows):
        post = [b for b in range(cat.n_arrows) if cat.src[b] == cat.tgt[a]]
        for b in post:
            for c in post:
                if b != c and cat.compose(a, b) == cat.compose(a, c):
                    return False
    return True


def loop_check_multifunctor(fun: MultiFunctor) -> Optional[tuple]:
    """Raises KeyError where two related target arrows have no composite."""
    src_c, tgt_c = fun.source, fun.target
    for f in range(src_c.n_arrows):
        for g in bits(fun.arr_rel[f]):
            if tgt_c.src[g] != fun.obj_map[src_c.src[f]] or tgt_c.tgt[g] != fun.obj_map[src_c.tgt[f]]:
                return ("endpoints", f, g)
    for x in range(src_c.n_objects):
        if not fun.arr_rel[src_c.id_of[x]] >> tgt_c.id_of[fun.obj_map[x]] & 1:
            return ("identity", x)
    target_comp = comp_dict(tgt_c)
    for (f1, f2), h in comp_dict(src_c).items():
        for g1 in bits(fun.arr_rel[f1]):
            for g2 in bits(fun.arr_rel[f2]):
                if not fun.arr_rel[h] >> target_comp[(g1, g2)] & 1:
                    return ("composition", f1, f2, g1, g2)
    return None


def mutated(rng: random.Random, cat: tc.TopCategory) -> tc.TopCategory:
    """The category with one table entry changed: a composite removed,
    added where there was none, or replaced by another arrow."""
    n = cat.n_arrows
    f, g = rng.randrange(n), rng.randrange(n)
    old = cat.comp_t[f][g]
    new = n if old != n and rng.random() < 0.5 else rng.choice([h for h in range(n) if h != old])
    table = [list(row) for row in cat.comp_t]
    table[f][g] = new
    return dataclasses.replace(cat, comp_t=tuple(map(tuple, table)))


class TestTableAgainstLoops:
    def test_mutated_duals(self, corpus_algebras, one_arrow_category, nonepi_category):
        rng = random.Random(2024)
        cats = [pf_object(a).category for a in corpus_algebras] + [one_arrow_category, nonepi_category]
        cats = [c for c in cats if c.n_arrows > 1]
        completed = failing = 0
        for _ in range(2000):
            cat = mutated(rng, rng.choice(cats))
            problems = cat.check_category()
            try:
                expected = loop_check_category(cat)
            except KeyError:
                continue
            completed += 1
            failing += any(p.startswith("associativity") for p in expected)
            assert problems == expected
        assert completed >= 1000 and failing >= 50

    def test_mutated_duals_with_topologies(self, corpus_algebras, one_arrow_category, nonepi_category):
        # mostly not categories, where only the category axioms and the
        # brute epimorphism loop tell the verdict
        rng = random.Random(2025)
        cats = _small_categories(corpus_algebras, one_arrow_category, nonepi_category)
        cats = [c for c in cats if c.n_arrows > 1]
        verdicts = collections.Counter()
        for _ in range(300):
            cat, sub_o, sub_a = _with_random_subbases(rng, mutated(rng, rng.choice(cats)))
            problems = set(check_verdict_against_oracles(cat, sub_o, sub_a))
            verdicts[not problems & {NOT_LOCAL, NOT_STONE}, bool(problems - {NOT_LOCAL, NOT_STONE, tc.NOT_EPI})] += 1
        assert verdicts[True, True] >= 50

    def test_epi_and_multifunctors(self, corpus_algebras, corpus_homs, one_arrow_category, nonepi_category):
        rng = random.Random(2026)
        cats = [pf_object(a).category for a in corpus_algebras] + [one_arrow_category, nonepi_category]
        for cat in cats:
            assert tc.all_arrows_epi(cat) == loop_all_arrows_epi(cat)
        funs = [pf_morphism(h) for h in corpus_homs] + [identity_multifunctor(c) for c in cats]
        for fun in funs:
            assert tc.check_multifunctor(fun) == loop_check_multifunctor(fun)
        cats = [c for c in cats if c.n_objects]
        stages = set()
        for _ in range(400):
            # relations between arrows with mapped endpoints, identities
            # related to identities: mostly the composition condition decides
            source, target = rng.choice(cats), rng.choice(cats)
            obj_map = tuple(rng.randrange(target.n_objects) for _ in range(source.n_objects))
            rel = [
                mask_of(g for g in range(target.n_arrows) if rng.random() < 0.6
                        and (target.src[g], target.tgt[g]) == (obj_map[source.src[f]], obj_map[source.tgt[f]]))
                for f in range(source.n_arrows)
            ]
            for x, e in enumerate(source.id_of):
                rel[e] |= 1 << target.id_of[obj_map[x]]
            fun = MultiFunctor(source, target, obj_map, tuple(rel))
            witness = tc.check_multifunctor(fun)
            assert witness == loop_check_multifunctor(fun)
            stages.add(witness and witness[0])
        assert stages == {None, "composition"}

    def test_plain_functors_by_rows(self, corpus_algebras, one_arrow_category, nonepi_category):
        # each arrow related to exactly one: the endomorphisms g_i -> g_(u*i)
        # of Z_12, each also with one arrow sent elsewhere; the collapse of
        # every arrow onto one identity, whose rows differ from the target's
        # only where the source does not compose; and random maps that
        # relate identities to identities
        rng = random.Random(2027)
        z12 = zero_extended_cyclic(12)
        funs = []
        for u in range(12):
            image = [u * i % 12 for i in range(12)]
            funs.append(MultiFunctor(z12, z12, (0,), tuple(1 << g for g in image)))
            image[rng.randrange(12)] = rng.randrange(12)
            funs.append(MultiFunctor(z12, z12, (0,), tuple(1 << g for g in image)))
        cats = [pf_object(a).category for a in corpus_algebras] + [one_arrow_category, nonepi_category, z12]
        cats = [c for c in cats if c.n_objects]
        funs += [MultiFunctor(c, one_arrow_category, (0,) * c.n_objects, (1,) * c.n_arrows) for c in cats]
        while len(funs) < 400:
            source, target = rng.choice(cats), rng.choice(cats)
            obj_map = tuple(rng.randrange(target.n_objects) for _ in range(source.n_objects))
            rel = []
            for f in range(source.n_arrows):
                ends = (obj_map[source.src[f]], obj_map[source.tgt[f]])
                fits = [g for g in range(target.n_arrows) if (target.src[g], target.tgt[g]) == ends]
                rel.append(1 << rng.choice(fits) if fits else 0)
            for x, e in enumerate(source.id_of):
                rel[e] = 1 << target.id_of[obj_map[x]]
            if all(rel):
                funs.append(MultiFunctor(source, target, obj_map, tuple(rel)))
        stages = collections.Counter()
        for fun in funs:
            witness = tc.check_multifunctor(fun)
            assert witness == loop_check_multifunctor(fun)
            stages[witness and witness[0]] += 1
        assert stages[None] >= 100 and stages["composition"] >= 50

    def test_composition_continuity_on_a_non_discrete_group(self):
        # one OR per (f2, g) of the composites of f2 with the arrows near
        # g; ORing single composites over every near pair took 5.6 s on
        # the indiscrete group (2 vCPUs, Python 3.11)
        n = 64
        indiscrete = zero_extended_cyclic(n, arr_opens=[[]])
        start = time.perf_counter()
        problems = tc.validate_object_of_C(indiscrete)
        assert time.perf_counter() - start < 1
        assert problems == (NOT_LOCAL,)
        # arrows near in pairs {g2k, g2k+1}: g1 is near g0, and g1;g1 = g2
        # is not near g0;g0 = g0, so composition is not continuous; src is
        # not injective on {g0, g1}, which is the failure reported
        paired = zero_extended_cyclic(n, arr_opens=[[f"g{k}", f"g{k + 1}"] for k in range(0, n, 2)])
        assert any(label == "comp" for label, _ in pullback_check_topological_category(paired))
        assert tc.validate_object_of_C(paired) == (NOT_LOCAL,)

    def test_cyclic_groups(self):
        # the cubic loops took 15.6 s on the order 256 (2 vCPUs, Python 3.11)
        assert tc.validate_object_of_C(zero_extended_cyclic(256)) == ()
        cat = zero_extended_cyclic(32)
        table = [list(row) for row in cat.comp_t]
        table[3][5] = 9
        broken = dataclasses.replace(cat, comp_t=tuple(map(tuple, table)))
        assert broken.check_category() == loop_check_category(broken)
        assert broken.check_category()[0] == "associativity fails at (g1,g2,g5)"


# ---------------------------------------------------------------------------
# Cross-checks against brute force over every open set
# ---------------------------------------------------------------------------


def brute_opens(size: int, subbasis) -> frozenset:
    """The subbasis with the empty set and the carrier, closed under
    intersections and then under unions."""
    full = (1 << size) - 1
    meets = {full}
    for m in subbasis:
        meets |= {b & m & full for b in meets}
    opens = {0}
    for b in meets:
        opens |= {u | b for u in opens}
    return frozenset(opens)


def random_subbasis(rng: random.Random, size: int) -> list[int]:
    return [rng.randrange(1 << size) for _ in range(rng.randint(0, 4))]


def preimage(mapping, u: int) -> int:
    return mask_of(i for i, v in enumerate(mapping) if u >> v & 1)


def image(mapping, u: int) -> int:
    return mask_of(mapping[i] for i in bits(u))


def failing_opens(pre, domain_opens, codomain_opens) -> set:
    return {u for u in codomain_opens if pre(u) not in domain_opens}


class TestPreimageOracle:
    """bitsets.preimage against the set-builder `preimage` above: images
    below 256 take the bytes path, any larger image the str path."""

    @pytest.mark.parametrize("top", [1, 2, 255, 256, 257, 700])
    def test_random_maps_and_masks(self, top):
        rng = random.Random(top)
        for length in range(301):
            mapping = [rng.randrange(top) for _ in range(length)]
            for mask in (0, -1, rng.getrandbits(top), -rng.getrandbits(top + 8) - 1,
                         rng.getrandbits(top) | 1 << (top + rng.randrange(600))):
                assert bitsets.preimage(mapping, mask) == preimage(mapping, mask)
                assert bitsets.preimage(tuple(mapping), mask) == preimage(mapping, mask)

    @pytest.mark.parametrize("mapping", [[255], [256], [255, 256], [256, 255, 0], [0] * 300 + [255], [256] * 300])
    def test_byte_boundary(self, mapping):
        for mask in (1 << 255, 1 << 256, 3 << 255, ~(1 << 255), ~(1 << 256), -1, 0, 1 << 900):
            assert bitsets.preimage(mapping, mask) == preimage(mapping, mask)

    @pytest.mark.parametrize("mapping", [[-1], [0, -1], [300, -2], [5, 256, -300]])
    def test_negative_image_refused(self, mapping):
        with pytest.raises(ValueError):
            preimage(mapping, 1)
        with pytest.raises(ValueError):
            bitsets.preimage(mapping, 1)


class TestBruteForceTopologies:
    def test_generated_topology_matches_closure(self):
        rng = random.Random(1937)
        for _ in range(150):
            size = rng.randint(0, 6)
            sub = random_subbasis(rng, size)
            top = tc.generate_topology(size, sub)
            opens = brute_opens(size, sub)
            full = (1 << size) - 1
            clopens = {u for u in opens if full & ~u in opens}
            assert top.opens == tuple(sorted(opens))
            for m in range(1 << (size + 1)):
                assert is_open(top, m) == (m in opens)
                assert is_clopen(top, m) == (m in clopens)
            for i in range(size):
                assert top.nbhds[i] == functools.reduce(operator.and_, (u for u in opens if u >> i & 1))
            separated = all(
                any((u >> x & 1) != (u >> y & 1) for u in clopens)
                for x, y in itertools.combinations(range(size), 2)
            )
            assert top.is_discrete() == separated
            assert is_topology(size, opens)
            family = set(sub) | {0, full}
            assert is_topology(size, family) == (family == opens)

    def test_twenty_singletons_are_discrete(self):
        size = 20
        top = tc.generate_topology(size, [1 << i for i in range(size)])
        full = (1 << size) - 1
        assert top.is_discrete()
        assert top.basis == tuple(1 << i for i in range(size))
        assert is_open(top, 0b1011) and is_clopen(top, full & ~0b1011)
        assert not is_open(top, 1 << size)


def _small_categories(corpus_algebras, one_arrow_category, nonepi_category):
    cats = [pf_object(a).category for a in corpus_algebras]
    return [c for c in cats + [one_arrow_category, nonepi_category] if c.n_arrows <= 7]


def _with_topologies(cat: tc.TopCategory, sub_o, sub_a) -> tc.TopCategory:
    return dataclasses.replace(
        cat,
        obj_top=tc.generate_topology(cat.n_objects, sub_o),
        arr_top=tc.generate_topology(cat.n_arrows, sub_a),
    )


def _with_random_topologies(rng: random.Random, cat: tc.TopCategory):
    """The category with random topologies, and the brute-force opens of each."""
    sub_o = random_subbasis(rng, cat.n_objects)
    sub_a = random_subbasis(rng, cat.n_arrows)
    return _with_topologies(cat, sub_o, sub_a), brute_opens(cat.n_objects, sub_o), brute_opens(cat.n_arrows, sub_a)


def _with_random_subbases(rng: random.Random, cat: tc.TopCategory):
    """The category with random topologies, each made discrete half the time
    so that some categories pass, and the subbasis of each."""
    sub_o, sub_a = (
        random_subbasis(rng, size) + ([1 << i for i in range(size)] if rng.random() < 0.5 else [])
        for size in (cat.n_objects, cat.n_arrows)
    )
    return _with_topologies(cat, sub_o, sub_a), sub_o, sub_a


def brute_local_homeo(mapping, arr_opens, obj_opens) -> bool:
    if failing_opens(lambda u: preimage(mapping, u), arr_opens, obj_opens):
        return False

    def works(u: int) -> bool:
        imgs = [mapping[i] for i in bits(u)]
        target = mask_of(imgs)
        if len(set(imgs)) != len(imgs) or target not in obj_opens:
            return False
        relative = {v & target for v in obj_opens}
        return all(image(mapping, u & w) in relative for w in arr_opens)

    return all(any(u >> m & 1 and works(u) for u in arr_opens) for m in range(len(mapping)))


def brute_star_checks(fun: MultiFunctor, target_arr_opens) -> tc.StarReport:
    src_c, tgt_c, rel = fun.source, fun.target, fun.arr_rel
    injective = surjective = pseudo = co_pseudo = True
    for x in range(src_c.n_objects):
        star = [f for f in range(src_c.n_arrows) if src_c.src[f] == x]
        costar = [f for f in range(src_c.n_arrows) if src_c.tgt[f] == x]
        if any(rel[f1] & rel[f2] for f1, f2 in itertools.combinations(star, 2)):
            injective = False
        y = fun.obj_map[x]
        star_y = mask_of(g for g in range(tgt_c.n_arrows) if tgt_c.src[g] == y)
        costar_y = mask_of(g for g in range(tgt_c.n_arrows) if tgt_c.tgt[g] == y)
        hit = functools.reduce(operator.or_, (rel[f] for f in star), 0)
        cohit = functools.reduce(operator.or_, (rel[f] for f in costar), 0)
        if star_y & ~hit:
            surjective = False
        if any(u & star_y and not u & hit for u in target_arr_opens):
            pseudo = False
        if any(u & costar_y and not u & cohit for u in target_arr_opens):
            co_pseudo = False
    return tc.StarReport(injective, surjective, pseudo, co_pseudo)


def brute_conditions(cat: tc.TopCategory, sub_o, sub_a) -> dict[str, bool]:
    """The six conditions of membership in the dual class C: the topological
    ones over every open set of the generated topologies (composition over
    the brute-force pullback of the composable pairs), the others by loops."""
    oo, ao = brute_opens(cat.n_objects, sub_o), brute_opens(cat.n_arrows, sub_a)
    try:
        category = not loop_check_category(cat)
    except KeyError:  # a composable pair has no composite
        category = False
    comp = comp_dict(cat)
    pairs = sorted(comp)
    cylinders = [mask_of(i for i, p in enumerate(pairs) if u >> p[side] & 1) for u in sub_a for side in (0, 1)]
    composite = tuple(comp[p] for p in pairs)
    full = (1 << cat.n_objects) - 1
    clopens = {u for u in oo if full & ~u in oo}
    return {
        "category": category,
        "continuous": not (
            failing_opens(lambda u: preimage(cat.src, u), ao, oo)
            or failing_opens(lambda u: preimage(cat.tgt, u), ao, oo)
            or failing_opens(lambda u: preimage(cat.id_of, u), oo, ao)
            or failing_opens(lambda u: preimage(composite, u), brute_opens(len(pairs), cylinders), ao)
        ),
        "local_homeo": brute_local_homeo(cat.src, ao, oo),
        "open_target": all(image(cat.tgt, u) in oo for u in ao),
        "stone": all(
            any((u >> x & 1) != (u >> y & 1) for u in clopens)
            for x, y in itertools.combinations(range(cat.n_objects), 2)
        ),
        "epi": category and loop_all_arrows_epi(cat),
    }


def check_verdict_against_oracles(cat: tc.TopCategory, sub_o, sub_a) -> tuple[str, ...]:
    """validate_object_of_C's four conditions give the verdict of all six,
    and the Stone etale precondition of the four that sections need, under
    which the arrow space is discrete."""
    brute = brute_conditions(cat, sub_o, sub_a)
    problems = tc.validate_object_of_C(cat)
    assert (not problems) == all(brute.values())
    etale = brute["category"] and brute["continuous"] and brute["local_homeo"] and brute["stone"]
    assert (not set(problems) - {tc.NOT_EPI}) == etale
    if etale:
        assert cat.arr_top.is_discrete()
    assert tc.is_local_homeo(cat) == brute["local_homeo"] == (NOT_LOCAL not in problems)
    assert cat.obj_top.is_discrete() == brute["stone"] == (NOT_STONE not in problems)
    assert (tc.NOT_EPI in problems) == (brute["category"] and not brute["epi"])
    return problems


class TestBruteForceCategories:
    def test_category_checks(self, corpus_algebras, one_arrow_category, nonepi_category):
        rng = random.Random(1966)
        cats = _small_categories(corpus_algebras, one_arrow_category, nonepi_category)
        verdicts = collections.Counter()
        for _ in range(250):
            cat, sub_o, sub_a = _with_random_subbases(rng, rng.choice(cats))
            problems = check_verdict_against_oracles(cat, sub_o, sub_a)
            verdicts[not problems, not set(problems) - {tc.NOT_EPI}] += 1
        assert verdicts[True, True] >= 100 and verdicts[False, True] >= 10 and verdicts[False, False] >= 50

    def test_multifunctor_checks(self, corpus_algebras, one_arrow_category, nonepi_category):
        rng = random.Random(1970)
        cats = _small_categories(corpus_algebras, one_arrow_category, nonepi_category)
        cats = [c for c in cats if c.n_objects]
        for _ in range(80):
            source, src_oo, src_ao = _with_random_topologies(rng, rng.choice(cats))
            target, tgt_oo, tgt_ao = _with_random_topologies(rng, rng.choice(cats))
            fun = MultiFunctor(
                source, target,
                tuple(rng.randrange(target.n_objects) for _ in range(source.n_objects)),
                tuple(rng.randrange(1 << target.n_arrows) for _ in range(source.n_arrows)),
            )
            relation = [mask_of(f for f, r in enumerate(fun.arr_rel) if r & u) for u in range(1 << target.n_arrows)]
            continuous = not (
                failing_opens(lambda u: preimage(fun.obj_map, u), src_oo, tgt_oo)
                or failing_opens(relation.__getitem__, src_ao, tgt_ao)
            )
            assert tc.is_continuous_multifunctor(fun) == continuous
            assert tc.star_checks(fun) == brute_star_checks(fun, tgt_ao)


@st.composite
def preorders(draw, min_size: int = 0) -> tc.FinTopology:
    """An arbitrary topology on up to 6 points: the reflexive and transitive
    closure of an arbitrary relation, as each point's set of successors."""
    size = draw(st.integers(min_size, 6))
    nbhds = [1 << i | draw(st.integers(0, (1 << size) - 1)) for i in range(size)]
    for k in range(size):  # Warshall: whoever reaches k reaches what k reaches
        nbhds = [m | nbhds[k] if m >> k & 1 else m for m in nbhds]
    return tc.FinTopology(tuple(nbhds))


@st.composite
def spaces_over(draw, base: tc.FinTopology) -> tuple[tc.FinTopology, tuple[int, ...]]:
    """A space of arrows and an arbitrary map from it onto the base's points."""
    arrows = draw(preorders())
    return arrows, tuple(draw(st.integers(0, base.size - 1)) for _ in range(arrows.size))


def bare_category(objects: tc.FinTopology, arrows: tc.FinTopology, src: tuple[int, ...]) -> tc.TopCategory:
    """Spaces of objects and arrows with a source map, and nothing composing:
    the topological checks read no more of a category."""
    return tc.TopCategory(
        tuple(f"x{x}" for x in range(objects.size)), tuple(f"f{f}" for f in range(arrows.size)),
        objects, arrows, src, src, (0,) * objects.size, comp_table(arrows.size, ()),
    )


@st.composite
def functors(draw) -> MultiFunctor:
    """An arbitrary object map and arrow relation between two categories with
    arbitrary topologies."""
    source, target = (
        bare_category(objects, *draw(spaces_over(objects)))
        for objects in (draw(preorders(min_size=1)), draw(preorders(min_size=1)))
    )
    return MultiFunctor(
        source, target,
        tuple(draw(st.integers(0, target.n_objects - 1)) for _ in range(source.n_objects)),
        tuple(draw(st.integers(0, (1 << target.n_arrows) - 1)) for _ in range(source.n_arrows)),
    )


def every_open(top: tc.FinTopology) -> frozenset:
    return brute_opens(top.size, top.nbhds)


class TestPointwiseAgainstOpenSets:
    """The pointwise checks on arbitrary preorders, each against its
    definition decided over every open set."""

    def test_maps_and_local_homeomorphisms(self):
        seen = collections.Counter()

        @given(preorders(min_size=1).flatmap(lambda objects: st.tuples(st.just(objects), spaces_over(objects))))
        @settings(max_examples=400, deadline=None)
        def check(case):
            objects, (arrows, src) = case
            oo, ao = every_open(objects), every_open(arrows)
            continuous = not failing_opens(lambda u: preimage(src, u), ao, oo)
            assert tc._monotone(src, arrows, objects) == continuous
            local = brute_local_homeo(src, ao, oo)
            assert tc.is_local_homeo(bare_category(objects, arrows, src)) == local
            seen["continuous", continuous] += 1
            seen["local", local] += 1

        check()
        assert all(seen[kind, verdict] >= 20 for kind in ("continuous", "local") for verdict in (True, False))

    def test_multifunctor_continuity(self):
        seen = collections.Counter()

        @given(functors())
        @settings(max_examples=400, deadline=None)
        def check(fun):
            (src_o, src_a), (tgt_o, tgt_a) = ((c.obj_top, c.arr_top) for c in (fun.source, fun.target))

            def related(u: int) -> int:
                return mask_of(f for f, r in enumerate(fun.arr_rel) if r & u)

            continuous = not (
                failing_opens(lambda u: preimage(fun.obj_map, u), every_open(src_o), every_open(tgt_o))
                or failing_opens(related, every_open(src_a), every_open(tgt_a))
            )
            assert tc.is_continuous_multifunctor(fun) == continuous
            seen[continuous] += 1

        check()
        assert seen[True] >= 20 and seen[False] >= 20


class TestCategoryFileForms:
    def test_every_open_form_loads_like_basis_form(self, nonepi_category):
        obj_sub, arr_sub = [0b011, 0b110], [0b0000111, 0b0011110, 0b1000000]
        cat = dataclasses.replace(
            nonepi_category,
            obj_top=tc.generate_topology(nonepi_category.n_objects, obj_sub),
            arr_top=tc.generate_topology(nonepi_category.n_arrows, arr_sub),
        )
        basis_form = category_to_dict(cat)

        def names(masks, labels):
            return [[labels[i] for i in bits(m)] for m in sorted(masks)]

        every_open_form = dict(
            basis_form,
            opens_obj=names(brute_opens(cat.n_objects, obj_sub), cat.obj_names),
            opens_arr=names(brute_opens(cat.n_arrows, arr_sub), cat.arr_names),
        )
        assert basis_form["opens_arr"] == names(set(cat.arr_top.nbhds), cat.arr_names)
        assert len(every_open_form["opens_arr"]) > len(basis_form["opens_arr"])
        assert fmt.parse_category(every_open_form) == fmt.parse_category(basis_form) == cat
