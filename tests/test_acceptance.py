"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Time budgets are asserted with time.perf_counter around the whole
criterion body, computed fresh (caches cleared first).
"""

from __future__ import annotations

import random
import re
import time
from contextlib import contextmanager

import pytest

from conftest import (BASE3, build_swap_const, build_swap_only, build_nonepi_category, identity_hom, index_of,
                      inverse_functor, inverse_hom, permuted_copy)
from pfdual import algebra as alg
from pfdual import duality as du
from pfdual import sections as sc
from pfdual import topcat as tc
from pfdual import transducer as td
from pfdual.algebra import FinAlgebra, Homomorphism
from pfdual.dualize import pf_morphism, pf_object
from pfdual.pfun import Base, PFunc, as_abstract, close_under_ops, enumerate_all


def _clear_caches() -> None:
    """Forget the canonical instances, so no object built from here on
    finds the derived data of an equal one built before."""
    alg._canonical.clear()


@contextmanager
def criterion(number: int, description: str, budget: float | None = None):
    _clear_caches()
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None:
            assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget}s"
    except BaseException:
        print(f"criterion {number:2d}: FAIL - {description}")
        raise
    print(f"criterion {number:2d}: PASS - {description} ({elapsed:.3f}s)")


def test_criterion_01_running_example_round_trip():
    with criterion(1, "running example closes, passes all axioms, dual has the documented shape", budget=1.0):
        funcs = {
            "s": PFunc.from_pairs(BASE3, {1: 2, 2: 1}),
            "c": PFunc.from_pairs(BASE3, {1: 3, 2: 3}),
            "1": PFunc.identity(BASE3),
        }
        closed = close_under_ops(funcs.values())
        assert len(closed) == 8
        swap_const, _ = build_swap_const()
        assert set(closed) == {PFunc.from_pairs(BASE3, g) for g in (
            {}, {1: 1, 2: 2}, {3: 3}, {1: 1, 2: 2, 3: 3},
            {1: 2, 2: 1}, {1: 2, 2: 1, 3: 3}, {1: 3, 2: 3}, {1: 3, 2: 3, 3: 3},
        )}
        report = alg.check_axioms(swap_const)
        assert report.passed and len(report.results) == 10

        dual = pf_object(swap_const)
        cat = dual.category
        assert cat.n_objects == 2 and cat.n_arrows == 4
        assert len(set(cat.id_of)) == 2
        a = {name: k for k, name in enumerate(cat.arr_names)}
        expected = {
            ("p_e3", "p_e3"): "p_e3",
            ("p_e12", "p_e12"): "p_e12",
            ("p_e12", "p_s"): "p_s",
            ("p_e12", "p_c"): "p_c",
            ("p_s", "p_e12"): "p_s",
            ("p_s", "p_s"): "p_e12",
            ("p_s", "p_c"): "p_c",
            ("p_c", "p_e3"): "p_c",
        }
        for (f, g), h in expected.items():
            assert cat.compose(a[f], a[g]) == a[h], (f, g)
        defined = {(f, g) for f, row in enumerate(cat.comp_t) for g, h in enumerate(row) if h != cat.n_arrows}
        assert defined == {(a[f], a[g]) for f, g in expected}


def test_criterion_02_double_dual_sections_and_theta():
    with criterion(2, "double dual has exactly 8 sections and theta is a bijective homomorphism", budget=1.0):
        swap_const, _ = build_swap_const()
        secalg, secs = sc.seccl_object(pf_object(swap_const).category)
        assert len(secs) == 8
        iso = du.theta(swap_const)
        assert sorted(iso.mapping) == list(range(8))
        assert alg.check_homomorphism(iso)
        assert alg.check_homomorphism(inverse_hom(iso))


def test_criterion_03_phi_is_topological_isomorphism():
    with criterion(3, "phi on the dual category is an isomorphism of topological categories", budget=1.0):
        swap_const, _ = build_swap_const()
        cat = pf_object(swap_const).category
        fwd = du.phi(cat)
        back = inverse_functor(fwd)
        assert sorted(fwd.obj_map) == list(range(fwd.target.n_objects))
        assert back is not None and tc.is_plain_functor(back)
        for fun in (fwd, back):
            assert tc.check_multifunctor(fun) is None
            assert tc.is_continuous_multifunctor(fun)


def test_criterion_04_soundness_sweep():
    with criterion(4, "every generated subalgebra passes the axioms and has an isomorphic double dual", budget=60.0):
        base2 = Base(("x", "y"))
        funcs2 = enumerate_all(base2)
        distinct: dict[frozenset, FinAlgebra] = {}
        for bits_ in range(1, 1 << len(funcs2)):
            gens = [funcs2[k] for k in range(len(funcs2)) if bits_ >> k & 1]
            closed = frozenset(close_under_ops(gens))
            if closed not in distinct:
                distinct[closed], _ = as_abstract(closed)
        assert len(distinct) >= 2

        funcs3 = enumerate_all(Base((1, 2, 3)))
        rng = random.Random(20260809)
        for _ in range(20):
            gens = rng.sample(funcs3, rng.randint(1, 3))
            closed = frozenset(close_under_ops(gens))
            if closed not in distinct:
                distinct[closed], _ = as_abstract(closed)

        for a in distinct.values():
            assert alg.check_axioms(a).passed
            iso = du.theta(a)
            assert iso.target.size == a.size


def test_criterion_05_mutation_suite():
    with criterion(5, "200 single-entry mutations: failures are genuine, survivors keep theta", budget=120.0):
        swap_const, _ = build_swap_const()
        n = swap_const.size
        mutations = []
        for row in range(n):
            for col in range(n):
                for v in range(n):
                    if v != swap_const.compose_t[row][col]:
                        mutations.append(("compose", row, col, v))
        for pos in range(n):
            for v in range(n):
                if v != swap_const.anti_t[pos]:
                    mutations.append(("anti", pos, 0, v))
                if v != swap_const.range_t[pos]:
                    mutations.append(("range", pos, 0, v))
        for row in range(n):
            for col in range(n):
                for v in range(n):
                    if v != swap_const.pref_t[row][col]:
                        mutations.append(("pref", row, col, v))
        picked = [mutations[i * 5] for i in range(200)]
        assert len(picked) == 200

        survivors = 0
        for which, row, col, v in picked:
            compose_t = [list(r) for r in swap_const.compose_t]
            anti_t, range_t = list(swap_const.anti_t), list(swap_const.range_t)
            pref_t = [list(r) for r in swap_const.pref_t]
            if which == "compose":
                compose_t[row][col] = v
            elif which == "anti":
                anti_t[row] = v
            elif which == "range":
                range_t[row] = v
            else:
                pref_t[row][col] = v
            mutated = FinAlgebra.from_tables(compose_t, anti_t, range_t, pref_t, swap_const.names)
            report = alg.check_axioms(mutated)
            if report.passed:
                survivors += 1
                iso = du.theta(mutated)
                assert iso.target.size == mutated.size
            else:
                for failure in report.failures():
                    assert failure.witness is not None
                    assert not alg.axiom_instance_holds(mutated, failure.index, failure.witness)
        print(f"    (mutations still passing all axioms: {survivors}/200)")


def test_criterion_06_morphism_duality():
    with criterion(6, "dual of the subalgebra inclusion: coherent, not plain, naturality commutes", budget=5.0):
        swap_const, _ = build_swap_const()
        swap_only, _ = build_swap_only()
        incl = Homomorphism(swap_only, swap_const, tuple(index_of(swap_const, nm) for nm in swap_only.names))
        fun = pf_morphism(incl)
        assert tc.check_multifunctor(fun) is None
        assert tc.is_continuous_multifunctor(fun)
        stars = tc.star_checks(fun)
        assert stars.injective and stars.surjective and stars.co_pseudo and stars.pseudo
        assert not tc.is_plain_functor(fun)
        proper, witness = alg.check_locally_proper(incl)
        assert not proper
        assert set(witness.element_names()) == {"c", "c3"}
        assert du.check_naturality_theta(incl)


def test_criterion_07_restricted_duality():
    with criterion(7, "identity and isomorphism duals are plain functors with locally proper double duals"):
        swap_const, _ = build_swap_const()
        swap_only, _ = build_swap_only()
        one = FinAlgebra.from_tables([[0]], [0], [0], [[0]], ["0"])
        _, iso = permuted_copy(swap_const, tuple(reversed(range(swap_const.size))))
        for h in (identity_hom(swap_const), identity_hom(swap_only), identity_hom(one), iso):
            fun = pf_morphism(h)
            assert tc.is_plain_functor(fun)
            double = sc.seccl_morphism(fun)
            proper, _ = alg.check_locally_proper(double)
            assert proper


def test_criterion_08_epi_necessity():
    with criterion(8, "a non-epimorphic arrow breaks range cancellation in the section algebra"):
        cat = build_nonepi_category()
        assert not tc.all_arrows_epi(cat)
        secalg, secs = sc.seccl_object(cat)
        report = alg.check_axioms(secalg)
        r8 = report.result(8)
        assert not r8.passed and r8.witness is not None
        assert not alg.axiom_instance_holds(secalg, 8, r8.witness)
        a, b, c = r8.witness
        assert secalg.comp(a, b) == secalg.comp(a, c)
        assert secalg.comp(secalg.rng(a), b) != secalg.comp(secalg.rng(a), c)


def test_criterion_09_transducer_suite():
    with criterion(9, "word machines: eval, override split, acceptors, bounded axioms", budget=30.0):
        AL = ("a", "b")
        t1 = td.from_names(states=("p",), alphabet=AL, initial="p",
                           trans={("p", "a"): frozenset({("a", "p")})}, final_out={"p": ""})
        t2 = td.from_names(states=("q0", "q1"), alphabet=AL, initial="q0",
                           trans={("q0", "a"): frozenset({("b", "q0")}),
                                  ("q0", "b"): frozenset({("", "q1")})},
                           final_out={"q1": ""})
        assert td.eval(t2, "aab") == "bb"

        pu = td.pref_union(t1, t2)
        for w in td.words_upto(AL, 8):
            f, g = td.eval(t1, w), td.eval(t2, w)
            assert td.eval(pu, w) == (f if f is not None else g)

        dom = td.domain_transducer(t2)
        rng_d = td.range_transducer(t2)
        for w in td.words_upto(AL, 8):
            assert td.eval(dom, w) == (w if re.fullmatch(r"a*b", w) else None)
            assert td.eval(rng_d, w) == (w if re.fullmatch(r"b*", w) else None)

        report = td.axioms_bounded([t1, t2, td.compose(t2, t1)], 6)
        assert all(r.witness is None for r in report.results if r.equational)
        assert report.passed


def test_criterion_10_isomorphism_property():
    with criterion(10, "locally proper plus domain-bijective homomorphisms are isomorphisms"):
        swap_const, _ = build_swap_const()
        swap_only, _ = build_swap_only()
        one = FinAlgebra.from_tables([[0]], [0], [0], [[0]], ["0"])
        perm, iso = permuted_copy(swap_const, tuple(reversed(range(swap_const.size))))
        incl = Homomorphism(swap_only, swap_const, tuple(index_of(swap_const, nm) for nm in swap_only.names))
        collapse = Homomorphism(swap_const, one, (0,) * swap_const.size)
        corpus = [identity_hom(swap_const), identity_hom(swap_only), identity_hom(one), incl, iso, collapse]

        verified = 0
        for h in corpus:
            proper, _ = alg.check_locally_proper(h)
            if not proper:
                continue
            src_dom = alg.domain_elements(h.source)
            tgt_dom = alg.domain_elements(h.target)
            image = [h(d) for d in src_dom]
            if len(set(image)) != len(src_dom) or set(image) != set(tgt_dom):
                continue
            assert sorted(h.mapping) == list(range(h.target.size))
            inverse = [0] * h.target.size
            for x, v in enumerate(h.mapping):
                inverse[v] = x
            assert alg.check_homomorphism(Homomorphism(h.target, h.source, tuple(inverse)))
            verified += 1
        assert verified >= 4
