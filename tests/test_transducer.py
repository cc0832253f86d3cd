"""Transducer construction and the bounded-word oracles."""

from __future__ import annotations

import collections
import dataclasses
import gc
import hashlib
import inspect
import itertools
import os
import random
import re
import time
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfdual import formats as fmt
from pfdual import transducer as td
from pfdual.algebra import AXIOMS
from pfdual.errors import NotFunctionalError

AL = ("a", "b")


def repeat_a() -> td.Transducer:
    """a^n -> a^n."""
    return td.from_names(
        states=("p",), alphabet=AL, initial="p",
        trans={("p", "a"): frozenset({("a", "p")})}, final_out={"p": ""},
    )


def flip_count() -> td.Transducer:
    """a^n b -> b^n."""
    return td.from_names(
        states=("q0", "q1"), alphabet=AL, initial="q0",
        trans={
            ("q0", "a"): frozenset({("b", "q0")}),
            ("q0", "b"): frozenset({("", "q1")}),
        },
        final_out={"q1": ""},
    )


def traced_peak(run):
    """run()'s value and the peak of the memory it held, in bytes, by
    tracemalloc."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value = run()
        return value, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def t1():
    return repeat_a()


@pytest.fixture(scope="module")
def t2():
    return flip_count()


def test_a_state_listed_twice_is_refused():
    """As an algebra or category file refuses a repeated name; the first
    listing would otherwise be an unreachable orphan."""
    with pytest.raises(ValueError, match="^state 'p' is listed twice$"):
        td.from_names(("p", "q", "p"), AL, "p", {("p", "a"): {("a", "p")}}, {"p": ""})
    assert len(td.from_names(("p", "q"), AL, "p", {("p", "a"): {("a", "p")}}, {"p": ""}).delta) == 2


class TestEval:
    def test_examples(self, t1, t2):
        assert td.eval(t2, "aab") == "bb"
        assert td.eval(t1, "") == ""
        assert td.eval(t2, "ba") is None
        assert td.eval(t1, "aaa") == "aaa"
        assert td.eval(t1, "b") is None

    def test_letters_outside_alphabet_rejected(self, t1):
        with pytest.raises(ValueError):
            td.eval(t1, "xyz")

    def test_not_functional_detected(self):
        bad = td.from_names(
            states=("q",), alphabet=AL, initial="q",
            trans={("q", "a"): frozenset({("a", "q"), ("b", "q")})},
            final_out={"q": ""},
        )
        with pytest.raises(NotFunctionalError) as err:
            td.eval(bad, "a")
        assert err.value.word == "a"
        assert err.value.outputs == ("a", "b")

    def test_dead_runs_are_dropped(self):
        """q copies a, or writes nothing and moves to d, which accepts
        nothing and writes each a as aa or bb.  eval follows only the live
        run, so its peak on a^16 is a few kilobytes, where the runs into d
        would number 2^16; and a^2000 is evaluated at once."""
        dead = td.from_names(("q", "d"), AL, "q",
                             {("q", "a"): frozenset({("a", "q"), ("", "d")}),
                              ("d", "a"): frozenset({("aa", "d"), ("bb", "d")})},
                             {"q": ""})
        out, peak = traced_peak(lambda: td.eval(dead, "a" * 16))
        assert out == "a" * 16 and peak < 50_000
        assert td.eval(dead, "a" * 2000) == "a" * 2000
        assert td.eval(dead, "a" * 1999 + "b") is None


class TestCompose:
    def test_one_way_is_empty(self, t1, t2):
        t12 = td.compose(t1, t2)
        assert all(td.eval(t12, w) is None for w in td.words_upto(AL, 6))

    def test_other_way_keeps_only_b(self, t1, t2):
        t21 = td.compose(t2, t1)
        for w in td.words_upto(AL, 6):
            assert td.eval(t21, w) == ("" if w == "b" else None)

    def test_matches_two_step_oracle(self, t1, t2):
        for first, second in ((t1, t2), (t2, t1), (t2, t2), (t1, t1)):
            composed = td.compose(first, second)
            for w in td.words_upto(AL, 7):
                u = td.eval(first, w)
                expected = td.eval(second, u) if u is not None else None
                assert td.eval(composed, w) == expected

    def test_identity_units(self, t2):
        ident = td.identity_transducer(AL)
        assert td.equiv_bounded(td.compose(t2, ident), t2, 8)[0]
        assert td.equiv_bounded(td.compose(ident, t2), t2, 8)[0]

    def test_final_outputs_that_disagree_name_the_least_word(self):
        """Both 'a' and 'b' lead the first machine to its final state, whose
        output 'a' the second machine reads two ways: the error names 'a',
        with both whole outputs."""
        first = td.from_names(
            states=("p0", "p1"), alphabet=AL, initial="p0",
            trans={("p0", x): frozenset({("b", "p1")}) for x in AL}, final_out={"p1": "a"},
        )
        second = td.from_names(
            states=("q", "r"), alphabet=AL, initial="q",
            trans={("q", "b"): frozenset({("b", "q")}), ("q", "a"): frozenset({("a", "r"), ("b", "r")})},
            final_out={"r": ""},
        )
        with pytest.raises(NotFunctionalError) as err:
            td.compose(first, second)
        assert (err.value.word, err.value.outputs) == ("a", ("ba", "bb"))

    def test_each_run_of_the_second_machine_is_walked_once(self):
        """A run that dies is kept like any other.  as_to_bs writes b, on
        which id_on_as has no move: its one-letter runs are its moves, so the
        composite reads no row of its table.  A first machine that writes bb
        from each of three states reads it once, for the one run of p on bb."""
        data = Path(__file__).resolve().parent.parent / "data"
        second = fmt.load_transducer(data / "id_on_as.td.json")
        reads = []

        class Rows(tuple):
            def __getitem__(self, q):
                reads.append(q)
                return tuple.__getitem__(self, q)

        counted = dataclasses.replace(second, delta=Rows(second.delta))
        written = fmt.write_transducer
        first = fmt.load_transducer(data / "as_to_bs.td.json")
        assert written(td.compose(first, counted)) == written(td.compose(first, second)) and reads == []
        first = td.from_names(
            states=("r0", "r1", "r2"), alphabet=AL, initial="r0",
            trans={("r0", "a"): {("a", "r1")}, ("r1", "a"): {("a", "r2")},
                   **{(r, "b"): {("bb", r)} for r in ("r0", "r1", "r2")}},
            final_out={"r2": ""},
        )
        assert written(td.compose(first, counted)) == written(td.compose(first, second)) and reads == [0]

    def test_alphabet_mismatch(self, t1):
        other = td.identity_transducer(("a",))
        with pytest.raises(ValueError):
            td.compose(t1, other)


def moves(t: td.Transducer, q: int, a: str) -> tuple:
    """The moves of state q of t on the letter a."""
    return t.delta[q][t.alphabet.index(a)]


def named(t: td.Transducer) -> tuple:
    """t by state names, as from_names takes it: states, alphabet, initial
    state, (state, letter) -> moves, and final outputs."""
    names = t.names
    trans = {(names[q], a): frozenset((out, names[q2]) for out, q2 in step)
             for q, row in enumerate(t.delta) for a, step in zip(t.alphabet, row) if step}
    final_out = {names[q]: v for q, v in enumerate(t.final) if v is not None}
    return names, t.alphabet, names[t.initial], trans, final_out


def accepts(d: td.Transducer, word: str) -> bool:
    """Whether the acceptor d takes the word, read off its one move per
    state and letter, each of which writes its letter."""
    q = d.initial
    for a in word:
        ((out, q),) = moves(d, q, a)
        assert out == a
    assert d.final[q] in (None, "")
    return d.final[q] is not None


class TestAcceptors:
    def test_domain_of_flip_count(self, t2):
        d = td.domain_transducer(t2)
        for w in td.words_upto(AL, 8):
            assert accepts(d, w) == bool(re.fullmatch(r"a*b", w))

    def test_range_of_flip_count(self, t2):
        d = td.range_transducer(t2)
        for w in td.words_upto(AL, 8):
            assert accepts(d, w) == bool(re.fullmatch(r"b*", w))

    def test_domain_agrees_with_eval(self, t1, t2):
        for t in (t1, t2, td.compose(t2, t1), td.pref_union(t1, t2)):
            d = td.domain_transducer(t)
            for w in td.words_upto(AL, 7):
                assert accepts(d, w) == (td.eval(t, w) is not None)
                assert td.eval(d, w) == (w if accepts(d, w) else None)

    def test_range_collects_outputs(self, t1, t2):
        for t in (t1, t2, td.pref_union(t1, t2)):
            d = td.range_transducer(t)
            outputs = {
                td.eval(t, w) for w in td.words_upto(AL, 7) if td.eval(t, w) is not None
            }
            for w in td.words_upto(AL, 7):
                if w in outputs:
                    assert accepts(d, w)

    def test_complement(self, t2):
        d = td.antidomain(t2)
        for w in td.words_upto(AL, 6):
            assert accepts(d, w) == (td.eval(t2, w) is None)


class TestDerivedOperations:
    def test_antidomain_law(self, t1, t2):
        for t in (t1, t2):
            anti = td.antidomain(t)
            for w in td.words_upto(AL, 7):
                if td.eval(t, w) is None:
                    assert td.eval(anti, w) == w
                else:
                    assert td.eval(anti, w) is None

    def test_domain_transducer_is_double_antidomain(self, t1, t2):
        """D = A A: the machine built from the domain acceptor is the one
        the term builds, state for state, on seeded random machines."""
        rnd = random.Random(19)
        corpus = [t1, t2]
        for _ in range(200):
            alphabet = rnd.choice(("ab", "abc"))
            corpus += [random_machine(rnd, alphabet, rnd.randint(1, 4), nondeterministic)
                       for nondeterministic in (False, True)]
        for t in corpus:
            d, aa = td.domain_transducer(t), td.antidomain(td.antidomain(t))
            assert (d.names, d.alphabet, d.initial, d.delta, d.final) == \
                   (aa.names, aa.alphabet, aa.initial, aa.delta, aa.final)
            assert fmt.write_transducer(d) == fmt.write_transducer(aa)

    def test_restrict(self, t1, t2):
        r = td.compose(td.domain_transducer(t2), t1)
        # a* intersected with a*b is empty
        assert all(td.eval(r, w) is None for w in td.words_upto(AL, 6))

    def test_pref_union_case_split(self, t1, t2):
        pu = td.pref_union(t1, t2)
        assert td.eval(pu, "aa") == "aa"
        assert td.eval(pu, "aab") == "bb"
        for w in td.words_upto(AL, 8):
            f, g = td.eval(t1, w), td.eval(t2, w)
            assert td.eval(pu, w) == (f if f is not None else g)

    def test_pref_union_with_empty(self, t2):
        empty = td.from_names(("q0",), AL, "q0", {}, {})
        assert td.equiv_bounded(td.pref_union(t2, empty), t2, 7)[0]
        assert td.equiv_bounded(td.pref_union(empty, t2), t2, 7)[0]


class TestBoundedOracles:
    def test_equiv_idempotent_identity(self, t1):
        ok, _ = td.equiv_bounded(td.compose(t1, t1), t1, 8)
        assert ok

    def test_inequivalent_witness(self, t1, t2):
        ok, witness = td.equiv_bounded(t1, t2, 8)
        # first mismatch in length-then-letter order: t1 accepts the empty
        # word, t2 does not
        assert not ok and witness == ""

    def test_cap(self, t1):
        with pytest.raises(ValueError, match="bound 13 exceeds the limit BOUND_CAP = 12"):
            td.equiv_bounded(t1, t1, 13)

    def test_axioms_pass(self, t1, t2):
        report = td.axioms_bounded([t1, t2, td.compose(t2, t1)], 6)
        assert [r.witness for r in report.results] == [None] * 10
        assert [(r.index, r.name, r.equational) for r in report.results] == [
            (ax.index, ax.name, ax.equational) for ax in AXIOMS.values()]

    def test_axiom_violation_detected(self, t1, t2):
        """Despite the name, no violation: a machine rewriting every letter
        still satisfies the axioms (test_axiom_violation_found injects one)."""
        skewed = td.from_names(
            states=("p",), alphabet=AL, initial="p",
            trans={("p", "a"): frozenset({("b", "p")})}, final_out={"p": "b"},
        )
        # skewed is a fine rational function; the axioms still hold for it
        report = td.axioms_bounded([skewed], 4)
        assert report.passed


@given(st.integers(min_value=0, max_value=7))
@settings(deadline=None)
def test_flip_count_by_length(n):
    assert td.eval(flip_count(), "a" * n + "b") == "b" * n


@given(st.text(alphabet="ab", max_size=7))
@settings(deadline=None)
def test_pref_union_pointwise(word):
    t1, t2 = repeat_a(), flip_count()
    pu = td.pref_union(t1, t2)
    f, g = td.eval(t1, word), td.eval(t2, word)
    assert td.eval(pu, word) == (f if f is not None else g)


def test_axiom_violation_found(monkeypatch):
    """An override that ignores its left operand breaks D(a);(a|b) = a."""
    data = Path(__file__).resolve().parent.parent / "data"
    machines = [fmt.load_transducer(data / "id_on_as.td.json"),
                fmt.load_transducer(data / "as_to_bs.td.json")]
    monkeypatch.setattr(td, "pref_union", lambda a, b: b)
    report = td.axioms_bounded(machines, 6)
    assert not report.passed
    assert not report.result(9).passed and report.result(9).witness == (0, 1, "")


def test_word_count_refused_before_any_work():
    letters = tuple(chr(ord("a") + i) for i in range(26))
    ident = td.identity_transducer(letters)
    for check in (lambda: td.axioms_bounded([ident], 5), lambda: td.equiv_bounded(ident, ident, 5)):
        with pytest.raises(ValueError, match="exceed MAX_WORDS"):
            check()
    assert sum(3 ** n for n in range(13)) <= td.MAX_WORDS  # ternary words up to the cap


def test_word_count_bound_admits_exactly_max_words():
    """At L = 1 an alphabet of m letters gives 1 + m words: m = MAX_WORDS - 1
    is admitted and one letter more is refused.  check_bound reads only the
    machines' alphabets."""
    def machine(size: int) -> SimpleNamespace:
        return SimpleNamespace(alphabet="".join(map(chr, range(size))))

    td.check_bound([machine(td.MAX_WORDS - 1)], 1)
    with pytest.raises(ValueError, match=f"^{td.MAX_WORDS + 1} words of length at most 1 over {td.MAX_WORDS} letters"):
        td.check_bound([machine(td.MAX_WORDS)], 1)


def test_negative_bound_refused():
    # no word has negative length, so a sweep over none would pass vacuously
    ident = td.identity_transducer(("a", "b"))
    for check in (lambda: td.axioms_bounded([ident], -1),
                  lambda: td.equiv_bounded(ident, td.from_names(("q0",), AL, "q0", {}, {}), -1)):
        with pytest.raises(ValueError, match="bound -1 is negative"):
            check()


# ---------------------------------------------------------------------------
# Differential oracle: the word-by-word sweep
# ---------------------------------------------------------------------------


def reference_equiv(t1, t2, max_len):
    for w in td.words_upto(t1.alphabet, max_len):
        if td.eval(t1, w) != td.eval(t2, w):
            return False, w
    return True, None


def reference_axioms(ts, max_len):
    """(index, passed, witness) per axiom, building every term afresh and
    evaluating each word from the initial state."""
    ident = td.identity_transducer(ts[0].alphabet)
    A, R, D = td.antidomain, td.range_transducer, td.domain_transducer
    comp, pref = td.compose, td.pref_union
    idxs = range(len(ts))

    def eq(x, y):
        return reference_equiv(x, y, max_len)

    def quasi(premises, conclusion):
        for lhs, rhs in premises:
            if not eq(lhs, rhs)[0]:
                return True, None
        return eq(*conclusion)

    pairs = list(itertools.product(idxs, repeat=2))
    triples = list(itertools.product(idxs, repeat=3))
    singles = [(i,) for i in idxs]
    checks = (
        (1, triples, lambda a, b, c: eq(comp(a, comp(b, c)), comp(comp(a, b), c))),
        (2, pairs, lambda a, b: eq(comp(A(a), a), comp(A(b), b))),
        (3, singles, lambda a: eq(comp(ident, a), a)),
        (4, pairs, lambda a, b: eq(comp(a, A(b)), comp(A(comp(a, b)), a))),
        (5, triples, lambda a, b, c: quasi(
            [(comp(D(a), b), comp(D(a), c)), (comp(A(a), b), comp(A(a), c))], (b, c))),
        (6, singles, lambda a: eq(D(R(a)), R(a))),
        (7, singles, lambda a: eq(comp(a, R(a)), a)),
        (8, triples, lambda a, b, c: quasi(
            [(comp(a, b), comp(a, c))], (comp(R(a), b), comp(R(a), c)))),
        (9, pairs, lambda a, b: eq(comp(D(a), pref(a, b)), a)),
        (10, pairs, lambda a, b: eq(comp(A(a), pref(a, b)), comp(A(a), b))),
    )
    results = []
    for index, tuples, check in checks:
        for tup in tuples:
            ok, word = check(*[ts[i] for i in tup])
            if not ok:
                results.append((index, False, tuple(tup) + (word,)))
                break
        else:
            results.append((index, True, None))
    return results


def random_machine(rnd, alphabet, states, nondeterministic):
    names = tuple(f"s{i}" for i in range(states))
    trans = {}
    for q in names:
        for a in alphabet:
            width = rnd.choice((0, 1, 1, 2) if nondeterministic else (0, 1, 1))
            outs = {("".join(rnd.choice(alphabet) for _ in range(rnd.randint(0, 2))), rnd.choice(names))
                    for _ in range(width)}
            if outs:
                trans[(q, a)] = frozenset(outs)
    finals = rnd.sample(names, rnd.randint(1, states))
    final_out = {q: rnd.choice(("",) + tuple(alphabet)) for q in finals}
    return td.from_names(names, tuple(alphabet), "s0", trans, final_out)


def test_first_word_with_two_outputs_is_raised():
    """The error comes at the first such word of either machine, the left
    machine's first when both have one there."""
    def machine(a_outs, b_outs):
        return td.from_names(("q",), AL, "q", {("q", "a"): frozenset((o, "q") for o in a_outs),
                                               ("q", "b"): frozenset((o, "q") for o in b_outs)},
                             {"q": ""})

    late, early, early_too = machine("a", "ab"), machine("ab", "b"), machine(("aa", "b"), "b")
    for x, y in itertools.permutations((late, early, early_too), 2):
        expected = outcome(reference_equiv, x, y, 2)
        assert expected[0] == "not functional" and expected[1] == "a"
        assert outcome(td.equiv_bounded, x, y, 2) == expected


def outcome(f, *args):
    try:
        return f(*args)
    except NotFunctionalError as e:
        return ("not functional", e.word, e.outputs)


def test_trie_tables_match_word_by_word_reference():
    """Same reports, witnesses and NotFunctionalErrors as the reference on
    random machines, about 30 % of them nondeterministic."""
    rnd = random.Random(25)
    kinds = collections.Counter()
    for _ in range(40):
        alphabet = rnd.choice(("ab", "abc"))
        ts = [random_machine(rnd, alphabet, rnd.randint(1, 3), rnd.random() < 0.3)
              for _ in range(rnd.randint(1, 3))]
        max_len = rnd.randint(0, 4 if alphabet == "ab" else 3)
        expected = outcome(reference_axioms, ts, max_len)
        got = outcome(lambda: [(r.index, r.passed, r.witness) for r in td.axioms_bounded(ts, max_len).results])
        assert got == expected
        kinds[expected[0] if expected[0] == "not functional" else all(r[1] for r in expected)] += 1
        for x, y in itertools.product(ts, repeat=2):
            assert outcome(td.equiv_bounded, x, y, max_len) == outcome(reference_equiv, x, y, max_len)
    # the seed covers raised errors, failing reports and passing ones
    assert kinds["not functional"] and kinds[False] and kinds[True]


# ---------------------------------------------------------------------------
# The lockstep walk against the word-by-word sweep
# ---------------------------------------------------------------------------


def configurations(t, word):
    """The (state, output) configurations after reading the word, as eval
    computes them."""
    configs = {(t.initial, "")}
    for a in word:
        configs = {(q2, out + emitted) for q, out in configs for emitted, q2 in moves(t, q, a)}
    return configs


def reachable(t, start):
    seen, todo = {start}, [start]
    while todo:
        q = todo.pop()
        for a in t.alphabet:
            for _, q2 in moves(t, q, a):
                if q2 not in seen:
                    seen.add(q2)
                    todo.append(q2)
    return seen


def live_configurations(t, word):
    """The configurations after reading the word whose state can still
    reach a final state."""
    finals = {q for q, v in enumerate(t.final) if v is not None}
    coaccessible = {q for q in range(len(t.delta)) if reachable(t, q) & finals}
    return {(q, out) for q, out in configurations(t, word) if q in coaccessible}


def forking_machine():
    """s0 forks on a into s1 and s2; s1 dies on every letter and s2 returns
    to s0, so the runs go from one configuration to two, back to one after
    the next a, and fork again after a third."""
    return td.from_names(
        ("s0", "s1", "s2", "s3"), AL, "s0",
        {("s0", "a"): frozenset({("a", "s1"), ("b", "s2")}),
         ("s0", "b"): frozenset({("", "s0")}),
         ("s2", "a"): frozenset({("ab", "s0")}),
         ("s2", "b"): frozenset({("", "s3"), ("a", "s2")}),
         ("s3", "a"): frozenset({("b", "s3")})},
        {"s0": "", "s2": "a"},
    )


def last_letter_fork():
    """Every word of length 2 has two outputs, from one configuration with
    two moves into the final state."""
    return td.from_names(
        ("p0", "p1", "f"), AL, "p0",
        {**{("p0", x): frozenset({(x, "p1")}) for x in AL},
         **{("p1", x): frozenset({(x, "f"), (x + x, "f")}) for x in AL}},
        {"f": ""},
    )


def walk_families():
    """(machine, bound) pairs: the two forking machines, and seeded random
    ones, 70 % of them nondeterministic, with dead and unreachable states,
    empty outputs and bounds from 0."""
    rnd = random.Random(9)
    machines = [(forking_machine(), 6), (last_letter_fork(), 2)]
    for _ in range(120):
        alphabet = rnd.choice(("ab", "abc"))
        t = random_machine(rnd, alphabet, rnd.randint(1, 4), rnd.random() < 0.7)
        machines.append((t, rnd.randint(0, 5 if alphabet == "ab" else 4)))
    return machines


def merged_by_prefix(x, y, max_len):
    """Whether two words shorter than the bound have different runs but the
    same configuration once the output prefix common to all their runs is
    removed, so the walk expands only the first."""
    met = {}
    for w in td.words_upto(x.alphabet, max(max_len - 1, 0)):
        runs = (frozenset(live_configurations(x, w)), frozenset(live_configurations(y, w)))
        n = len(os.path.commonprefix([o for r in runs for _, o in r]))
        key = tuple(frozenset((q, o[n:]) for q, o in r) for r in runs)
        if met.setdefault(key, runs) != runs:
            return True
    return False


def test_walk_matches_word_by_word_reference():
    """On the seeded families, equiv_bounded gives the word-by-word sweep's
    verdict, witness and NotFunctionalError for each machine against itself,
    against a copy with other state names, against an override of it and
    against the next machine over its alphabet, both ways round; and
    axioms_bounded gives the sweep's report for each machine, alone and
    with that next machine."""
    seen = collections.Counter()
    machines = walk_families()
    for k, (t, max_len) in enumerate(machines):
        other = next(u for u, _ in machines[k + 1:] + machines if u is not t and u.alphabet == t.alphabet)
        partners = (t, td.compose(td.identity_transducer(t.alphabet), t), td.pref_union(t, other), other)
        for y in partners:
            for pair in ((t, y), (y, t)):
                expected = outcome(reference_equiv, *pair, max_len)
                assert outcome(td.equiv_bounded, *pair, max_len) == expected
                if expected[0] == "not functional":
                    seen["error"] += 1
                    seen["error at L"] += len(expected[1]) == max_len
                else:
                    seen["equal" if expected[0] else "difference"] += 1
            seen["merged by prefix"] += merged_by_prefix(t, y, max_len)
        for ts in ([t], [t, other]):
            expected = outcome(reference_axioms, ts, max_len)
            assert outcome(lambda: [(r.index, r.passed, r.witness)
                                    for r in td.axioms_bounded(ts, max_len).results]) == expected
            seen["axioms raise" if expected[0] == "not functional" else "axioms report"] += 1
        reached = reachable(t, t.initial)
        steps = [step for row in t.delta for step in row]
        seen["nondeterministic"] += any(len(step) >= 2 for step in steps)
        seen["dead"] += any(not any(t.delta[q]) for q in reached)
        seen["unreachable"] += len(reached) < len(t.delta)
        seen["empty output"] += any(out == "" for step in steps for out, _ in step)
        seen["L = 0"] += max_len == 0
    assert set(seen) == {"error", "error at L", "equal", "difference", "merged by prefix", "axioms raise",
                         "axioms report", "nondeterministic", "dead", "unreachable", "empty output", "L = 0"}
    assert all(seen.values()), seen


def test_derived_machines_pass_validation():
    """The constructions build their machines and acceptors unvalidated;
    read by state names through from_names, each passes validation and
    gives back its own table, and each acceptor has one move per state and
    letter, which writes its letter."""
    rnd = random.Random(41)
    corpus = []
    for _ in range(20):
        alphabet = rnd.choice(("ab", "abc"))
        corpus.append([random_machine(rnd, alphabet, rnd.randint(1, 4), nondeterministic)
                       for nondeterministic in (False, True)])
    derived, acceptors = [], []
    for ts in corpus:
        for x in ts:
            acceptors += [td.antidomain(x), td.domain_transducer(x), td.range_transducer(x)]
        for x, y in itertools.product(ts, repeat=2):
            derived += [td.compose(td.domain_transducer(y), x), td.pref_union(x, y),
                        td.pref_union(td.antidomain(x), y)]
            try:
                derived += [td.compose(x, y), td.compose(td.domain_transducer(x), td.pref_union(x, y))]
            except NotFunctionalError:
                pass
    assert derived and acceptors
    for m in derived + acceptors:
        again = td.from_names(*named(m))
        assert (again.alphabet, again.initial, again.delta, again.final, again.names) == \
               (m.alphabet, m.initial, m.delta, m.final, m.names)
    for d in acceptors:
        for row in d.delta:
            assert [out for ((out, _),) in row] == list(d.alphabet)
        assert set(d.final) <= {None, ""}


# ---------------------------------------------------------------------------
# Machine building: relabelling, and what is kept on a machine
# ---------------------------------------------------------------------------


def relabel_oracle(op, alphabet, initial, moves, final, prefix="q", key=None):
    """Two-pass breadth-first renaming: every step's moves sorted and listed
    in discovery order first, then named, then the final outputs; the
    machine built from the names."""
    order = [initial]
    seen = {initial}
    steps = []
    k = 0
    while k < len(order):
        q = order[k]
        k += 1
        for a, step in zip(alphabet, moves(q)):
            step = sorted(step, key=key)
            steps.append((q, a, step))
            for _, q2 in step:
                if q2 not in seen:
                    seen.add(q2)
                    order.append(q2)
    name = {q: f"{prefix}{i}" for i, q in enumerate(order)}
    trans = {}
    for q, a, step in steps:
        if step:
            trans[(name[q], a)] = frozenset((out, name[q2]) for out, q2 in step)
    final_out = {}
    for q in order:
        v = final(q)
        if v is not None:
            final_out[name[q]] = v
    return td.from_names(tuple(name[q] for q in order), alphabet, name[initial], trans, final_out)


def built_files(ts):
    """write_transducer of compose, pref_union and restriction to a domain
    and to its complement over each pair of the machines ts, of A, D and R
    of each machine and of each composite and override, or the
    NotFunctionalError a composite raises."""
    files = []
    for x, y in itertools.product(ts, repeat=2):
        made = [td.pref_union(x, y), td.compose(td.domain_transducer(y), x),
                td.compose(td.antidomain(y), x)]
        try:
            made.append(td.compose(x, y))
        except NotFunctionalError as e:
            files.append((e.word, e.outputs))
        for m in made + [x]:
            files += [fmt.write_transducer(f(m)) for f in (lambda m: m, td.antidomain,
                                                           td.domain_transducer, td.range_transducer)]
    return files


def test_relabelling_matches_two_pass_oracle(monkeypatch):
    """Every machine the constructions build, and A, D and R of each, is
    written to the same bytes as with the two-pass renaming, on seeded
    deterministic and nondeterministic machines; asked for twice, A, D and R
    kept on their machine give the same bytes again."""
    rnd = random.Random(53)
    steps = collections.Counter()

    def counted_oracle(op, alphabet, initial, moves, *rest, **kw):
        def counted(q):
            row = moves(q)
            for step in row:
                outs = [out for out, _ in step]
                steps["two moves"] += len(step) >= 2
                steps["same output"] += len(set(outs)) < len(outs)
            return row
        return relabel_oracle(op, alphabet, initial, counted, *rest, **kw)

    for _ in range(25):
        alphabet = rnd.choice(("ab", "abc"))
        ts = [random_machine(rnd, alphabet, rnd.randint(1, 4), nondeterministic)
              for nondeterministic in (False, True)]
        copies = [td.from_names(*named(t)) for t in ts]
        with monkeypatch.context() as m:
            m.setattr(td, "_relabel_transducer", counted_oracle)
            expected = built_files(copies)
        assert built_files(ts) == expected
        assert built_files(ts) == expected
    assert steps["two moves"] and steps["same output"], steps


def restrict_override_oracle(t1, t2):
    """pref_union as first built, by state names: t2 limited to the
    complement of the domain of t1 by a product with that acceptor, then
    the union with t1."""
    _, al, i1, trans1, final1 = named(t1)
    _, _, i2, trans2, final2 = named(t2)
    _, _, i_d, trans_d, final_d = named(td.antidomain(t1))

    def r_moves(pair):
        q, s = pair
        return [{(out, (q2, s2)) for out, q2 in trans2.get((q, a), ()) for _, s2 in trans_d[(s, a)]}
                for a in al]

    def r_final(pair):
        q, s = pair
        return final2.get(q) if s in final_d else None

    _, _, i2r, trans2r, final2r = named(relabel_oracle("compose", al, (i2, i_d), r_moves, r_final))

    def moves(state):
        if state == "u0":
            return [{(out, ("l", q)) for out, q in trans1.get((i1, a), ())} |
                    {(out, ("r", q)) for out, q in trans2r.get((i2r, a), ())} for a in al]
        side, q = state
        trans = trans1 if side == "l" else trans2r
        return [{(out, (side, q2)) for out, q2 in trans.get((q, a), ())} for a in al]

    def final(state):
        if state == "u0":
            u = final1.get(i1)
            return u if u is not None else final2r.get(i2r)
        side, q = state
        return (final1 if side == "l" else final2r).get(q)

    return relabel_oracle("pref_union", al, "u0", moves, final)


def test_override_matches_restrict_oracle():
    """pref_union(t1, t2), built as t1 with A(t1);t2, is written to the same
    bytes as with t2 limited by its own product with the acceptor, on seeded
    deterministic and nondeterministic machines."""
    rnd = random.Random(67)
    two_moves = 0
    for _ in range(40):
        alphabet = rnd.choice(("ab", "abc"))
        ts = [random_machine(rnd, alphabet, rnd.randint(1, 4), nondeterministic)
              for nondeterministic in (False, True, True)]
        for x, y in itertools.product(ts, repeat=2):
            made = td.pref_union(x, y)
            assert fmt.write_transducer(made) == fmt.write_transducer(restrict_override_oracle(x, y))
            two_moves += any(len(step) > 1 for row in made.delta for step in row)
    assert two_moves


def test_kept_machines_live_as_long_as_their_machine():
    """A and the live moves are computed once per machine and go with it."""
    t = flip_count()
    assert td.antidomain(t) is td.antidomain(t)
    assert td._live_moves(t) is td._live_moves(t)
    anti = weakref.ref(td.antidomain(t))
    del t
    gc.collect()
    assert anti() is None


def test_each_domain_is_determinized_once_per_sweep(monkeypatch):
    """A, D and pref over an input read its domain acceptor in several
    axioms; one sweep determinizes it once, and reports as word by word."""
    rnd = random.Random(61)
    ts = [random_machine(rnd, "ab", states, False) for states in (2, 3, 3)]
    domains = collections.Counter()
    relabel = td._relabel_transducer

    def counted(op, alphabet, initial, moves, *rest, **kw):
        if op == "domain_transducer":
            domains[id(inspect.getclosurevars(moves).nonlocals["t"])] += 1
        return relabel(op, alphabet, initial, moves, *rest, **kw)

    monkeypatch.setattr(td, "_relabel_transducer", counted)
    report = td.axioms_bounded(ts, 4)
    assert [domains[id(t)] for t in ts] == [1, 1, 1]
    assert [(r.index, r.passed, r.witness) for r in report.results] == reference_axioms(ts, 4)


def test_tables_are_shared_only_between_equal_structures():
    """Two inputs with the same transitions but another initial state, or
    other final outputs, are other functions: the sweep compares them as two
    machines and reports what evaluating word by word reports."""
    flip = {("p", "a"): frozenset({("a", "r")}), ("r", "a"): frozenset({("b", "p")})}
    loop = {("p", "a"): frozenset({("a", "p")})}
    pairs = [
        (td.from_names(("p", "r"), AL, "p", flip, {"p": "", "r": ""}),
         td.from_names(("p", "r"), AL, "r", flip, {"p": "", "r": ""})),
        (td.from_names(("p",), AL, "p", loop, {"p": ""}),
         td.from_names(("p",), AL, "p", loop, {"p": "a"})),
    ]
    for x, y in pairs:
        assert not td.equiv_bounded(x, y, 4)[0]
        for ts in ([x, y], [y, x]):
            report = td.axioms_bounded(ts, 4)
            assert [(r.index, r.passed, r.witness) for r in report.results] == reference_axioms(ts, 4)
            assert report.passed


def walks_per_axiom(monkeypatch, ts, max_len):
    """axioms_bounded's report as (index, passed, witness) triples, and how
    many comparisons it walked for each axiom."""
    calls, marks = [0], []
    walk, check = td._first_difference, td.AxiomCheck

    def counted(*args):
        calls[0] += 1
        return walk(*args)

    def recorded(*args):
        marks.append(calls[0])
        return check(*args)

    monkeypatch.setattr(td, "_first_difference", counted)
    monkeypatch.setattr(td, "AxiomCheck", recorded)
    report = td.axioms_bounded(ts, max_len)
    counts = [b - a for a, b in zip([0] + marks, marks)]
    return [(r.index, r.passed, r.witness) for r in report.results], counts


def test_equal_deterministic_sides_build_no_table(monkeypatch):
    """comp(a, comp(b, c)) and comp(comp(a, b), c) of deterministic machines
    are one machine, so axiom 1 walks no comparison, and the report is
    still the word-by-word one."""
    rnd = random.Random(31)
    for _ in range(12):
        alphabet = rnd.choice(("ab", "abc"))
        ts = [random_machine(rnd, alphabet, rnd.randint(1, 3), False) for _ in range(rnd.randint(1, 3))]
        max_len = rnd.randint(0, 4 if alphabet == "ab" else 3)
        report, counts = walks_per_axiom(monkeypatch, ts, max_len)
        assert report == reference_axioms(ts, max_len)
        assert counts[0] == 0 and sum(counts) > 0


def test_equal_nondeterministic_sides_still_raise(monkeypatch):
    """A non-functional machine whose axiom-1 sides share one structure
    raises the NotFunctionalError evaluating word by word raises, from the
    one walk of that machine against itself."""
    bad = td.from_names(("q", "r"), AL, "q",
                        {("q", "a"): frozenset({("a", "q"), ("b", "r")}),
                         ("q", "b"): frozenset({("b", "q")}),
                         ("r", "b"): frozenset({("", "r")})},
                        {"q": "", "r": "b"})
    left, right = td.compose(bad, td.compose(bad, bad)), td.compose(td.compose(bad, bad), bad)
    assert (left.initial, left.delta, left.final) == (right.initial, right.delta, right.final)
    expected = outcome(reference_axioms, [bad], 3)
    assert expected == ("not functional", "a", ("a", "bb"))
    calls = []
    walk = td._first_difference
    monkeypatch.setattr(td, "_first_difference", lambda *args: calls.append(args[:2]) or walk(*args))
    assert outcome(lambda: td.axioms_bounded([bad], 3)) == expected
    assert len(calls) == 1 and calls[0][0] is calls[0][1]


def test_walk_peak_memory():
    """The walk keeps each configuration once, not each word: comparing a
    doubler on three letters with a copy under other state names at L = 8,
    its tracemalloc peak stays under half the 157,464 characters of the
    doubler's output table, one output per word joined by a separator."""
    flip = {"p": "r", "r": "p"}
    al = ("a", "b", "c")
    doubler = td.from_names(("p", "r"), al, "p",
                            {(q, a): frozenset({(a + a, flip[q])}) for q in flip for a in al},
                            {"p": "", "r": ""})
    copy = td.compose(td.identity_transducer(al), doubler)
    words = list(td.words_upto(al, 8))
    assert len("|".join(td.eval(doubler, w) for w in words)) == 157464
    verdict, peak = traced_peak(lambda: td.equiv_bounded(doubler, copy, 8))
    assert verdict == (True, None) and peak < 0.5 * 157464


def pinned_builds():
    """What compose, pref_union, D and R give on seeded nondeterministic
    machines of 4 to 6 states, then on each composite and override of them
    with an input, both ways round: each written file, or each
    NotFunctionalError's word and outputs, in order."""
    rnd = random.Random(71)
    made = []

    def attempt(build):
        try:
            m = build()
        except NotFunctionalError as e:
            made.append((e.word, e.outputs))
            return None
        made.append(fmt.write_transducer(m))
        return m

    for _ in range(6):
        alphabet = rnd.choice(("ab", "abc"))
        x, y = (random_machine(rnd, alphabet, rnd.randint(4, 6), True) for _ in range(2))
        c = attempt(lambda: td.compose(x, y))
        p = attempt(lambda: td.pref_union(x, y))
        for m in (x, y, c, p):
            if m is None:
                continue
            made += [fmt.write_dfa(td.domain_transducer(m)), fmt.write_dfa(td.range_transducer(m))]
            for z in (x, y):
                attempt(lambda: td.compose(m, z))
                attempt(lambda: td.pref_union(m, z))
                attempt(lambda: td.pref_union(z, m))
    return made


def test_built_machines_keep_their_bytes():
    """The files of pinned_builds, byte for byte, and the errors, word and
    outputs, as the constructions wrote them when states were named while
    built.  Operands of the second round have states q10 and beyond, so name
    order (q10 < q2) and number order differ where moves are tied."""
    made = pinned_builds()
    files = [m for m in made if isinstance(m, str)]
    errors = [m for m in made if not isinstance(m, str)]
    assert sum('"q10"' in f for f in files) == 75 and sum('"d10"' in f for f in files) == 21
    assert hashlib.sha256("\0".join(files).encode()).hexdigest() == \
        "90a5d8ff7cd1889016b3438d67744b94c21d064067c7ab51f8124210606104e5"
    assert errors == [
        ("baac", ("bbccaacccaab", "bbccaacccbac")), ("baac", ("bbccaacccaab", "bbccaacccbac")),
        ("ab", ("cbaaaa", "cbaaaaa")), ("aab", ("aaaacbaa", "aaaacbaaa")), ("aa", ("aaaacbaa", "aaaacbaaa")),
        ("b", ("ba", "baa")), ("b", ("ba", "baa")), ("aabb", ("aaabb", "aaabba")), ("b", ("ba", "baa")),
        ("bacac", ("a", "aaa")), ("bacac", ("a", "aaa")), ("c", ("a", "aaa")), ("c", ("a", "aaa")),
    ]


def test_composite_error_walks_moves_in_name_order():
    """The NotFunctionalError of a 13-state composite, states q0 to q12,
    composed with an input: the word and outputs come from the breadth-first
    walk over tied moves in name order, where q10 < q2, as when states were
    named while built."""
    rnd = random.Random(6)
    alphabet, states = rnd.choice(("ab", "abc")), rnd.randint(4, 6)
    x, y = random_machine(rnd, alphabet, states, True), random_machine(rnd, alphabet, states, True)
    c = td.compose(x, y)
    assert len(c.delta) == 13
    with pytest.raises(NotFunctionalError) as err:
        td.compose(c, x)
    assert (err.value.word, err.value.outputs) == ("bbabbbbbb", ("bbbababababaa", "bbbabababababb"))

def nth(n: int) -> td.Transducer:
    """The identity on words over ab whose n-th letter from the end is a:
    n + 1 states, one guessing move, and a domain DFA of 2^n states."""
    trans = {("p0", "a"): {("a", "p0"), ("a", "p1")}, ("p0", "b"): {("b", "p0")}}
    trans.update({(f"p{i}", a): {(a, f"p{i + 1}")} for i in range(1, n) for a in AL})
    return td.from_names([f"p{i}" for i in range(n + 1)], AL, "p0", trans, {f"p{n}": ""})


def test_built_states_are_bounded():
    """D and R of nth(11) have 2^11 = MAX_ELEMENTS states and are built;
    those of nth(20) are refused as soon as the count passes the limit."""
    assert len(td.domain_transducer(nth(11)).delta) == len(td.range_transducer(nth(11)).delta) == td.MAX_ELEMENTS
    for build in (td.domain_transducer, td.range_transducer, td.antidomain):
        start = time.perf_counter()
        op = "range_transducer" if build is td.range_transducer else "domain_transducer"
        with pytest.raises(ValueError, match=f"^{op} reaches 2050 states, over the limit MAX_ELEMENTS = 2048$"):
            build(nth(20))
        assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError, match=r"^compose reaches 20\d\d states, over the limit MAX_ELEMENTS = 2048$"):
        td.compose(nth(20), td.antidomain(nth(11)))
