"""Direct-evaluation checks for concrete partial functions."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import swap_const_functions
from pfdual import pfun
from pfdual.algebra import FinAlgebra
from pfdual.errors import InconsistencyError, NotClosedError
from pfdual.pfun import (
    Base,
    PFunc,
    as_abstract,
    close_under_ops,
    enumerate_all,
    graph_key,
)


@pytest.fixture(scope="module")
def fn():
    return swap_const_functions()


class TestOperations:
    def test_compose(self, fn):
        assert fn["s"].compose(fn["c"]) == fn["c"]
        assert fn["c"].compose(fn["s"]) == fn["0"]
        for f in fn.values():
            assert f.compose(fn["0"]) == fn["0"]

    def test_antidomain(self, fn):
        assert fn["s"].antidomain() == fn["e3"]
        assert fn["0"].antidomain() == fn["1"]
        assert fn["1"].antidomain() == fn["0"]

    def test_range(self, fn):
        assert fn["c"].range() == fn["e3"]
        assert fn["0"].range() == fn["0"]
        assert fn["s3"].range() == fn["1"]

    def test_pref_union(self, fn):
        assert fn["s"].pref_union(fn["e3"]) == fn["s3"]
        for f in fn.values():
            assert f.pref_union(fn["0"]) == f
            assert fn["0"].pref_union(f) == f
        # first operand wins on the shared domain
        assert fn["c"].pref_union(fn["s"]) == fn["c"]

    def test_domain_leq_compatible_join(self, fn):
        assert fn["c"].domain() == fn["e12"]
        assert fn["e12"].leq(fn["1"])
        assert not fn["s"].compatible(fn["c"])
        assert fn["e12"].compatible(fn["e3"]) and fn["e12"].pref_union(fn["e3"]) == fn["1"]

    def test_order_and_iteration(self, fn):
        assert fn["e12"] <= fn["1"] and fn["0"] <= fn["s"]
        assert not fn["1"] <= fn["e12"] and not fn["s"] <= fn["c"]
        assert list(Base(("x", 2, "y"))) == ["x", 2, "y"]

    def test_mismatched_bases_rejected(self, fn):
        other = PFunc.identity(Base(("x",)))
        with pytest.raises(ValueError):
            fn["s"].compose(other)
        with pytest.raises(ValueError):
            fn["s"].pref_union(other)


class TestEnumeration:
    @pytest.mark.parametrize("points,count", [((), 1), (("x",), 2), (("x", "y"), 9)])
    def test_counts(self, points, count):
        assert len(enumerate_all(Base(points))) == count

    def test_cap(self):
        with pytest.raises(ValueError, match="7776 functions exceed the limit MAX_ELEMENTS = 2048"):
            enumerate_all(Base((1, 2, 3, 4, 5)))

    def test_deterministic_and_duplicate_free(self):
        base = Base(("x", "y"))
        fs = enumerate_all(base)
        assert fs == enumerate_all(base)
        assert len(set(fs)) == len(fs)


class TestClosure:
    def test_swap_const_generators(self, fn):
        closed = close_under_ops([fn["s"], fn["c"], fn["1"]])
        assert set(closed) == set(fn.values())

    def test_swap_generators(self, fn):
        closed = close_under_ops([fn["s"], fn["1"]])
        assert set(closed) == {fn[n] for n in ("0", "e12", "e3", "1", "s", "s3")}

    def test_requires_a_generator(self):
        with pytest.raises(ValueError):
            close_under_ops([])

    def test_zero_always_present(self, fn):
        for g in fn.values():
            assert fn["0"] in close_under_ops([g])

    def test_matches_the_reference(self):
        """1-3 generators on 0-3 points, one on 4 points: the reference
        takes seconds on a closure that reaches all 625 functions."""
        rnd = random.Random(31)
        sizes = set()
        for points in range(5):
            fs = enumerate_all(Base(tuple(range(points))))
            for _ in range(10 if points else 3):
                gens = [rnd.choice(fs) for _ in range(rnd.randint(1, 3 if points < 4 else 1))]
                closed = close_under_ops(gens)
                assert closed == reference_close_under_ops(gens)
                sizes.add(len(closed))
        assert len(sizes) >= 10

    def test_builds_a_pfunc_only_per_result(self, monkeypatch):
        """The closure works on encoded graphs: it validates the generators
        and the functions it returns, and builds no PFunc in between."""
        base = Base((0, 1, 2))
        gens = [PFunc.from_pairs(base, g) for g in ({0: 1, 1: 2, 2: 0}, {0: 0, 1: 0}, {0: 1, 1: 1})]
        calls = []
        post_init = PFunc.__post_init__

        def counted(self):
            calls.append(self.graph)
            post_init(self)

        monkeypatch.setattr(PFunc, "__post_init__", counted)
        closed = close_under_ops(gens)
        assert len(closed) == 64  # the full algebra on 3 points
        assert len(calls) <= len(gens) + len(closed)


class TestAsAbstract:
    def test_tables_follow_evaluation(self, fn):
        alg, labeling = as_abstract(fn.values(), {f: n for n, f in fn.items()})
        idx = {f: i for i, f in enumerate(labeling)}
        assert alg.comp(idx[fn["s"]], idx[fn["s"]]) == idx[fn["e12"]]
        for f in labeling:
            for g in labeling:
                assert labeling[alg.comp(idx[f], idx[g])] == f.compose(g)
                assert labeling[alg.pref(idx[f], idx[g])] == f.pref_union(g)
            assert labeling[alg.anti(idx[f])] == f.antidomain()
            assert labeling[alg.rng(idx[f])] == f.range()

    def test_singleton_empty_function(self):
        # only closed on the empty base, where the empty function is the identity
        alg, _ = as_abstract([PFunc.empty(Base(()))])
        assert alg.size == 1
        assert alg.comp(0, 0) == alg.anti(0) == alg.rng(0) == alg.pref(0, 0) == 0

    def test_not_closed_reports_operation(self, fn):
        with pytest.raises(NotClosedError) as err:
            as_abstract([fn["s"], fn["1"]])
        assert err.value.op in ("compose", "antidomain", "range", "pref_union")

    @pytest.mark.parametrize("size", [0, 1, 2, 3])
    def test_tables_match_pfunc_operations(self, size):
        fs = enumerate_all(Base(tuple(range(size))))
        alg, labeling = as_abstract(fs)
        assert list(labeling) == sorted(fs, key=graph_key)
        for i, f in enumerate(labeling):
            assert labeling[alg.anti(i)] == f.antidomain() and labeling[alg.rng(i)] == f.range()
            for j, g in enumerate(labeling):
                assert labeling[alg.comp(i, j)] == f.compose(g)
                assert labeling[alg.pref(i, j)] == f.pref_union(g)

    def test_not_closed_names_the_first_missing_result(self):
        """The error is the first one met by evaluating PFuncs table by
        table: compose row by row, then antidomain, range and pref_union."""
        base = Base((1, 2, 3))
        fs = enumerate_all(base)
        rnd = random.Random(4)
        cases = []
        for _ in range(30):  # closed sets less one element
            closed = close_under_ops(rnd.sample(fs, rnd.randint(1, 2)))
            drop = rnd.choice(closed)
            cases.append([f for f in closed if f != drop] or closed)
        # closed under compose and antidomain, but not under range: 1>2 has range {2}
        cases.append([PFunc.from_pairs(base, g) for g in ({}, {1: 1, 2: 2, 3: 3}, {1: 2}, {1: 1}, {2: 2, 3: 3})])
        ops = set()
        for elems in cases:
            members = set(elems)
            elems = sorted(members, key=graph_key)
            results = itertools.chain(
                (("compose", (f, g), f.compose(g)) for f in elems for g in elems),
                (("antidomain", (f,), f.antidomain()) for f in elems),
                (("range", (f,), f.range()) for f in elems),
                (("pref_union", (f, g), f.pref_union(g)) for f in elems for g in elems),
            )
            expected = next((r for r in results if r[2] not in members), None)
            if expected is None:
                as_abstract(elems)
                continue
            with pytest.raises(NotClosedError) as err:
                as_abstract(elems)
            assert (err.value.op, err.value.operands, err.value.result) == expected
            ops.add(expected[0])
        assert ops == {"compose", "antidomain", "range", "pref_union"}


def reference_close_under_ops(gens):
    """close_under_ops by PFunc evaluation: each new function is combined
    with everything found so far, in both orders, until none is new."""
    closed = set(gens)
    frontier = list(closed)
    while frontier:
        new = []
        current = list(closed)
        for f in frontier:
            for out in (f.antidomain(), f.range()):
                if out not in closed:
                    closed.add(out)
                    new.append(out)
            for g in current:
                for out in (f.compose(g), g.compose(f), f.pref_union(g), g.pref_union(f)):
                    if out not in closed:
                        closed.add(out)
                        new.append(out)
        frontier = new
    return sorted(closed, key=graph_key)


def reference_as_abstract(elems):
    """as_abstract looking each table entry up on its own, in row-major
    order: compose, antidomain, range, then pref_union."""
    ordered = sorted(set(elems), key=graph_key)
    index = {f: i for i, f in enumerate(ordered)}

    def look(op, operands, result):
        if result not in index:
            raise NotClosedError(op, operands, result)
        return index[result]

    return FinAlgebra.from_tables(
        [[look("compose", (f, g), f.compose(g)) for g in ordered] for f in ordered],
        [look("antidomain", (f,), f.antidomain()) for f in ordered],
        [look("range", (f,), f.range()) for f in ordered],
        [[look("pref_union", (f, g), f.pref_union(g)) for g in ordered] for f in ordered],
    )


def outcome(build, elems):
    """The four tables build makes of elems, or the NotClosedError it raises."""
    try:
        a = build(elems)
    except NotClosedError as e:
        return e.op, e.operands, e.result
    return a.compose_t, a.anti_t, a.range_t, a.pref_t


class TestAsAbstractOracle:
    """as_abstract maps whole rows at once; the per-entry lookup above is
    its reference, on closed sets and on each of them less one element."""

    @staticmethod
    def closed_sets():
        rnd = random.Random(14)
        for points in (2, 3):
            fs = enumerate_all(Base(tuple(range(points))))
            yield fs
            for _ in range(6):
                yield close_under_ops(rnd.sample(fs, rnd.randint(1, 3)))

    def test_tables_and_errors_match_the_reference(self):
        fast = lambda elems: as_abstract(elems)[0]
        errors = set()
        for closed in self.closed_sets():
            assert outcome(fast, closed) == outcome(reference_as_abstract, closed)
            for drop in closed[1:]:
                elems = [f for f in closed if f != drop]
                expected = outcome(reference_as_abstract, elems)
                assert outcome(fast, elems) == expected
                errors.add(expected[0])
        # closed under compose and antidomain, but not under range: 1>2 has range {2}
        base = Base((1, 2, 3))
        elems = [PFunc.from_pairs(base, g) for g in ({}, {1: 1, 2: 2, 3: 3}, {1: 2}, {1: 1}, {2: 2, 3: 3})]
        expected = outcome(reference_as_abstract, elems)
        assert outcome(fast, elems) == expected and expected[0] == "range"
        assert {"compose", "antidomain", "pref_union"} <= errors

    def test_closed_sets_tabled_from_several_generators(self):
        # 100 to 200 elements on 4 points: as_abstract works out several
        # generator rows and gathers the rest, and a set less one element
        # mostly has its first missing result in a gathered row
        rnd = random.Random(22)
        fs = enumerate_all(Base(tuple(range(4))))
        fast = lambda elems: as_abstract(elems)[0]
        sizes = []
        while len(sizes) < 2:
            closed = close_under_ops(rnd.sample(fs, 2))
            if not 100 <= len(closed) <= 200:
                continue
            sizes.append(len(closed))
            assert outcome(fast, closed) == outcome(reference_as_abstract, closed)
            for drop in rnd.sample(closed, 8):
                elems = [f for f in closed if f != drop]
                expected = outcome(reference_as_abstract, elems)
                assert outcome(fast, elems) == expected and expected[0] == "compose"
        assert sizes == [128, 180]


def gathered(elems, row: type):
    """_gathered_tables on elems with rows of type row, read as tuples, or
    KeyError."""
    ordered = sorted(set(elems), key=graph_key)
    k = len(ordered[0].base)
    graphs = [tuple(k if v is None else v for v in f.graph) for f in ordered]
    try:
        C, A, R, P = pfun._gathered_tables(graphs, {g: i for i, g in enumerate(graphs)}, k, row)
    except KeyError:
        return KeyError
    assert {type(r) for r in (*C, *P)} == {row}
    return tuple(map(tuple, C)), tuple(A), tuple(R), tuple(map(tuple, P))


class TestByteRows:
    """as_abstract gathers bytes rows for at most BYTE_WIDTH functions.  The
    tuple rows, which it gathers above that width, are the oracle: both
    give the same tables, or both meet a result outside the set."""

    def test_closed_sets_and_each_less_one_element(self):
        rnd = random.Random(36)
        fs3 = enumerate_all(Base((1, 2, 3)))
        sets = [enumerate_all(Base(("x", "y")))]
        sets += [close_under_ops(rnd.sample(fs3, rnd.randint(1, 3))) for _ in range(8)]
        outside = 0
        for closed in sets:
            tables = gathered(closed, bytes)
            assert tables == gathered(closed, tuple)
            assert tables[0] == tuple(map(tuple, as_abstract(closed)[0].compose_t))
            for drop in closed[1:]:
                elems = [f for f in closed if f != drop]
                tables = gathered(elems, bytes)
                assert tables == gathered(elems, tuple)
                outside += tables is KeyError
        assert outside > 100

    def test_a_set_of_about_two_hundred_functions_on_four_points(self):
        rnd = random.Random(22)
        fs = enumerate_all(Base(tuple(range(4))))
        closed = next(c for c in (close_under_ops(rnd.sample(fs, 2)) for _ in range(100)) if 150 < len(c) <= 256)
        assert len(closed) == 180 and gathered(closed, bytes) == gathered(closed, tuple)

    def test_row_gathers_that_miss_a_result_the_direct_kernel_finds(self, monkeypatch):
        """A row gather that fails on a closed set is an internal fault, not
        a set that is not closed."""
        def lookup_nothing(graphs, index, k, row):
            return gather(graphs, {}, k, row)

        gather = pfun._gathered_tables
        monkeypatch.setattr(pfun, "_gathered_tables", lookup_nothing)
        with pytest.raises(InconsistencyError) as err:
            as_abstract(enumerate_all(Base(("x", "y"))))
        assert str(err.value) == "as_abstract: the row gathers met a result that the direct kernel finds in the set"


# --- the ten laws, evaluated directly on graphs -----------------------------


def assert_laws(f: PFunc, g: PFunc, h: PFunc) -> None:
    base = f.base
    ident = PFunc.identity(base)
    dom_f = f.domain()
    assert f.compose(g.compose(h)) == f.compose(g).compose(h)
    assert f.antidomain().compose(f) == g.antidomain().compose(g)
    assert ident.compose(f) == f
    assert f.compose(g.antidomain()) == f.compose(g).antidomain().compose(f)
    if dom_f.compose(g) == dom_f.compose(h) and f.antidomain().compose(g) == f.antidomain().compose(h):
        assert g == h
    rng_f = f.range()
    assert rng_f.domain() == rng_f
    assert f.compose(rng_f) == f
    if f.compose(g) == f.compose(h):
        assert rng_f.compose(g) == rng_f.compose(h)
    assert dom_f.compose(f.pref_union(g)) == f
    assert f.antidomain().compose(f.pref_union(g)) == f.antidomain().compose(g)


@pytest.mark.parametrize("size", [0, 1, 2])
def test_laws_exhaustive_on_small_bases(size):
    base = Base(tuple(range(size)))
    fs = enumerate_all(base)
    for f, g, h in itertools.product(fs, repeat=3):
        assert_laws(f, g, h)


def test_laws_exhaustive_on_three_point_base():
    """Exhaustive over all 64^3 triples, through tables built by evaluating
    every operation pair directly on graphs."""
    from pfdual.algebra import check_axioms

    algebra, _ = as_abstract(enumerate_all(Base((1, 2, 3))))
    assert algebra.size == 64
    assert check_axioms(algebra).passed


def _pfuncs(draw, base):
    n = len(base)
    graph = tuple(
        draw(st.one_of(st.none(), st.integers(min_value=0, max_value=n - 1))) if n else None
        for _ in range(n)
    )
    return PFunc(base, graph if n else ())


@st.composite
def pfunc_triples(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    base = Base(tuple(range(n)))
    return tuple(_pfuncs(draw, base) for _ in range(3))


@given(pfunc_triples())
@settings(max_examples=300, deadline=None)
def test_laws_random_triples(triple):
    assert_laws(*triple)


@given(pfunc_triples())
@settings(max_examples=200, deadline=None)
def test_pref_union_associative(triple):
    f, g, h = triple
    assert f.pref_union(g).pref_union(h) == f.pref_union(g.pref_union(h))


def test_pref_union_not_commutative_on_two_points():
    fs = enumerate_all(Base(("x", "y")))
    assert any(f.pref_union(g) != g.pref_union(f) for f in fs for g in fs)


@given(pfunc_triples())
@settings(max_examples=200, deadline=None)
def test_order_agrees_with_graph_inclusion(triple):
    f, g, _ = triple
    assert f.leq(g) == (f.domain().compose(g) == f)


@given(pfunc_triples())
@settings(max_examples=200, deadline=None)
def test_compatible_pairs_join_both_ways(triple):
    f, g, _ = triple
    if f.compatible(g):
        assert f.pref_union(g) == g.pref_union(f)
