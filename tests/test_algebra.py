"""Table-level checks: derived constants, the axiom checker, the domain
Boolean algebra, joins, and homomorphism validation."""

from __future__ import annotations

import ast
import itertools
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import pytest

from pfdual import algebra as alg
from pfdual import dualize
from pfdual import filters as flt
from pfdual import formats as fmt
from pfdual.bitsets import mask_of
from pfdual.errors import NoZeroError
from pfdual.pfun import Base, PFunc, as_abstract, close_under_ops, enumerate_all

from conftest import compose_homs


def mutate_compose(a: alg.FinAlgebra, row: int, col: int, value: int) -> alg.FinAlgebra:
    table = [list(r) for r in a.compose_t]
    table[row][col] = value
    return alg.FinAlgebra.from_tables(table, a.anti_t, a.range_t, a.pref_t, a.names)


def mutate_vector(a: alg.FinAlgebra, which: str, pos: int, value: int) -> alg.FinAlgebra:
    anti, rng = list(a.anti_t), list(a.range_t)
    (anti if which == "anti" else rng)[pos] = value
    return alg.FinAlgebra.from_tables(a.compose_t, anti, rng, a.pref_t, a.names)


def mutate_pref(a: alg.FinAlgebra, row: int, col: int, value: int) -> alg.FinAlgebra:
    table = [list(r) for r in a.pref_t]
    table[row][col] = value
    return alg.FinAlgebra.from_tables(a.compose_t, a.anti_t, a.range_t, table, a.names)


class TestDerivedConstants:
    def test_swap_const(self, swap_const):
        con = alg.derive_constants(swap_const)
        i = swap_const.index_of
        assert con.zero == i("0") and con.ident == i("1")
        assert con.dom_t[i("c")] == i("e12")
        assert con.leq(i("e12"), i("1")) and not con.leq(i("1"), i("e12"))
        assert con.leq(i("s"), i("s3"))

    def test_one_element(self, one_elem):
        con = alg.derive_constants(one_elem)
        assert con.zero == con.ident == 0

    def test_swap_subalgebra(self, swap_only):
        con = alg.derive_constants(swap_only)
        assert swap_only.names[con.zero] == "0" and swap_only.names[con.ident] == "1"

    def test_equal_algebras_share_one_cache_entry(self, swap_const):
        # fresh names keep this pair apart from the algebras other tests use
        names = tuple(f"h{k}" for k in range(swap_const.size))
        a, b = (
            alg.FinAlgebra.from_tables(swap_const.compose_t, swap_const.anti_t, swap_const.range_t,
                                       swap_const.pref_t, names)
            for _ in range(2)
        )
        assert a is not b and a == b and hash(a) == hash(b)
        assert alg.derive_constants(b) is alg.derive_constants(a)
        assert dualize.dual_of(b) is dualize.dual_of(a)

    def test_equal_files_dualize_once(self, swap_const, tmp_path, monkeypatch):
        # two loads of one file are equal algebras, and dualizing both builds one dual
        names = [f"f{k}" for k in range(swap_const.size)]
        text = fmt.write_algebra(alg.FinAlgebra.from_tables(
            swap_const.compose_t, swap_const.anti_t, swap_const.range_t, swap_const.pref_t, names))
        for name in ("a.json", "b.json"):
            (tmp_path / name).write_text(text)
        calls = []
        build = dualize.pf_object
        monkeypatch.setattr(dualize, "pf_object", lambda x: calls.append(x) or build(x))
        a, b = (fmt.load_algebra(tmp_path / name) for name in ("a.json", "b.json"))
        assert a is not b and dualize.dual_of(b) is dualize.dual_of(a)
        assert len(calls) == 1

    def test_no_zero_error(self, swap_const):
        i = swap_const.index_of
        broken = mutate_vector(swap_const, "anti", i("s"), i("1"))
        # now A(s)*s = 1*s = s differs from A(0)*0 = 0
        with pytest.raises(NoZeroError):
            alg.derive_constants(broken)

    @staticmethod
    def reference_constants(a: alg.FinAlgebra) -> alg.Constants:
        """derive_constants reading each order pair off its own table entry."""
        n, C, A = a.size, a.compose_t, a.anti_t
        for x in range(1, n):
            if C[A[x]][x] != C[A[0]][0]:
                raise NoZeroError((0, x))
        zero = C[A[0]][0]
        dom_t = tuple(A[A[x]] for x in range(n))
        up = tuple(mask_of(b for b in range(n) if C[dom_t[x]][b] == x) for x in range(n))
        down = tuple(mask_of(x for x in range(n) if up[x] >> b & 1) for b in range(n))
        return alg.Constants(zero=zero, ident=A[zero], dom_t=dom_t, up=up, down=down)

    @staticmethod
    def outcome(derive, a: alg.FinAlgebra):
        try:
            return derive(a)
        except NoZeroError as e:
            return e.witness

    def test_matches_reference_on_corpus_and_every_mutation(self, corpus_algebras, full2):
        derive = alg.derive_constants.__wrapped__  # keep the mutations out of the cache
        for a in corpus_algebras:
            assert derive(a) == self.reference_constants(a)
        kinds = set()
        for m in single_entry_mutations(full2):
            expected = self.outcome(self.reference_constants, m)
            assert self.outcome(derive, m) == expected
            kinds.add(type(expected))
        assert kinds == {alg.Constants, tuple}

    @pytest.mark.parametrize("table", ["compose", "pref", "antidomain", "range"])
    def test_entries_out_of_range_are_refused(self, swap_const, table):
        mutate = {
            "compose": lambda v: mutate_compose(swap_const, 2, 3, v),
            "pref": lambda v: mutate_pref(swap_const, 2, 3, v),
            "antidomain": lambda v: mutate_vector(swap_const, "anti", 3, v),
            "range": lambda v: mutate_vector(swap_const, "range", 3, v),
        }[table]
        for bad in (-1, swap_const.size):
            with pytest.raises(ValueError) as err:
                mutate(bad)
            assert str(err.value) == f"{table} table entry out of range"


class TestCheckAxioms:
    def test_swap_const_passes(self, swap_const):
        report = alg.check_axioms(swap_const)
        assert report.passed
        assert [r.index for r in report.results] == list(range(1, 11))

    def test_corpus_passes(self, corpus_algebras):
        for a in corpus_algebras:
            assert alg.check_axioms(a).passed

    def test_range_mutation_breaks_axiom_7(self, swap_const):
        i = swap_const.index_of
        mutated = mutate_vector(swap_const, "range", i("s"), i("0"))
        r = alg.check_axioms(mutated).result(7)
        assert not r.passed and r.witness == (i("s"),)
        assert not alg.axiom_instance_holds(mutated, 7, r.witness)

    def test_pref_mutation_breaks_axiom_9(self, swap_const):
        i = swap_const.index_of
        mutated = mutate_pref(swap_const, i("s"), i("c"), i("0"))
        r = alg.check_axioms(mutated).result(9)
        assert not r.passed and r.witness == (i("s"), i("c"))
        assert not alg.axiom_instance_holds(mutated, 9, r.witness)

    def test_axiom_2_failure_subsumes_no_zero(self, swap_const):
        i = swap_const.index_of
        broken = mutate_vector(swap_const, "anti", i("s"), i("1"))
        report = alg.check_axioms(broken)
        r2, r3 = report.result(2), report.result(3)
        assert not r2.passed and r2.witness is not None
        assert not r3.passed and "identity constant undefined" in r3.detail

    def test_witness_is_lexicographically_first(self, swap_const):
        i = swap_const.index_of
        mutated = mutate_compose(swap_const, i("1"), i("1"), i("0"))
        r = alg.check_axioms(mutated).result(1)
        assert not r.passed
        a, b, c = r.witness
        for a2, b2, c2 in itertools.product(range(swap_const.size), repeat=3):
            if (a2, b2, c2) < (a, b, c):
                assert alg.axiom_instance_holds(mutated, 1, (a2, b2, c2))
            else:
                break

    def test_soundness_every_closed_set_passes(self):
        base = Base(("x", "y"))
        funcs = enumerate_all(base)
        seen = set()
        for bits in range(1, 1 << len(funcs)):
            gens = [funcs[k] for k in range(len(funcs)) if bits >> k & 1]
            closed = frozenset(close_under_ops(gens))
            if closed in seen:
                continue
            seen.add(closed)
            a, _ = as_abstract(closed)
            assert alg.check_axioms(a).passed
        assert len(seen) > 1


def loop_first_nonassociative(C) -> tuple[int, int, int] | None:
    """The lexicographically least (a, b, c) with (a*b)*c != a*(b*c), by
    the plain triple loop: the reference for alg._first_nonassociative."""
    rng_n = range(len(C))
    for a in rng_n:
        Ca = C[a]
        for b in rng_n:
            Cab, Cb = C[Ca[b]], C[b]
            for c in rng_n:
                if Cab[c] != Ca[Cb[c]]:
                    return (a, b, c)
    return None


def cubic_witnesses(a: alg.FinAlgebra) -> dict:
    """Reference for axioms 1, 5 and 8: the first failing triple of each in
    lexicographic order, by the plain cubic loops."""
    n = a.size
    C, A, R = a.compose_t, a.anti_t, a.range_t
    rng_n = range(n)

    def partition_cancel():
        for x in rng_n:
            Cd, Cn = C[A[A[x]]], C[A[x]]
            for y in rng_n:
                dy, ny = Cd[y], Cn[y]
                for z in rng_n:
                    if y != z and Cd[z] == dy and Cn[z] == ny:
                        return (x, y, z)
        return None

    def range_cancel():
        for x in rng_n:
            Cx, Cr = C[x], C[R[x]]
            for y in rng_n:
                xy, ry = Cx[y], Cr[y]
                for z in rng_n:
                    if Cx[z] == xy and Cr[z] != ry:
                        return (x, y, z)
        return None

    return {1: loop_first_nonassociative(C), 5: partition_cancel(), 8: range_cancel()}


ARITY = {1: 3, 2: 2, 3: 1, 4: 2, 5: 3, 6: 1, 7: 1, 8: 3, 9: 2, 10: 2}


def reference_report(a: alg.FinAlgebra) -> alg.AxiomReport:
    """The report of plain loops: the first failing tuple of each axiom in
    lexicographic order, by the cubic loops for axioms 1, 5 and 8 and by
    evaluating every instance for the others."""
    witnesses = cubic_witnesses(a)
    for index in (2, 3, 4, 6, 7, 9, 10):
        if index == 3 and witnesses[2] is not None:
            continue  # no zero, so no identity constant
        instances = itertools.product(range(a.size), repeat=ARITY[index])
        witnesses[index] = next((w for w in instances if not alg.axiom_instance_holds(a, index, w)), None)
    results = [alg.AxiomCheck(i, witnesses.get(i)) for i in range(1, 11)]
    if witnesses[2] is not None:
        results[2] = alg.AxiomCheck(3, witnesses[2], "identity constant undefined because A(a)*a is not constant")
    return alg.AxiomReport(tuple(results))


def single_entry_mutations(a: alg.FinAlgebra):
    """Every table that differs from a's in exactly one entry."""
    n = a.size
    for r, c, v in itertools.product(range(n), repeat=3):
        if v != a.compose_t[r][c]:
            yield mutate_compose(a, r, c, v)
        if v != a.pref_t[r][c]:
            yield mutate_pref(a, r, c, v)
    for which, table in (("anti", a.anti_t), ("range", a.range_t)):
        for r, v in itertools.product(range(n), repeat=2):
            if v != table[r]:
                yield mutate_vector(a, which, r, v)


def right_zero(n: int) -> alg.FinAlgebra:
    """x*y = y: associative, and no element is a product of others."""
    rows = [list(range(n))] * n
    return alg.FinAlgebra.from_tables(rows, [0] * n, [0] * n, rows)


@pytest.fixture(scope="module")
def full3() -> alg.FinAlgebra:
    return as_abstract(enumerate_all(Base((1, 2, 3))))[0]


class TestAxiomOracle:
    """check_axioms reports what plain loops over every instance report."""

    def assert_matches(self, a: alg.FinAlgebra) -> None:
        assert alg.check_axioms.__wrapped__(a) == reference_report(a)

    def test_corpus_and_full_algebras(self, corpus_algebras, full3):
        for a in (*corpus_algebras, full3):
            self.assert_matches(a)
            assert alg.check_axioms(a).passed

    def test_every_mutation_on_two_points(self, full2):
        failed = {index: 0 for index in (1, 5, 8)}
        count = 0
        for m in single_entry_mutations(full2):
            report = alg.check_axioms.__wrapped__(m)
            assert report == reference_report(m)
            assert not any(alg.axiom_instance_holds(m, r.index, r.witness) for r in report.failures())
            for index in failed:
                failed[index] += not report.result(index).passed
            count += 1
        assert count == 1440
        assert all(failed.values())  # each fast path met failing tables

    def test_seeded_mutations_on_three_points(self, full3):
        rnd = random.Random(8)
        mutations = []
        n = full3.size
        for _ in range(20):
            r, c = rnd.randrange(n), rnd.randrange(n)
            kind = rnd.choice(("compose", "pref", "anti", "range"))
            if kind == "compose":
                v = rnd.choice([v for v in range(n) if v != full3.compose_t[r][c]])
                mutations.append(mutate_compose(full3, r, c, v))
            elif kind == "pref":
                v = rnd.choice([v for v in range(n) if v != full3.pref_t[r][c]])
                mutations.append(mutate_pref(full3, r, c, v))
            else:
                table = full3.anti_t if kind == "anti" else full3.range_t
                v = rnd.choice([v for v in range(n) if v != table[r]])
                mutations.append(mutate_vector(full3, kind, r, v))
        for m in mutations:
            self.assert_matches(m)

    def test_axiom_8_matches_the_cubic_loop(self, full3):
        """Axiom 8 names the cubic loop's witness on seeded compose and range
        mutations: where axioms 1 and 7 hold, by the injectivity test and a
        scan of the a that fails it, and otherwise by the scan alone."""
        rnd = random.Random(12)
        n = full3.size
        seen = Counter()
        for _ in range(60):
            r, c = rnd.randrange(n), rnd.randrange(n)
            if rnd.random() < 0.5:
                m = mutate_compose(full3, r, c, rnd.choice([v for v in range(n) if v != full3.compose_t[r][c]]))
            else:
                m = mutate_vector(full3, "range", r, rnd.choice([v for v in range(n) if v != full3.range_t[r]]))
            report = alg.check_axioms.__wrapped__(m)
            assert report.result(8).witness == cubic_witnesses(m)[8]
            seen[report.result(1).passed, report.result(7).passed, report.result(8).passed] += 1
        # axiom 8 fails beside axioms 1 and 7, beside a failing 1 and beside a failing 7
        assert seen[True, True, False] and seen[False, True, False] and seen[True, False, False]

    def test_first_nonassociative_matches_the_triple_loop(self, corpus_algebras, full3):
        # one entry of each compose table changed, so the least failing
        # triple lies anywhere from the first row to the last
        rnd = random.Random(22)
        found = 0
        for a in (*corpus_algebras, full3):
            assert alg._first_nonassociative(a.compose_t) is None
            n = a.size
            for _ in range(10 if n > 1 else 0):
                r, c = rnd.randrange(n), rnd.randrange(n)
                m = mutate_compose(a, r, c, rnd.choice([v for v in range(n) if v != a.compose_t[r][c]]))
                expected = loop_first_nonassociative(m.compose_t)
                assert alg._first_nonassociative(m.compose_t) == expected
                found += expected is not None
        assert found == 50  # each change here breaks associativity

    def test_right_zero_needs_every_generator(self):
        a = right_zero(5)
        assert sorted(alg.generating_set(a.compose_t)) == list(range(5))
        self.assert_matches(a)
        assert alg.check_axioms(a).result(1).passed
        for r, c, v in itertools.product(range(4), repeat=3):
            if v != c:
                self.assert_matches(mutate_compose(right_zero(4), r, c, v))

    def test_generating_set_reaches_every_element(self, corpus_algebras, full3):
        for a in (*corpus_algebras, full3):
            C = a.compose_t
            gens = alg.generating_set(C)
            reached = set(gens)
            frontier = list(gens)
            while frontier:
                products = {C[s][g] for s in frontier for g in gens} - reached
                reached |= products
                frontier = list(products)
            assert reached == set(range(a.size))
            assert len(gens) < a.size or a.size <= 2


class TestAxiomTable:
    """algebra.AXIOMS states each law once, for every caller."""

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_laws_hold_for_partial_functions(self, k):
        base = Base(tuple(range(k)))
        funcs = enumerate_all(base)
        ops = SimpleNamespace(comp=PFunc.compose, A=PFunc.antidomain, D=PFunc.domain, R=PFunc.range,
                              pref=PFunc.pref_union, ident=PFunc.identity(base))
        for ax in alg.AXIOMS.values():
            for operands in itertools.product(funcs, repeat=ax.arity):
                premises, (lhs, rhs) = ax.law(ops, *operands)
                assert any(p != q for p, q in premises) or lhs == rhs, (ax.index, operands)

    def test_statements(self):
        assert {i: (ax.arity, ax.statement) for i, ax in alg.AXIOMS.items()} == {
            1: (3, "a*(b*c) = (a*b)*c"),
            2: (2, "A(a)*a = A(b)*b"),
            3: (1, "id*a = a"),
            4: (2, "a*A(b) = A(a*b)*a"),
            5: (3, "D(a)*b = D(a)*c and A(a)*b = A(a)*c  =>  b = c"),
            6: (1, "D(R(a)) = R(a)"),
            7: (1, "a*R(a) = a"),
            8: (3, "a*b = a*c  =>  R(a)*b = R(a)*c"),
            9: (2, "D(a)*(a|b) = a"),
            10: (2, "A(a)*(a|b) = A(a)*b"),
        }
        assert [i for i, ax in alg.AXIOMS.items() if not ax.equational] == [5, 8]

    def test_unknown_index_refused(self, swap_const):
        with pytest.raises(ValueError, match="unknown axiom index 11"):
            alg.axiom_instance_holds(swap_const, 11, (0,))


@dataclass(frozen=True)
class DomainSubalgebraReport:
    universe: tuple[int, ...]
    atoms: tuple[int, ...]
    bottom: int
    top: int


def domain_subalgebra(a: alg.FinAlgebra) -> DomainSubalgebraReport:
    """The domain elements, checked to form a Boolean algebra: meet is
    composition, complement is antidomain, join is override, bottom is the
    zero and top is the identity."""
    con = alg.derive_constants(a)
    universe = alg.domain_elements(a)
    uset = set(universe)
    C, anti, pref = a.compose_t, a.anti, a.pref
    assert con.zero in uset and con.ident in uset
    for x in universe:
        assert C[x][x] == x and anti(x) in uset and a.dom(x) == x
        assert C[x][anti(x)] == con.zero and pref(x, anti(x)) == con.ident
        for y in universe:
            assert C[x][y] in uset and pref(x, y) in uset
            assert C[x][y] == C[y][x] and pref(x, y) == pref(y, x)
            for z in universe:
                assert C[x][pref(y, z)] == pref(C[x][y], C[x][z]), (x, y, z)
    atoms = tuple(
        x for x in universe
        if x != con.zero and all(not con.leq(y, x) for y in universe if y not in (con.zero, x))
    )
    return DomainSubalgebraReport(universe=universe, atoms=atoms, bottom=con.zero, top=con.ident)


class TestDomainSubalgebra:
    def test_swap_const(self, swap_const):
        rep = domain_subalgebra(swap_const)
        names = {swap_const.names[x] for x in rep.universe}
        assert names == {"0", "e12", "e3", "1"}
        assert {swap_const.names[x] for x in rep.atoms} == {"e12", "e3"}
        assert swap_const.names[rep.bottom] == "0" and swap_const.names[rep.top] == "1"

    def test_one_element(self, one_elem):
        rep = domain_subalgebra(one_elem)
        assert rep.universe == (0,)

    def test_swap_subalgebra(self, swap_only):
        rep = domain_subalgebra(swap_only)
        assert {swap_only.names[x] for x in rep.universe} == {"0", "e12", "e3", "1"}

    def test_domain_element_predicate(self, swap_const):
        i = swap_const.index_of
        assert i("e12") in swap_const.anti_t
        assert i("s") not in swap_const.anti_t


class TestJoins:
    def test_join_examples(self, swap_const):
        i = swap_const.index_of
        assert alg.join(swap_const, i("e12"), i("e3")) == i("1")
        for a in range(swap_const.size):
            assert alg.join(swap_const, a, a) == a
        assert alg.join(swap_const, i("s"), i("c")) is None

    def test_in_class(self, swap_const, corpus_algebras):
        assert alg.in_class_A(swap_const)
        for a in corpus_algebras:
            assert alg.in_class_A(a)

    def test_compatible(self, swap_const):
        i = swap_const.index_of
        assert alg.compatible(swap_const, i("e12"), i("e3"))
        assert not alg.compatible(swap_const, i("s"), i("c"))

    def test_pref_join_round_trip(self, corpus_algebras):
        for a in corpus_algebras:
            assert alg.pref_from_join(a) == a.pref_t

    def test_join_from_pref(self, swap_const):
        i = swap_const.index_of
        table = alg.join_from_pref(swap_const)
        assert table[i("e12")][i("e3")] == i("1")
        assert table[i("s")][i("c")] is None
        for a in range(swap_const.size):
            for b in range(swap_const.size):
                assert table[a][b] == alg.join(swap_const, a, b)


class TestHomomorphisms:
    def test_inclusion_valid(self, incl_hom):
        assert alg.check_homomorphism(incl_hom)
        assert alg.preserves_joins(incl_hom)

    def test_identity_valid(self, swap_const):
        assert alg.check_homomorphism(alg.identity_hom(swap_const))

    def test_swap_to_constant_invalid(self, swap_only, swap_const):
        # send s to c, fix the domain elements: breaks s*s = e12 vs c*c = 0
        mapping = []
        for name in swap_only.names:
            mapping.append(swap_const.index_of({"s": "c", "s3": "c3"}.get(name, name)))
        h = alg.Homomorphism(swap_only, swap_const, tuple(mapping))
        assert not alg.check_homomorphism(h)

    def test_corpus_homs_preserve_joins(self, corpus_homs):
        for h in corpus_homs:
            assert alg.check_homomorphism(h)
            assert alg.preserves_joins(h)

    def test_compose_homs(self, incl_hom, swap_const_perm):
        _, iso = swap_const_perm
        both = compose_homs(incl_hom, iso)
        assert alg.check_homomorphism(both)

    def test_locally_proper_identity(self, swap_const):
        ok, witness = alg.check_locally_proper(alg.identity_hom(swap_const))
        assert ok and witness is None

    def test_locally_proper_one_element(self, one_elem):
        ok, _ = alg.check_locally_proper(alg.identity_hom(one_elem))
        assert ok

    def test_inclusion_not_locally_proper(self, incl_hom, swap_const):
        ok, witness = alg.check_locally_proper(incl_hom)
        assert not ok
        assert set(witness.element_names()) == {"c", "c3"}

    def test_proposition_isomorphism_property(self, corpus_homs):
        """Locally proper plus bijective on domain elements forces an
        isomorphism."""
        checked = 0
        for h in corpus_homs:
            proper, _ = alg.check_locally_proper(h)
            if not proper:
                continue
            src_dom = alg.domain_elements(h.source)
            tgt_dom = alg.domain_elements(h.target)
            image = [h(d) for d in src_dom]
            if len(set(image)) != len(src_dom) or set(image) != set(tgt_dom):
                continue
            checked += 1
            assert sorted(h.mapping) == list(range(h.target.size))
            inverse = [0] * h.target.size
            for a, v in enumerate(h.mapping):
                inverse[v] = a
            assert alg.check_homomorphism(alg.Homomorphism(h.target, h.source, tuple(inverse)))
        assert checked >= 3  # identities and the permuted copy at least


def reference_locally_proper(h: alg.Homomorphism):
    """check_locally_proper by the general filter calculus: pull back every
    prime filter of the target and test the inverse image for a prime
    filter of the source."""
    alg.require_representable(h.source)
    alg.require_representable(h.target)
    for p in flt.enumerate_prime_filters(h.target):
        inv = mask_of(a for a in range(h.source.size) if p.members >> h(a) & 1)
        fs = flt.FilterSet(h.source, inv)
        if not (inv and flt.is_filter(h.source, inv) and flt.is_prime(h.source, fs)):
            return False, p
    return True, None


def single_value_changes(h: alg.Homomorphism):
    """Every map that differs from h at exactly one source element."""
    for a, v in itertools.product(range(h.source.size), range(h.target.size)):
        if v != h(a):
            mapping = list(h.mapping)
            mapping[a] = v
            yield alg.Homomorphism(h.source, h.target, tuple(mapping))


class TestLocallyProperOracle:
    """The principal lookup of check_locally_proper gives the verdict and
    witness of the filter calculus, on homomorphisms and on any other map."""

    def assert_matches(self, h: alg.Homomorphism) -> bool:
        proper, witness = alg.check_locally_proper(h)
        ref_proper, ref_witness = reference_locally_proper(h)
        assert proper == ref_proper
        if ref_witness is None:
            assert witness is None
        else:
            assert witness.algebra is h.target and witness.members == ref_witness.members
        return proper

    def test_corpus(self, corpus_homs):
        verdicts = [self.assert_matches(h) for h in corpus_homs]
        assert any(verdicts) and not all(verdicts)

    def test_every_single_value_change_of_the_corpus(self, corpus_homs):
        verdicts = [self.assert_matches(m) for h in corpus_homs for m in single_value_changes(h)]
        assert len(verdicts) == 184

    def test_seeded_arbitrary_maps(self, swap_const, swap_only, one_elem, full2):
        algebras = (swap_const, swap_only, one_elem, full2)
        rnd = random.Random(11)
        verdicts, homs = [], 0
        for _ in range(2000):
            source, target = rnd.choice(algebras), rnd.choice(algebras)
            h = alg.Homomorphism(source, target, tuple(rnd.randrange(target.size) for _ in range(source.size)))
            verdicts.append(self.assert_matches(h))
            homs += alg.check_homomorphism(h)
        assert any(verdicts) and not all(verdicts)
        assert homs < len(verdicts)  # maps that are not homomorphisms are decided too


def reference_check_homomorphism(h: alg.Homomorphism) -> bool:
    """check_homomorphism as a loop over every element and pair."""
    src, tgt, m = h.source, h.target, h.mapping
    for a in range(src.size):
        if m[src.anti(a)] != tgt.anti(m[a]) or m[src.rng(a)] != tgt.rng(m[a]):
            return False
        for b in range(src.size):
            if m[src.comp(a, b)] != tgt.comp(m[a], m[b]) or m[src.pref(a, b)] != tgt.pref(m[a], m[b]):
                return False
    return True


def with_entry(a: alg.FinAlgebra, table: str, place: tuple[int, ...], value: int) -> alg.FinAlgebra:
    """a with one entry of one of its tables replaced."""
    tables = {"compose": [list(r) for r in a.compose_t], "anti": list(a.anti_t),
              "range": list(a.range_t), "pref": [list(r) for r in a.pref_t]}
    if len(place) == 2:
        tables[table][place[0]][place[1]] = value
    else:
        tables[table][place[0]] = value
    return alg.FinAlgebra.from_tables(tables["compose"], tables["anti"], tables["range"], tables["pref"], a.names)


class TestHomomorphismOracle:
    """The row comparison of check_homomorphism gives the verdict of the
    pairwise loop."""

    def assert_matches(self, h: alg.Homomorphism) -> bool:
        verdict = alg.check_homomorphism(h)
        assert verdict == reference_check_homomorphism(h)
        return verdict

    def test_corpus(self, corpus_homs):
        assert all(self.assert_matches(h) for h in corpus_homs)

    def test_every_single_value_change_of_the_corpus(self, corpus_homs):
        verdicts = [self.assert_matches(m) for h in corpus_homs for m in single_value_changes(h)]
        assert len(verdicts) == 184 and not any(verdicts)

    def test_seeded_arbitrary_maps(self, corpus_algebras):
        rnd = random.Random(13)
        verdicts, one_position = [], 0
        for _ in range(2000):
            source, target = rnd.choice(corpus_algebras), rnd.choice(corpus_algebras)
            h = alg.Homomorphism(source, target, tuple(rnd.randrange(target.size) for _ in range(source.size)))
            verdicts.append(self.assert_matches(h))
            one_position += source.size == 1
        assert any(verdicts) and not all(verdicts) and one_position >= 100

    @pytest.mark.parametrize("table", ["compose", "anti", "range", "pref"])
    def test_one_operation_broken(self, swap_only, table):
        """The identity onto a copy with one entry of one table changed keeps
        the other three operations, so only the changed one can fail it."""
        n = swap_only.size
        places = itertools.product(range(n), repeat=2 if table in ("compose", "pref") else 1)
        for place in places:
            for value in range(n):
                target = with_entry(swap_only, table, place, value)
                h = alg.Homomorphism(swap_only, target, tuple(range(n)))
                assert self.assert_matches(h) == (target == swap_only)


def test_no_unbounded_module_cache():
    """Derived data lives on the objects it is derived from (`derived`), so
    no module keeps a cache of every argument it has seen."""
    for path in Path(alg.__file__).parent.glob("*.py"):
        assert "lru_cache(maxsize=None)" not in path.read_text(), path.name
        tree = ast.parse(path.read_text())
        scope = list(tree.body)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                scope += node.body
        for node in scope:
            decorators = getattr(node, "decorator_list", [])
            values = [node.value] if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value else []
            for part in decorators + values:
                names = {n.attr if isinstance(n, ast.Attribute) else n.id
                         for n in ast.walk(part) if isinstance(n, (ast.Attribute, ast.Name))}
                assert not names & {"cache", "lru_cache"}, f"{path.name}:{node.lineno}"
