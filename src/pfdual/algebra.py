"""Finite abstract algebras of the composition/antidomain/range/override
signature, given by operation tables.

The central piece is `check_axioms`: a finite algebra passes all ten
(quasi)equations iff it is isomorphic to an algebra of partial functions,
so the checker doubles as a representability decision procedure.
"""

from __future__ import annotations

import functools
import weakref
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, product, repeat, starmap, tee
from operator import attrgetter, eq, index as as_int, itemgetter, methodcaller, mul, ne, neg
from types import SimpleNamespace
from typing import Callable, Iterator, Optional, Sequence

from .bitsets import BYTE_WIDTH, bits, preimage
from .errors import NoZeroError

# The largest carrier pfdual builds or reads: the elements of an algebra
# (a file's, or the sections of a category), the arrows of a category file,
# the related pairs of a functor file.  An algebra's two n*n tables take
# about 80 MB at 2,048 elements, and loading and checking one took 12 s at
# 2,304 on a 2-vCPU VM (Python 3.11); the 7,776 partial functions on 5
# points would need more than 1 GB before any check ran.
MAX_ELEMENTS = 2048


def row_type(n: int) -> type:
    """The type of a table row over n elements: bytes when every index fits
    in a byte, else tuple."""
    return bytes if n <= BYTE_WIDTH else tuple


# The first live instance of each value.  A weak reference hashes and
# compares as its referent, so any equal instance finds the entry, and the
# entry goes when its instance does.
_canonical: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def derived(fn):
    """Keep fn(x) on x, for a unary fn of an immutable, hashable x: fn runs
    once per value, on the canonical instance, and the result is kept in
    the __dict__ of that instance and of x, so equal instances share it.
    A result that does not refer to x goes with the last of them.  One that
    holds x (`theta` and `phi`, as their source) forms a reference cycle
    with it, so both stay until the next cyclic garbage collection."""
    key = f"{fn.__module__}.{fn.__qualname__}"

    @functools.wraps(fn)
    def once(x):
        kept = x.__dict__
        if key not in kept:
            canon = _canonical.setdefault(weakref.ref(x), x)
            if key not in canon.__dict__:
                canon.__dict__[key] = fn(canon)
            kept[key] = canon.__dict__[key]
        return kept[key]
    return once


def hash_once(self) -> int:
    """A frozen dataclass's hash of its fields, computed once, since derived
    data is looked up by value."""
    if "_hash" not in self.__dict__:
        self.__dict__["_hash"] = hash(tuple(getattr(self, f) for f in self.__dataclass_fields__))
    return self.__dict__["_hash"]


@dataclass(frozen=True)
class FinAlgebra:
    """Operation tables over element indices 0..n-1.

    compose_t and pref_t are n*n tables, anti_t and range_t are n-vectors.
    Row-major convention: compose_t[a][b] is "a then b"; pref_t[a][b] is
    "a, falling back to b".  Any sequences of ints may be given; each row
    and vector is kept as row_type(n), bytes up to BYTE_WIDTH elements and
    a tuple above, in a tuple of rows.
    """

    compose_t: tuple[Sequence[int], ...]
    anti_t: Sequence[int]
    range_t: Sequence[int]
    pref_t: tuple[Sequence[int], ...]
    names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        n = len(self.anti_t)
        if n == 0:
            raise ValueError("an algebra needs at least one element")
        object.__setattr__(self, "names", tuple(self.names or (f"e{i}" for i in range(n))))
        if len(self.names) != n or len(set(self.names)) != n:
            raise ValueError("names must be distinct and match the element count")
        row = row_type(n)
        for label, field in (("compose", "compose_t"), ("pref", "pref_t"),
                             ("antidomain", "anti_t"), ("range", "range_t")):
            table, square = getattr(self, field), field in ("compose_t", "pref_t")
            if len(table) != n or square and any(len(r) != n for r in table):
                raise ValueError(f"{label} table must " + (f"be {n}x{n}" if square else f"have {n} entries"))
            # bytes() takes only ints below 256, as_int (operator.index) only ints
            try:
                rows = tuple(map(row, table)) if square else (row(table),)
                bad = (b"".join(rows).translate(None, bytes(range(n))) if row is bytes
                       else not set(map(as_int, chain.from_iterable(rows))) <= set(range(n)))
            except (TypeError, ValueError):
                bad = True
            if bad:
                raise ValueError(f"{label} table entry out of range")
            object.__setattr__(self, field, rows if square else rows[0])

    __hash__ = hash_once

    @classmethod
    def from_tables(cls, compose_t, anti_t, range_t, pref_t, names=None) -> "FinAlgebra":
        return cls(compose_t, anti_t, range_t, pref_t, names or ())

    @property
    def size(self) -> int:
        return len(self.anti_t)

    def comp(self, a: int, b: int) -> int:
        return self.compose_t[a][b]

    def anti(self, a: int) -> int:
        return self.anti_t[a]

    def rng(self, a: int) -> int:
        return self.range_t[a]

    def pref(self, a: int, b: int) -> int:
        return self.pref_t[a][b]

    def dom(self, a: int) -> int:
        return self.anti_t[self.anti_t[a]]


@dataclass(frozen=True)
class Constants:
    """Derived constants and order of an algebra.

    up[a] / down[a] are bitmasks of the elements above / below a.
    """

    zero: int
    ident: int
    dom_t: tuple[int, ...]
    up: tuple[int, ...]
    down: tuple[int, ...]

    def leq(self, a: int, b: int) -> bool:
        return bool(self.up[a] >> b & 1)


@derived
def derive_constants(alg: FinAlgebra) -> Constants:
    """Compute zero, the identity, the domain table and the order.

    Raises NoZeroError (with a witness pair) when A(a)*a is not constant.
    """
    n = alg.size
    if (zw := _zero_witness(alg.compose_t, alg.anti_t)) is not None:
        raise NoZeroError(zw)
    zero = alg.compose_t[alg.anti_t[0]][0]
    dom_t = tuple(alg.anti_t[alg.anti_t[a]] for a in range(n))
    # a <= b iff D(a)*b = a: walk the row of each domain element e once,
    # setting bit b of up[v] and bit v of down[b] where v = e*b has domain e
    up, down = [0] * n, [0] * n
    for e in set(dom_t):
        for b, v in enumerate(alg.compose_t[e]):
            if dom_t[v] == e:
                up[v] |= 1 << b
                down[b] |= 1 << v
    return Constants(zero=zero, ident=alg.anti_t[zero], dom_t=dom_t, up=tuple(up), down=tuple(down))


@derived
def minimal_nonzero_elements(alg: FinAlgebra) -> tuple[int, ...]:
    """The minimal nonzero elements, whose up-sets are the prime filters of a representable algebra."""
    con = derive_constants(alg)
    return tuple(a for a in range(alg.size) if a != con.zero and con.down[a] & ~(1 << a | 1 << con.zero) == 0)


@dataclass(frozen=True)
class FilterSet:
    """A subset of an algebra, tagged with the algebra it lives in."""

    algebra: FinAlgebra
    members: int

    def __contains__(self, idx: int) -> bool:
        return bool(self.members >> idx & 1)

    def element_names(self) -> tuple[str, ...]:
        return tuple(self.algebra.names[i] for i in bits(self.members))

    def __repr__(self) -> str:
        return "FilterSet{" + ",".join(self.element_names()) + "}"


# ---------------------------------------------------------------------------
# The axiom checker
# ---------------------------------------------------------------------------


def _bare(term: str) -> str:
    return term[1:-1] if term.startswith("(") else term


# The operations as term printers: a product or override comes bracketed,
# and a side or an operand of A, D and R drops its outer brackets.
_TERMS = SimpleNamespace(
    comp=lambda x, y: f"({x}*{y})", pref=lambda x, y: f"({x}|{y})",
    A=lambda x: f"A({_bare(x)})", D=lambda x: f"D({_bare(x)})", R=lambda x: f"R({_bare(x)})",
    ident="id",
)


@dataclass(frozen=True)
class Axiom:
    """One of the ten laws.  law(ops, *operands) is (premises, conclusion),
    each an (lhs, rhs) pair of terms built with ops.comp, ops.A, ops.D,
    ops.R, ops.pref and ops.ident; an instance holds when some premise
    fails or the conclusion holds."""

    index: int
    name: str
    law: Callable

    @property
    def arity(self) -> int:
        return self.law.__code__.co_argcount - 1

    @property
    def equational(self) -> bool:
        return not self.law(_TERMS, *"abc"[:self.arity])[0]

    @property
    def statement(self) -> str:
        premises, conclusion = self.law(_TERMS, *"abc"[:self.arity])
        sides = [f"{_bare(lhs)} = {_bare(rhs)}" for lhs, rhs in (*premises, conclusion)]
        return " and ".join(sides[:-1]) + "  =>  " + sides[-1] if premises else sides[-1]


AXIOMS = {ax.index: ax for ax in (
    Axiom(1, "compose_associative",
          lambda o, a, b, c: ([], (o.comp(a, o.comp(b, c)), o.comp(o.comp(a, b), c)))),
    Axiom(2, "antidomain_compose_constant",
          lambda o, a, b: ([], (o.comp(o.A(a), a), o.comp(o.A(b), b)))),
    Axiom(3, "left_identity",
          lambda o, a: ([], (o.comp(o.ident, a), a))),
    Axiom(4, "antidomain_exchange",
          lambda o, a, b: ([], (o.comp(a, o.A(b)), o.comp(o.A(o.comp(a, b)), a)))),
    Axiom(5, "domain_partition_cancel",
          lambda o, a, b, c: ([(o.comp(o.D(a), b), o.comp(o.D(a), c)), (o.comp(o.A(a), b), o.comp(o.A(a), c))],
                              (b, c))),
    Axiom(6, "range_is_domain_element",
          lambda o, a: ([], (o.D(o.R(a)), o.R(a)))),
    Axiom(7, "compose_own_range",
          lambda o, a: ([], (o.comp(a, o.R(a)), a))),
    Axiom(8, "range_left_cancel",
          lambda o, a, b, c: ([(o.comp(a, b), o.comp(a, c))], (o.comp(o.R(a), b), o.comp(o.R(a), c)))),
    Axiom(9, "pref_restricted_to_domain",
          lambda o, a, b: ([], (o.comp(o.D(a), o.pref(a, b)), a))),
    Axiom(10, "pref_outside_domain",
          lambda o, a, b: ([], (o.comp(o.A(a), o.pref(a, b)), o.comp(o.A(a), b)))),
)}


@dataclass(frozen=True)
class AxiomCheck:
    """The verdict on AXIOMS[index]: its first failing instance, or None."""

    index: int
    witness: Optional[tuple] = None
    detail: str = ""

    @property
    def name(self) -> str:
        return AXIOMS[self.index].name

    @property
    def equational(self) -> bool:
        return AXIOMS[self.index].equational

    @property
    def passed(self) -> bool:
        return self.witness is None


@dataclass(frozen=True)
class AxiomReport:
    results: tuple[AxiomCheck, ...]

    @functools.cached_property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> tuple[AxiomCheck, ...]:
        return tuple(r for r in self.results if not r.passed)

    def result(self, index: int) -> AxiomCheck:
        return self.results[index - 1]


def _zero_witness(C: Sequence[Sequence[int]], A: Sequence[int]) -> Optional[tuple[int, int]]:
    return next(((0, a) for a in range(1, len(A)) if C[A[a]][a] != C[A[0]][0]), None)


def pick(positions: Sequence[int]):
    """row -> the entries of row at positions, in order.  Byte positions
    read a bytes-like row of at most BYTE_WIDTH entries with one translate
    and give bytes; other positions read any sequence and give a tuple."""
    if isinstance(positions, bytes):
        return lambda row: positions.translate(row.ljust(BYTE_WIDTH, b"\0"))
    if len(positions) == 1:
        (p,) = positions
        return lambda row: (row[p],)
    return itemgetter(*positions) if positions else lambda row: ()


def generating_set(C: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """A set G whose left-normed products (..(g1*g2)*..)*gk reach every
    element, in the order the elements were chosen.

    Candidates are tried greedily, most values in their row first, then in
    their column, then by index; one already reached is skipped.  Row x*y
    is row x read at the entries of row y and column x*y column y read at
    those of column x, so in an associative table a product takes no more
    values in either than its factors.  A search by right multiplication,
    a layer of new elements at a time, costs O(n*|G|).
    """
    n, values = len(C), _readers(type(C[0])).values
    row_values, column_values = map(neg, map(values, C)), map(neg, map(values, _columns(C)))
    rank = list(zip(row_values, column_values))
    reached, gens = set(), []
    for g in sorted(range(n), key=rank.__getitem__):
        if g in reached:
            continue
        gens.append(g)
        new, times = {g, *map(itemgetter(g), map(C.__getitem__, reached))} - reached, pick(gens)
        while new:
            reached |= new
            new = set(chain.from_iterable(map(times, map(C.__getitem__, new)))) - reached
        if len(reached) == n:
            break
    return tuple(gens)


def _readers(row: type) -> SimpleNamespace:
    """How rows of type row are read, a whole row per call: table(r), a row
    in the form read from; read(positions), table -> its entries there;
    gather(positions, table); through(keys, values), the table that sends
    each entry of keys to the entry of values at its last place; and
    values(r), the number of distinct entries of r.  A bytes table is
    padded to the BYTE_WIDTH entries bytes.translate maps."""
    if row is bytes:
        every = bytes(range(BYTE_WIDTH))
        return SimpleNamespace(table=methodcaller("ljust", BYTE_WIDTH, b"\0"), read=attrgetter("translate"),
                               gather=bytes.translate, through=bytes.maketrans,
                               values=lambda r: BYTE_WIDTH - len(every.translate(None, r)))
    return SimpleNamespace(table=tuple, read=pick, gather=lambda positions, table: pick(positions)(table),
                           through=lambda keys, values: dict(zip(keys, values)), values=lambda r: len(set(r)))


def _columns(C: Sequence[Sequence[int]]):
    """The columns of a square table in its row type, each taken when read."""
    if not isinstance(C[0], bytes):
        return zip(*C)
    n, flat = len(C), b"".join(C)
    return map(flat.__getitem__, map(slice, range(n), repeat(None), repeat(n)))


def _light_test(C: Sequence[Sequence[int]], gens: Sequence[int]) -> bool:
    """Light's associativity test: (x*g)*y = x*(g*y) for every x, y and
    every g in gens, each row x*g against row g read at the entries of row x.

    The elements g that pass are closed under products, so when gens
    generates the table this decides associativity exactly (Clifford &
    Preston, The Algebraic Theory of Semigroups I, 1961, section 1.2).
    """
    readers = _readers(type(C[0]))
    tables = tuple(map(readers.table, C))
    for g in gens:
        rows_xg = map(C.__getitem__, map(itemgetter(g), C))
        if any(map(ne, rows_xg, map(readers.read(C[g]), tables))):
            return False
    return True


def _mismatches(left, right) -> Iterator[tuple[int, int]]:
    """Each (a, b) at which row a of left and of right differ in entry b, in
    order: whole rows compared lazily, and only rows that differ read."""
    pairs, again = tee(zip(left, right))
    for a, (x, y) in compress(enumerate(pairs), starmap(ne, again)):
        yield from ((a, b) for b, (p, q) in enumerate(zip(x, y)) if p != q)


def nonassociative(C: Sequence[Sequence[int]]) -> Iterator[tuple[int, int, int]]:
    """Every (a, b, c) with (a*b)*c != a*(b*c), in lexicographic order: for
    each a, the rows a*b against each row b read at the entries of row a."""
    readers = _readers(type(C[0]))
    row_readers = tuple(map(readers.read, C))
    for a, Ca in enumerate(C):
        at_a = map(methodcaller("__call__", readers.table(Ca)), row_readers)
        yield from ((a, b, c) for b, c in _mismatches(map(C.__getitem__, Ca), at_a))


@derived
def check_axioms(alg: FinAlgebra) -> AxiomReport:
    """Check the ten representability (quasi)equations on alg's own rows.

    Failures are results, not errors; each carries the first witness tuple
    in lexicographic element order.
    """
    return axiom_report(alg.compose_t, alg.anti_t, alg.range_t, alg.pref_t)


def axiom_report(C, A, R, P) -> AxiomReport:
    """check_axioms on the compose, antidomain, range and pref tables,
    whose rows are all tuples or all bytes.  A row is compared only with a
    row of its own type, so the two give one report.  Every law but 5
    compares whole rows, lazily, up to the first pair that differs."""
    n, row = len(A), type(A)
    readers = _readers(row)
    table, read, gather = readers.table, readers.read, readers.gather
    T = tuple(map(table, C))
    D = gather(A, table(A))
    rng_n = range(n)
    results: list[AxiomCheck] = []

    def record(index: int, witness: Optional[tuple[int, ...]], detail: str = "") -> None:
        results.append(AxiomCheck(index, witness, detail))

    # (1) associativity of composition, by Light's test over a generating set
    record(1, None if _light_test(C, generating_set(C)) else next(nonassociative(C)))

    # (2) A(a)*a is one fixed element (the zero)
    zw = _zero_witness(C, A)
    record(2, zw)

    # (3) id*a = a; only meaningful once the zero exists
    if zw is not None:
        record(3, zw, detail="identity constant undefined because A(a)*a is not constant")
    else:
        ident = C[A[C[A[0]][0]]]
        record(3, next(((a,) for a in rng_n if ident[a] != a), None))

    # (4) a*A(b) = A(a*b)*a: row a read at A against column a read at A(a*b)
    at_A = map(gather, C, repeat(table(A)))
    record(4, next(_mismatches(map(read(A), T), map(gather, at_A, map(table, _columns(C)))), None))

    # (5) D(a)*b = D(a)*c and A(a)*b = A(a)*c imply b = c: for each a, no
    # two elements b share the key (D(a)*b, A(a)*b).  The key reads a only
    # through A(a), so the least a of each class stands for it.  The witness
    # is the least b of a shared key and the next element with b's key.
    w = None
    for a in sorted({A[a]: a for a in reversed(rng_n)}.values()):
        keys = tuple(zip(C[D[a]], C[A[a]]))
        if len(set(keys)) < n:
            count = Counter(keys)
            b = next(b for b in rng_n if count[keys[b]] > 1)
            w = (a, b, keys.index(keys[b], b + 1))
            break
    record(5, w)

    # (6) D(R(a)) = R(a)
    record(6, next(((a,) for a in rng_n if D[R[a]] != R[a]), None))

    # (7) a*R(a) = a
    record(7, next(((a,) for a in rng_n if C[a][R[a]] != a), None))

    # (8) a*b = a*c implies R(a)*b = R(a)*c: row a, read through the last
    # R(a)*b of each class of b with one a*b, must give row R(a).  The
    # witness: the least b of a broken class, the least c in it unlike b.
    w = None
    for a, (Ca, Cr) in enumerate(zip(C, map(C.__getitem__, R))):
        through_last = gather(Ca, readers.through(Ca, Cr))
        if through_last != Cr:
            broken = set(compress(Ca, map(ne, through_last, Cr)))
            b = next(b for b in rng_n if Ca[b] in broken)
            w = (a, b, next(c for c in rng_n if Ca[c] == Ca[b] and Cr[c] != Cr[b]))
            break
    record(8, w)

    # (9) D(a)*(a|b) = a
    constant = map(mul, map(row, zip(rng_n)), repeat(n))
    record(9, next(_mismatches(map(gather, P, map(T.__getitem__, D)), constant), None))

    # (10) A(a)*(a|b) = A(a)*b
    record(10, next(_mismatches(map(gather, P, map(T.__getitem__, A)), map(C.__getitem__, A)), None))

    return AxiomReport(results=tuple(results))


def require_representable(alg: FinAlgebra) -> None:
    """Refuse, as bad input, an algebra that fails the ten axioms."""
    report = check_axioms(alg)
    if not report.passed:
        first = report.failures()[0]
        raise ValueError(f"algebra is not representable: axiom ({first.index}) {first.name} fails")


def axiom_instance_holds(alg: FinAlgebra, index: int, witness: Sequence[int]) -> bool:
    """Evaluate one axiom instance at a witness tuple.

    For quasiequations, True means "premise fails or conclusion holds".
    Used to confirm that reported failures are genuine violations.
    """
    if index == 3 and _zero_witness(alg.compose_t, alg.anti_t) is not None:
        index = 2  # axiom 3 then reports axiom 2's pair
    if index not in AXIOMS:
        raise ValueError(f"unknown axiom index {index}")
    ops = SimpleNamespace(comp=alg.comp, A=alg.anti, D=alg.dom, R=alg.rng, pref=alg.pref,
                          ident=alg.anti(alg.comp(alg.anti(0), 0)))
    premises, (lhs, rhs) = AXIOMS[index].law(ops, *witness)
    return any(p != q for p, q in premises) or lhs == rhs


# ---------------------------------------------------------------------------
# Domain elements, compatibility, joins, and the override/join translations
# ---------------------------------------------------------------------------


def domain_elements(alg: FinAlgebra) -> tuple[int, ...]:
    """The sub-universe of elements of the form A(-), in index order."""
    return tuple(sorted({alg.anti_t[a] for a in range(alg.size)}))


def compatible(alg: FinAlgebra, a: int, b: int) -> bool:
    return alg.compose_t[alg.dom(a)][b] == alg.compose_t[alg.dom(b)][a]


def upper_bounds(alg: FinAlgebra, a: int, b: int) -> int:
    con = derive_constants(alg)
    return con.up[a] & con.up[b]


def join(alg: FinAlgebra, a: int, b: int) -> Optional[int]:
    """Least upper bound, or None when no upper bound exists."""
    ubs = upper_bounds(alg, a, b)
    if not ubs:
        return None
    c = next(bits(ubs))
    return alg.compose_t[alg.anti(alg.compose_t[alg.anti(a)][alg.anti(b)])][c]


def in_class_A(alg: FinAlgebra) -> bool:
    """Every compatible pair has an upper bound."""
    pairs = product(range(alg.size), repeat=2)
    return all(upper_bounds(alg, a, b) for a, b in pairs if compatible(alg, a, b))


def pref_from_join(alg: FinAlgebra) -> tuple[Sequence[int], ...]:
    """Reconstruct the override table from compose/antidomain/range alone,
    as a|b := join(a, A(a)*b), in alg's row type.  The input's own pref
    table is ignored.
    """
    rows = []
    for a in range(alg.size):
        rests = alg.compose_t[alg.anti(a)]
        joins = [join(alg, a, rest) for rest in rests]
        if None in joins:
            rest = rests[joins.index(None)]
            raise ValueError(f"compatible pair ({a},{rest}) has no upper bound; override undefined")
        rows.append(row_type(alg.size)(joins))
    return tuple(rows)


def join_from_pref(alg: FinAlgebra) -> tuple[tuple[Optional[int], ...], ...]:
    """Partial join table: a|b for compatible pairs, None otherwise."""
    n = alg.size
    return tuple(
        tuple(alg.pref(a, b) if compatible(alg, a, b) else None for b in range(n))
        for a in range(n)
    )


# ---------------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Homomorphism:
    source: FinAlgebra
    target: FinAlgebra
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.mapping) != self.source.size:
            raise ValueError("mapping must cover every source element")
        if any(not 0 <= v < self.target.size for v in self.mapping):
            raise ValueError("mapping value out of range")

    def __call__(self, a: int) -> int:
        return self.mapping[a]


def check_homomorphism(h: Homomorphism) -> bool:
    """h preserves the four operations, compared a whole row at a time in
    the algebras' own row type, or as tuples when their row types differ."""
    row = row_type(max(h.source.size, h.target.size))
    source, target = ((tuple(map(row, a.compose_t)), row(a.anti_t), row(a.range_t), tuple(map(row, a.pref_t)))
                      for a in (h.source, h.target))
    return tables_preserved(source, target, h.mapping)


def tables_preserved(source: tuple, target: tuple, mapping: Sequence[int]) -> bool:
    """check_homomorphism on the four tables of each side, in one row type:
    row a of a source table mapped through h is row h(a) of the target's
    table read at the images h(b), and a source vector mapped through h is
    the target's vector read there."""
    (C, A, R, P), (tC, tA, tR, tP) = source, target
    m = type(A)(mapping)
    readers = _readers(type(m))
    images, at_images = readers.table(m), readers.read(m)

    def preserved(rows, target_rows) -> bool:
        mapped = map(readers.gather, rows, repeat(images))
        return all(map(eq, mapped, map(at_images, map(readers.table, target_rows))))
    return (preserved((A, R), (tA, tR)) and preserved(C, map(tC.__getitem__, m))
            and preserved(P, map(tP.__getitem__, m)))


def preserves_joins(h: Homomorphism) -> bool:
    """Whenever join(a,b) exists in the source, h maps it to join(h a, h b)."""
    for a, b in product(range(h.source.size), repeat=2):
        j = join(h.source, a, b)
        if j is not None and join(h.target, h(a), h(b)) != h(j):
            return False
    return True


def check_locally_proper(h: Homomorphism):
    """True iff the inverse image of every prime filter of the target is a
    prime filter of the source.  Returns (verdict, offending_filter_or_None).
    Raises ValueError when the source or target is not representable.
    Prime filters are the up-sets of minimal nonzero elements, so each
    target atom's inverse image, one `preimage` call, is looked up among
    the source's, atoms in ascending order; h may be any map.
    """
    require_representable(h.source)
    require_representable(h.target)
    source, target = derive_constants(h.source), derive_constants(h.target)
    primes = set(map(source.up.__getitem__, minimal_nonzero_elements(h.source)))
    minimal = minimal_nonzero_elements(h.target)
    m = next((m for m in minimal if preimage(h.mapping, target.up[m]) not in primes), None)
    return (True, None) if m is None else (False, FilterSet(h.target, target.up[m]))
