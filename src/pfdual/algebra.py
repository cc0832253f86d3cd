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
from itertools import chain
from operator import itemgetter
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

from .bitsets import bits, preimage
from .errors import NoZeroError

# The largest carrier pfdual builds or reads: the elements of an algebra
# (a file's, or the sections of a category), the arrows of a category file,
# the related pairs of a functor file.  An algebra's two n*n tables take
# about 80 MB at 2,048 elements, and loading and checking one took 12 s at
# 2,304 on a 2-vCPU VM (Python 3.11); the 7,776 partial functions on 5
# points would need more than 1 GB before any check ran.
MAX_ELEMENTS = 2048

# The first live instance of each value.  A weak reference hashes and
# compares as its referent, so any equal instance finds the entry, and the
# entry goes when its instance does.
_canonical: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def derived(fn):
    """Keep fn(x) on x, for a unary fn of an immutable, hashable x: fn runs
    once per value, on the canonical instance, and the result is kept in
    the __dict__ of that instance and of x, so equal instances share it and
    it lives as long as one of them does."""
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
    "a, falling back to b".
    """

    compose_t: tuple[tuple[int, ...], ...]
    anti_t: tuple[int, ...]
    range_t: tuple[int, ...]
    pref_t: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        n = len(self.anti_t)
        if n == 0:
            raise ValueError("an algebra needs at least one element")
        if not self.names:
            object.__setattr__(self, "names", tuple(f"e{i}" for i in range(n)))
        if len(self.names) != n or len(set(self.names)) != n:
            raise ValueError("names must be distinct and match the element count")
        elements = set(range(n))
        for label, table in (("compose", self.compose_t), ("pref", self.pref_t)):
            if len(table) != n or any(len(row) != n for row in table):
                raise ValueError(f"{label} table must be {n}x{n}")
            if not set().union(*table) <= elements:
                raise ValueError(f"{label} table entry out of range")
        for label, vec in (("antidomain", self.anti_t), ("range", self.range_t)):
            if len(vec) != n:
                raise ValueError(f"{label} table must have {n} entries")
            if not set(vec) <= elements:
                raise ValueError(f"{label} table entry out of range")

    __hash__ = hash_once

    @classmethod
    def from_tables(cls, compose_t, anti_t, range_t, pref_t, names=None) -> "FinAlgebra":
        return cls(
            compose_t=tuple(tuple(row) for row in compose_t),
            anti_t=tuple(anti_t),
            range_t=tuple(range_t),
            pref_t=tuple(tuple(row) for row in pref_t),
            names=tuple(names) if names else (),
        )

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

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"no element named {name!r}") from None


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
    if (zw := _zero_witness(alg)) is not None:
        raise NoZeroError(zw)
    zero = alg.compose_t[alg.anti_t[0]][0]
    ident = alg.anti_t[zero]
    dom_t = tuple(alg.anti_t[alg.anti_t[a]] for a in range(n))
    # a <= b iff D(a)*b = a: walk the row of each domain element e once,
    # setting bit b of up[v] where v = e*b has domain e
    up = [0] * n
    for e in set(dom_t):
        for b, v in enumerate(alg.compose_t[e]):
            if dom_t[v] == e:
                up[v] |= 1 << b
    down = [0] * n
    for a, above in enumerate(up):
        for b in bits(above):
            down[b] |= 1 << a
    return Constants(zero=zero, ident=ident, dom_t=dom_t, up=tuple(up), down=tuple(down))


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

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> tuple[AxiomCheck, ...]:
        return tuple(r for r in self.results if not r.passed)

    def result(self, index: int) -> AxiomCheck:
        return self.results[index - 1]


def _zero_witness(alg: FinAlgebra) -> Optional[tuple[int, int]]:
    C, A = alg.compose_t, alg.anti_t
    return next(((0, a) for a in range(1, alg.size) if C[A[a]][a] != C[A[0]][0]), None)


def pick(positions: Sequence[int]):
    """itemgetter(*positions), but always returning a tuple: row -> the
    entries of row at positions, in order."""
    if len(positions) == 1:
        (p,) = positions
        return lambda row: (row[p],)
    return itemgetter(*positions) if positions else lambda row: ()


def generating_set(C: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """A set G whose left-normed products (..(g1*g2)*..)*gk reach every
    element, in the order the elements were chosen.

    Candidates are tried greedily, fewest factorisations x*y = z first (ties
    by index); one already reached is skipped.  A search by right
    multiplication takes each (element, generator) product once, so it
    costs O(n*|G|).
    """
    n = len(C)
    count = Counter(chain.from_iterable(C))
    reached = bytearray(n)
    seen: list[int] = []
    gens: list[int] = []
    for g in sorted(range(n), key=count.__getitem__):
        if reached[g]:
            continue
        gens.append(g)
        queue = [g] + [C[s][g] for s in seen]
        while queue:
            t = queue.pop()
            if not reached[t]:
                reached[t] = 1
                seen.append(t)
                queue.extend(map(C[t].__getitem__, gens))
        if len(seen) == n:
            break
    return tuple(gens)


def _light_test(C: Sequence[Sequence[int]], gens: Sequence[int]) -> bool:
    """Light's associativity test: (x*g)*y = x*(g*y) for every x, y and
    every g in gens, checked one row x at a time.

    The elements g that pass are closed under products, so when gens
    generates the table this decides associativity exactly (Clifford &
    Preston, The Algebraic Theory of Semigroups I, 1961, section 1.2).
    """
    for g in gens:
        take = pick(C[g])
        for Cx in C:
            if C[Cx[g]] != take(Cx):
                return False
    return True


def _first_nonassociative(C: Sequence[Sequence[int]]) -> Optional[tuple[int, int, int]]:
    """The lexicographically least (a, b, c) with (a*b)*c != a*(b*c): row
    a*b against row b read at the entries of row a, one pair (a, b) at a
    time."""
    takes = tuple(map(pick, C))
    for a, Ca in enumerate(C):
        if (w := _first_mismatch((C[ab], take(Ca)) for ab, take in zip(Ca, takes))) is not None:
            return (a, *w)
    return None


def _first_mismatch(rows) -> Optional[tuple[int, int]]:
    """The first (a, b) at which the a-th pair of rows differs in entry b."""
    for a, (left, right) in enumerate(rows):
        if left != right:
            return (a, next(b for b, (x, y) in enumerate(zip(left, right)) if x != y))
    return None


@derived
def check_axioms(alg: FinAlgebra) -> AxiomReport:
    """Check the ten representability (quasi)equations.

    Failures are results, not errors; each carries the first witness tuple
    in lexicographic element order.
    """
    n = alg.size
    C, A, R, P = alg.compose_t, alg.anti_t, alg.range_t, alg.pref_t
    D = tuple(A[A[a]] for a in range(n))
    rng_n = range(n)
    results: list[AxiomCheck] = []

    def record(index: int, witness: Optional[tuple[int, ...]], detail: str = "") -> None:
        results.append(AxiomCheck(index, witness, detail))

    # (1) associativity of composition, by Light's test over a generating set
    record(1, None if _light_test(C, generating_set(C)) else _first_nonassociative(C))

    # (2) A(a)*a is one fixed element (the zero)
    zw = _zero_witness(alg)
    record(2, zw)

    # (3) id*a = a; only meaningful once the zero exists
    if zw is not None:
        record(3, zw, detail="identity constant undefined because A(a)*a is not constant")
    else:
        ident = C[A[C[A[0]][0]]]
        record(3, next(((a,) for a in rng_n if ident[a] != a), None))

    # (4) a*A(b) = A(a*b)*a
    column = tuple(zip(*C))
    at_A = pick(A)
    record(4, _first_mismatch((at_A(C[a]), pick(pick(C[a])(A))(column[a])) for a in rng_n))

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

    # (8) a*b = a*c implies R(a)*b = R(a)*c: for each a, R(a)*b is one
    # value on each class of b with the same a*b.  The witness is the least
    # b of a class that breaks this and the least c of it with another value.
    # Where axioms 1 and 7 hold, a*b = a*(R(a)*b), so for each a this holds
    # exactly when row a is injective on the entries of row R(a), and only
    # an a that fails that is scanned.
    w = None
    injective_test = results[0].passed and results[6].passed
    for a in rng_n:
        Ca, Cr = C[a], C[R[a]]
        if injective_test:
            image = set(Cr)
            if len({Ca[x] for x in image}) == len(image):
                continue
        if len(set(zip(Ca, Cr))) > len(set(Ca)):
            last = dict(zip(Ca, Cr))
            broken = {ab for ab, rb in zip(Ca, Cr) if last[ab] != rb}
            b = next(b for b in rng_n if Ca[b] in broken)
            w = (a, b, next(c for c in rng_n if Ca[c] == Ca[b] and Cr[c] != Cr[b]))
            break
    record(8, w)

    # (9) D(a)*(a|b) = a
    record(9, _first_mismatch((pick(P[a])(C[D[a]]), (a,) * n) for a in rng_n))

    # (10) A(a)*(a|b) = A(a)*b
    record(10, _first_mismatch((pick(P[a])(C[A[a]]), C[A[a]]) for a in rng_n))

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
    if index == 3 and _zero_witness(alg) is not None:
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


def has_upper_bound(alg: FinAlgebra, a: int, b: int) -> bool:
    return upper_bounds(alg, a, b) != 0


def join(alg: FinAlgebra, a: int, b: int) -> Optional[int]:
    """Least upper bound, or None when no upper bound exists."""
    ubs = upper_bounds(alg, a, b)
    if not ubs:
        return None
    c = next(bits(ubs))
    return alg.compose_t[alg.anti(alg.compose_t[alg.anti(a)][alg.anti(b)])][c]


def in_class_A(alg: FinAlgebra) -> bool:
    """Every compatible pair has an upper bound."""
    n = alg.size
    return all(
        has_upper_bound(alg, a, b)
        for a in range(n)
        for b in range(n)
        if compatible(alg, a, b)
    )


def pref_from_join(alg: FinAlgebra) -> tuple[tuple[int, ...], ...]:
    """Reconstruct the override table from compose/antidomain/range alone,
    as a|b := join(a, A(a)*b).  The input's own pref table is ignored.
    """
    n = alg.size
    rows = []
    for a in range(n):
        row = []
        for b in range(n):
            rest = alg.compose_t[alg.anti(a)][b]
            j = join(alg, a, rest)
            if j is None:
                raise ValueError(f"compatible pair ({a},{rest}) has no upper bound; override undefined")
            row.append(j)
        rows.append(tuple(row))
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


def identity_hom(alg: FinAlgebra) -> Homomorphism:
    return Homomorphism(alg, alg, tuple(range(alg.size)))


def check_homomorphism(h: Homomorphism) -> bool:
    """h preserves the four operations, compared a whole row at a time:
    row a of a source table mapped through h is row h(a) of the target's
    table read at the images h(b)."""
    src, tgt, m = h.source, h.target, h.mapping
    at_images = pick(m)
    return (
        pick(src.anti_t)(m) == at_images(tgt.anti_t)
        and pick(src.range_t)(m) == at_images(tgt.range_t)
        and all(pick(row)(m) == at_images(tgt.compose_t[v]) for row, v in zip(src.compose_t, m))
        and all(pick(row)(m) == at_images(tgt.pref_t[v]) for row, v in zip(src.pref_t, m))
    )


def preserves_joins(h: Homomorphism) -> bool:
    """Whenever join(a,b) exists in the source, h maps it to join(h a, h b)."""
    n = h.source.size
    for a in range(n):
        for b in range(n):
            j = join(h.source, a, b)
            if j is None:
                continue
            jt = join(h.target, h(a), h(b))
            if jt is None or jt != h(j):
                return False
    return True


def check_locally_proper(h: Homomorphism):
    """True iff the inverse image of every prime filter of the target is a
    prime filter of the source.  Returns (verdict, offending_filter_or_None).
    Raises ValueError when the source or target is not representable.
    Prime filters are the up-sets of minimal nonzero elements, so each
    inverse image is looked up among the source's; h may be any map.
    """
    require_representable(h.source)
    require_representable(h.target)
    up_a, up_b = derive_constants(h.source).up, derive_constants(h.target).up
    source_primes = {up_a[k] for k in minimal_nonzero_elements(h.source)}
    for m in minimal_nonzero_elements(h.target):
        if preimage(h.mapping, up_b[m]) not in source_primes:
            return False, FilterSet(h.target, up_b[m])
    return True, None
