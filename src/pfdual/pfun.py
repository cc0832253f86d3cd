"""Concrete partial functions on a finite base set.

This module is the semantic ground truth for the whole package: every
abstract law checked elsewhere can be evaluated directly on graphs here.
Composition is written in diagrammatic order throughout: ``f.compose(g)``
applies ``f`` first, then ``g``.
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable, Iterable, Mapping
from dataclasses import dataclass
from typing import Optional

from .algebra import MAX_ELEMENTS, FinAlgebra, pick, row_type
from .errors import InconsistencyError, NotClosedError

Point = Hashable


@dataclass(frozen=True)
class Base:
    """A finite ordered set of point labels. May be empty."""

    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        if len(set(self.points)) != len(self.points):
            raise ValueError(f"base points must be distinct: {self.points!r}")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def index(self, point: Point) -> int:
        try:
            return self.points.index(point)
        except ValueError:
            raise ValueError(f"point {point!r} not in base {self.points!r}") from None


@dataclass(frozen=True)
class PFunc:
    """A partial function on a base, stored positionally.

    ``graph[i]`` is the index of the image of ``base.points[i]``, or None
    where the function is undefined.
    """

    base: Base
    graph: tuple[Optional[int], ...]

    def __post_init__(self) -> None:
        n = len(self.base)
        if len(self.graph) != n:
            raise ValueError("graph length must equal base size")
        for v in self.graph:
            if v is not None and not (0 <= v < n):
                raise ValueError(f"graph value {v!r} out of range for base of size {n}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, base: Base) -> "PFunc":
        return cls(base, (None,) * len(base))

    @classmethod
    def identity(cls, base: Base) -> "PFunc":
        return cls(base, tuple(range(len(base))))

    @classmethod
    def from_pairs(cls, base: Base, pairs: Mapping[Point, Point] | Iterable[tuple[Point, Point]]) -> "PFunc":
        items = pairs.items() if isinstance(pairs, Mapping) else pairs
        graph: list[Optional[int]] = [None] * len(base)
        for x, y in items:
            i = base.index(x)
            if graph[i] is not None:
                raise ValueError(f"point {x!r} mapped twice")
            graph[i] = base.index(y)
        return cls(base, tuple(graph))

    # -- inspection --------------------------------------------------------

    @property
    def mapping(self) -> dict[Point, Point]:
        pts = self.base.points
        return {pts[i]: pts[v] for i, v in enumerate(self.graph) if v is not None}

    def __repr__(self) -> str:
        body = ",".join(f"{x!r}>{y!r}" for x, y in self.mapping.items())
        return f"PFunc{{{body}}}"

    # -- the four operations ------------------------------------------------

    def _same_base(self, other: "PFunc") -> None:
        if self.base != other.base:
            raise ValueError("operands live on different bases")

    def compose(self, other: "PFunc") -> "PFunc":
        """Apply self first, then other."""
        self._same_base(other)
        g = other.graph
        return PFunc(self.base, tuple(None if v is None else g[v] for v in self.graph))

    def antidomain(self) -> "PFunc":
        """Identity restricted to the points where self is undefined."""
        return PFunc(self.base, tuple(i if v is None else None for i, v in enumerate(self.graph)))

    def range(self) -> "PFunc":
        """Identity restricted to the image points of self."""
        image = {v for v in self.graph if v is not None}
        return PFunc(self.base, tuple(i if i in image else None for i in range(len(self.base))))

    def pref_union(self, other: "PFunc") -> "PFunc":
        """Override: self where defined, otherwise other."""
        self._same_base(other)
        return PFunc(self.base, tuple(v if v is not None else w for v, w in zip(self.graph, other.graph)))

    # -- derived notions ----------------------------------------------------

    def domain(self) -> "PFunc":
        return PFunc(self.base, tuple(i if v is not None else None for i, v in enumerate(self.graph)))

    def leq(self, other: "PFunc") -> bool:
        """Graph inclusion."""
        self._same_base(other)
        return all(v is None or v == w for v, w in zip(self.graph, other.graph))

    def __le__(self, other: "PFunc") -> bool:
        return self.leq(other)

    def compatible(self, other: "PFunc") -> bool:
        """True iff the two functions agree wherever both are defined."""
        self._same_base(other)
        return all(v is None or w is None or v == w for v, w in zip(self.graph, other.graph))


def graph_key(f: PFunc) -> tuple[int, ...]:
    """Canonical sort key: undefined sorts first at each position."""
    return tuple(0 if v is None else v + 1 for v in f.graph)


def enumerate_all(base: Base) -> list[PFunc]:
    """All (n+1)^n partial functions on the base, in a fixed order; refused
    over MAX_ELEMENTS, so for n > 4."""
    n = len(base)
    count = (n + 1) ** n
    if count > MAX_ELEMENTS:
        raise ValueError(f"{count} functions exceed the limit MAX_ELEMENTS = {MAX_ELEMENTS}")
    values: list[Optional[int]] = [None] + list(range(n))
    return [PFunc(base, g) for g in itertools.product(values, repeat=n)]


def _unary_results(graphs: list[tuple[int, ...]], k: int):
    """The antidomain and the range result of each graph."""
    return ([tuple(k if v < k else p for p, v in enumerate(f)) for f in graphs],
            [tuple(p if p in image else k for p in range(k)) for image in map(set, graphs)])


def _override(f: tuple[int, ...], k: int):
    """f + g -> f | g, which reads f where f is defined, else g, stored after f."""
    return pick(tuple(p if v < k else k + p for p, v in enumerate(f)))


def _op_rows(graphs: list[tuple[int, ...]], k: int):
    """The results of the four operations on graphs that write undefined as
    k, the base size, one list per row in table order: the compose row of
    each f (f then each g), the antidomain and range vectors, then the
    pref_union row of each f."""
    extended = [g + (k,) for g in graphs]  # so undefined composes to undefined
    for then in map(pick, graphs):
        yield list(map(then, extended))
    yield from _unary_results(graphs, k)
    for f in graphs:
        yield list(map(_override(f, k), map(f.__add__, graphs)))


def _gathered_tables(graphs: list[tuple[int, ...]], index: dict, k: int, row: type):
    """The four tables _op_rows gives, looked up in index, which raises
    KeyError for a result outside the set.  The two square tables are
    lists of rows of type row, the algebra's row_type.  Only the rows of
    greedy generators (largest domain, then largest image, then index
    first) are worked out entry by entry: row t*g is row g read at the
    entries of row t, as (t*g)*x = t*(g*x) (Clifford & Preston, The
    Algebraic Theory of Semigroups I, 1961, section 1.2), and
    f | x = f | (A(f)*x)."""
    n = len(graphs)
    extended = [g + (k,) for g in graphs]  # so undefined composes to undefined
    C: list = [None] * n
    take: dict = {}  # generator g -> pick(row g)
    for g in sorted(range(n), key=lambda i: (graphs[i].count(k), -len(set(graphs[i]) | {k}))):
        if C[g] is not None:
            continue
        C[g] = row(map(index.__getitem__, map(pick(graphs[g]), extended)))
        take[g] = pick(C[g])
        # products t*h of a known row t and a generator h, whose rows may be new
        queue = [(t, g) for t, known in enumerate(C) if known is not None] + [(g, h) for h in take]
        while queue:
            t, h = queue.pop()
            if C[u := C[t][h]] is None:
                C[u] = take[h](C[t])
                queue.extend((u, h) for h in take)
    anti_t, range_t = (tuple(map(index.__getitem__, results)) for results in _unary_results(graphs, k))
    pref_t = []
    out = bytearray(n) if row is bytes else [0] * n
    gather = {a: (set(C[a]), pick(C[a])) for a in set(anti_t)}
    for f, a in zip(graphs, anti_t):
        over, (ys, at) = _override(f, k), gather[a]
        for y in ys:  # each distinct A(f)*x once
            out[y] = index[over(f + graphs[y])]
        pref_t.append(at(out))
    return C, anti_t, range_t, pref_t


def close_under_ops(gens: Iterable[PFunc]) -> list[PFunc]:
    """Least superset of gens closed under compose, antidomain, range and
    pref_union, sorted canonically: the direct kernel _op_rows, run until a
    round adds nothing.  At least one generator is required."""
    gen_list = list(gens)
    if not gen_list:
        raise ValueError("at least one generator is required")
    base = gen_list[0].base
    if any(g.base != base for g in gen_list):
        raise ValueError("generators live on different bases")
    k = len(base)
    closed = {tuple(k if v is None else v for v in g.graph) for g in gen_list}
    size = 0
    while size < len(closed):
        size = len(closed)
        for results in _op_rows(list(closed), k):
            closed.update(results)
    decoded = (tuple(None if v == k else v for v in g) for g in closed)
    return sorted((PFunc(base, g) for g in decoded), key=graph_key)


def as_abstract(elems: Iterable[PFunc], names: Mapping[PFunc, str] | None = None):
    """Turn a closed set of partial functions into operation tables.

    Returns ``(algebra, labeling)`` where ``labeling[i]`` is the partial
    function represented by element index ``i``.  Elements are named by
    ``names`` when given, otherwise by their graphs.  Raises NotClosedError
    if some operation leaves the set, naming the operation and its operands
    (by ``names`` when given).
    """
    ordered = sorted(set(elems), key=graph_key)
    if not ordered:
        raise ValueError("an algebra needs at least one element")
    base = ordered[0].base
    if any(f.base != base for f in ordered):
        raise ValueError("operands live on different bases")
    k = len(base)
    graphs = [tuple(k if v is None else v for v in f.graph) for f in ordered]
    index = {g: i for i, g in enumerate(graphs)}
    try:
        compose_t, anti_t, range_t, pref_t = _gathered_tables(graphs, index, k, row_type(len(graphs)))
    except KeyError:
        # a result lies outside the set: the direct kernel names the first,
        # in row-major order: compose, antidomain, range, then pref_union,
        # with its operands by their names when names are given
        n = len(graphs)
        label = ordered if names is None else [names[f] for f in ordered]
        ops = [("compose", i) for i in range(n)] + [("antidomain", None), ("range", None)]
        for (op, i), results in zip(ops + [("pref_union", i) for i in range(n)], _op_rows(graphs, k)):
            if None in (found := list(map(index.get, results))):
                j = found.index(None)
                missing = PFunc(base, tuple(None if v == k else v for v in results[j]))
                raise NotClosedError(op, tuple(label[x] for x in ((j,) if i is None else (i, j))), missing) from None
        raise InconsistencyError("as_abstract: the row gathers met a result that the direct kernel finds in the set")

    name_list = tuple(_auto_name(f) if names is None else names[f] for f in ordered)
    alg = FinAlgebra(compose_t=compose_t, anti_t=anti_t, range_t=range_t, pref_t=pref_t, names=name_list)
    return alg, tuple(ordered)


def _auto_name(f: PFunc) -> str:
    if not any(v is not None for v in f.graph):
        return "0"
    return "{" + ",".join(f"{x}>{y}" for x, y in f.mapping.items()) + "}"
