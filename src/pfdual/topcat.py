"""Finite topological categories and multivalued functors.

A finite topology is stored as the minimal open neighbourhood N(i) of each
point, a bitmask over an indexed carrier; on a finite carrier this is the
same thing as a topology (its specialization preorder).  Every check below
is decided point by point from those neighbourhoods, without an open set:

- a map f is continuous iff f(N(i)) lies in N(f(i)) for every point i;
- a relation R is continuous (the preimage of each open set is open) iff
  R(f') meets N(g) for every g in R(f) and every f' in N(f);
- src is a local homeomorphism iff it is one to one on each N(f) and
  src(N(f)) = N(src f).  An open set on which src is a homeomorphism onto an
  open set holds N(f), so src(N(f)) is open and holds N(src f); continuity
  gives the other inclusion.

The composition table maps each pair without a composite to a zero, the
index n_arrows, so a category is a semigroup table like an algebra's
compose_t: its associativity is decided by the algebra's Light test, and
its failing triples are listed by the algebra's `nonassociative`.  The
stars, the arrows out of each object, are built once and kept on the
category (`TopCategory.stars`) for every check that reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .algebra import associative, derived, hash_once, nonassociative, pick
from .bitsets import bits, image, mask_of, union


@dataclass(frozen=True)
class FinTopology:
    """A topology on the carrier indices 0..size-1, size being len(nbhds).

    nbhds[i] is the smallest open set containing point i.  A set is open
    iff it contains the neighbourhood of each of its points.
    """

    nbhds: tuple[int, ...]

    def __post_init__(self) -> None:
        opened: set[int] = set()  # openness depends on the neighbourhood alone
        for i, m in enumerate(self.nbhds):
            if m & ~self.full:
                raise ValueError(f"neighbourhood of point {i} lies outside the carrier")
            if not m >> i & 1:
                raise ValueError(f"neighbourhood of point {i} does not contain it")
            if m not in opened and any(self.nbhds[j] & ~m for j in bits(m)):
                raise ValueError(f"neighbourhood of point {i} is not open")
            opened.add(m)

    @property
    def size(self) -> int:
        return len(self.nbhds)

    @property
    def full(self) -> int:
        return (1 << self.size) - 1

    def is_discrete(self) -> bool:
        return all(m == 1 << i for i, m in enumerate(self.nbhds))

    @cached_property
    def basis(self) -> tuple[int, ...]:
        """The distinct minimal neighbourhoods in ascending order: the
        smallest basis of the topology."""
        return tuple(sorted(set(self.nbhds)))

    @cached_property
    def opens(self) -> tuple[int, ...]:
        """Every open set in ascending order, for display and tests: there
        can be 2^size of them, so no check reads this."""
        return _unions(self.basis)


def _unions(masks: Iterable[int]) -> tuple[int, ...]:
    """All unions of subfamilies of the masks, the empty union included."""
    out = {0}
    for m in masks:
        out |= {u | m for u in out}
    return tuple(sorted(out))


def discrete_topology(size: int) -> FinTopology:
    return FinTopology(tuple(1 << i for i in range(size)))


def generate_topology(size: int, subbasis: Iterable[int]) -> FinTopology:
    """The coarsest topology in which every subbasis set is open: each point's
    neighbourhood is the intersection of the subbasis sets containing it."""
    full = (1 << size) - 1
    nbhds = [full] * size
    for m in subbasis:
        m &= full
        for i in bits(m):
            nbhds[i] &= m
    return FinTopology(tuple(nbhds))


# ---------------------------------------------------------------------------
# Topological categories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TopCategory:
    """A finite category with topologies on its objects and arrows.

    comp_t[f][g] is the arrow "f then g" when tgt f = src g, and the zero
    index n_arrows when the pair does not compose.
    """

    obj_names: tuple[str, ...]
    arr_names: tuple[str, ...]
    obj_top: FinTopology
    arr_top: FinTopology
    src: tuple[int, ...]
    tgt: tuple[int, ...]
    id_of: tuple[int, ...]
    comp_t: tuple[tuple[int, ...], ...]

    __hash__ = hash_once

    def __post_init__(self) -> None:
        n_obj, n_arr = len(self.obj_names), len(self.arr_names)
        if self.obj_top.size != n_obj or self.arr_top.size != n_arr:
            raise ValueError("topology sizes must match carrier sizes")
        if len(self.src) != n_arr or len(self.tgt) != n_arr or len(self.id_of) != n_obj:
            raise ValueError("src/tgt/id_of sizes are wrong")
        if len(self.comp_t) != n_arr or any(len(row) != n_arr for row in self.comp_t):
            raise ValueError("the composition table must have one row and one column per arrow")

    @property
    def n_objects(self) -> int:
        return len(self.obj_names)

    @property
    def n_arrows(self) -> int:
        return len(self.arr_names)

    def compose(self, f: int, g: int) -> int:
        return self.comp_t[f][g]

    @cached_property
    def stars(self) -> tuple[tuple[int, ...], ...]:
        """stars[x]: the arrows with source x, in index order."""
        stars: list[list[int]] = [[] for _ in self.obj_names]
        for f, x in enumerate(self.src):
            stars[x].append(f)
        return tuple(map(tuple, stars))

    def check_category(self) -> list[str]:
        """Category axioms; returns a list of problems (empty when valid),
        naming objects and arrows as the category does.

        Each row's endpoints are compared with those it must have, and only
        a row that differs is walked pair by pair for its messages.
        Associativity is Light's test on the table with its zero row; only
        when it fails are the failing triples listed, those of `nonassociative`
        whose arrows compose by their endpoints.
        """
        problems = []
        n, C, src, tgt, name = self.n_arrows, self.comp_t, self.src, self.tgt, self.arr_names
        for x in range(self.n_objects):
            e = self.id_of[x]
            if src[e] != x or tgt[e] != x:
                problems.append(f"identity of object {self.obj_names[x]!r} has wrong endpoints")
        ends = [(src[h], tgt[h]) for h in range(n)] + [None]
        expected = {}  # (src f, tgt f) -> the endpoints row f must compose to
        for f, row in enumerate(C):
            x, y = src[f], tgt[f]
            if (x, y) not in expected:
                want = [None] * n
                for g in self.stars[y]:
                    want[g] = (x, tgt[g])
                expected[x, y] = tuple(want)
            if tuple(map(ends.__getitem__, row)) == expected[x, y]:
                continue
            for g, h in enumerate(row):
                if (h != n) != (src[g] == y):
                    problems.append(f"composition defined on wrong pair ({name[f]},{name[g]})")
                elif h != n and (src[h] != src[f] or tgt[h] != tgt[g]):
                    problems.append(f"composite of ({name[f]},{name[g]}) has wrong endpoints")
        for f in range(n):
            if C[self.id_of[src[f]]][f] != f:
                problems.append(f"left unit law fails at arrow {name[f]!r}")
            if C[f][self.id_of[tgt[f]]] != f:
                problems.append(f"right unit law fails at arrow {name[f]!r}")
        table = [row + (n,) for row in C] + [(n,) * (n + 1)]
        if not associative(table):
            problems += [f"associativity fails at ({name[f]},{name[g]},{name[h]})"
                         for f, g, h in nonassociative(table)
                         if n not in (f, g, h) and tgt[f] == src[g] and tgt[g] == src[h]]
        return problems


# ---------------------------------------------------------------------------
# The membership conditions of the dual class C
# ---------------------------------------------------------------------------


def _monotone(mapping: tuple[int, ...], domain: FinTopology, codomain: FinTopology) -> bool:
    """Continuity: each point's neighbourhood maps into the neighbourhood
    of its image."""
    near = codomain.nbhds
    return not any(image(mapping, u) & ~near[mapping[i]] for i, u in enumerate(domain.nbhds))


def is_local_homeo(cat: TopCategory) -> bool:
    """The source map takes each arrow's neighbourhood one to one onto the
    neighbourhood of the arrow's source."""
    src, onto = cat.src, cat.obj_top.nbhds
    return all(image(src, u) == onto[src[f]] and u.bit_count() == onto[src[f]].bit_count()
               for f, u in enumerate(cat.arr_top.nbhds))


def all_arrows_epi(cat: TopCategory) -> bool:
    """Right cancellation: a.b = a.c forces b = c, so each row of the table
    is injective on the arrows after its arrow."""
    takes = [pick(star) for star in cat.stars]
    return all(len(set(takes[y](row))) == len(cat.stars[y]) for row, y in zip(cat.comp_t, cat.tgt))


NOT_EPI = "some arrow is not an epimorphism"


@derived
def validate_object_of_C(cat: TopCategory) -> tuple[str, ...]:
    """The membership conditions of the dual class C that the category
    fails, by its finite form; empty when it is in C.  A finite Stone
    space is discrete.  Over discrete objects a source map that is a local
    homeomorphism makes the arrows discrete (each star is open, and src is
    injective on an open set around each arrow), so every structure map is
    continuous and the target map is open.  What is left to decide, in this
    order: the category axioms, local homeomorphism, discrete objects and,
    on a category, epimorphisms (NOT_EPI)."""
    problems = tuple(cat.check_category())
    local = () if is_local_homeo(cat) else ("source map is not a local homeomorphism",)
    stone = () if cat.obj_top.is_discrete() else ("object space is not Stone",)
    epi = () if problems or all_arrows_epi(cat) else (NOT_EPI,)
    return problems + local + stone + epi


# ---------------------------------------------------------------------------
# Multivalued functors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiFunctor:
    """An object map plus an arrow relation (possibly empty-valued).

    arr_rel[f] is the bitmask of target arrows related to source arrow f.
    """

    source: TopCategory
    target: TopCategory
    obj_map: tuple[int, ...]
    arr_rel: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.obj_map) != self.source.n_objects:
            raise ValueError("object map must cover every source object")
        if len(self.arr_rel) != self.source.n_arrows:
            raise ValueError("arrow relation must cover every source arrow")


def check_multifunctor(fun: MultiFunctor) -> Optional[tuple]:
    """The first failure of the three structural conditions, or None when
    all hold: related arrows have the mapped endpoints ("endpoints", f, g),
    mapped identities are related to identities ("identity", x), and
    relatedness is preserved by composition ("composition", f1, f2, g1, g2).
    The last takes at most p² pair tests for p related pairs, which a
    functor file holds to MAX_ELEMENTS; a plain functor, each arrow related
    to one, takes one row test per arrow."""
    src_c, tgt_c = fun.source, fun.target
    for f in range(src_c.n_arrows):
        for g in bits(fun.arr_rel[f]):
            if tgt_c.src[g] != fun.obj_map[src_c.src[f]] or tgt_c.tgt[g] != fun.obj_map[src_c.tgt[f]]:
                return ("endpoints", f, g)
    for x in range(src_c.n_objects):
        if not fun.arr_rel[src_c.id_of[x]] >> tgt_c.id_of[fun.obj_map[x]] & 1:
            return ("identity", x)
    rel, C, zero = fun.arr_rel, tgt_c.comp_t, src_c.n_arrows
    rows = enumerate(src_c.comp_t)
    if is_plain_functor(fun):
        # a plain functor F: scan only the rows f1 whose image under F is not
        # row F(f1) of the target read at F, as where a pair does not compose
        F = tuple(r.bit_length() - 1 for r in rel)
        F_or_zero, at_F = F + (tgt_c.n_arrows,), pick(F)
        rows = ((f1, row) for f1, row in rows if tuple(map(F_or_zero.__getitem__, row)) != at_F(C[F[f1]]))
    for f1, row in rows:
        for f2, h in enumerate(row):
            for g1 in bits(rel[f1]) if h != zero else ():
                for g2 in bits(rel[f2]):
                    if not rel[h] >> C[g1][g2] & 1:
                        return ("composition", f1, f2, g1, g2)
    return None


def relation_preimage(fun: MultiFunctor, mask: int) -> int:
    """Arrows whose image meets the given set of target arrows."""
    return mask_of(f for f in range(fun.source.n_arrows) if fun.arr_rel[f] & mask)


def is_continuous_multifunctor(fun: MultiFunctor) -> bool:
    """The object map is continuous, and so is the arrow relation: every
    arrow near f is related to an arrow near each arrow related to f.  That
    reads only the neighbourhoods N(f) and N(g) of a related pair, so each
    distinct pair of them is tested once."""
    src_c, tgt_c, rel = fun.source, fun.target, fun.arr_rel
    if not _monotone(fun.obj_map, src_c.obj_top, tgt_c.obj_top):
        return False
    near, onto = src_c.arr_top.nbhds, tgt_c.arr_top.nbhds
    pairs = {(near[f], onto[g]) for f, r in enumerate(rel) for g in bits(r)}
    return all(rel[f2] & u for m, u in pairs for f2 in bits(m))


@dataclass(frozen=True)
class StarReport:
    injective: bool
    surjective: bool
    pseudo: bool
    co_pseudo: bool

    @property
    def coherent(self) -> bool:
        return self.injective and self.surjective and self.co_pseudo


def star_checks(fun: MultiFunctor) -> StarReport:
    """The per-source-object restrictions of the arrow relation.

    injective: images of two arrows sharing a source can only meet if the
    arrows are equal.  surjective: every target arrow out of a mapped object
    is hit.  pseudo / co_pseudo: every open set meeting the mapped star
    (costar) is hit by the image of the star (costar); it is enough that the
    neighbourhood of each arrow in the mapped star (costar) is hit.
    """
    src_c, tgt_c, rel = fun.source, fun.target, fun.arr_rel
    near = tgt_c.arr_top.nbhds
    cohits = [0] * src_c.n_objects  # cohits[x]: the images of costar x
    for f, x in enumerate(src_c.tgt):
        cohits[x] |= rel[f]
    costars = [0] * tgt_c.n_objects  # costars[y]: the mask of costar y
    for g, y in enumerate(tgt_c.tgt):
        costars[y] |= 1 << g
    injective = surjective = pseudo = co_pseudo = True
    for x, star in enumerate(src_c.stars):
        hit = 0  # the images of the star so far, which the next must miss
        for f in star:
            injective = injective and not hit & rel[f]
            hit |= rel[f]
        fx = fun.obj_map[x]
        surjective = surjective and not mask_of(tgt_c.stars[fx]) & ~hit
        pseudo = pseudo and all(near[g] & hit for g in tgt_c.stars[fx])
        co_pseudo = co_pseudo and all(near[g] & cohits[x] for g in bits(costars[fx]))
    return StarReport(injective, surjective, pseudo, co_pseudo)


def compose_multifunctors(first: MultiFunctor, second: MultiFunctor) -> MultiFunctor:
    """Relational composition: apply `first`, then `second`."""
    if first.target != second.source:
        raise ValueError("functors are not composable")
    obj_map = tuple(second.obj_map[v] for v in first.obj_map)
    arr_rel = tuple(union(second.arr_rel[g] for g in bits(m)) for m in first.arr_rel)
    return MultiFunctor(first.source, second.target, obj_map, arr_rel)


def is_plain_functor(fun: MultiFunctor) -> bool:
    """Total and single-valued on arrows."""
    return all(m.bit_count() == 1 for m in fun.arr_rel)
