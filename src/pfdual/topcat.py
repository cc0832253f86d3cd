"""Finite topological categories and multivalued functors.

A finite topology is stored as the minimal open neighbourhood of each point,
a bitmask over an indexed carrier; on a finite carrier this is the same
thing as a topology (its specialization preorder).  Every check below
(continuity, local homeomorphism, openness, the star conditions) is decided
exactly from those neighbourhoods, one per point, without listing the opens.

The composition table maps each pair without a composite to a zero, the
index n_arrows, so a category is a semigroup table like an algebra's
compose_t, and its associativity is decided by the algebra's Light test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .algebra import _light_test, generating_set, hash_once, pick
from .bitsets import bits, image, mask_of, popcount, preimage, union


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

    def is_open(self, mask: int) -> bool:
        loose = mask & self._loose
        if not loose:
            return True
        if mask & ~self.full:
            return False
        return not any(self.nbhds[i] & ~mask for i in bits(loose))

    def is_clopen(self, mask: int) -> bool:
        return self.is_open(mask) and self.is_open(self.full & ~mask)

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

    @cached_property
    def _loose(self) -> int:
        """The bits of a mask that `is_open` must look at: everything outside
        the carrier, and the points whose neighbourhood is more than
        themselves.  On a discrete topology that leaves one mask test."""
        loose = ~self.full
        for i, m in enumerate(self.nbhds):
            if m != 1 << i:
                loose |= 1 << i
        return loose


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

    def star(self, x: int) -> tuple[int, ...]:
        """Arrows with source x."""
        return tuple(f for f in range(self.n_arrows) if self.src[f] == x)

    def costar(self, x: int) -> tuple[int, ...]:
        """Arrows with target x."""
        return tuple(f for f in range(self.n_arrows) if self.tgt[f] == x)

    @cached_property
    def report(self) -> "CObjectReport":
        """The `validate_object_of_C` report, made once per category."""
        return validate_object_of_C(self)

    def check_category(self) -> list[str]:
        """Category axioms; returns a list of problems (empty when valid).

        Each row's endpoints are compared with those it must have, and only
        a row that differs is walked pair by pair for its messages.
        Associativity is Light's test on the table with its zero row; only
        when it fails are the composable triples scanned for the failures.
        """
        problems = []
        n, C, src, tgt = self.n_arrows, self.comp_t, self.src, self.tgt
        for x in range(self.n_objects):
            e = self.id_of[x]
            if src[e] != x or tgt[e] != x:
                problems.append(f"identity of object {x} has wrong endpoints")
        ends = [(src[h], tgt[h]) for h in range(n)] + [None]
        expected = {}  # (src f, tgt f) -> the endpoints row f must compose to
        for f, row in enumerate(C):
            x, y = src[f], tgt[f]
            if (x, y) not in expected:
                expected[x, y] = tuple((x, tgt[g]) if src[g] == y else None for g in range(n))
            if tuple(map(ends.__getitem__, row)) == expected[x, y]:
                continue
            for g, h in enumerate(row):
                if (h != n) != (src[g] == y):
                    problems.append(f"composition defined on wrong pair ({f},{g})")
                elif h != n and (src[h] != src[f] or tgt[h] != tgt[g]):
                    problems.append(f"composite of ({f},{g}) has wrong endpoints")
        for f in range(n):
            if C[self.id_of[src[f]]][f] != f:
                problems.append(f"left unit law fails at arrow {f}")
            if C[f][self.id_of[tgt[f]]] != f:
                problems.append(f"right unit law fails at arrow {f}")
        table = [row + (n,) for row in C] + [(n,) * (n + 1)]
        if not _light_test(table, generating_set(table)):
            stars = [self.star(x) for x in range(self.n_objects)]
            for f in range(n):
                Cf = table[f]
                for g in stars[tgt[f]]:
                    Cfg, Cg = table[Cf[g]], table[g]
                    for h in stars[tgt[g]]:
                        if Cfg[h] != Cf[Cg[h]]:
                            problems.append(f"associativity fails at ({f},{g},{h})")
        return problems


def comp_table(n_arrows: int, triples: Iterable[tuple[int, int, int]]) -> tuple[tuple[int, ...], ...]:
    """The table with composite h at (f, g) for each triple (f, g, h), and
    the zero index n_arrows everywhere else."""
    table = [[n_arrows] * n_arrows for _ in range(n_arrows)]
    for f, g, h in triples:
        table[f][g] = h
    return tuple(map(tuple, table))


# ---------------------------------------------------------------------------
# Continuity and the etale/Stone/epi checks
# ---------------------------------------------------------------------------


def _failing(preimage_of, domain: FinTopology, codomain: FinTopology) -> list[int]:
    """The codomain neighbourhoods whose preimage is not open.  Preimages
    preserve unions and every open is a union of neighbourhoods, so the map
    (or relation) is continuous iff this list is empty."""
    return [n for n in codomain.basis if not domain.is_open(preimage_of(n))]


def check_topological_category(cat: TopCategory) -> tuple[tuple[str, int], ...]:
    """Continuity of source, target, identity-assignment and composition:
    the (label, basis set) pairs whose preimage is not open, none when all
    four maps are continuous.

    Around a composable pair (f, g) lie the composable (f', g') with f' near
    f and g' near g.  A basis set n is a composition witness iff some arrow
    in n is the composite of a pair with a pair around it composing outside
    n; only pairs with a non-isolated arrow have others around them.  About
    3·n·L steps for n arrows and L near pairs; a category file holds n·L to MAX_ELEMENTS².
    """
    n_arr, C, near = cat.n_arrows, cat.comp_t, cat.arr_top.nbhds
    loose = [f for f in range(n_arr) if near[f] != 1 << f]
    # spread[h]: the composites of the pairs around the pairs composing to h,
    # and the zero's bit (masked off below) for the pairs that do not compose
    spread = [0] * n_arr
    for g in range(n_arr):
        if near[g] != 1 << g:
            # around[f2]: the composites of f2 with the arrows near g
            around = [image(row, near[g]) for row in C]
            for f, row in enumerate(C):
                if row[g] != n_arr:
                    spread[row[g]] |= union(around[f2] for f2 in bits(near[f]))
        else:
            for f in loose:
                if C[f][g] != n_arr:
                    spread[C[f][g]] |= mask_of(C[f2][g] for f2 in bits(near[f]))
    failing = {
        "src": _failing(lambda n: preimage(cat.src, n), cat.arr_top, cat.obj_top),
        "tgt": _failing(lambda n: preimage(cat.tgt, n), cat.arr_top, cat.obj_top),
        "id": _failing(lambda n: preimage(cat.id_of, n), cat.obj_top, cat.arr_top),
        "comp": [n for n in cat.arr_top.basis if any(spread[h] & cat.arr_top.full & ~n for h in bits(n))],
    }
    return tuple((label, n) for label, ns in failing.items() for n in ns)


def is_local_homeo(cat: TopCategory) -> bool:
    """Every arrow has an open neighbourhood that the source map takes
    homeomorphically onto an open set of objects.

    Only each arrow's minimal neighbourhood is tried: if some open set
    works, so does every open subset of it.
    """
    mapping = cat.src
    if _failing(lambda n: preimage(mapping, n), cat.arr_top, cat.obj_top):
        return False
    return all(_neighbourhood_works(cat, mapping, u) for u in cat.arr_top.nbhds)


def _neighbourhood_works(cat: TopCategory, mapping: tuple[int, ...], u: int) -> bool:
    pts = list(bits(u))
    imgs = [mapping[i] for i in pts]
    if len(set(imgs)) != len(imgs):
        return False
    onto = mask_of(imgs)
    if not cat.obj_top.is_open(onto):
        return False
    # inverse continuity: the neighbourhoods inside u (a basis of its
    # relative topology) map to relatively open sets
    for p in pts:
        t = image(mapping, cat.arr_top.nbhds[p])
        if any(cat.obj_top.nbhds[y] & onto & ~t for y in bits(t)):
            return False
    return True


def is_open_map(cat: TopCategory) -> bool:
    """The target map is open.  Images preserve unions, so the images of
    the neighbourhoods decide."""
    return all(cat.obj_top.is_open(image(cat.tgt, n)) for n in cat.arr_top.basis)


def is_stone(top: FinTopology) -> bool:
    """Every pair of distinct points is separated by a clopen set.

    Compactness is automatic for finite spaces, and a finite space whose
    points are separated by clopens is T1, hence discrete.
    """
    return top.is_discrete()


def all_arrows_epi(cat: TopCategory) -> bool:
    """Right cancellation: a.b = a.c forces b = c, so each row of the table
    is injective on the arrows after its arrow."""
    stars = [cat.star(x) for x in range(cat.n_objects)]
    takes = [pick(star) for star in stars]
    return all(len(set(takes[y](row))) == len(stars[y]) for row, y in zip(cat.comp_t, cat.tgt))


@dataclass(frozen=True)
class CObjectReport:
    category_problems: tuple[str, ...]
    continuity: tuple[tuple[str, int], ...]  # check_topological_category's witnesses
    src_local_homeo: bool
    tgt_open: bool
    objects_stone: bool
    arrows_epi: bool

    @property
    def passed(self) -> bool:
        return (
            not self.category_problems
            and not self.continuity
            and self.src_local_homeo
            and self.tgt_open
            and self.objects_stone
            and self.arrows_epi
        )

    def problems(self, stone_etale_only: bool = False) -> tuple[str, ...]:
        """Every failed condition in a fixed order; stone_etale_only leaves
        out the two that Stone etale does not need: open target, epimorphisms."""
        out = list(self.category_problems)
        for label, u in self.continuity:
            out.append(f"{label} not continuous at open {u:#x}")
        if not self.src_local_homeo:
            out.append("source map is not a local homeomorphism")
        if not self.tgt_open and not stone_etale_only:
            out.append("target map is not open")
        if not self.objects_stone:
            out.append("object space is not Stone")
        if not self.arrows_epi and not stone_etale_only:
            out.append("some arrow is not an epimorphism")
        return tuple(out)


def validate_object_of_C(cat: TopCategory) -> CObjectReport:
    """All membership conditions for the dual category class: category
    axioms, continuity, source local homeomorphism, open target, Stone
    object space, and every arrow an epimorphism."""
    problems = tuple(cat.check_category())
    continuity = check_topological_category(cat)
    return CObjectReport(
        category_problems=problems,
        continuity=continuity,
        src_local_homeo=not continuity and is_local_homeo(cat),
        tgt_open=is_open_map(cat),
        objects_stone=is_stone(cat.obj_top),
        arrows_epi=not problems and all_arrows_epi(cat),
    )


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


def identity_multifunctor(cat: TopCategory) -> MultiFunctor:
    return MultiFunctor(
        source=cat, target=cat,
        obj_map=tuple(range(cat.n_objects)),
        arr_rel=tuple(1 << f for f in range(cat.n_arrows)),
    )


@dataclass(frozen=True)
class MultiFunctorReport:
    witness: Optional[tuple] = None  # ("endpoints", f, g), ("identity", x) or ("composition", f1, f2, g1, g2)

    @property
    def passed(self) -> bool:
        return self.witness is None


def check_multifunctor(fun: MultiFunctor) -> MultiFunctorReport:
    """The three structural conditions: related arrows have the mapped
    endpoints, mapped identities are related to identities, and relatedness
    is preserved by composition.  The last takes at most p² pair tests for
    p related pairs, which a functor file holds to MAX_ELEMENTS; a plain
    functor, each arrow related to one, takes one row test per arrow."""
    src_c, tgt_c = fun.source, fun.target
    for f in range(src_c.n_arrows):
        for g in bits(fun.arr_rel[f]):
            if tgt_c.src[g] != fun.obj_map[src_c.src[f]] or tgt_c.tgt[g] != fun.obj_map[src_c.tgt[f]]:
                return MultiFunctorReport(("endpoints", f, g))
    for x in range(src_c.n_objects):
        if not fun.arr_rel[src_c.id_of[x]] >> tgt_c.id_of[fun.obj_map[x]] & 1:
            return MultiFunctorReport(("identity", x))
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
                        return MultiFunctorReport(("composition", f1, f2, g1, g2))
    return MultiFunctorReport()


def relation_preimage(fun: MultiFunctor, mask: int) -> int:
    """Arrows whose image meets the given set of target arrows."""
    return mask_of(f for f in range(fun.source.n_arrows) if fun.arr_rel[f] & mask)


def is_continuous_multifunctor(fun: MultiFunctor) -> bool:
    src_c, tgt_c = fun.source, fun.target
    return not (
        _failing(lambda n: preimage(fun.obj_map, n), src_c.obj_top, tgt_c.obj_top)
        or _failing(lambda n: relation_preimage(fun, n), src_c.arr_top, tgt_c.arr_top)
    )


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
    injective = surjective = pseudo = co_pseudo = True
    for x in range(src_c.n_objects):
        hit = 0  # the images of the star so far, which the next must miss
        for f in src_c.star(x):
            injective = injective and not hit & rel[f]
            hit |= rel[f]
        cohit = union(rel[f] for f in src_c.costar(x))
        fx = fun.obj_map[x]
        star_mask, costar_mask = mask_of(tgt_c.star(fx)), mask_of(tgt_c.costar(fx))
        surjective = surjective and not star_mask & ~hit
        pseudo = pseudo and all(near[g] & hit for g in bits(star_mask))
        co_pseudo = co_pseudo and all(near[g] & cohit for g in bits(costar_mask))
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
    return all(popcount(m) == 1 for m in fun.arr_rel)
