"""Finite topological categories and multivalued functors.

A finite topology is stored as the minimal open neighbourhood of each point,
a bitmask over an indexed carrier; on a finite carrier this is the same
thing as a topology (its specialization preorder).  Every check below
(continuity, local homeomorphism, openness, the star conditions) is decided
exactly from those neighbourhoods, one per point, without listing the opens.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .bitsets import bits, mask_of, popcount


@dataclass(frozen=True)
class FinTopology:
    """A topology on carrier indices 0..size-1.

    nbhds[i] is the smallest open set containing point i.  A set is open
    iff it contains the neighbourhood of each of its points.
    """

    size: int
    nbhds: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.nbhds) != self.size:
            raise ValueError("a topology needs one neighbourhood per point")
        for i, m in enumerate(self.nbhds):
            if m & ~self.full:
                raise ValueError(f"neighbourhood of point {i} lies outside the carrier")
            if not m >> i & 1:
                raise ValueError(f"neighbourhood of point {i} does not contain it")
            if any(self.nbhds[j] & ~m for j in bits(m)):
                raise ValueError(f"neighbourhood of point {i} is not open")

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
    return FinTopology(size, tuple(1 << i for i in range(size)))


def generate_topology(size: int, subbasis: Iterable[int]) -> FinTopology:
    """The coarsest topology in which every subbasis set is open: each point's
    neighbourhood is the intersection of the subbasis sets containing it."""
    full = (1 << size) - 1
    nbhds = [full] * size
    for m in subbasis:
        m &= full
        for i in bits(m):
            nbhds[i] &= m
    return FinTopology(size, tuple(nbhds))


# ---------------------------------------------------------------------------
# Topological categories
# ---------------------------------------------------------------------------

# The most arrows a category file or a category to take sections of may
# have.  The checks are cubic in the arrow count, and checking a functor
# with a full arrow relation is quartic: on the one-object category of the
# cyclic group of order 64, `functor-check` took 13.6 s, `sections` 1.1 s,
# and `bidual` on the zero-extended group 0.6 s (2 vCPUs, Python 3.11).
MAX_ARROWS = 64


@dataclass(frozen=True)
class TopCategory:
    """A finite category with topologies on its objects and arrows.

    comp maps composable pairs (arrow f, arrow g with tgt f = src g) to the
    arrow "f then g"; it must be defined on exactly those pairs.
    """

    obj_names: tuple[str, ...]
    arr_names: tuple[str, ...]
    obj_top: FinTopology
    arr_top: FinTopology
    src: tuple[int, ...]
    tgt: tuple[int, ...]
    id_of: tuple[int, ...]
    comp_pairs: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        n_obj, n_arr = len(self.obj_names), len(self.arr_names)
        if self.obj_top.size != n_obj or self.arr_top.size != n_arr:
            raise ValueError("topology sizes must match carrier sizes")
        if len(self.src) != n_arr or len(self.tgt) != n_arr or len(self.id_of) != n_obj:
            raise ValueError("src/tgt/id_of sizes are wrong")

    @property
    def n_objects(self) -> int:
        return len(self.obj_names)

    @property
    def n_arrows(self) -> int:
        return len(self.arr_names)

    @cached_property
    def comp(self) -> dict[tuple[int, int], int]:
        return {(f, g): h for f, g, h in self.comp_pairs}

    def composable(self, f: int, g: int) -> bool:
        return self.tgt[f] == self.src[g]

    def compose(self, f: int, g: int) -> int:
        return self.comp[(f, g)]

    def star(self, x: int) -> tuple[int, ...]:
        """Arrows with source x."""
        return tuple(f for f in range(self.n_arrows) if self.src[f] == x)

    def costar(self, x: int) -> tuple[int, ...]:
        """Arrows with target x."""
        return tuple(f for f in range(self.n_arrows) if self.tgt[f] == x)

    def identity_mask(self) -> int:
        return mask_of(self.id_of)

    def check_category(self) -> list[str]:
        """Category axioms; returns a list of problems (empty when valid)."""
        problems = []
        comp = self.comp
        for x in range(self.n_objects):
            e = self.id_of[x]
            if self.src[e] != x or self.tgt[e] != x:
                problems.append(f"identity of object {x} has wrong endpoints")
        for f in range(self.n_arrows):
            for g in range(self.n_arrows):
                defined = (f, g) in comp
                if defined != self.composable(f, g):
                    problems.append(f"composition defined on wrong pair ({f},{g})")
                elif defined:
                    h = comp[(f, g)]
                    if self.src[h] != self.src[f] or self.tgt[h] != self.tgt[g]:
                        problems.append(f"composite of ({f},{g}) has wrong endpoints")
        for f in range(self.n_arrows):
            if comp.get((self.id_of[self.src[f]], f)) != f:
                problems.append(f"left unit law fails at arrow {f}")
            if comp.get((f, self.id_of[self.tgt[f]])) != f:
                problems.append(f"right unit law fails at arrow {f}")
        for f in range(self.n_arrows):
            for g in range(self.n_arrows):
                if not self.composable(f, g):
                    continue
                for h in range(self.n_arrows):
                    if not self.composable(g, h):
                        continue
                    if comp[(comp[(f, g)], h)] != comp[(f, comp[(g, h)])]:
                        problems.append(f"associativity fails at ({f},{g},{h})")
        return problems


def make_category(
    obj_names: Iterable[str],
    arrows: Iterable[tuple[str, str, str]],
    id_of: dict[str, str],
    comp: dict[tuple[str, str], str],
    obj_opens: Optional[Iterable[Iterable[str]]] = None,
    arr_opens: Optional[Iterable[Iterable[str]]] = None,
) -> TopCategory:
    """Convenience constructor from names; topologies default to discrete."""
    objs = tuple(obj_names)
    arrs = tuple(arrows)
    arr_names = tuple(a[0] for a in arrs)
    oi = {o: i for i, o in enumerate(objs)}
    ai = {a: i for i, a in enumerate(arr_names)}
    src = tuple(oi[a[1]] for a in arrs)
    tgt = tuple(oi[a[2]] for a in arrs)
    ids = tuple(ai[id_of[o]] for o in objs)
    pairs = tuple(sorted((ai[f], ai[g], ai[h]) for (f, g), h in comp.items()))
    if obj_opens is None:
        otop = discrete_topology(len(objs))
    else:
        otop = generate_topology(len(objs), (mask_of(oi[x] for x in U) for U in obj_opens))
    if arr_opens is None:
        atop = discrete_topology(len(arrs))
    else:
        atop = generate_topology(len(arrs), (mask_of(ai[x] for x in U) for U in arr_opens))
    return TopCategory(
        obj_names=objs, arr_names=arr_names, obj_top=otop, arr_top=atop,
        src=src, tgt=tgt, id_of=ids, comp_pairs=pairs,
    )


# ---------------------------------------------------------------------------
# Continuity and the etale/Stone/epi checks
# ---------------------------------------------------------------------------


def _image(mapping: tuple[int, ...], mask: int) -> int:
    return mask_of(mapping[i] for i in bits(mask))


def _preimage(mapping: tuple[int, ...], mask: int) -> int:
    return mask_of(i for i in range(len(mapping)) if mask >> mapping[i] & 1)


def _failing(preimage, domain: FinTopology, codomain: FinTopology) -> list[int]:
    """The codomain neighbourhoods whose preimage is not open.  Preimages
    preserve unions and every open is a union of neighbourhoods, so the map
    (or relation) is continuous iff this list is empty."""
    return [n for n in codomain.basis if not domain.is_open(preimage(n))]


@dataclass(frozen=True)
class TopCategoryReport:
    src_continuous: bool
    tgt_continuous: bool
    id_continuous: bool
    comp_continuous: bool
    witnesses: tuple[tuple[str, int], ...]

    @property
    def passed(self) -> bool:
        return self.src_continuous and self.tgt_continuous and self.id_continuous and self.comp_continuous


def check_topological_category(cat: TopCategory) -> TopCategoryReport:
    """Continuity of source, target, identity-assignment and composition.

    Composition is checked on the pullback of composable pairs, a subspace
    of the product: the neighbourhood of a pair (f, g) is the set of
    composable pairs (f', g') with f' near f and g' near g.  Witnesses are
    the codomain neighbourhoods whose preimage is not open.
    """
    witnesses: list[tuple[str, int]] = []

    def continuous(preimage, domain_top: FinTopology, codomain_top: FinTopology, label: str) -> bool:
        failing = _failing(preimage, domain_top, codomain_top)
        witnesses.extend((label, n) for n in failing)
        return not failing

    src_ok = continuous(lambda n: _preimage(cat.src, n), cat.arr_top, cat.obj_top, "src")
    tgt_ok = continuous(lambda n: _preimage(cat.tgt, n), cat.arr_top, cat.obj_top, "tgt")
    id_ok = continuous(lambda n: _preimage(cat.id_of, n), cat.obj_top, cat.arr_top, "id")

    pairs = sorted(cat.comp)
    near = cat.arr_top.nbhds
    first = [mask_of(i for i, (f, _) in enumerate(pairs) if m >> f & 1) for m in near]
    second = [mask_of(i for i, (_, g) in enumerate(pairs) if m >> g & 1) for m in near]
    pullback = FinTopology(len(pairs), tuple(first[f] & second[g] for f, g in pairs))
    composite = tuple(cat.comp[p] for p in pairs)
    comp_ok = continuous(lambda n: _preimage(composite, n), pullback, cat.arr_top, "comp")
    return TopCategoryReport(src_ok, tgt_ok, id_ok, comp_ok, tuple(witnesses))


def _map_of(cat: TopCategory, which: str) -> tuple[int, ...]:
    if which == "src":
        return cat.src
    if which == "tgt":
        return cat.tgt
    raise ValueError("which must be 'src' or 'tgt'")


def is_local_homeo(cat: TopCategory, which: str = "src") -> bool:
    """Every arrow has an open neighbourhood mapped homeomorphically onto an
    open set of objects.

    Only each arrow's minimal neighbourhood is tried: if some open set
    works, so does every open subset of it.
    """
    mapping = _map_of(cat, which)
    if _failing(lambda n: _preimage(mapping, n), cat.arr_top, cat.obj_top):
        return False
    return all(_neighbourhood_works(cat, mapping, u) for u in cat.arr_top.nbhds)


def _neighbourhood_works(cat: TopCategory, mapping: tuple[int, ...], u: int) -> bool:
    pts = list(bits(u))
    imgs = [mapping[i] for i in pts]
    if len(set(imgs)) != len(imgs):
        return False
    image = mask_of(imgs)
    if not cat.obj_top.is_open(image):
        return False
    # inverse continuity: the neighbourhoods inside u (a basis of its
    # relative topology) map to relatively open sets
    for p in pts:
        t = _image(mapping, cat.arr_top.nbhds[p])
        if any(cat.obj_top.nbhds[y] & image & ~t for y in bits(t)):
            return False
    return True


def is_open_map(cat: TopCategory, which: str = "tgt") -> bool:
    """Images preserve unions, so the images of the neighbourhoods decide."""
    mapping = _map_of(cat, which)
    return all(cat.obj_top.is_open(_image(mapping, n)) for n in cat.arr_top.basis)


def is_stone(top: FinTopology) -> bool:
    """Every pair of distinct points is separated by a clopen set.

    Compactness is automatic for finite spaces, and a finite space whose
    points are separated by clopens is T1, hence discrete.
    """
    return top.is_discrete()


def all_arrows_epi(cat: TopCategory) -> bool:
    """Right cancellation: a.b = a.c forces b = c."""
    for a in range(cat.n_arrows):
        y = cat.tgt[a]
        post = [b for b in range(cat.n_arrows) if cat.src[b] == y]
        for b in post:
            for c in post:
                if b != c and cat.compose(a, b) == cat.compose(a, c):
                    return False
    return True


def identity_arrows_open(cat: TopCategory) -> bool:
    return cat.arr_top.is_open(cat.identity_mask())


@dataclass(frozen=True)
class CObjectReport:
    category_problems: tuple[str, ...]
    topology: TopCategoryReport
    src_local_homeo: bool
    tgt_open: bool
    objects_stone: bool
    arrows_epi: bool

    @property
    def passed(self) -> bool:
        return (
            not self.category_problems
            and self.topology.passed
            and self.src_local_homeo
            and self.tgt_open
            and self.objects_stone
            and self.arrows_epi
        )

    def problems(self) -> tuple[str, ...]:
        out = list(self.category_problems)
        for label, u in self.topology.witnesses:
            out.append(f"{label} not continuous at open {u:#x}")
        if not self.src_local_homeo:
            out.append("source map is not a local homeomorphism")
        if not self.tgt_open:
            out.append("target map is not open")
        if not self.objects_stone:
            out.append("object space is not Stone")
        if not self.arrows_epi:
            out.append("some arrow is not an epimorphism")
        return tuple(out)


def validate_object_of_C(cat: TopCategory) -> CObjectReport:
    """All membership conditions for the dual category class: category
    axioms, continuity, source local homeomorphism, open target, Stone
    object space, and every arrow an epimorphism."""
    problems = tuple(cat.check_category())
    top = check_topological_category(cat)
    return CObjectReport(
        category_problems=problems,
        topology=top,
        src_local_homeo=is_local_homeo(cat, "src") if top.passed else False,
        tgt_open=is_open_map(cat, "tgt"),
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

    def values(self, f: int) -> tuple[int, ...]:
        return tuple(bits(self.arr_rel[f]))


def identity_multifunctor(cat: TopCategory) -> MultiFunctor:
    return MultiFunctor(
        source=cat, target=cat,
        obj_map=tuple(range(cat.n_objects)),
        arr_rel=tuple(1 << f for f in range(cat.n_arrows)),
    )


@dataclass(frozen=True)
class MultiFunctorReport:
    endpoints_ok: bool
    identities_ok: bool
    compositions_ok: bool
    witness: Optional[tuple] = None

    @property
    def passed(self) -> bool:
        return self.endpoints_ok and self.identities_ok and self.compositions_ok


def check_multifunctor(fun: MultiFunctor) -> MultiFunctorReport:
    """The three structural conditions: related arrows have the mapped
    endpoints, mapped identities are related to identities, and relatedness
    is preserved by composition."""
    src_c, tgt_c = fun.source, fun.target
    for f in range(src_c.n_arrows):
        for g in bits(fun.arr_rel[f]):
            if tgt_c.src[g] != fun.obj_map[src_c.src[f]] or tgt_c.tgt[g] != fun.obj_map[src_c.tgt[f]]:
                return MultiFunctorReport(False, False, False, witness=("endpoints", f, g))
    for x in range(src_c.n_objects):
        if not fun.arr_rel[src_c.id_of[x]] >> tgt_c.id_of[fun.obj_map[x]] & 1:
            return MultiFunctorReport(True, False, False, witness=("identity", x))
    for (f1, f2), h in src_c.comp.items():
        for g1 in bits(fun.arr_rel[f1]):
            for g2 in bits(fun.arr_rel[f2]):
                if not fun.arr_rel[h] >> tgt_c.compose(g1, g2) & 1:
                    return MultiFunctorReport(True, True, False, witness=("composition", f1, f2, g1, g2))
    return MultiFunctorReport(True, True, True)


def relation_preimage(fun: MultiFunctor, mask: int) -> int:
    """Arrows whose image meets the given set of target arrows."""
    return mask_of(f for f in range(fun.source.n_arrows) if fun.arr_rel[f] & mask)


def is_continuous_multifunctor(fun: MultiFunctor) -> bool:
    src_c, tgt_c = fun.source, fun.target
    return not (
        _failing(lambda n: _preimage(fun.obj_map, n), src_c.obj_top, tgt_c.obj_top)
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
    src_c, tgt_c = fun.source, fun.target
    near = tgt_c.arr_top.nbhds
    injective = True
    surjective = True
    pseudo = True
    co_pseudo = True
    for x in range(src_c.n_objects):
        star = src_c.star(x)
        for i, f1 in enumerate(star):
            for f2 in star[i + 1:]:
                if fun.arr_rel[f1] & fun.arr_rel[f2]:
                    injective = False
        fx = fun.obj_map[x]
        star_mask = mask_of(tgt_c.star(fx))
        hit = 0
        for f in star:
            hit |= fun.arr_rel[f]
        if star_mask & ~hit:
            surjective = False
        if any(not near[g] & hit for g in bits(star_mask)):
            pseudo = False
        costar_mask = mask_of(tgt_c.costar(fx))
        cohit = 0
        for f in src_c.costar(x):
            cohit |= fun.arr_rel[f]
        if any(not near[g] & cohit for g in bits(costar_mask)):
            co_pseudo = False
    return StarReport(injective, surjective, pseudo, co_pseudo)


def compose_multifunctors(first: MultiFunctor, second: MultiFunctor) -> MultiFunctor:
    """Relational composition: apply `first`, then `second`."""
    if first.target != second.source:
        raise ValueError("functors are not composable")
    obj_map = tuple(second.obj_map[v] for v in first.obj_map)
    arr_rel = []
    for f in range(first.source.n_arrows):
        m = 0
        for g in bits(first.arr_rel[f]):
            m |= second.arr_rel[g]
        arr_rel.append(m)
    return MultiFunctor(first.source, second.target, obj_map, tuple(arr_rel))


def is_plain_functor(fun: MultiFunctor) -> bool:
    """Total and single-valued on arrows."""
    return all(popcount(m) == 1 for m in fun.arr_rel)
