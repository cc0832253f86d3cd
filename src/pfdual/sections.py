"""Sections on clopens of a finite etale category, and the algebra they form.

A section picks one arrow per object of a clopen set of objects, with the
source map as left inverse, so its image (the set of arrows it picks)
identifies it; continuity is equivalent to the image being an open set of
arrows.  The set of all such sections carries the four algebra
operations, giving the other half of the duality.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable

from .algebra import FinAlgebra, Homomorphism
from .bitsets import bits, mask_of, popcount
from .errors import InconsistencyError
from .topcat import (
    MultiFunctor,
    TopCategory,
    check_topological_category,
    is_local_homeo,
    relation_preimage,
    star_checks,
)


@dataclass(frozen=True)
class Section:
    """A choice of arrows over a clopen set of objects.

    choice is a tuple of (object, arrow) pairs sorted by object index;
    domain is the bitmask of the objects covered.
    """

    category: TopCategory
    domain: int
    choice: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        objs = [x for x, _ in self.choice]
        if objs != sorted(set(objs)) or mask_of(objs) != self.domain:
            raise ValueError("choice must cover exactly the domain, sorted, one arrow per object")
        for x, f in self.choice:
            if self.category.src[f] != x:
                raise ValueError(f"chosen arrow {f} does not start at object {x}")

    @property
    def image(self) -> int:
        return mask_of(f for _, f in self.choice)

    def is_valid(self) -> bool:
        """Clopen domain and open image (the continuity criterion)."""
        return self.category.obj_top.is_clopen(self.domain) and self.category.arr_top.is_open(self.image)


def section_from_arrows(cat: TopCategory, arrows: Iterable[int]) -> Section:
    """Assemble a section from a set of arrows; fails if two share a source."""
    pairs = sorted((cat.src[f], f) for f in arrows)
    seen = [x for x, _ in pairs]
    if len(set(seen)) != len(seen):
        raise ValueError("two arrows share a source; not a section")
    return Section(cat, mask_of(seen), tuple(pairs))


def _structurally_sound(cat: TopCategory) -> tuple[str, ...]:
    """Problems that make section enumeration meaningless: broken category
    axioms, discontinuous structure maps, or a source map that is not a
    local homeomorphism (the open-image continuity criterion needs it).
    Deliberately does not include the epimorphism condition."""
    problems = list(cat.check_category())
    if not problems:
        if not check_topological_category(cat).passed:
            problems.append("structure maps are not continuous")
        elif not is_local_homeo(cat, "src"):
            problems.append("source map is not a local homeomorphism")
    return tuple(problems)


MAX_SECTIONS = 2048


def enumerate_sections(cat: TopCategory) -> tuple[Section, ...]:
    """All sections on clopen domains, in a fixed order: domains by size
    then mask value, choices lexicographically by per-object arrow index.

    Refuses a category whose section count may exceed MAX_SECTIONS, bounded
    by the product of 1 + |star x| over the objects x."""
    bound = math.prod(1 + cat.src.count(x) for x in range(cat.n_objects))
    if bound > MAX_SECTIONS:
        raise ValueError(f"category may have {bound} sections, over the limit of {MAX_SECTIONS}")
    problems = _structurally_sound(cat)
    if problems:
        raise ValueError("cannot enumerate sections: " + "; ".join(problems))
    fibers = [cat.star(x) for x in range(cat.n_objects)]
    out = []
    for dom in sorted(cat.obj_top.clopens(), key=lambda m: (popcount(m), m)):
        objs = list(bits(dom))
        for picks in itertools.product(*(fibers[x] for x in objs)):
            s = Section(cat, dom, tuple(zip(objs, picks)))
            if cat.arr_top.is_open(s.image):
                out.append(s)
    return tuple(out)


# ---------------------------------------------------------------------------
# The four operations on sections
# ---------------------------------------------------------------------------


class _Images:
    """The four operations on section images (arrow masks) of one category;
    src(m) is the set of sources of the arrows in m."""

    def __init__(self, cat: TopCategory) -> None:
        self.cat = cat
        self.stars = [mask_of(cat.star(x)) for x in range(cat.n_objects)]

    def compose(self, a: int, b: int) -> int:
        """Each f in a, then the arrow of b at tgt f if there is one."""
        cat, out = self.cat, 0
        for f in bits(a):
            g = b & self.stars[cat.tgt[f]]
            if g:
                out |= 1 << cat.compose(f, g.bit_length() - 1)
        return out

    def antidomain(self, a: int) -> int:
        """Identities on the objects outside src(a)."""
        return mask_of(e for x, e in enumerate(self.cat.id_of) if not a & self.stars[x])

    def range(self, a: int) -> int:
        """Identities on the targets of a."""
        return mask_of(self.cat.id_of[self.cat.tgt[f]] for f in bits(a))

    def pref(self, a: int, b: int) -> int:
        """a, extended by the arrows of b whose source is outside src(a)."""
        covered = 0
        for f in bits(a):
            covered |= self.stars[self.cat.src[f]]
        return a | b & ~covered


def sec_compose(a: Section, b: Section) -> Section:
    """Pointwise: follow a, then b from where a landed."""
    return _checked(a.category, _Images(a.category).compose(a.image, b.image))


def sec_antidomain(a: Section) -> Section:
    """Identity arrows on the objects outside the domain of a."""
    return _checked(a.category, _Images(a.category).antidomain(a.image))


def sec_range(a: Section) -> Section:
    """Identity arrows on the targets hit by a."""
    return _checked(a.category, _Images(a.category).range(a.image))


def sec_pref(a: Section, b: Section) -> Section:
    """Override: a, extended by b outside the domain of a."""
    return _checked(a.category, _Images(a.category).pref(a.image, b.image))


def _checked(cat: TopCategory, image: int) -> Section:
    s = section_from_arrows(cat, bits(image))
    if not s.is_valid():
        raise InconsistencyError("operation produced an invalid section")
    return s


# ---------------------------------------------------------------------------
# The section algebra and its homomorphisms
# ---------------------------------------------------------------------------


def seccl_object(cat: TopCategory) -> tuple[FinAlgebra, tuple[Section, ...]]:
    """The algebra of all sections on clopens of a validated category.

    Returns the operation tables together with the section they index.
    Every result is looked up by its image among the enumerated sections,
    which are exactly the valid ones, so the lookup is the validity check.
    """
    secs = enumerate_sections(cat)
    images = [s.image for s in secs]
    index = {m: i for i, m in enumerate(images)}
    ops = _Images(cat)
    try:
        compose_t = tuple(tuple(index[ops.compose(a, b)] for b in images) for a in images)
        anti_t = tuple(index[ops.antidomain(a)] for a in images)
        range_t = tuple(index[ops.range(a)] for a in images)
        pref_t = tuple(tuple(index[ops.pref(a, b)] for b in images) for a in images)
    except KeyError:
        raise InconsistencyError("sections are not closed under the operations") from None
    names = tuple(f"s{i}" for i in range(len(secs)))
    return FinAlgebra(compose_t=compose_t, anti_t=anti_t, range_t=range_t, pref_t=pref_t, names=names), secs


@functools.lru_cache(maxsize=None)
def sections_of(cat: TopCategory) -> tuple[FinAlgebra, tuple[Section, ...]]:
    return seccl_object(cat)


def seccl_morphism(fun: MultiFunctor) -> Homomorphism:
    """Dualize a star-coherent multivalued functor F: C -> D into the
    homomorphism SecCl(D) -> SecCl(C) taking a section to its inverse image.
    Both section algebras are taken from `sections_of`.
    """
    if not star_checks(fun).coherent:
        raise ValueError("functor must be star coherent")
    alg_d, secs_d = sections_of(fun.target)
    alg_c, secs_c = sections_of(fun.source)
    index_c = {s.image: i for i, s in enumerate(secs_c)}
    mapping = []
    for s in secs_d:
        k = index_c.get(relation_preimage(fun, s.image))
        if k is None:
            raise InconsistencyError("inverse image of a section is not a section on a clopen")
        mapping.append(k)
    return Homomorphism(source=alg_d, target=alg_c, mapping=tuple(mapping))


def sections_form_basis(cat: TopCategory) -> bool:
    """Images of sections on clopens form a basis of the arrow topology:
    each arrow's minimal neighbourhood contains an image through it."""
    images = [s.image for s in enumerate_sections(cat)]
    return all(
        any(im >> m & 1 and not im & ~near for im in images)
        for m, near in enumerate(cat.arr_top.nbhds)
    )
