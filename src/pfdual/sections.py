"""Sections of a finite Stone etale category, and the algebra they form.

Sections are taken only of categories whose object space is Stone and whose
source map is a local homeomorphism.  On a finite carrier both topologies
are then discrete, so a section is any choice of at most one arrow per
object, and its image, the mask of the arrows it picks, is all there is to
it: the sources of those arrows are its domain.  The set of all sections
carries the four algebra operations, giving the other half of the duality.
"""

from __future__ import annotations

import functools
import itertools
import math

from .algebra import FinAlgebra, Homomorphism
from .bitsets import bits, mask_of, popcount
from .errors import InconsistencyError
from .topcat import MultiFunctor, TopCategory, relation_preimage, star_checks, validate_object_of_C

MAX_SECTIONS = 2048


def enumerate_sections(cat: TopCategory) -> tuple[int, ...]:
    """The image masks of all sections, in a fixed order: domains by size
    then mask value, choices lexicographically by per-object arrow index.

    Refuses a category whose section count may exceed MAX_SECTIONS,
    bounded by the product of 1 + |star x| over the objects x (so also by
    1 + arrows), and one that is not Stone etale, naming its problems as
    `validate_object_of_C` does; the epimorphism condition is not needed."""
    bound = math.prod(1 + cat.src.count(x) for x in range(cat.n_objects))
    if bound > MAX_SECTIONS:
        raise ValueError(f"category may have {bound} sections, over the limit MAX_SECTIONS = {MAX_SECTIONS}")
    problems = validate_object_of_C(cat).problems(stone_etale_only=True)
    if problems:
        raise ValueError("cannot enumerate sections: " + "; ".join(problems))
    # Each star is the preimage of an open point, so it is open; an arrow's
    # minimal neighbourhood lies in its star, where src is injective.
    if not cat.arr_top.is_discrete():
        raise InconsistencyError("arrow space of a Stone etale category is not discrete")
    stars = [cat.star(x) for x in range(cat.n_objects)]
    return tuple(
        mask_of(picks)
        for dom in sorted(range(1 << cat.n_objects), key=lambda m: (popcount(m), m))
        for picks in itertools.product(*(stars[x] for x in bits(dom)))
    )


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


# ---------------------------------------------------------------------------
# The section algebra and its homomorphisms
# ---------------------------------------------------------------------------


def seccl_object(cat: TopCategory) -> tuple[FinAlgebra, tuple[int, ...]]:
    """The algebra of all sections of a validated category.

    Returns the operation tables together with the section images they
    index.  Every result is looked up among the enumerated images, which
    are exactly the sections, so the lookup is the validity check.
    """
    images = enumerate_sections(cat)
    index = {m: i for i, m in enumerate(images)}
    ops = _Images(cat)
    try:
        compose_t = tuple(tuple(index[ops.compose(a, b)] for b in images) for a in images)
        anti_t = tuple(index[ops.antidomain(a)] for a in images)
        range_t = tuple(index[ops.range(a)] for a in images)
        pref_t = tuple(tuple(index[ops.pref(a, b)] for b in images) for a in images)
    except KeyError:
        raise InconsistencyError("sections are not closed under the operations") from None
    names = tuple(f"s{i}" for i in range(len(images)))
    return FinAlgebra(compose_t=compose_t, anti_t=anti_t, range_t=range_t, pref_t=pref_t, names=names), images


@functools.lru_cache(maxsize=None)
def sections_of(cat: TopCategory) -> tuple[FinAlgebra, tuple[int, ...]]:
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
    index_c = {m: i for i, m in enumerate(secs_c)}
    mapping = []
    for m in secs_d:
        k = index_c.get(relation_preimage(fun, m))
        if k is None:
            raise InconsistencyError("inverse image of a section is not a section")
        mapping.append(k)
    return Homomorphism(source=alg_d, target=alg_c, mapping=tuple(mapping))


def sections_form_basis(cat: TopCategory) -> bool:
    """Section images form a basis of the arrow topology: each arrow's
    minimal neighbourhood contains an image through it."""
    images = enumerate_sections(cat)
    return all(
        any(im >> m & 1 and not im & ~near for im in images)
        for m, near in enumerate(cat.arr_top.nbhds)
    )
