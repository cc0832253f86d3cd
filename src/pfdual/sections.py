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
import operator

from .algebra import MAX_ELEMENTS, FinAlgebra, Homomorphism, derived
from .bitsets import bits, image, mask_of, popcount, preimage
from .errors import InconsistencyError
from .topcat import MultiFunctor, TopCategory, relation_preimage, star_checks


def enumerate_sections(cat: TopCategory) -> tuple[int, ...]:
    """The image masks of all sections, in a fixed order: domains by size
    then mask value, choices lexicographically by per-object arrow index.

    Refuses a category that may have more than MAX_ELEMENTS sections, by
    the product of 1 + |star x| over the objects x (so also 1 + arrows), so
    any section algebra written can be read back; and one that is not Stone
    etale, naming the Stone etale problems of the category's `report`; the
    epimorphism condition is not needed."""
    bound = math.prod(1 + cat.src.count(x) for x in range(cat.n_objects))
    if bound > MAX_ELEMENTS:
        raise ValueError(f"category may have {bound} sections, over the limit MAX_ELEMENTS = {MAX_ELEMENTS}")
    problems = cat.report.stone_etale_problems
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
# The section algebra and its homomorphisms
# ---------------------------------------------------------------------------


def seccl_object(cat: TopCategory) -> tuple[FinAlgebra, tuple[int, ...]]:
    """The algebra of all sections of a validated category.

    Returns the operation tables together with the section images they
    index.  A section has at most one arrow per object, so row s of the
    compose table is the union of one column per arrow f of s: entry j is
    the bit of f then section j's arrow at tgt f, or 0 if it has none.
    Antidomain, range and pref read the objects each section covers.  Every
    result is looked up among the enumerated images, which are exactly the
    sections, so the lookup is the validity check.
    """
    images = enumerate_sections(cat)
    look = {m: i for i, m in enumerate(images)}.__getitem__
    n, src, tgt = cat.n_arrows, cat.src, cat.tgt
    # at[y][j]: the arrow of section j at object y, or the zero index n
    at = [[n] * len(images) for _ in range(cat.n_objects)]
    for j, m in enumerate(images):
        for f in bits(m):
            at[src[f]][j] = f
    bit = [1 << h for h in range(n)] + [0]
    columns = [tuple(map(bit.__getitem__, map((row + (n,)).__getitem__, at[y]))) for row, y in zip(cat.comp_t, tgt)]
    union = functools.partial(map, operator.or_)
    covered = [image(src, m) for m in images]
    # the arrows out of the objects each section leaves uncovered
    rest = [~preimage(src, d) for d in covered]

    try:
        compose_t = tuple(
            tuple(map(look, functools.reduce(union, (columns[f] for f in bits(m)), (0,) * len(images))))
            for m in images
        )
        anti_t = tuple(look(image(cat.id_of, (1 << cat.n_objects) - 1 & ~d)) for d in covered)
        range_t = tuple(look(image(cat.id_of, image(tgt, m))) for m in images)
        pref_t = tuple(tuple(map(look, map(m.__or__, map(r.__and__, images)))) for m, r in zip(images, rest))
    except KeyError:
        raise InconsistencyError("sections are not closed under the operations") from None
    names = tuple(f"s{i}" for i in range(len(images)))
    return FinAlgebra(compose_t=compose_t, anti_t=anti_t, range_t=range_t, pref_t=pref_t, names=names), images


@derived
def sections_of(cat: TopCategory) -> tuple[FinAlgebra, tuple[int, ...]]:
    return seccl_object(cat)


@derived
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
