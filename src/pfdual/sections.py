"""Sections of a finite Stone etale category, and the algebra they form.

Sections are taken only of categories whose object space is Stone and whose
source map is a local homeomorphism.  On a finite carrier both topologies
are then discrete, so a section is any choice of at most one arrow per
object, and its image, the mask of the arrows it picks, is all there is to
it: the sources of those arrows are its domain.  The set of all sections
carries the four algebra operations, giving the other half of the duality.
"""

from __future__ import annotations

import itertools
import math
import struct
import sys

from .algebra import MAX_ELEMENTS, FinAlgebra, Homomorphism, derived
from .bitsets import BYTE_WIDTH, bits, mask_of
from .errors import InconsistencyError
from .topcat import NOT_EPI, MultiFunctor, TopCategory, relation_preimage, star_checks, validate_object_of_C


def require_section_bound(cat: TopCategory) -> None:
    """Refuse a category that may have more than MAX_ELEMENTS sections, by
    the product of 1 + |star x| over the objects x (so also 1 + arrows), so
    any section algebra written can be read back.  It reads only the stars."""
    bound = math.prod(1 + len(star) for star in cat.stars)
    if bound > MAX_ELEMENTS:
        raise ValueError(f"category may have {bound} sections, over the limit MAX_ELEMENTS = {MAX_ELEMENTS}")


def enumerate_sections(cat: TopCategory) -> tuple[int, ...]:
    """The image masks of all sections, in a fixed order: domains by size
    then mask value, choices lexicographically by per-object arrow index.

    Refuses a category over `require_section_bound`, and one that is not
    Stone etale, naming every membership problem of `validate_object_of_C`
    but NOT_EPI, a condition sections do not need."""
    require_section_bound(cat)
    problems = [p for p in validate_object_of_C(cat) if p != NOT_EPI]
    if problems:
        raise ValueError("cannot enumerate sections: " + "; ".join(problems))
    domains = sorted(range(1 << cat.n_objects), key=lambda m: (m.bit_count(), m))
    return tuple(mask_of(picks) for dom in domains for picks in itertools.product(*(cat.stars[x] for x in bits(dom))))


# ---------------------------------------------------------------------------
# The section algebra and its homomorphisms
# ---------------------------------------------------------------------------


def seccl_object(cat: TopCategory) -> tuple[FinAlgebra, tuple[int, ...]]:
    """The algebra of all sections of a validated category, and the
    section images its tables index.

    A section is coded as a mixed-radix number: its digit at object x is 0,
    or 1 + the place of its arrow in star x; the codes are range(S).  As
    domains are disjoint, code(s;t) is the sum over f in s of K_f[t], the
    code of f then t's arrow at tgt f; each K_f is packed into an int of one
    field per t (a byte when S <= 256, else two), so a compose row is |s|
    carry-free additions, and pref row s is code(s) in every field plus
    compose row A(s).  Two guards stand for closure: every composite of f
    is an arrow out of src f, and the identity of x starts at x.
    """
    images = enumerate_sections(cat)
    size, n, src, tgt = len(images), cat.n_arrows, cat.src, cat.tgt
    stars = cat.stars
    after = [[*map(row.__getitem__, stars[y])] for row, y in zip(cat.comp_t, tgt)]
    if any(src[f] != x for x, f in enumerate(cat.id_of)) or any(
            n in a or {*map(src.__getitem__, a)} != {src[f]} for f, a in enumerate(after)):
        raise InconsistencyError("sections are not closed under the operations")
    code_of, weight = [0] * n, [1]  # code_of[f]: the code of the section {f}
    for star in stars:
        for j, f in enumerate(star, 1):
            code_of[f] = weight[-1] * j
        weight.append(weight[-1] * (1 + len(star)))
    choices = [[*bits(m)] for m in images]
    codes = [sum(map(code_of.__getitem__, s)) for s in choices]
    index_of = sorted(range(size), key=codes.__getitem__)  # the section of each code
    typecode = "B" if size <= BYTE_WIDTH else "H"
    table = bytes(index_of).ljust(BYTE_WIDTH, b"\0") if typecode == "B" else b""

    def pack(values) -> int:
        return int.from_bytes(struct.pack(f"{size}{typecode}", *values), sys.byteorder)

    def decode(packed: int) -> bytes | tuple[int, ...]:
        row = packed.to_bytes(size * struct.calcsize(typecode), sys.byteorder)
        return row.translate(table) if table else tuple(map(index_of.__getitem__, memoryview(row).cast("H")))

    digit = [[c % weight[y + 1] // weight[y] for c in codes] for y in range(len(stars))]  # [y][t]: t's digit at y
    K = [pack(map([0, *map(code_of.__getitem__, a)].__getitem__, digit[y])) for a, y in zip(after, tgt)]
    rows = [sum(map(K.__getitem__, s)) for s in choices]
    del after, K  # a table's worth of composites, not needed past the compose rows
    id_code = [code_of[f] for f in cat.id_of]
    anti_t = [index_of[sum(id_code) - sum(id_code[src[f]] for f in s)] for s in choices]
    range_t = [index_of[sum({id_code[tgt[f]] for f in s})] for s in choices]
    ones = pack([1] * size)
    pref_t = [decode(c * ones + rows[a]) for c, a in zip(codes, anti_t)]
    names = tuple(f"s{i}" for i in range(size))
    return FinAlgebra(tuple(map(decode, rows)), anti_t, range_t, pref_t, names), images


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
