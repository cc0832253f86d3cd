"""The contravariant dualization of finite representable algebras.

An algebra turns into a finite topological category: arrows are prime
filters, objects are ultrafilters of the domain subalgebra.  On a finite
algebra every filter is principal, so arrow k is the up-set of one minimal
nonzero element m_k, and an object is its identity arrow, the up-set of an
atom e of the domain subalgebra (among domain elements, the object's
ultrafilter).  The source and target of m are the objects of D(m) and
R(m), the composite of m and m' is m*m' (zero exactly when they do not
compose), and both topologies are discrete.  An element a lies in the
prime filters up(m) with m <= a, so nothing is stored per element.  A
homomorphism turns into a multivalued functor running the other way, by
inverse image; its object map is read off its arrow relation at the
identities.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    FinAlgebra,
    Homomorphism,
    check_homomorphism,
    check_locally_proper,
    derive_constants,
    derived,
    minimal_nonzero_elements,
    require_representable,
)
from .bitsets import mask_of, preimage
from .errors import InconsistencyError
from .topcat import MultiFunctor, TopCategory, discrete_topology, is_plain_functor


@dataclass(frozen=True)
class DualCategory:
    """A topological category remembering the elements it was built from.

    arrow_elements[k] is the minimal nonzero element whose up-set is arrow k
    (a prime filter).  Object o is its identity arrow:
    arrow_elements[category.id_of[o]] is the atom of the domain subalgebra
    whose up-set among domain elements is object o (a domain ultrafilter).
    An element lies in the arrows whose minimal element is below it; the
    algebra itself is not kept.
    """

    category: TopCategory
    arrow_elements: tuple[int, ...]


def pf_object(alg: FinAlgebra) -> DualCategory:
    """Build the dual category of a representable algebra.

    Raises ValueError when the algebra fails the representability axioms;
    an algebra whose zero equals its identity dualizes to the empty category.
    """
    require_representable(alg)

    con = derive_constants(alg)
    arrows = minimal_nonzero_elements(alg)
    # an atom of the domain subalgebra is a minimal element that is its own domain
    objects = tuple(m for m in arrows if con.dom_t[m] == m)
    arr_index = {m: k for k, m in enumerate(arrows)}
    obj_index = {e: o for o, e in enumerate(objects)}

    try:
        src = tuple(obj_index[alg.dom(m)] for m in arrows)
        tgt = tuple(obj_index[alg.rng(m)] for m in arrows)
    except KeyError:
        raise InconsistencyError("the domain or range of a minimal element is not an atom") from None
    id_of = tuple(arr_index[e] for e in objects)

    index = {**arr_index, con.zero: len(arrows)}
    comp_t = []
    for i, m in enumerate(arrows):
        row = tuple(index.get(alg.compose_t[m][m2]) for m2 in arrows)
        for j, k in enumerate(row):
            if k is None or (k == len(arrows)) == (tgt[i] == src[j]):
                pair = f"{alg.names[m]} and {alg.names[arrows[j]]}"
                if tgt[i] == src[j]:
                    raise InconsistencyError(f"composite of {pair} is not a minimal element")
                raise InconsistencyError(f"product of {pair} is nonzero but they do not compose")
        comp_t.append(row)

    category = TopCategory(
        obj_names=tuple("u_" + alg.names[e] for e in objects),
        arr_names=tuple("p_" + alg.names[m] for m in arrows),
        obj_top=discrete_topology(len(objects)),
        arr_top=discrete_topology(len(arrows)),
        src=src,
        tgt=tgt,
        id_of=id_of,
        comp_t=tuple(comp_t),
    )
    return DualCategory(category=category, arrow_elements=arrows)


@derived
def dual_of(alg: FinAlgebra) -> DualCategory:
    return pf_object(alg)


@derived
def pf_morphism(h: Homomorphism) -> MultiFunctor:
    """Dualize a homomorphism h: A -> B into a multivalued functor
    pf(B) -> pf(A), acting by inverse image.

    The inverse image of the prime filter up(m) is the disjoint union of the
    prime filters up(k) over the minimal elements k of A with h(k) >= m, so
    the arrow relation relates m to exactly those.  Below a domain element
    lie only domain elements, so the identity at an object of pf(B) is
    related to one identity of A, and the object map takes the object to
    that identity's object.  Both duals are taken from `dual_of`.  A guard
    that fires on a non-homomorphism raises ValueError.
    """
    dual_b, dual_a = dual_of(h.target), dual_of(h.source)
    up_a, up_b = derive_constants(h.source).up, derive_constants(h.target).up
    cat_a = dual_a.category

    def pull_back(up_m: int) -> int:
        """The arrows of A whose minimal element h maps into up_m; raises
        unless their up-sets are disjoint and cover the inverse image."""
        inv = preimage(h.mapping, up_m)
        chosen = covered = 0
        for i, k in enumerate(dual_a.arrow_elements):
            if inv >> k & 1:
                if covered & up_a[k]:
                    raise InconsistencyError("up-sets chosen for an inverse image overlap")
                chosen |= 1 << i
                covered |= up_a[k]
        if covered != inv:
            raise InconsistencyError("inverse image is not the union of the up-sets chosen for it")
        return chosen

    identities_a = mask_of(cat_a.id_of)
    obj_map = []
    try:
        arr_rel = tuple(pull_back(up_b[m]) for m in dual_b.arrow_elements)
        for e in dual_b.category.id_of:
            identity = arr_rel[e] & identities_a
            if identity.bit_count() != 1:
                raise InconsistencyError("pulled-back ultrafilter is not an object of the dual")
            obj_map.append(cat_a.src[identity.bit_length() - 1])
    except InconsistencyError:
        if check_homomorphism(h):
            raise
        raise ValueError("map is not a homomorphism") from None

    return MultiFunctor(
        source=dual_b.category,
        target=cat_a,
        obj_map=tuple(obj_map),
        arr_rel=arr_rel,
    )


@dataclass(frozen=True)
class FunctorVsProperVerdict:
    plain_functor: bool
    locally_proper: bool


def pf_is_functor_iff_locally_proper(h: Homomorphism) -> FunctorVsProperVerdict:
    """The dual of h is single-valued-and-total exactly when h pulls prime
    filters back to prime filters.  Both sides take inverse images from
    `preimage`, then part: `check_locally_proper` looks each up among the
    source's prime up-sets, `pf_morphism` decomposes it into disjoint
    up-sets of source atoms.  Disagreement indicates a bug."""
    plain = is_plain_functor(pf_morphism(h))
    proper, _ = check_locally_proper(h)
    if plain != proper:
        raise InconsistencyError("plain-functor and locally-proper verdicts disagree")
    return FunctorVsProperVerdict(plain_functor=plain, locally_proper=proper)
