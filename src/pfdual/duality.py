"""The two halves of the duality composed: the double-dual isomorphisms,
naturality squares, and the restricted duality for locally proper
homomorphisms and plain functors.

`theta` and `phi` return their forward maps, a `Homomorphism` and a plain
`MultiFunctor`; each is refused unless it is a bijection, and the inverse
of a bijection is fixed by the map itself."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .algebra import FinAlgebra, Homomorphism, check_homomorphism, check_locally_proper, derive_constants, derived
from .bitsets import bits
from .dualize import dual_of, pf_morphism, pf_object  # noqa: F401  (perfbench reads duality.pf_object)
from .errors import InconsistencyError
from .sections import seccl_morphism, sections_of
from .topcat import MultiFunctor, TopCategory, check_multifunctor, compose_multifunctors, is_plain_functor


@derived
def theta(alg: FinAlgebra) -> Homomorphism:
    """The double-dual isomorphism on algebras, Stone's representation map:
    each element goes to the section of the prime filters containing it.
    Every prime filter is the up-set of a minimal element, so the section
    of a holds the dual arrows whose minimal element lies below a; it is
    built by columns, one up-set per arrow.  The map is checked bijective
    and a homomorphism; the inverse of a bijective homomorphism is one.
    """
    dual = dual_of(alg)
    secalg, secs = sections_of(dual.category)
    up = derive_constants(alg).up
    images = [0] * alg.size
    for k, m in enumerate(dual.arrow_elements):
        for a in bits(up[m]):
            images[a] |= 1 << k
    sec_index = {m: i for i, m in enumerate(secs)}
    fwd = [sec_index.get(image) for image in images]
    if None in fwd:
        raise InconsistencyError("image section was not enumerated")
    if sorted(fwd) != list(range(secalg.size)):
        raise InconsistencyError(
            f"double dual has {secalg.size} sections but the algebra has {alg.size} elements"
        )
    iso = Homomorphism(alg, secalg, tuple(fwd))
    if not check_homomorphism(iso):
        raise InconsistencyError("theta is not a homomorphism")
    return iso


@derived
def phi(cat: TopCategory) -> MultiFunctor:
    """The double-dual isomorphism on categories, as a plain functor onto
    the dual of the section algebra: an arrow goes to the prime filter of
    sections containing it, the up-set of the section whose image is that
    one arrow, and an object to the object of its identity arrow's image.

    It is checked bijective on arrows and a functor.  A functor maps
    identities to identities and keeps endpoints, so it is then bijective
    on objects too, and its inverse is a functor.  Neither needs a
    continuity test: `sections_of` refuses a category whose object or arrow
    space is not discrete, `pf_object` builds discrete spaces, and every
    map out of a discrete space is continuous."""
    secalg, secs = sections_of(cat)
    dd = dual_of(secalg)
    sec_index = {m: i for i, m in enumerate(secs)}.get
    # -1 where a one-arrow section is not a point of the double dual
    arr_map = [dd.arr_index.get(sec_index(1 << c), -1) for c in range(cat.n_arrows)]
    target = dd.category
    if sorted(arr_map) != list(range(target.n_arrows)):
        raise InconsistencyError("double dual of the category has a different shape")
    obj_map = tuple(target.src[arr_map[e]] for e in cat.id_of)
    iso = MultiFunctor(cat, target, obj_map, tuple(1 << v for v in arr_map))
    if check_multifunctor(iso) is not None:
        raise InconsistencyError("direction map is not a functor")
    return iso


# ---------------------------------------------------------------------------
# Naturality
# ---------------------------------------------------------------------------


def naturality_theta_sides(h: Homomorphism) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Both composites around the algebra naturality square, as maps from
    the source algebra into the double dual of the target."""
    secl = seccl_morphism(pf_morphism(h))
    th_a = theta(h.source)
    th_b = theta(h.target)
    lhs = tuple(secl.mapping[th_a.mapping[a]] for a in range(h.source.size))
    rhs = tuple(th_b.mapping[h(a)] for a in range(h.source.size))
    return lhs, rhs


def check_naturality_theta(h: Homomorphism) -> bool:
    lhs, rhs = naturality_theta_sides(h)
    return lhs == rhs


def naturality_phi_sides(fun: MultiFunctor) -> tuple[MultiFunctor, MultiFunctor]:
    """Both composites around the category naturality square, as multivalued
    functors from the source category into the double dual of the target."""
    dd = pf_morphism(seccl_morphism(fun))
    lhs = compose_multifunctors(phi(fun.source), dd)
    rhs = compose_multifunctors(fun, phi(fun.target))
    return lhs, rhs


def check_naturality_phi(fun: MultiFunctor) -> bool:
    lhs, rhs = naturality_phi_sides(fun)
    return lhs.obj_map == rhs.obj_map and lhs.arr_rel == rhs.arr_rel


# ---------------------------------------------------------------------------
# The restricted duality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RestrictedDualityReport:
    kind: str
    input_restricted: bool
    dual_restricted: bool
    double_dual_restricted: bool

    @property
    def preserved(self) -> bool:
        """Restriction survives dualizing twice whenever it held going in."""
        return not self.input_restricted or (self.dual_restricted and self.double_dual_restricted)


def restricted_duality_check(morphism: Union[Homomorphism, MultiFunctor]) -> RestrictedDualityReport:
    """For a homomorphism: locally proper in, plain-functor dual, locally
    proper double dual.  For a functor: plain in, locally proper dual,
    plain-functor double dual.  Observations are reported either way."""
    def restricted(m) -> bool:
        return check_locally_proper(m)[0] if isinstance(m, Homomorphism) else is_plain_functor(m)

    def dual(m):
        return pf_morphism(m) if isinstance(m, Homomorphism) else seccl_morphism(m)

    kind = "homomorphism" if isinstance(morphism, Homomorphism) else "functor"
    restricted_in = restricted(morphism)
    once = dual(morphism)
    return RestrictedDualityReport(kind, restricted_in, restricted(once), restricted(dual(once)))
