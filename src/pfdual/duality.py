"""The two halves of the duality composed: double-dual isomorphisms,
naturality squares, and the restricted duality for locally proper
homomorphisms and plain functors."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .algebra import FinAlgebra, Homomorphism, check_homomorphism, check_locally_proper, derived
from .bitsets import bits
from .dualize import dual_of, pf_morphism, pf_object  # noqa: F401  (perfbench reads duality.pf_object)
from .errors import InconsistencyError
from .sections import seccl_morphism, sections_of
from .topcat import (
    MultiFunctor,
    TopCategory,
    check_multifunctor,
    compose_multifunctors,
    is_continuous_multifunctor,
    is_plain_functor,
)


@dataclass(frozen=True)
class AlgebraIso:
    """Mutually inverse homomorphisms between two algebras."""

    source: FinAlgebra
    target: FinAlgebra
    fwd: tuple[int, ...]
    back: tuple[int, ...]

    def forward_hom(self) -> Homomorphism:
        return Homomorphism(self.source, self.target, self.fwd)

    def backward_hom(self) -> Homomorphism:
        return Homomorphism(self.target, self.source, self.back)


@dataclass(frozen=True)
class CategoryIso:
    """Mutually inverse continuous functors between topological categories."""

    fwd: MultiFunctor
    back: MultiFunctor

    @property
    def source(self) -> TopCategory:
        return self.fwd.source

    @property
    def target(self) -> TopCategory:
        return self.fwd.target


def _inverse(perm: Sequence[int], size: int) -> Optional[tuple[int, ...]]:
    """The inverse of perm when it is a bijection of range(size), else None."""
    if sorted(perm) != list(range(size)):
        return None
    back = [0] * size
    for a, v in enumerate(perm):
        back[v] = a
    return tuple(back)


@derived
def theta(alg: FinAlgebra) -> AlgebraIso:
    """The double-dual isomorphism on algebras: each element goes to the
    section whose domain is the objects containing its domain element and
    whose choice at the object of the atom e is the prime filter of e * a.
    """
    dual = dual_of(alg)
    secalg, secs = sections_of(dual.category)
    sec_index = {m: i for i, m in enumerate(secs)}

    fwd = []
    for a in range(alg.size):
        image = 0
        for o in bits(dual.domain_opens[alg.dom(a)]):
            k = dual.arr_index.get(alg.compose_t[dual.object_atoms[o]][a])
            if k is None or dual.category.src[k] != o:
                raise InconsistencyError("choice filter is not a dual arrow starting at its object")
            image |= 1 << k
        if image != dual.element_opens[a]:
            raise InconsistencyError("section disagrees with the filters containing the element")
        idx = sec_index.get(image)
        if idx is None:
            raise InconsistencyError("image section was not enumerated")
        fwd.append(idx)

    back = _inverse(fwd, secalg.size)
    if back is None:
        raise InconsistencyError(
            f"double dual has {secalg.size} sections but the algebra has {alg.size} elements"
        )
    iso = AlgebraIso(source=alg, target=secalg, fwd=tuple(fwd), back=back)
    # the inverse of a bijective homomorphism is one
    if not check_homomorphism(iso.forward_hom()):
        raise InconsistencyError("theta is not a homomorphism")
    return iso


def _verify_category_iso(iso: CategoryIso) -> CategoryIso:
    """iso.back is built as the inverse of the plain functor iso.fwd.  The
    inverse of a functor that is bijective on objects and arrows is a
    functor, but the inverse of a continuous map need not be continuous."""
    if not check_multifunctor(iso.fwd).passed:
        raise InconsistencyError("direction map is not a functor")
    if not is_continuous_multifunctor(iso.fwd) or not is_continuous_multifunctor(iso.back):
        raise InconsistencyError("direction map is not continuous")
    return iso


@derived
def phi(cat: TopCategory) -> CategoryIso:
    """The double-dual isomorphism on categories: an object goes to the
    ultrafilter of identity sections through its identity arrow, an arrow to
    the prime filter of sections containing it.  Both filters are the
    up-sets of the section whose image is that one arrow."""
    secalg, secs = sections_of(cat)
    dd = dual_of(secalg)
    sec_index = {m: i for i, m in enumerate(secs)}
    try:
        obj_map = [dd.obj_index[sec_index[1 << e]] for e in cat.id_of]
        arr_map = [dd.arr_index[sec_index[1 << c]] for c in range(cat.n_arrows)]
        fwd = MultiFunctor(cat, dd.category, tuple(obj_map), tuple(1 << v for v in arr_map))
        back = invert_plain_functor(fwd)
    except (KeyError, ValueError):
        raise InconsistencyError("double dual of the category has a different shape") from None
    return _verify_category_iso(CategoryIso(fwd=fwd, back=back))


# ---------------------------------------------------------------------------
# Naturality
# ---------------------------------------------------------------------------


def naturality_theta_sides(h: Homomorphism) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Both composites around the algebra naturality square, as maps from
    the source algebra into the double dual of the target."""
    secl = seccl_morphism(pf_morphism(h))
    th_a = theta(h.source)
    th_b = theta(h.target)
    lhs = tuple(secl.mapping[th_a.fwd[a]] for a in range(h.source.size))
    rhs = tuple(th_b.fwd[h(a)] for a in range(h.source.size))
    return lhs, rhs


def check_naturality_theta(h: Homomorphism) -> bool:
    lhs, rhs = naturality_theta_sides(h)
    return lhs == rhs


def naturality_phi_sides(fun: MultiFunctor) -> tuple[MultiFunctor, MultiFunctor]:
    """Both composites around the category naturality square, as multivalued
    functors from the source category into the double dual of the target."""
    dd = pf_morphism(seccl_morphism(fun))
    phi_c = phi(fun.source)
    phi_d = phi(fun.target)
    lhs = compose_multifunctors(phi_c.fwd, dd)
    rhs = compose_multifunctors(fun, phi_d.fwd)
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


def invert_plain_functor(fun: MultiFunctor) -> MultiFunctor:
    """Inverse of a bijective single-valued functor."""
    if not is_plain_functor(fun):
        raise ValueError("functor is not single-valued")
    back_obj = _inverse(fun.obj_map, fun.target.n_objects)
    if back_obj is None:
        raise ValueError("functor is not bijective on objects")
    back_arr = _inverse([next(bits(m)) for m in fun.arr_rel], fun.target.n_arrows)
    if back_arr is None:
        raise ValueError("functor is not bijective on arrows")
    return MultiFunctor(fun.target, fun.source, back_obj, tuple(1 << v for v in back_arr))


def is_topcat_iso(fun: MultiFunctor) -> bool:
    """Bijective continuous functor between categories with a continuous
    inverse."""
    try:
        _verify_category_iso(CategoryIso(fwd=fun, back=invert_plain_functor(fun)))
    except (ValueError, InconsistencyError):
        return False
    return True
