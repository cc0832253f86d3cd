"""The two halves of the duality composed: double-dual isomorphisms,
naturality squares, and the restricted duality for locally proper
homomorphisms and plain functors."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

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


def _verify_algebra_iso(iso: AlgebraIso) -> AlgebraIso:
    n = iso.source.size
    if sorted(iso.fwd) != list(range(iso.target.size)) or iso.target.size != n:
        raise InconsistencyError("map is not a bijection")
    if any(iso.back[iso.fwd[a]] != a for a in range(n)):
        raise InconsistencyError("maps are not mutually inverse")
    if not check_homomorphism(iso.forward_hom()) or not check_homomorphism(iso.backward_hom()):
        raise InconsistencyError("direction maps are not homomorphisms")
    return iso


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

    if sorted(fwd) != list(range(secalg.size)):
        raise InconsistencyError(
            f"double dual has {secalg.size} sections but the algebra has {alg.size} elements"
        )
    back = [0] * secalg.size
    for a, s in enumerate(fwd):
        back[s] = a
    return _verify_algebra_iso(AlgebraIso(source=alg, target=secalg, fwd=tuple(fwd), back=tuple(back)))


def _verify_category_iso(iso: CategoryIso) -> CategoryIso:
    fwd, back = iso.fwd, iso.back
    if sorted(fwd.obj_map) != list(range(fwd.target.n_objects)):
        raise InconsistencyError("object map is not a bijection")
    if not is_plain_functor(fwd) or not is_plain_functor(back):
        raise InconsistencyError("direction maps are not single-valued functors")
    for f in range(fwd.source.n_arrows):
        g = next(bits(fwd.arr_rel[f]))
        if next(bits(back.arr_rel[g])) != f:
            raise InconsistencyError("arrow maps are not mutually inverse")
    for fun in (fwd, back):
        if not check_multifunctor(fun).passed:
            raise InconsistencyError("direction map is not a functor")
        if not is_continuous_multifunctor(fun):
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
    except KeyError:
        raise InconsistencyError("double dual of the category has a different shape") from None

    if sorted(obj_map) != list(range(dd.category.n_objects)) or sorted(arr_map) != list(range(dd.category.n_arrows)):
        raise InconsistencyError("double dual of the category has a different shape")
    fwd = MultiFunctor(cat, dd.category, tuple(obj_map), tuple(1 << v for v in arr_map))
    return _verify_category_iso(CategoryIso(fwd=fwd, back=invert_plain_functor(fwd)))


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
    if sorted(fun.obj_map) != list(range(fun.target.n_objects)):
        raise ValueError("functor is not bijective on objects")
    arr_map = [next(bits(m)) for m in fun.arr_rel]
    if sorted(arr_map) != list(range(fun.target.n_arrows)):
        raise ValueError("functor is not bijective on arrows")
    back_obj = [0] * fun.target.n_objects
    for x, v in enumerate(fun.obj_map):
        back_obj[v] = x
    back_arr = [0] * fun.target.n_arrows
    for f, v in enumerate(arr_map):
        back_arr[v] = f
    return MultiFunctor(fun.target, fun.source, tuple(back_obj), tuple(1 << v for v in back_arr))


def is_topcat_iso(fun: MultiFunctor) -> bool:
    """Bijective continuous functor with a continuous functorial inverse."""
    try:
        back = invert_plain_functor(fun)
    except ValueError:
        return False
    try:
        _verify_category_iso(CategoryIso(fwd=fun, back=back))
    except InconsistencyError:
        return False
    return True
