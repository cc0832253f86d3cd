"""The contravariant dualization of finite representable algebras.

An algebra turns into a finite topological category: arrows are prime
filters, objects are ultrafilters of the domain subalgebra, composition is
upward-closed pairwise composition.  A homomorphism turns into a
multivalued functor running the other way, by inverse image.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .algebra import FinAlgebra, Homomorphism, check_axioms, derive_constants, domain_elements
from .bitsets import bits, mask_of
from .errors import InconsistencyError
from .filters import (
    FilterSet,
    compose_filters,
    enumerate_domain_ultrafilters,
    enumerate_prime_filters,
    is_filter,
    is_prime,
    source_of,
    target_of,
    upward_closure,
)
from .topcat import MultiFunctor, TopCategory, generate_topology


@dataclass(frozen=True)
class DualCategory:
    """A topological category remembering the filters it was built from.

    element_opens[a] is the set of arrows (prime filters) containing element
    a; domain_opens[d] is the set of objects (domain ultrafilters)
    containing element d.  These are the basic opens of the two topologies.
    """

    category: TopCategory
    algebra: FinAlgebra
    arrow_filters: tuple[FilterSet, ...]
    object_filters: tuple[FilterSet, ...]
    element_opens: tuple[int, ...]
    domain_opens: tuple[int, ...]

    def arrow_index(self, f: FilterSet) -> int:
        return self.arrow_filters.index(f)

    def object_index(self, f: FilterSet) -> int:
        return self.object_filters.index(f)


def pf_object(alg: FinAlgebra) -> DualCategory:
    """Build the dual category of a representable algebra.

    Raises ValueError when the algebra fails the representability axioms;
    an algebra whose zero equals its identity dualizes to the empty category.
    """
    report = check_axioms(alg)
    if not report.passed:
        first = report.failures()[0]
        raise ValueError(f"algebra is not representable: axiom ({first.index}) {first.name} fails")

    arrows = enumerate_prime_filters(alg)
    objects = enumerate_domain_ultrafilters(alg)
    obj_index = {f.members: i for i, f in enumerate(objects)}
    arr_index = {f.members: i for i, f in enumerate(arrows)}

    src = tuple(obj_index[source_of(alg, p).members] for p in arrows)
    tgt = tuple(obj_index[target_of(alg, p).members] for p in arrows)
    id_of = tuple(arr_index[upward_closure(alg, mu.members)] for mu in objects)

    comp_pairs = []
    for i, p in enumerate(arrows):
        for j, q in enumerate(arrows):
            if tgt[i] != src[j]:
                continue
            r = compose_filters(alg, p, q)
            k = arr_index.get(r.members)
            if k is None:
                raise InconsistencyError("composite of prime filters is not a prime filter")
            comp_pairs.append((i, j, k))

    n = alg.size
    element_opens = tuple(
        mask_of(i for i, p in enumerate(arrows) if p.members >> a & 1) for a in range(n)
    )
    domain_opens = tuple(
        mask_of(i for i, mu in enumerate(objects) if mu.members >> a & 1) for a in range(n)
    )
    obj_top = generate_topology(len(objects), (domain_opens[d] for d in domain_elements(alg)))
    arr_top = generate_topology(len(arrows), element_opens)

    category = TopCategory(
        obj_names=tuple("u_" + alg.names[_least(alg, mu.members)] for mu in objects),
        arr_names=tuple("p_" + alg.names[_least(alg, p.members)] for p in arrows),
        obj_top=obj_top,
        arr_top=arr_top,
        src=src,
        tgt=tgt,
        id_of=id_of,
        comp_pairs=tuple(comp_pairs),
    )
    return DualCategory(
        category=category,
        algebra=alg,
        arrow_filters=arrows,
        object_filters=objects,
        element_opens=element_opens,
        domain_opens=domain_opens,
    )


@functools.lru_cache(maxsize=None)
def dual_of(alg: FinAlgebra) -> DualCategory:
    return pf_object(alg)


def _least(alg: FinAlgebra, mask: int) -> int:
    """The order-least member of a filter; unique, so names stay distinct."""
    con = derive_constants(alg)
    for x in bits(mask):
        if mask & ~con.up[x] == 0:
            return x
    raise InconsistencyError("filter has no least element")


def pf_morphism(h: Homomorphism, dual_src: DualCategory | None = None, dual_tgt: DualCategory | None = None) -> MultiFunctor:
    """Dualize a homomorphism h: A -> B into a multivalued functor
    pf(B) -> pf(A), acting by inverse image.

    The arrow relation is computed by partitioning each inverse image into
    prime filters: a ~ b iff some element of the pulled-back source
    ultrafilter equalizes them on the left.  Duals not passed in are taken
    from `dual_of`.
    """
    dual_b = dual_src or dual_of(h.target)
    dual_a = dual_tgt or dual_of(h.source)
    alg_a, alg_b = h.source, h.target
    a_domain = mask_of(domain_elements(alg_a))

    obj_map = []
    for mu in dual_b.object_filters:
        inv = mask_of(d for d in bits(a_domain) if mu.members >> h(d) & 1)
        try:
            obj_map.append(dual_a.object_index(FilterSet(alg_a, inv)))
        except ValueError:
            raise InconsistencyError("pulled-back ultrafilter is not an object of the dual") from None

    arr_index = {p.members: i for i, p in enumerate(dual_a.arrow_filters)}
    arr_rel = []
    for pi, p in enumerate(dual_b.arrow_filters):
        inv = mask_of(a for a in range(alg_a.size) if p.members >> h(a) & 1)
        if not inv:
            arr_rel.append(0)
            continue
        nu = dual_a.object_filters[obj_map[dual_b.category.src[pi]]]
        mask = 0
        for cls in _partition_classes(alg_a, inv, nu):
            k = arr_index.get(cls)
            if k is None:
                raise InconsistencyError("partition class is not a prime filter of the source dual")
            mask |= 1 << k
        arr_rel.append(mask)

    return MultiFunctor(
        source=dual_b.category,
        target=dual_a.category,
        obj_map=tuple(obj_map),
        arr_rel=tuple(arr_rel),
    )


def _partition_classes(alg: FinAlgebra, inv: int, nu: FilterSet) -> list[int]:
    """Split an inverse image into classes: a ~ b iff alpha*a = alpha*b for
    some alpha in nu."""
    elems = list(bits(inv))
    alphas = list(bits(nu.members))
    classes: list[list[int]] = []
    for a in elems:
        placed = False
        for cls in classes:
            b = cls[0]
            if any(alg.comp(al, a) == alg.comp(al, b) for al in alphas):
                cls.append(a)
                placed = True
                break
        if not placed:
            classes.append([a])
    masks = [mask_of(cls) for cls in classes]
    for m in masks:
        if not is_filter(alg, m) or not is_prime(alg, FilterSet(alg, m)):
            raise InconsistencyError("inverse-image class is not a prime filter")
    return masks


@dataclass(frozen=True)
class FunctorVsProperVerdict:
    plain_functor: bool
    locally_proper: bool

    @property
    def agree(self) -> bool:
        return self.plain_functor == self.locally_proper


def pf_is_functor_iff_locally_proper(h: Homomorphism) -> FunctorVsProperVerdict:
    """The dual of h is single-valued-and-total exactly when h pulls prime
    filters back to prime filters.  Disagreement indicates a bug."""
    from .algebra import check_locally_proper
    from .topcat import is_plain_functor

    plain = is_plain_functor(pf_morphism(h))
    proper, _ = check_locally_proper(h)
    verdict = FunctorVsProperVerdict(plain_functor=plain, locally_proper=proper)
    if not verdict.agree:
        raise InconsistencyError("plain-functor and locally-proper verdicts disagree")
    return verdict
