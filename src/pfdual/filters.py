"""Filters, prime filters, and ultrafilters of finite representable algebras.

Filter members are stored as bitmasks over element indices.  A filter is a
nonempty, upward-closed, downward-directed subset; it is proper exactly when
it avoids the zero element, and the improper filter is the whole algebra.

This general calculus is the oracle the tests check the dual and
`check_locally_proper` against; no pipeline module imports it.
"""

from __future__ import annotations

from typing import Iterable

from .algebra import FilterSet, FinAlgebra, derive_constants, domain_elements, minimal_nonzero_elements
from .bitsets import bits, mask_of
from .errors import InconsistencyError


def upward_closure(alg: FinAlgebra, subset: int | Iterable[int]) -> int:
    con = derive_constants(alg)
    m = subset if isinstance(subset, int) else mask_of(subset)
    out = 0
    for i in bits(m):
        out |= con.up[i]
    return out


def is_filter(alg: FinAlgebra, members: int) -> bool:
    if members == 0:
        return False
    con = derive_constants(alg)
    if upward_closure(alg, members) != members:
        return False
    # downward directed: each pair has a lower bound inside the set
    idxs = list(bits(members))
    for a in idxs:
        for b in idxs:
            if not con.down[a] & con.down[b] & members:
                return False
    return True


def is_proper(alg: FinAlgebra, members: int) -> bool:
    return not members >> derive_constants(alg).zero & 1


def _greatest_lower_bound(alg: FinAlgebra, a: int, b: int) -> int:
    """Maximum common lower bound; exists in every finite representable
    algebra because lower bounds of a pair are closed under joins.
    """
    con = derive_constants(alg)
    lows = con.down[a] & con.down[b]
    for x in bits(lows):
        if lows & ~con.down[x] == 0:
            return x
    raise ValueError(f"elements {a} and {b} have no greatest common lower bound")


def generated_filter(alg: FinAlgebra, seed: int | Iterable[int]) -> FilterSet:
    """Least filter containing the seed set.

    The result is improper (contains zero, hence everything) when the seed
    forces the zero in.
    """
    m = seed if isinstance(seed, int) else mask_of(seed)
    if m == 0:
        raise ValueError("the seed set must be nonempty")
    members = upward_closure(alg, m)
    while True:
        added = 0
        idxs = list(bits(members))
        for i, a in enumerate(idxs):
            for b in idxs[i:]:
                g = _greatest_lower_bound(alg, a, b)
                if not members >> g & 1:
                    added |= 1 << g
        if not added:
            return FilterSet(alg, members)
        members = upward_closure(alg, members | added)


def is_prime(alg: FinAlgebra, f: FilterSet) -> bool:
    """Proper filter such that a|b inside forces a or b inside."""
    if not is_filter(alg, f.members):
        raise ValueError("not a filter")
    if not is_proper(alg, f.members):
        return False
    m = f.members
    n = alg.size
    for a in range(n):
        row = alg.pref_t[a]
        for b in range(n):
            if m >> row[b] & 1 and not (m >> a & 1 or m >> b & 1):
                return False
    return True


def is_maximal(alg: FinAlgebra, f: FilterSet) -> bool:
    """No proper filter strictly extends f."""
    if not is_filter(alg, f.members):
        raise ValueError("not a filter")
    if not is_proper(alg, f.members):
        return False
    for a in range(alg.size):
        if f.members >> a & 1:
            continue
        if is_proper(alg, generated_filter(alg, f.members | 1 << a).members):
            return False
    return True


def enumerate_prime_filters(alg: FinAlgebra) -> tuple[FilterSet, ...]:
    """All prime filters, in the index order of their least elements.

    In a finite representable algebra these are exactly the up-sets of the
    minimal nonzero elements; each candidate is verified.
    """
    con = derive_constants(alg)
    out = []
    for m in minimal_nonzero_elements(alg):
        f = FilterSet(alg, con.up[m])
        if not is_prime(alg, f):
            raise InconsistencyError(
                f"up-set of minimal element {m} is not prime; algebra not representable?"
            )
        out.append(f)
    return tuple(out)


# ---------------------------------------------------------------------------
# Ultrafilters of the Boolean subalgebra of domain elements
# ---------------------------------------------------------------------------


def domain_mask(alg: FinAlgebra) -> int:
    return mask_of(domain_elements(alg))


def is_domain_ultrafilter(alg: FinAlgebra, f: FilterSet) -> bool:
    """Ultrafilter of the domain subalgebra: a proper filter of the domain
    elements containing exactly one of x, A(x) for each domain element x.
    """
    con = derive_constants(alg)
    dmask = domain_mask(alg)
    m = f.members
    if m == 0 or m & ~dmask or m >> con.zero & 1:
        return False
    idxs = list(bits(m))
    for a in idxs:
        if con.up[a] & dmask & ~m:
            return False
        for b in idxs:
            if not m >> alg.compose_t[a][b] & 1:
                return False
    for x in bits(dmask):
        if (m >> x & 1) == (m >> alg.anti(x) & 1):
            return False
    return True


def enumerate_domain_ultrafilters(alg: FinAlgebra) -> tuple[FilterSet, ...]:
    """All ultrafilters of the domain subalgebra, one per atom, in atom order."""
    con = derive_constants(alg)
    dmask = domain_mask(alg)
    delems = list(bits(dmask))
    atoms = [
        a for a in delems
        if a != con.zero and con.down[a] & dmask & ~(1 << a) & ~(1 << con.zero) == 0
    ]
    out = []
    for atom in atoms:
        f = FilterSet(alg, con.up[atom] & dmask)
        if not is_domain_ultrafilter(alg, f):
            raise InconsistencyError(f"up-set of atom {atom} is not an ultrafilter")
        out.append(f)
    return tuple(out)


def upclose_in_domain(alg: FinAlgebra, subset: int) -> int:
    return upward_closure(alg, subset) & domain_mask(alg)


def source_of(alg: FinAlgebra, p: FilterSet) -> FilterSet:
    """The set of domains of members of a prime filter; an ultrafilter."""
    m = mask_of(alg.dom(a) for a in bits(p.members))
    f = FilterSet(alg, m)
    if not is_domain_ultrafilter(alg, f):
        raise InconsistencyError("domain image of a prime filter is not an ultrafilter")
    return f


def target_of(alg: FinAlgebra, p: FilterSet) -> FilterSet:
    """Upward closure (among domain elements) of the ranges of members."""
    m = upclose_in_domain(alg, mask_of(alg.rng(a) for a in bits(p.members)))
    f = FilterSet(alg, m)
    if not is_domain_ultrafilter(alg, f):
        raise InconsistencyError("range image of a prime filter is not an ultrafilter")
    return f


# ---------------------------------------------------------------------------
# The filter calculus used to build the dual category
# ---------------------------------------------------------------------------


def compose_filters(alg: FinAlgebra, p: FilterSet, q: FilterSet) -> FilterSet:
    """Upward closure of the pairwise compositions.

    Prime exactly when target_of(p) equals source_of(q); improper otherwise.
    """
    prods = mask_of(alg.compose_t[a][b] for a in bits(p.members) for b in bits(q.members))
    return FilterSet(alg, upward_closure(alg, prods))


def prime_from(alg: FinAlgebra, mu: FilterSet, a: int) -> FilterSet:
    """Upward closure of mu*a; prime iff it avoids zero."""
    prods = mask_of(alg.compose_t[x][a] for x in bits(mu.members))
    return FilterSet(alg, upward_closure(alg, prods))


def find_prime_with_range(alg: FinAlgebra, mu: FilterSet, a: int) -> FilterSet:
    """A prime filter containing `a` whose target is `mu`.

    Requires R(a) in mu.  Constructive: close the domains of a*mu upward
    among domain elements, extend to an ultrafilter by scanning domain
    elements in index order, and compose back with `a`.
    """
    con = derive_constants(alg)
    if not mu.members >> alg.rng(a) & 1:
        raise ValueError("R(a) must belong to the given ultrafilter")
    seed = mask_of(alg.dom(alg.compose_t[a][x]) for x in bits(mu.members))
    base = upclose_in_domain(alg, seed)
    # extend to an ultrafilter: shrink a running minimum by meets that stay nonzero
    m = None
    for x in bits(base):
        if base & ~con.up[x] == 0:
            m = x
            break
    if m is None:
        raise InconsistencyError("domain filter seed has no minimum")
    for x in bits(domain_mask(alg)):
        c = alg.compose_t[m][x]
        if c != con.zero:
            m = c
    nu = FilterSet(alg, con.up[m] & domain_mask(alg))
    if not is_domain_ultrafilter(alg, nu):
        raise InconsistencyError("ultrafilter extension failed")
    p = prime_from(alg, nu, a)
    if not is_proper(alg, p.members):
        raise InconsistencyError("constructed filter is improper")
    if target_of(alg, p) != mu:
        raise InconsistencyError("constructed prime filter has the wrong target")
    return p
