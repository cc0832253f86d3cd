"""Answers computed apart from pfdual, and the checks of each verdict.

The counts of objects and arrows come from the generated graphs; the axiom
verdicts and witnesses come from a numpy re-check of the tables; the
locally-proper verdict of an inclusion comes from graph inclusion.  Each
`check_*` function returns None when the program's output agrees and a
one-line reason when it does not.
"""

from __future__ import annotations

import json
from typing import Optional

AXIOM_COUNT = 10


# ---------------------------------------------------------------------------
# Closed sets of partial functions, from their graphs
# ---------------------------------------------------------------------------


def _below(graph_f, graph_g) -> bool:
    """Graph inclusion f <= g."""
    return all(v is None or v == w for v, w in zip(graph_f, graph_g))


def _minimal_nonempty(space, members) -> list[int]:
    nonempty = [f for f in members if any(v is not None for v in space.graphs[f])]
    return [
        f for f in nonempty
        if not any(g != f and _below(space.graphs[g], space.graphs[f]) for g in nonempty)
    ]


def count_arrows(space, closed) -> int:
    """Arrows of the dual: minimal nonempty functions under graph inclusion."""
    return len(_minimal_nonempty(space, closed))


def count_objects(space, closed) -> int:
    """Objects of the dual: atoms among the partial identities of the set."""
    identities = [f for f in closed
                  if all(v is None or v == i for i, v in enumerate(space.graphs[f]))]
    return len(_minimal_nonempty(space, identities))


def inclusion_locally_proper(space, small, large) -> bool:
    """Whether the inclusion of `small` into `large` pulls every prime filter
    back to a prime filter.  A prime filter of a finite closed set is the set
    of functions extending one arrow, so the pull-back of the filter of an
    arrow m of `large` must be the filter of some arrow of `small`."""
    graphs = space.graphs

    def above(m, members):
        return frozenset(f for f in members if _below(graphs[m], graphs[f]))

    small_filters = {above(m, small) for m in _minimal_nonempty(space, small)}
    return all(above(m, small) in small_filters for m in _minimal_nonempty(space, large))


# ---------------------------------------------------------------------------
# The ten axioms, re-checked with numpy
# ---------------------------------------------------------------------------


def _first(mask) -> Optional[tuple[int, ...]]:
    """Lexicographically first index of a True entry, or None."""
    import numpy as np

    if not mask.any():
        return None
    flat = int(np.argmax(mask.ravel()))
    return tuple(int(i) for i in np.unravel_index(flat, mask.shape))


def axiom_report(comp, anti, rng, pref) -> list[tuple[int, bool, Optional[tuple[int, ...]]]]:
    """(axiom, passed, first witness) for each of the ten axioms.

    Witnesses are the lexicographically first failing tuple.  Axiom 3 is
    undefined when axiom 2 fails and then repeats axiom 2's witness.
    """
    import numpy as np

    C = np.asarray(comp, dtype=np.int64)
    A = np.asarray(anti, dtype=np.int64)
    R = np.asarray(rng, dtype=np.int64)
    P = np.asarray(pref, dtype=np.int64)
    n = len(A)
    ids = np.arange(n)
    D = A[A]
    out: list[tuple[int, bool, Optional[tuple[int, ...]]]] = []

    def record(index, witness):
        out.append((index, witness is None, witness))

    def per_a(bad_for):
        for a in range(n):
            w = _first(bad_for(a))
            if w is not None:
                return (a, *w)
        return None

    # (1) a*(b*c) = (a*b)*c, as C[C[a][b]][c] against C[a][C[b][c]]
    record(1, per_a(lambda a: C[C[a]] != C[a][C]))
    # (2) A(a)*a is one element
    zeros = C[A, ids]
    bad = _first(zeros != zeros[0])
    two = None if bad is None else (0, bad[0])
    record(2, two)
    # (3) id*a = a
    if two is not None:
        record(3, two)
    else:
        record(3, _first(C[A[zeros[0]]] != ids))
    # (4) a*A(b) = A(a*b)*a
    record(4, _first(C[:, A] != C[A[C], ids[:, None]]))

    # (5) D(a)*b = D(a)*c and A(a)*b = A(a)*c imply b = c
    def five(a):
        d, z = C[D[a]], C[A[a]]
        return (d[:, None] == d[None, :]) & (z[:, None] == z[None, :]) & (ids[:, None] != ids[None, :])

    record(5, per_a(five))
    # (6) D(R(a)) = R(a)
    record(6, _first(D[R] != R))
    # (7) a*R(a) = a
    record(7, _first(C[ids, R] != ids))

    # (8) a*b = a*c implies R(a)*b = R(a)*c
    def eight(a):
        x, r = C[a], C[R[a]]
        return (x[:, None] == x[None, :]) & (r[:, None] != r[None, :])

    record(8, per_a(eight))
    # (9) D(a)*(a|b) = a
    record(9, _first(C[D[:, None], P] != ids[:, None]))
    # (10) A(a)*(a|b) = A(a)*b
    record(10, _first(C[A[:, None], P] != C[A[:, None], ids[None, :]]))
    return out


def named_report(report, names) -> list:
    """The report with witnesses as element names, as stored in a manifest."""
    return [[index, passed, None if w is None else [names[i] for i in w]]
            for index, passed, w in report]


# ---------------------------------------------------------------------------
# Checks of CLI verdicts: (exit code, stdout) against the expectation
# ---------------------------------------------------------------------------


def _json(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def check_dualize(rc: int, stdout: str, expect: dict) -> Optional[str]:
    out = _json(stdout)
    if rc != 0 or out is None:
        return f"exit {rc}"
    if (out["objects"], out["arrows"]) != (expect["objects"], expect["arrows"]):
        return (f"dual has {out['objects']} objects and {out['arrows']} arrows, "
                f"expected {expect['objects']} and {expect['arrows']}")
    return None


def check_sections(rc: int, stdout: str, expect: dict) -> Optional[str]:
    out = _json(stdout)
    if rc != 0 or out is None:
        return f"exit {rc}"
    if out["sections"] != expect["elements"]:
        return f"{out['sections']} sections, expected {expect['elements']}"
    if out["axioms_pass"] is not True:
        return "section algebra fails the axioms"
    return None


def check_bidual(rc: int, stdout: str, expect: dict) -> Optional[str]:
    out = _json(stdout)
    if rc != 0 or out is None:
        return f"exit {rc}"
    n = expect["elements"]
    if out["theta"] != f"isomorphism ({n} <-> {n})":
        return f"theta reads {out['theta']!r}, expected an isomorphism of {n} elements"
    return None


def check_axioms(rc: int, stdout: str, expect: list) -> Optional[str]:
    out = _json(stdout)
    passed = all(entry[1] for entry in expect)
    if out is None or rc != (0 if passed else 1):
        return f"exit {rc}, expected {0 if passed else 1}"
    got = [[e["axiom"], e["passed"], e.get("witness")] for e in out["axioms"]]
    for g, e in zip(got, expect):
        if g != e:
            return f"axiom {e[0]}: program says {g[1:]}, re-check says {e[1:]}"
    if len(got) != len(expect) or out["passed"] is not passed:
        return "report has the wrong shape"
    return None


def check_transducer(rc: int, stdout: str, expect: dict) -> Optional[str]:
    out = _json(stdout)
    if rc != 0 or out is None:
        return f"exit {rc}"
    if out["max_len"] != expect["max_len"]:
        return f"bound {out['max_len']}, expected {expect['max_len']}"
    failed = [e["axiom"] for e in out["axioms"] if not e["passed"]]
    if failed or len(out["axioms"]) != AXIOM_COUNT or out["passed"] is not True:
        return f"axioms {failed} fail on deterministic machines"
    return None


CLI_CHECKS = {
    "dualize": check_dualize,
    "sections": check_sections,
    "bidual": check_bidual,
    "axioms": check_axioms,
    "transducer": check_transducer,
}


def check_cli(verdict: dict, rc: int, stdout: str) -> Optional[str]:
    return CLI_CHECKS[verdict["check"]](rc, stdout, verdict["expect"])


# ---------------------------------------------------------------------------
# Checks of library verdicts in the naturality session
# ---------------------------------------------------------------------------


def check_naturality(check: str, outcome: dict, expect: dict) -> Optional[str]:
    """outcome holds the values the library returned, as plain data."""
    proper = expect["proper"]
    if check in ("naturality_theta", "naturality_phi"):
        return None if outcome["commutes"] is True else f"{check}: square does not commute"
    if check == "restricted":
        if outcome["input_restricted"] != proper:
            return f"restricted: input locally proper is {outcome['input_restricted']}, expected {proper}"
        return None if outcome["preserved"] else "restricted: restriction not preserved"
    if check == "functor_vs_proper":
        if outcome["plain_functor"] != proper or outcome["locally_proper"] != proper:
            return (f"functor_vs_proper: plain {outcome['plain_functor']}, "
                    f"locally proper {outcome['locally_proper']}, expected {proper}")
        return None
    raise ValueError(f"unknown check {check!r}")
