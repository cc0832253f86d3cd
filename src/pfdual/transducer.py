"""One-way finite-state transducers for rational word functions.

Machines are real-time: each transition consumes exactly one input letter
and emits an output word; a state may carry a final output word appended on
acceptance.  Nondeterminism is allowed but every machine must realize a
partial function; this is enforced by bounded checking, with violations
surfacing as NotFunctionalError.  An acceptor is a machine too, the
identity on its language.  A machine derived from validated ones is not
validated again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable, Iterator, Optional, Sequence

from .algebra import AXIOMS, AxiomCheck, AxiomReport, derived
from .errors import NotFunctionalError

BOUND_CAP = 12
MAX_WORDS = 2 ** 20  # the bounded oracles may keep one configuration per word in memory


def _check_alphabet(alphabet: tuple[str, ...]) -> None:
    if len(set(alphabet)) != len(alphabet) or any(len(a) != 1 for a in alphabet):
        raise ValueError(f"alphabet {list(alphabet)!r} must list distinct one-character letters")


def _unchecked(cls, *fields):
    """cls from validated parts, its fields in order, skipping __post_init__."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, fields))
    return obj


def words_upto(alphabet: Sequence[str], max_len: int) -> Iterator[str]:
    """All words of length at most max_len, by length then letter order."""
    for n in range(max_len + 1):
        for letters in itertools.product(alphabet, repeat=n):
            yield "".join(letters)


@dataclass(frozen=True, eq=False)
class Transducer:
    """states, one-letter input transitions to (output word, state) pairs,
    and a partial final-output map marking the accepting states."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    initial: str
    trans: dict[tuple[str, str], frozenset[tuple[str, str]]]
    final_out: dict[str, str]

    def __post_init__(self) -> None:
        _check_alphabet(self.alphabet)
        sset = set(self.states)
        aset = set(self.alphabet)
        if self.initial not in sset:
            raise ValueError("initial state must be listed")
        if not set(self.final_out) <= sset:
            raise ValueError("final states must be listed states")
        for (q, a), outs in self.trans.items():
            if q not in sset or a not in aset:
                raise ValueError(f"transition from unknown state/letter ({q!r},{a!r})")
            for out, q2 in outs:
                if q2 not in sset:
                    raise ValueError(f"transition to unknown state {q2!r}")
                if any(ch not in aset for ch in out):
                    raise ValueError(f"output {out!r} uses letters outside the alphabet")
        for v in self.final_out.values():
            if any(ch not in aset for ch in v):
                raise ValueError(f"final output {v!r} uses letters outside the alphabet")

    def moves(self, q: str, a: str) -> frozenset[tuple[str, str]]:
        return self.trans.get((q, a), frozenset())


def eval(t: Transducer, word: str) -> Optional[str]:
    """The unique output for the word, or None when no run accepts.

    Only live runs are followed, as the bounded walk follows them: a run
    that can reach no final state never accepts.  Raises NotFunctionalError
    when two accepting runs disagree.
    """
    for a in word:
        if a not in t.alphabet:
            raise ValueError(f"letter {a!r} outside the alphabet")
    live = _live_moves(t)
    runs = {(t.initial, "")} if t.initial in live else set()
    for a in word:
        j = t.alphabet.index(a)
        runs = {(q2, out + e) for q, out in runs for e, q2 in live[q][j]}
    results = {out + t.final_out[q] for q, out in runs if q in t.final_out}
    if len(results) > 1:
        two = sorted(results)[:2]
        raise NotFunctionalError(word, (two[0], two[1]))
    return results.pop() if results else None


def identity_transducer(alphabet: Sequence[str]) -> Transducer:
    al = tuple(alphabet)
    return Transducer(
        states=("q0",), alphabet=al, initial="q0",
        trans={("q0", a): frozenset({(a, "q0")}) for a in al},
        final_out={"q0": ""},
    )


def _relabel_transducer(
    alphabet: tuple[str, ...],
    initial,
    moves,          # state -> letter -> iterable of (out, state)
    final,          # state -> word or None
    prefix="q",     # acceptors name their states d0, d1, ...
) -> Transducer:
    """Breadth-first renaming to q0, q1, ... for deterministic output: a
    state is named when first met, a step's moves taken in sorted order.
    moves is called once per reached state and letter."""
    name = {initial: f"{prefix}0"}
    order = [initial]
    trans, final_out = {}, {}
    for q in order:
        for a in alphabet:
            step = moves(q, a)
            if len(step) > 1:
                step = sorted(step)
            for _, q2 in step:
                if q2 not in name:
                    name[q2] = f"{prefix}{len(order)}"
                    order.append(q2)
            if step:
                trans[(name[q], a)] = frozenset((out, name[q2]) for out, q2 in step)
        v = final(q)
        if v is not None:
            final_out[name[q]] = v
    return _unchecked(Transducer, tuple(name.values()), alphabet, name[initial], trans, final_out)


def _run_on_word(t: Transducer, q: str, word: str) -> set[tuple[str, str]]:
    """All (output, state) pairs after consuming the word from state q."""
    configs = {("", q)}
    for a in word:
        configs = {(out + emitted, q3) for out, q2 in configs for emitted, q3 in t.moves(q2, a)}
        if not configs:
            break
    return configs


def compose(t1: Transducer, t2: Transducer) -> Transducer:
    """Realizes w -> t2(t1(w)): the second machine consumes the output of
    the first, letter by letter."""
    if t1.alphabet != t2.alphabet:
        raise ValueError("transducers must share an alphabet")
    al = t1.alphabet
    runs = dict(t2.trans)  # (state, word) -> t2's runs from the state on the word

    def run(q, word):
        if (q, word) not in runs:
            runs[(q, word)] = _run_on_word(t2, q, word)
        return runs[(q, word)]

    def moves(pair, a):
        q1, q2 = pair
        out = set()
        for emitted, q1b in t1.moves(q1, a):
            for v, q2b in run(q2, emitted):
                out.add((v, (q1b, q2b)))
        return out

    def final(pair):
        q1, q2 = pair
        u = t1.final_out.get(q1)
        if u is None:
            return None
        results = {
            v + t2.final_out[q2b]
            for v, q2b in run(q2, u)
            if q2b in t2.final_out
        }
        if len(results) > 1:
            word, out = _shortlex_path(al, (t1.initial, t2.initial), moves, pair)
            two = sorted(results)[:2]
            raise NotFunctionalError(word, (out + two[0], out + two[1]))
        return results.pop() if results else None

    return _relabel_transducer(al, (t1.initial, t2.initial), moves, final)


def _shortlex_path(alphabet, initial, moves, goal) -> tuple[str, str]:
    """The shortlex-least input word from initial to a reachable goal and one
    run's output on it, by a breadth-first walk over sorted moves; for
    errors only."""
    path = {initial: ("", "")}
    order = [initial]
    for q in order:
        if q == goal:
            return path[q]
        for a in alphabet:
            for emitted, q2 in sorted(moves(q, a)):
                if q2 not in path:
                    path[q2] = (path[q][0] + a, path[q][1] + emitted)
                    order.append(q2)


# ---------------------------------------------------------------------------
# Domain and range acceptors: identity machines built by subset construction
# ---------------------------------------------------------------------------


@derived
def domain_transducer(t: Transducer) -> Transducer:
    """Identity on the domain: outputs forgotten, then determinized.  Every
    state, the empty subset too, has one move per letter."""
    def moves(s, a):
        return ((a, frozenset(q2 for q in s for _, q2 in t.moves(q, a))),)

    return _relabel_transducer(t.alphabet, frozenset({t.initial}), moves,
                               lambda s: None if s.isdisjoint(t.final_out) else "", "d")


@derived
def antidomain(t: Transducer) -> Transducer:
    """Identity on the words where t is undefined: D(t) with the other
    states final."""
    d = domain_transducer(t)
    return _unchecked(Transducer, d.states, d.alphabet, d.initial, d.trans,
                      {q: "" for q in d.states if q not in d.final_out})


@derived
def range_transducer(t: Transducer) -> Transducer:
    """Identity on the range language, built by reading transition outputs
    through an epsilon automaton and determinizing."""
    # nodes: transducer states, plus spelled-out positions inside output words
    eps: dict[object, set] = {}
    letter_edges: dict[tuple[object, str], set] = {}
    counter = itertools.count()
    accept = ("acc",)

    def add_word_path(src, word, dst):
        if word == "":
            eps.setdefault(src, set()).add(dst)
            return
        node = src
        for ch in word[:-1]:
            nxt = ("n", next(counter))
            letter_edges.setdefault((node, ch), set()).add(nxt)
            node = nxt
        letter_edges.setdefault((node, word[-1]), set()).add(dst)

    for (q, _a), outs in t.trans.items():
        for out, q2 in outs:
            add_word_path(("s", q), out, ("s", q2))
    for q, v in t.final_out.items():
        add_word_path(("s", q), v, accept)

    def closure(nodes: Iterable) -> frozenset:
        todo = list(nodes)
        seen = set(todo)
        while todo:
            n = todo.pop()
            for m in eps.get(n, ()):
                if m not in seen:
                    seen.add(m)
                    todo.append(m)
        return frozenset(seen)

    def moves(s, a):
        step = set()
        for n in s:
            step.update(letter_edges.get((n, a), ()))
        return ((a, closure(step)),)

    return _relabel_transducer(t.alphabet, closure({("s", t.initial)}), moves,
                               lambda s: "" if accept in s else None, "d")


def pref_union(t1: Transducer, t2: Transducer) -> Transducer:
    """t1 where defined, else t2: the union of t1 with A(t1);t2, t2 on the
    complement of the domain of t1.  The two parts have disjoint domains, so
    the union stays functional."""
    if t1.alphabet != t2.alphabet:
        raise ValueError("transducers must share an alphabet")
    t2r = compose(antidomain(t1), t2)

    def moves(state, a):
        if state == "u0":
            return {(out, ("l", q)) for out, q in t1.moves(t1.initial, a)} | {
                (out, ("r", q)) for out, q in t2r.moves(t2r.initial, a)
            }
        side, q = state
        t = t1 if side == "l" else t2r
        return {(out, (side, q2)) for out, q2 in t.moves(q, a)}

    def final(state):
        if state == "u0":
            u = t1.final_out.get(t1.initial)
            return u if u is not None else t2r.final_out.get(t2r.initial)
        side, q = state
        return (t1 if side == "l" else t2r).final_out.get(q)

    return _relabel_transducer(t1.alphabet, "u0", moves, final)


# ---------------------------------------------------------------------------
# Bounded oracles
# ---------------------------------------------------------------------------


def equiv_bounded(t1: Transducer, t2: Transducer, max_len: int):
    """Pointwise agreement on every word of length at most max_len.

    Returns (verdict, witness_word_or_None): the witness is the first word
    in words_upto order where the two differ.  The first word where either
    machine has two outputs, if it comes at or before that one, raises its
    NotFunctionalError, t1's before t2's, as evaluating word by word would.
    """
    _check_bound((t1, t2), max_len)
    return _first_difference(t1, t2, max_len)


def _check_bound(ts: Sequence[Transducer], max_len: int) -> None:
    """Refuse a sweep of the machines ts up to max_len that is not defined,
    or that could hold too many configurations in memory."""
    if max_len < 0:
        raise ValueError(f"bound {max_len} is negative")
    if max_len > BOUND_CAP:
        raise ValueError(f"bound {max_len} exceeds the limit BOUND_CAP = {BOUND_CAP}")
    if not ts:
        raise ValueError("at least one transducer is required")
    alphabet = ts[0].alphabet
    if any(t.alphabet != alphabet for t in ts):
        raise ValueError("transducers must share an alphabet")
    words = sum(len(alphabet) ** n for n in range(max_len + 1))
    if words > MAX_WORDS:
        raise ValueError(f"{words} words of length at most {max_len} over {len(alphabet)} "
                         f"letters exceed MAX_WORDS = {MAX_WORDS}")


@derived
def _live_moves(t: Transducer) -> dict[str, tuple]:
    """live state -> per letter, t's moves into live states: those from
    which a final state can be reached."""
    sources: dict[str, set] = {}  # state -> the states with a move into it
    for (q, _), step in t.trans.items():
        for _, q2 in step:
            sources.setdefault(q2, set()).add(q)
    live, todo = set(t.final_out), list(t.final_out)
    while todo:
        for q in sources.get(todo.pop(), ()):
            if q not in live:
                live.add(q)
                todo.append(q)
    return {q: tuple(tuple(m for m in t.moves(q, a) if m[1] in live) for a in t.alphabet) for q in live}


def _first_difference(x: Transducer, y: Transducer, max_len: int) -> tuple[bool, Optional[str]]:
    """equiv_bounded's verdict, from one walk of both machines in lockstep.

    The walk goes level by level in words_upto order.  A word's
    configuration is the live runs of x and of y on it, sets of (state,
    output) pairs, with the output prefix common to all of them removed;
    what x and y do on every extension of the word depends on it alone.  So
    a configuration met again is not expanded again: the word that met it
    first is earlier, and so is each of its extensions.  At each word, two
    outputs of x raise eval(x, word)'s NotFunctionalError, then two of y
    raise y's, and then differing outputs make it the witness.
    """
    al, fx, fy = x.alphabet, x.final_out, y.final_out
    mx, my = _live_moves(x), _live_moves(y)
    start = (frozenset({(x.initial, "")} if x.initial in mx else ()),
             frozenset({(y.initial, "")} if y.initial in my else ()))
    seen = {start}
    level = [("", start)]
    for n in range(max_len + 1):
        following = []
        for word, (rx, ry) in level:
            ox = {o + fx[q] for q, o in rx if q in fx}
            if len(ox) > 1:
                eval(x, word)  # raises
            oy = {o + fy[q] for q, o in ry if q in fy}
            if len(oy) > 1:
                eval(y, word)  # raises
            if ox != oy:
                return False, word
            if n == max_len:
                continue
            for j, a in enumerate(al):
                nx = {(q2, o + e) for q, o in rx for e, q2 in mx[q][j]}
                ny = {(q2, o + e) for q, o in ry for e, q2 in my[q][j]}
                config = _strip(nx, ny)
                if config not in seen:
                    seen.add(config)
                    following.append((word + a, config))
        level = following
    return True, None


def _strip(rx: set, ry: set) -> tuple[frozenset, frozenset]:
    """The configuration of these runs: their outputs less the prefix
    common to all of them."""
    outs = [o for _, o in rx] + [o for _, o in ry]
    if outs:
        lo, hi = min(outs), max(outs)  # their common prefix is everyone's
        n = 0
        while n < len(lo) and lo[n] == hi[n]:
            n += 1
        if n:
            rx = {(q, o[n:]) for q, o in rx}
            ry = {(q, o[n:]) for q, o in ry}
    return frozenset(rx), frozenset(ry)


def axioms_bounded(ts: Sequence[Transducer], max_len: int) -> AxiomReport:
    """Instantiate the ten representability (quasi)equations of
    `algebra.AXIOMS` over all tuples from the given machines and compare
    each premise, then the conclusion, on every word up to max_len, as
    equiv_bounded does.  A failing law's witness is its first failing
    operand indices, then the word, in `check_axioms`'s AxiomReport.

    Two sides of the same structure (initial state, transitions and final
    outputs) are one machine, equal to itself on every word: with at most one
    move per state and letter it is decided equal without a walk, since
    such a machine has one run per word and so one output; otherwise it is
    walked against itself to raise the first word with two outputs.  The
    sides of comp(a, comp(b, c)) = comp(comp(a, b), c) over deterministic
    machines come out this way.

    A, D and R of a machine, and the live moves the walk reads, are kept on
    that machine (`algebra.derived`) and go with it, so those of the inputs
    and the identity are built once per sweep.  Within one axiom, a
    composite or override of these leaves is built once and shared; it is
    dropped when the axiom is done, with what is kept on it.  Other terms,
    such as comp(a, comp(b, c)), are used once and not kept.
    """
    _check_bound(ts, max_len)
    ident = identity_transducer(ts[0].alphabet)
    # ids of the leaves: the inputs, the identity, and A, D and R of each,
    # which are kept on it.  All live as long as ts and ident, so no id is
    # reused while it is in a key of built.
    leaves = {id(m) for t in (*ts, ident)
              for m in (t, antidomain(t), domain_transducer(t), range_transducer(t))}
    built: dict[tuple, Transducer] = {}

    def share(build):
        def op(*args: Transducer) -> Transducer:
            key = (build, *map(id, args))
            if not leaves.issuperset(key[1:]):
                return build(*args)
            if key not in built:
                built[key] = build(*args)
            return built[key]
        return op

    ops = SimpleNamespace(A=antidomain, D=domain_transducer, R=range_transducer,
                          comp=share(compose), pref=share(pref_union), ident=ident)

    def structure(t: Transducer) -> tuple:
        return (t.initial, frozenset(t.trans.items()), frozenset(t.final_out.items()))

    def eq(x: Transducer, y: Transducer):
        if structure(x) != structure(y):
            return _first_difference(x, y, max_len)
        # one machine: it agrees with itself, and raises only if two runs
        # disagree, which needs two moves for some state and letter
        if all(len(outs) <= 1 for outs in x.trans.values()):
            return True, None
        return _first_difference(x, x, max_len)

    results = []
    for ax in AXIOMS.values():
        witness = None
        for tup in itertools.product(range(len(ts)), repeat=ax.arity):
            premises, conclusion = ax.law(ops, *(ts[i] for i in tup))
            if all(eq(*p)[0] for p in premises):
                outcome, word = eq(*conclusion)
                if not outcome:
                    witness = tup + (word,)
                    break
        results.append(AxiomCheck(ax.index, witness))
        built.clear()

    return AxiomReport(tuple(results))
