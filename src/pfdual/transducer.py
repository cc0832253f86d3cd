"""One-way finite-state transducers for rational word functions.

Machines are real-time: each transition consumes exactly one input letter
and emits an output word; a state may carry a final output word appended on
acceptance.  Nondeterminism is allowed but every machine must realize a
partial function; this is enforced by bounded checking, with violations
surfacing as NotFunctionalError.  An acceptor is a machine too, the
identity on its language.

A machine is a move table over the states 0 .. n-1, as OpenFst's vector
machines are: the moves of each state on each letter, and each state's
final output.  State names serve files only.  A machine given by names
(`from_names`, and every file) is validated; one derived from validated
machines is not validated again, and is refused past MAX_ELEMENTS states.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .algebra import AXIOMS, MAX_ELEMENTS, AxiomCheck, AxiomReport, derived
from .errors import NotFunctionalError

BOUND_CAP = 12
MAX_WORDS = 2 ** 20  # the bounded oracles may keep one configuration per word in memory


def _check_alphabet(alphabet: tuple[str, ...]) -> None:
    if len(set(alphabet)) != len(alphabet) or any(len(a) != 1 for a in alphabet):
        raise ValueError(f"alphabet {list(alphabet)!r} must list distinct one-character letters")


def words_upto(alphabet: Sequence[str], max_len: int) -> Iterator[str]:
    """All words of length at most max_len, by length then letter order."""
    for n in range(max_len + 1):
        for letters in itertools.product(alphabet, repeat=n):
            yield "".join(letters)


@dataclass(frozen=True, eq=False)
class Transducer:
    """delta[q][j]: the (output word, target state) moves of state q on
    letter alphabet[j], sorted; final[q]: q's final output, or None where q
    does not accept; names[q]: q's name in files."""

    alphabet: tuple[str, ...]
    initial: int
    delta: tuple[tuple[tuple[tuple[str, int], ...], ...], ...]
    final: tuple[Optional[str], ...]
    names: tuple[str, ...]


def from_names(states: Sequence[str], alphabet: Sequence[str], initial: str,
               trans: Mapping[tuple[str, str], Iterable[tuple[str, str]]],
               final_out: Mapping[str, str]) -> Transducer:
    """The validated machine on named states: trans maps (state, letter) to
    (output, state) moves, final_out the accepting states to their final
    outputs.  States are numbered in the order listed."""
    states, alphabet = tuple(states), tuple(alphabet)
    _check_alphabet(alphabet)
    index = {q: i for i, q in enumerate(states)}
    if len(index) != len(states):
        raise ValueError(f"state {next(q for i, q in enumerate(states) if index[q] != i)!r} is listed twice")
    letter = {a: j for j, a in enumerate(alphabet)}
    if initial not in index:
        raise ValueError("initial state must be listed")
    if not index.keys() >= set(final_out):
        raise ValueError("final states must be listed states")
    steps: dict[tuple[int, int], set[tuple[str, int]]] = {}
    for (q, a), outs in trans.items():
        if q not in index or a not in letter:
            raise ValueError(f"transition from unknown state/letter ({q!r},{a!r})")
        step = steps.setdefault((index[q], letter[a]), set())
        for out, q2 in outs:
            if q2 not in index:
                raise ValueError(f"transition to unknown state {q2!r}")
            if any(ch not in letter for ch in out):
                raise ValueError(f"output {out!r} uses letters outside the alphabet")
            step.add((out, index[q2]))
    for v in final_out.values():
        if any(ch not in letter for ch in v):
            raise ValueError(f"final output {v!r} uses letters outside the alphabet")
    delta = tuple(tuple(tuple(sorted(steps.get((q, j), ()))) for j in range(len(alphabet)))
                  for q in range(len(states)))
    return Transducer(alphabet, index[initial], delta, tuple(map(final_out.get, states)), states)


def eval(t: Transducer, word: str) -> Optional[str]:
    """The unique output for the word, or None when no run accepts.  Only
    live runs are followed, as the bounded walk follows them.  Raises
    NotFunctionalError when two accepting runs disagree."""
    for a in word:
        if a not in t.alphabet:
            raise ValueError(f"letter {a!r} outside the alphabet")
    live, final = _live_moves(t), t.final
    runs = {(t.initial, "")} if live[t.initial] is not None else set()
    for a in word:
        j = t.alphabet.index(a)
        runs = {(q2, out + e) for q, out in runs for e, q2 in live[q][j]}
    results = {out + final[q] for q, out in runs if final[q] is not None}
    if len(results) > 1:
        two = sorted(results)[:2]
        raise NotFunctionalError(word, (two[0], two[1]))
    return results.pop() if results else None


def identity_transducer(alphabet: Sequence[str]) -> Transducer:
    al = tuple(alphabet)
    _check_alphabet(al)
    return Transducer(al, 0, (tuple(((a, 0),) for a in al),), ("",), ("q0",))


def _relabel_transducer(op: str, alphabet: tuple[str, ...], initial, moves, final,
                        prefix="q", key=None) -> Transducer:
    """The machine of the states reached from initial, numbered breadth
    first: a state is numbered when first met, a step's moves taken in key
    order, the operands' name order.  moves(q) gives q's moves on each
    letter in turn, as (out, state) pairs, none twice; final(q) is q's final
    output or None.  States are named prefix + number (acceptors d0, ...).
    Past MAX_ELEMENTS states the build is refused, naming op."""
    number = {initial: 0}
    order = [initial]
    delta, finals = [], []
    for q in order:
        if len(order) > MAX_ELEMENTS:
            raise ValueError(f"{op} reaches {len(order)} states, over the limit MAX_ELEMENTS = {MAX_ELEMENTS}")
        row = []
        for step in moves(q):
            if len(step) == 1:
                ((out, q2),) = step
                n = number.get(q2)
                if n is None:
                    n = number[q2] = len(order)
                    order.append(q2)
                row.append(((out, n),))
                continue
            step = sorted(step, key=key)
            for _, q2 in step:
                if q2 not in number:
                    number[q2] = len(order)
                    order.append(q2)
            row.append(tuple(sorted([(out, number[q2]) for out, q2 in step])))
        delta.append(tuple(row))
        finals.append(final(q))
    names = tuple(f"{prefix}{k}" for k in range(len(order)))
    return Transducer(alphabet, 0, tuple(delta), tuple(finals), names)


def compose(t1: Transducer, t2: Transducer) -> Transducer:
    """Realizes w -> t2(t1(w)): the second machine consumes the output of
    the first, letter by letter."""
    if t1.alphabet != t2.alphabet:
        raise ValueError("transducers must share an alphabet")
    al, d1, f1, d2, f2 = t1.alphabet, t1.delta, t1.final, t2.delta, t2.final
    letter = {a: j for j, a in enumerate(al)}
    # (state, word) -> t2's runs from the state on the word; those on one letter are its moves.
    runs = dict(_letter_runs(t2))

    def run(q, word):
        configs = runs.get((q, word))
        if configs is None:  # a kept run may be empty, so only None means missing
            configs = {("", q)}
            for a in word:
                configs = {(out + e, q3) for out, q2 in configs for e, q3 in d2[q2][letter[a]]}
            runs[(q, word)] = configs
        return configs

    def moves(pair):
        q1, q2 = pair
        row = []
        for step in d1[q1]:
            if len(step) == 1:
                ((e, q1b),) = step
                configs = run(q2, e)
                if len(configs) == 1:
                    ((v, q2b),) = configs
                    row.append(((v, (q1b, q2b)),))
                    continue
            row.append({(v, (q1b, q2b)) for e, q1b in step for v, q2b in run(q2, e)})
        return row

    def by_name(move):
        out, (q1, q2) = move
        return out, t1.names[q1], t2.names[q2]

    def final(pair):
        q1, q2 = pair
        u = f1[q1]
        if u is None:
            return None
        results = {v + f2[q2b] for v, q2b in run(q2, u) if f2[q2b] is not None}
        if len(results) > 1:
            word, out = _shortlex_path(al, (t1.initial, t2.initial), moves, pair, by_name)
            two = sorted(results)[:2]
            raise NotFunctionalError(word, (out + two[0], out + two[1]))
        return results.pop() if results else None

    return _relabel_transducer("compose", al, (t1.initial, t2.initial), moves, final, key=by_name)


@derived
def _letter_runs(t: Transducer) -> dict:
    """(state, letter) -> t's runs from the state on that one-letter word,
    its moves; compose copies it as the start of its table of runs."""
    return {(q, a): step for q, row in enumerate(t.delta) for a, step in zip(t.alphabet, row)}


def _shortlex_path(alphabet, initial, moves, goal, key) -> tuple[str, str]:
    """The shortlex-least input word from initial to a reachable goal and one
    run's output on it, by a breadth-first walk over moves in key order;
    for errors only."""
    path = {initial: ("", "")}
    order = [initial]
    for q in order:
        if q == goal:
            return path[q]
        for a, step in zip(alphabet, moves(q)):
            for emitted, q2 in sorted(step, key=key):
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
    def moves(s):
        return [((a, frozenset(q2 for q in s for _, q2 in t.delta[q][j])),) for j, a in enumerate(t.alphabet)]

    return _relabel_transducer("domain_transducer", t.alphabet, frozenset({t.initial}), moves,
                               lambda s: None if all(t.final[q] is None for q in s) else "", "d")


@derived
def antidomain(t: Transducer) -> Transducer:
    """Identity on the words where t is undefined: D(t) with the other
    states final."""
    d = domain_transducer(t)
    return Transducer(d.alphabet, d.initial, d.delta, tuple(None if v == "" else "" for v in d.final), d.names)


@derived
def range_transducer(t: Transducer) -> Transducer:
    """Identity on the range language, by subset construction over output
    positions: (q, word, to, i) is i letters of word written on a move from
    q to state to, or of q's final output if to is None, which accepts once
    written; nothing written is q itself, and all of word written is to."""
    # q -> the (word, to) q may write: its moves, and (final output, None)
    writes = [set(itertools.chain(*row, () if v is None else [(v, None)])) for row, v in zip(t.delta, t.final)]

    def closure(positions: Iterable) -> frozenset:
        todo = list(positions)
        seen = set(todo)
        while todo:
            p = todo.pop()
            if type(p) is int:
                for word, to in writes[p]:
                    if not word and to not in seen:
                        seen.add(to)
                        todo.append(to)
        return frozenset(seen)

    def moves(s):
        reached: dict[str, list] = {a: [] for a in t.alphabet}
        for p in s:
            if type(p) is tuple:
                q, word, to, i = p
                reached[word[i]].append(to if i + 1 == len(word) else (q, word, to, i + 1))
            elif p is not None:
                for word, to in writes[p]:
                    if word:
                        reached[word[0]].append(to if len(word) == 1 else (p, word, to, 1))
        return [((a, closure(reached[a])),) for a in t.alphabet]

    return _relabel_transducer("range_transducer", t.alphabet, closure({t.initial}), moves,
                               lambda s: "" if None in s else None, "d")


def pref_union(t1: Transducer, t2: Transducer) -> Transducer:
    """t1 where defined, else t2: the union of t1 with t2r = A(t1);t2, whose
    domains are disjoint, so it stays functional.  One table holds t1's rows,
    t2r's shifted past them, and a start row joining the two initial rows
    letter by letter, with t1's initial final output, else t2r's."""
    t2r = compose(antidomain(t1), t2)
    n1 = len(t1.delta)
    shifted = tuple(tuple(tuple((out, q2 + n1) for out, q2 in step) for step in row) for row in t2r.delta)
    start = tuple(s1 + s2 for s1, s2 in zip(t1.delta[t1.initial], shifted[t2r.initial]))
    delta = t1.delta + shifted + (start,)
    u = t1.final[t1.initial]
    final = t1.final + t2r.final + (u if u is not None else t2r.final[t2r.initial],)

    def by_name(move):
        out, q = move
        return (out, ("l", t1.names[q])) if q < n1 else (out, ("r", t2r.names[q - n1]))

    return _relabel_transducer("pref_union", t1.alphabet, len(delta) - 1, delta.__getitem__,
                               final.__getitem__, key=by_name)


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
    check_bound((t1, t2), max_len)
    return _first_difference(t1, t2, max_len)


def check_bound(ts: Sequence[Transducer], max_len: int) -> None:
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
def _live_moves(t: Transducer) -> tuple:
    """Per state, t's moves on each letter into live states, those from
    which a final state can be reached; None for a state that is not live."""
    sources: list[set[int]] = [set() for _ in t.delta]  # state -> the states with a move into it
    for q, row in enumerate(t.delta):
        for step in row:
            for _, q2 in step:
                sources[q2].add(q)
    todo = [q for q, v in enumerate(t.final) if v is not None]
    live = [v is not None for v in t.final]
    while todo:
        for q in sources[todo.pop()]:
            if not live[q]:
                live[q] = True
                todo.append(q)
    return tuple(tuple(tuple(m for m in step if live[m[1]]) for step in row) if live[q] else None
                 for q, row in enumerate(t.delta))


def _first_difference(x: Transducer, y: Transducer, max_len: int) -> tuple[bool, Optional[str]]:
    """equiv_bounded's verdict, from one walk of both machines in lockstep,
    level by level in words_upto order.  A word's configuration, the live
    runs of x and of y on it less their common output prefix, decides every
    extension, so one met again is not expanded again.  At each word, two
    outputs of x raise eval(x, word)'s error, then two of y raise y's, and
    then differing outputs make it the witness.

    Two sides with one move table (initial, delta, final) are one machine,
    equal to itself on every word: with at most one move per state and
    letter it has one output per word and is decided equal without a walk;
    otherwise the walk raises at its first word with two outputs, if any."""
    one = (x.initial, x.delta, x.final) == (y.initial, y.delta, y.final)
    if one and all(len(step) <= 1 for row in x.delta for step in row):
        return True, None
    al, fx, fy = x.alphabet, x.final, y.final
    mx, my = _live_moves(x), _live_moves(y)
    start = (frozenset({(x.initial, "")} if mx[x.initial] is not None else ()),
             frozenset({(y.initial, "")} if my[y.initial] is not None else ()))
    seen = {start}
    level = [("", start)]
    for n in range(max_len + 1):
        following = []
        for word, (rx, ry) in level:
            ox = {o + fx[q] for q, o in rx if fx[q] is not None}
            if len(ox) > 1:
                eval(x, word)  # raises
            oy = {o + fy[q] for q, o in ry if fy[q] is not None}
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

    A, D and R of a machine and its live moves are kept on it
    (`algebra.derived`), so those of the inputs and the identity are built
    once per sweep.  For k inputs, these with the inputs and the identity
    are the sweep's 4(k+1) leaves.  A composite or override of two leaves
    is built once per sweep, keyed by the machines (hashed by identity), and
    kept until the sweep returns: at most one of each per ordered pair of
    leaves.  Other terms, such as comp(a, comp(b, c)), are not kept.
    """
    check_bound(ts, max_len)
    ident = identity_transducer(ts[0].alphabet)
    leaves = {m for t in (*ts, ident)
              for m in (t, antidomain(t), domain_transducer(t), range_transducer(t))}
    built: dict[tuple, Transducer] = {}

    def share(build):
        def op(*args: Transducer) -> Transducer:
            if not leaves.issuperset(args):
                return build(*args)
            key = (build, *args)
            if key not in built:
                built[key] = build(*args)
            return built[key]
        return op

    ops = SimpleNamespace(A=antidomain, D=domain_transducer, R=range_transducer,
                          comp=share(compose), pref=share(pref_union), ident=ident)

    results = []
    for ax in AXIOMS.values():
        witness = None
        for tup in itertools.product(range(len(ts)), repeat=ax.arity):
            premises, conclusion = ax.law(ops, *(ts[i] for i in tup))
            if all(_first_difference(*p, max_len)[0] for p in premises):
                outcome, word = _first_difference(*conclusion, max_len)
                if not outcome:
                    witness = tup + (word,)
                    break
        results.append(AxiomCheck(ax.index, witness))

    return AxiomReport(tuple(results))
