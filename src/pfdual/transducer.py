"""One-way finite-state transducers for rational word functions.

Machines are real-time: each transition consumes exactly one input letter
and emits an output word; a state may carry a final output word appended on
acceptance.  Nondeterminism is allowed but every machine must realize a
partial function; this is enforced by bounded checking, with violations
surfacing as NotFunctionalError.  A machine derived from validated ones is
not validated again.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable, Iterator, Optional, Sequence

from .algebra import AXIOMS
from .errors import NotFunctionalError

BOUND_CAP = 12
MAX_WORDS = 2 ** 20  # the bounded oracles keep one output per word in memory


def _check_alphabet(alphabet: tuple[str, ...]) -> None:
    if len(set(alphabet)) != len(alphabet) or any(len(a) != 1 for a in alphabet):
        raise ValueError(f"alphabet {list(alphabet)!r} must list distinct one-character letters")


def _unchecked(cls, *fields):
    """cls from validated parts, its fields in order, skipping __post_init__."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, fields))
    return obj


@dataclass(frozen=True, eq=False)
class Dfa:
    """A complete deterministic acceptor; delta must be total."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    initial: str
    accepting: frozenset[str]
    delta: dict[tuple[str, str], str]

    def __post_init__(self) -> None:
        _check_alphabet(self.alphabet)
        sset = set(self.states)
        if self.initial not in sset or not self.accepting <= sset:
            raise ValueError("initial/accepting states must be listed states")
        for q in self.states:
            for a in self.alphabet:
                if self.delta.get((q, a)) not in sset:
                    raise ValueError(f"transition function must be total: missing ({q!r},{a!r})")

    def accepts(self, word: str) -> bool:
        q = self.initial
        for a in word:
            if a not in self.alphabet:
                raise ValueError(f"letter {a!r} outside the alphabet")
            q = self.delta[(q, a)]
        return q in self.accepting


def complement(d: Dfa) -> Dfa:
    return _unchecked(Dfa, d.states, d.alphabet, d.initial,
                      frozenset(set(d.states) - d.accepting), dict(d.delta))


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

    Raises NotFunctionalError when two accepting runs disagree.
    """
    for a in word:
        if a not in t.alphabet:
            raise ValueError(f"letter {a!r} outside the alphabet")
    results = {out + t.final_out[q] for out, q in _run_on_word(t, t.initial, word) if q in t.final_out}
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


def empty_transducer(alphabet: Sequence[str]) -> Transducer:
    return Transducer(states=("q0",), alphabet=tuple(alphabet), initial="q0", trans={}, final_out={})


def from_dfa(d: Dfa) -> Transducer:
    """The identity function restricted to the language of the acceptor."""
    return _unchecked(Transducer, d.states, d.alphabet, d.initial,
                      {(q, a): frozenset({(a, d.delta[(q, a)])}) for q in d.states for a in d.alphabet},
                      {q: "" for q in d.accepting})


def _relabel_transducer(
    alphabet: tuple[str, ...],
    initial,
    moves,          # state -> letter -> iterable of (out, state)
    final,          # state -> word or None
) -> Transducer:
    """Breadth-first renaming to q0, q1, ... for deterministic output.
    moves is called once per reached state and letter."""
    order = [initial]
    seen = {initial}
    steps = []      # (state, letter, sorted moves) in discovery order
    k = 0
    while k < len(order):
        q = order[k]
        k += 1
        for a in alphabet:
            step = sorted(moves(q, a))
            steps.append((q, a, step))
            for _, q2 in step:
                if q2 not in seen:
                    seen.add(q2)
                    order.append(q2)
    name = {q: f"q{i}" for i, q in enumerate(order)}
    trans = {}
    for q, a, step in steps:
        if step:
            trans[(name[q], a)] = frozenset((out, name[q2]) for out, q2 in step)
    final_out = {}
    for q in order:
        v = final(q)
        if v is not None:
            final_out[name[q]] = v
    return _unchecked(Transducer, tuple(name[q] for q in order), alphabet, "q0", trans, final_out)


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
    run = functools.cache(functools.partial(_run_on_word, t2))  # (state, word) -> run, this call only

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
    run's output on it: `_relabel_transducer`'s walk again, for errors only."""
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
# Domain and range acceptors via subset construction
# ---------------------------------------------------------------------------


def _determinize(alphabet, start: frozenset, move, accepting_pred) -> Dfa:
    order = [start]
    seen = {start}
    k = 0
    delta = {}
    while k < len(order):
        s = order[k]
        k += 1
        for a in alphabet:
            s2 = move(s, a)
            delta[(s, a)] = s2
            if s2 not in seen:
                seen.add(s2)
                order.append(s2)
    name = {s: f"d{i}" for i, s in enumerate(order)}
    return _unchecked(Dfa, tuple(name[s] for s in order), tuple(alphabet), name[start],
                      frozenset(name[s] for s in order if accepting_pred(s)),
                      {(name[s], a): name[s2] for (s, a), s2 in delta.items()})


def domain_dfa(t: Transducer) -> Dfa:
    """Forget outputs, then determinize."""
    def move(s, a):
        return frozenset(q2 for q in s for _, q2 in t.moves(q, a))

    return _determinize(
        t.alphabet, frozenset({t.initial}), move,
        lambda s: any(q in t.final_out for q in s),
    )


def range_dfa(t: Transducer) -> Dfa:
    """Acceptor for the set of output words, built by reading transition
    outputs through an epsilon automaton and determinizing."""
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

    def move(s, a):
        step = set()
        for n in s:
            step |= letter_edges.get((n, a), set())
        return closure(step)

    return _determinize(
        t.alphabet, closure({("s", t.initial)}), move,
        lambda s: accept in s,
    )


def antidomain(t: Transducer) -> Transducer:
    """Identity on the words where t is undefined."""
    return from_dfa(complement(domain_dfa(t)))


def domain_transducer(t: Transducer) -> Transducer:
    """Identity on the domain: the machine A(A(t)), from one determinization."""
    return from_dfa(domain_dfa(t))


def range_transducer(t: Transducer) -> Transducer:
    """Identity on the range language."""
    return from_dfa(range_dfa(t))


def restrict(t: Transducer, d: Dfa) -> Transducer:
    """t limited to inputs accepted by d, via the product construction."""
    if t.alphabet != d.alphabet:
        raise ValueError("alphabets differ")

    def moves(pair, a):
        q, s = pair
        return {(out, (q2, d.delta[(s, a)])) for out, q2 in t.moves(q, a)}

    def final(pair):
        q, s = pair
        if s in d.accepting:
            return t.final_out.get(q)
        return None

    return _relabel_transducer(t.alphabet, (t.initial, d.initial), moves, final)


def pref_union(t1: Transducer, t2: Transducer) -> Transducer:
    """t1 where defined, else t2: the union of t1 with t2 restricted to the
    complement of the domain of t1.  The two parts have disjoint domains, so
    the union stays functional."""
    if t1.alphabet != t2.alphabet:
        raise ValueError("transducers must share an alphabet")
    t2r = restrict(t2, complement(domain_dfa(t1)))

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

    Returns (verdict, witness_word_or_None).
    """
    _check_bound((t1, t2), max_len)
    return _agree(t1.alphabet, _outputs(t1, max_len), _outputs(t2, max_len))


def _check_bound(ts: Sequence[Transducer], max_len: int) -> None:
    """Refuse a sweep of the machines ts up to max_len that is not defined,
    or whose output tables would not fit in memory."""
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


def _markers(alphabet: Sequence[str]) -> tuple[str, str]:
    """Two characters no output can contain: a separator and the undefined mark."""
    free = (c for c in map(chr, itertools.count()) if c not in alphabet)
    return next(free), next(free)


def _outputs(t: Transducer, max_len: int) -> tuple:
    """The output table (text, error) of t up to max_len.

    text holds eval(t, w) for every word w, in words_upto order, joined by a
    separator outside the alphabet; an undefined word, and a word with two
    outputs, reads as a mark outside the alphabet.  error is (index, two
    outputs) for the first word with two outputs, or None.

    One depth-first walk of the prefix trie: each prefix's configurations
    are computed once and extended by one letter per child, keeping only
    live runs, in states that can reach a final state; a prefix with no
    live run leaves its subtree undefined.  A prefix with one configuration
    is a flat (depth, rank, state, output) entry; a set of (state, output)
    pairs takes the state slot, output None, only while two or more live.
    Words of length max_len are never entries: their parent writes them,
    from what one last letter adds to each of its outputs, a move into a
    final state followed by that state's final output.
    """
    al, final_out = t.alphabet, t.final_out
    k = len(al)
    sep, undef = _markers(al)
    start = [sum(k ** m for m in range(n)) for n in range(max_len + 2)]
    outs = [undef] * start[-1]
    error = None
    sources: dict[str, set] = {}  # state -> the states with a move into it
    for (q, _), step in t.trans.items():
        for _, q2 in step:
            sources.setdefault(q2, set()).add(q)
    live, todo = set(final_out), list(final_out)
    while todo:  # live: the states that can reach a final state
        new = sources.get(todo.pop(), set()) - live
        live |= new
        todo += new
    moves = {q: tuple(tuple(m for m in t.moves(q, a) if m[1] in live) for a in al) for q in t.states}
    # state -> per letter, the distinct words a last letter adds, sorted
    ends = {q: tuple(tuple(sorted({e + final_out[q2] for e, q2 in step if q2 in final_out}))
                     for step in steps)
            for q, steps in moves.items()}
    last, leaves = max_len - 1, start[max_len]

    def settle(i: int, results: set) -> None:
        """Write word i's one output, or note it if it is the first word
        yet seen with two."""
        nonlocal error
        if len(results) == 1:
            outs[i] = results.pop()
        elif results and (error is None or i < error[0]):
            two = sorted(results)[:2]
            error = (i, (two[0], two[1]))

    stack = [(0, 0, t.initial, "")]
    push = stack.append
    while stack:
        n, rank, q, out = stack.pop()
        i = start[n] + rank
        if out is not None:
            if q in final_out:
                outs[i] = out + final_out[q]
            if n < last:
                for j, step in enumerate(moves[q], rank * k):
                    if len(step) == 1:
                        (emitted, q2), = step
                        push((n + 1, j, q2, out + emitted))
                    elif step:
                        push((n + 1, j, {(q2, out + emitted) for emitted, q2 in step}, None))
            elif n == last:
                for j, tails in enumerate(ends[q], leaves + rank * k):
                    if len(tails) == 1:
                        outs[j] = out + tails[0]
                    elif tails and (error is None or j < error[0]):
                        error = (j, (out + tails[0], out + tails[1]))
            continue
        settle(i, {o + final_out[s] for s, o in q if s in final_out})
        if n < last:
            for j in range(k):
                step = {(q2, o + emitted) for s, o in q for emitted, q2 in moves[s][j]}
                if len(step) == 1:
                    push((n + 1, rank * k + j, *step.pop()))
                elif step:
                    push((n + 1, rank * k + j, step, None))
        elif n == last:
            for j in range(k):
                settle(leaves + rank * k + j, {o + tail for s, o in q for tail in ends[s][j]})
    return sep.join(outs), error


def _word_at(alphabet: Sequence[str], index: int) -> str:
    """The word at this position of words_upto(alphabet, ...): the index
    less the count of shorter words, written as base-k digits."""
    k = len(alphabet)
    if k == 1:
        return alphabet[0] * index
    n, size = 0, 1
    while index >= size:
        index -= size
        n += 1
        size *= k
    letters = []
    for _ in range(n):
        index, digit = divmod(index, k)
        letters.append(alphabet[digit])
    return "".join(reversed(letters))


def _agree(alphabet: Sequence[str], x: tuple, y: tuple) -> tuple[bool, Optional[str]]:
    """equiv_bounded's verdict from the two machines' tables.  The first word
    with two outputs at or before the first disagreement raises its
    NotFunctionalError, x's before y's, as evaluating word by word would."""
    (x_text, x_error), (y_text, y_error) = x, y
    first = None
    if x_text != y_text:
        sep, _ = _markers(alphabet)
        first = next(i for i, (u, v) in enumerate(zip(x_text.split(sep), y_text.split(sep)))
                     if u != v)
    errors = [e for e in (x_error, y_error) if e is not None]
    if errors:
        at, outputs = min(errors, key=lambda e: e[0])
        if first is None or at <= first:
            raise NotFunctionalError(_word_at(alphabet, at), outputs)
    return (True, None) if first is None else (False, _word_at(alphabet, first))


@dataclass(frozen=True)
class BoundedAxiomCheck:
    index: int
    name: str
    equational: bool
    passed: bool
    witness: Optional[tuple] = None  # (operand indices..., word)


@dataclass(frozen=True)
class BoundedAxiomReport:
    max_len: int
    results: tuple[BoundedAxiomCheck, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def equational_passed(self) -> bool:
        return all(r.passed for r in self.results if r.equational)

    def result(self, index: int) -> BoundedAxiomCheck:
        return self.results[index - 1]


def axioms_bounded(ts: Sequence[Transducer], max_len: int) -> BoundedAxiomReport:
    """Instantiate the ten representability (quasi)equations of
    `algebra.AXIOMS` over all tuples from the given machines and compare
    each premise, then the conclusion, word by word.

    Two sides of the same structure (initial state, transitions and final
    outputs) are one machine, equal to itself on every word: with at most one
    move per state and letter it is decided equal without a table, since
    such a machine has one run per word and so one output; otherwise its one
    table is built to raise the first word with two outputs.  The sides of
    comp(a, comp(b, c)) = comp(comp(a, b), c) over deterministic machines
    come out this way.

    Within one axiom, A, D and R of a shared machine, and a composite or
    override of inputs, the identity and A/D/R results, are built once and
    shared; each shared machine's output table is computed once, keyed by its
    structure, which a term built equal to it also reuses.  Both are dropped
    when the axiom is done.  Other terms, such as comp(a, comp(b, c)), are
    used once and not kept.
    """
    _check_bound(ts, max_len)
    al = ts[0].alphabet
    ident = identity_transducer(al)
    inputs = {id(t): "input" for t in (*ts, ident)}
    # id -> label of every shared machine.  Each one is held by ts, ident or
    # built until the axiom is done, so no id is reused while it is a key.
    shared = dict(inputs)
    built: dict[tuple, Transducer] = {}
    tables: dict[tuple, tuple] = {}  # structure -> table, of shared machines only

    def share(label: str, build, operand_labels: tuple[str, ...]):
        def op(*args: Transducer) -> Transducer:
            if any(shared.get(id(x)) not in operand_labels for x in args):
                return build(*args)
            key = (label, *map(id, args))
            if key not in built:
                built[key] = m = build(*args)
                shared.setdefault(id(m), label)
            return built[key]
        return op

    # comp and pref are shared only over inputs and A/D/R results: a
    # composite of a composite is a top-level term, used once.
    leaves = ("input", "A", "D", "R")
    any_shared = leaves + ("comp", "pref")
    ops = SimpleNamespace(
        A=share("A", antidomain, any_shared), D=share("D", domain_transducer, any_shared),
        R=share("R", range_transducer, any_shared),
        comp=share("comp", compose, leaves), pref=share("pref", pref_union, leaves), ident=ident,
    )

    def structure(t: Transducer) -> tuple:
        return (t.initial, frozenset(t.trans.items()), frozenset(t.final_out.items()))

    def table(t: Transducer, key: tuple) -> tuple:
        if key in tables:
            return tables[key]
        tab = _outputs(t, max_len)
        if id(t) in shared:
            tables[key] = tab
        return tab

    def eq(x: Transducer, y: Transducer):
        kx, ky = structure(x), structure(y)
        if kx != ky:
            return _agree(al, table(x, kx), table(y, ky))
        # one machine: it agrees with itself, and raises only if two runs
        # disagree, which needs two moves for some state and letter
        if all(len(outs) <= 1 for outs in x.trans.values()):
            return True, None
        tx = table(x, kx)
        return _agree(al, tx, tx)

    results = []
    for ax in AXIOMS.values():
        for tup in itertools.product(range(len(ts)), repeat=ax.arity):
            premises, conclusion = ax.law(ops, *(ts[i] for i in tup))
            if all(eq(*p)[0] for p in premises):
                outcome, word = eq(*conclusion)
                if not outcome:
                    results.append(BoundedAxiomCheck(ax.index, ax.name, ax.equational, False, tup + (word,)))
                    break
        else:
            results.append(BoundedAxiomCheck(ax.index, ax.name, ax.equational, True))
        built.clear()
        tables.clear()
        shared.clear()
        shared.update(inputs)

    return BoundedAxiomReport(max_len=max_len, results=tuple(results))
