"""Command-line front end.

Verbs: check-axioms, dualize, sections, bidual, hom-check, functor-check,
naturality, and a transducer subcommand family.  Reports print as aligned
text or JSON; both are byte-stable across runs on identical input.

Exit codes: 0 when every check passes, 1 when some check fails, 2 on parse
or precondition errors, 3 on an internal error (an invariant that holds for
every valid input broke).  A refusal of an input names the file at fault,
or the files a result was built from (`formats.built`).

A plain command line (a verb, one run of positionals, each option written
`--name value`) is read straight from the verb tables VERBS and
TRANSDUCER_VERBS.  Any other goes to the argparse parser built from the same
tables, which prints help and usage errors; a plain run never imports
argparse.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Optional, Sequence

from . import algebra as alg
from . import dualize as dz
from . import duality as du
from . import formats as fmt
from . import sections as sec
from . import topcat as tc
from . import transducer as td
from .errors import InconsistencyError

if TYPE_CHECKING:
    import argparse

# `transducer dom|range` lists the accepted words up to this length.
SAMPLE_LEN = 4


def _emit(report: dict, fmt_kind: str) -> None:
    if fmt_kind == "json":
        _print(json.dumps(report, indent=2) + "\n")
    else:
        _print("".join(line + "\n" for line in _text_lines(report, "")))


def _print(text: str) -> None:
    """Write text to standard output in one piece, as UTF-8 whatever the
    locale; a stream with no byte buffer, such as a StringIO, takes the
    text as it is."""
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.write(text)
    else:
        sys.stdout.flush()
        buffer.write(text.encode("utf-8"))


def _text_lines(value: Any, prefix: str):
    if isinstance(value, dict):
        items = ((f"{prefix}.{k}" if prefix else f"{k}", v) for k, v in value.items())
    else:
        items = ((f"{prefix}[{i}]", v) for i, v in enumerate(value))
    for key, v in items:
        if isinstance(v, (dict, list)):
            yield from _text_lines(v, key)
        else:
            yield f"{key}: {v}"


def _functor_entries(fun: tc.MultiFunctor) -> dict[str, bool]:
    stars = tc.star_checks(fun)
    return {
        "multifunctor_valid": tc.check_multifunctor(fun) is None,
        "continuous": tc.is_continuous_multifunctor(fun),
        "star_injective": stars.injective,
        "star_surjective": stars.surjective,
        "pseudo_star_surjective": stars.pseudo,
        "co_pseudo_star_surjective": stars.co_pseudo,
        "star_coherent": stars.coherent,
        "plain_functor": tc.is_plain_functor(fun),
    }


def _functor_ok(entries: dict[str, bool]) -> bool:
    return entries["multifunctor_valid"] and entries["continuous"] and entries["star_coherent"]


def _write_out(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        _print(text)


def _axiom_entries(report: alg.AxiomReport, names: tuple[str, ...]) -> list[dict]:
    entries = []
    for r in report.results:
        entry: dict[str, Any] = {
            "axiom": r.index,
            "name": r.name,
            "statement": alg.AXIOMS[r.index].statement,
            "passed": r.passed,
        }
        if r.witness is not None:
            entry["witness"] = [names[i] for i in r.witness]
        if r.detail:
            entry["detail"] = r.detail
        entries.append(entry)
    return entries


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_check_axioms(args) -> int:
    a = fmt.load_algebra(args.file)
    report = alg.check_axioms(a)
    _emit({"algebra": args.file, "elements": a.size,
           "axioms": _axiom_entries(report, a.names), "passed": report.passed}, args.format)
    return 0 if report.passed else 1


def cmd_dualize(args) -> int:
    a = fmt.load_algebra(args.file)
    dual = dz.pf_object(a)
    cat = dual.category
    if args.out:
        _write_out(fmt.write_category(cat), args.out)
    if args.dot:
        Path(args.dot).write_text(fmt.category_to_dot(cat), encoding="utf-8")
    _emit({
        "algebra": args.file,
        "objects": cat.n_objects,
        "arrows": cat.n_arrows,
        "identities": len(set(cat.id_of)),
        "object_names": list(cat.obj_names),
        "arrow_names": list(cat.arr_names),
        "category_file": args.out or "",
        "dot_file": args.dot or "",
    }, args.format)
    return 0


def cmd_sections(args) -> int:
    cat = fmt.load_category(args.file)
    sec.require_section_bound(cat)
    problems = tc.validate_object_of_C(cat)
    if problems:
        raise ValueError("category fails membership checks: " + "; ".join(problems))
    algebra, secs = sec.seccl_object(cat)
    if args.out:
        _write_out(fmt.write_algebra(algebra), args.out)
    _emit({
        "category": args.file,
        "sections": algebra.size,
        "axioms_pass": alg.check_axioms(algebra).passed,
        "algebra_file": args.out or "",
    }, args.format)
    return 0


def cmd_bidual(args) -> int:
    a = fmt.load_algebra(args.file)
    iso = du.theta(a)
    _emit({
        "algebra": args.file,
        "theta": f"isomorphism ({a.size} <-> {iso.target.size})",
        "elements": a.size,
        "sections": iso.target.size,
    }, args.format)
    return 0


def cmd_hom_check(args) -> int:
    h = fmt.load_homomorphism(args.file)
    valid = alg.check_homomorphism(h)
    report: dict[str, Any] = {"hom": args.file, "valid": valid}
    ok = valid
    if valid:
        proper, witness = alg.check_locally_proper(h)
        report["locally_proper"] = proper
        if witness is not None:
            report["locally_proper_witness"] = list(witness.element_names())
        report["dual"] = _functor_entries(dz.pf_morphism(h))
        ok = _functor_ok(report["dual"])
    _emit(report, args.format)
    return 0 if ok else 1


def cmd_functor_check(args) -> int:
    fun = fmt.load_functor(args.file)
    sides = (("source", fun.source), ("target", fun.target))
    for side, cat in sides[:1] if fun.target is fun.source else sides:
        problems = cat.check_category()
        if problems:
            raise ValueError(f"functor {side} is not a category: {problems[0]}")
    entries = _functor_entries(fun)
    _emit({"functor": args.file, **entries}, args.format)
    return 0 if _functor_ok(entries) else 1


def cmd_naturality(args) -> int:
    data = fmt.load_json(args.file)
    if "map" in data:
        h = fmt.parse_homomorphism(data, args.file)
        if not alg.check_homomorphism(h):
            raise ValueError("map is not a homomorphism")
        commutes = du.check_naturality_theta(h)
        _emit({"hom": args.file, "square": "theta", "commutes": commutes}, args.format)
    elif "arr_rel" in data:
        fun = fmt.parse_functor(data, args.file)
        commutes = du.check_naturality_phi(fun)
        _emit({"functor": args.file, "square": "phi", "commutes": commutes}, args.format)
    else:
        raise fmt.FormatError(args.file, "expected a homomorphism ('map') or functor ('arr_rel') file")
    return 0 if commutes else 1


def _load_machines(files: Sequence[str]) -> list:
    """The machines of the files, refused at the first whose alphabet is
    not the first one's."""
    machines = [fmt.load_transducer(f) for f in files]
    for f, t in zip(files, machines):
        if t.alphabet != machines[0].alphabet:
            raise fmt.FormatError(f, f"alphabet {list(t.alphabet)!r} differs from "
                                     f"{list(machines[0].alphabet)!r} of {files[0]}")
    return machines


def cmd_transducer_eval(args) -> int:
    t = fmt.load_transducer(args.file)
    out = td.eval(t, args.word)
    _emit({"transducer": args.file, "input": args.word,
           "defined": out is not None, "output": out if out is not None else ""}, args.format)
    return 0 if out is not None else 1


def cmd_transducer_combine(args) -> int:
    t1, t2 = _load_machines([args.left, args.right])
    combine = td.compose if args.sub == "compose" else td.pref_union
    result = fmt.built([args.left, args.right], lambda: combine(t1, t2))
    _write_out(fmt.write_transducer(result), args.out)
    return 0


def cmd_transducer_acceptor(args) -> int:
    t = fmt.load_transducer(args.file)
    d = td.domain_transducer(t) if args.sub == "dom" else td.range_transducer(t)
    sample = [w for w in td.words_upto(d.alphabet, SAMPLE_LEN) if td.eval(d, w) is not None]
    if args.out:
        _write_out(fmt.write_dfa(d), args.out)
    _emit({"transducer": args.file, "acceptor": args.sub, "states": len(d.delta),
           "sample_max_len": SAMPLE_LEN, "accepted_sample": sample,
           "dfa_file": args.out or ""}, args.format)
    return 0


def cmd_transducer_axioms(args) -> int:
    machines = _load_machines(args.files)
    td.check_bound(machines, args.max_len)
    for f, t in zip(args.files, machines):
        # A, D and R of each input, which the sweep reuses: built here, in
        # the sweep's order, so a refusal names the file of its machine
        fmt.built([f], lambda: (td.antidomain(t), td.range_transducer(t)))
    report = fmt.built(args.files, lambda: td.axioms_bounded(machines, args.max_len))
    entries = []
    for r in report.results:
        entry: dict[str, Any] = {"axiom": r.index, "name": r.name,
                                 "equational": r.equational, "passed": r.passed}
        if r.witness is not None:
            entry["witness"] = {"operands": [args.files[i] for i in r.witness[:-1]],
                                "word": r.witness[-1]}
        entries.append(entry)
    _emit({"max_len": args.max_len, "axioms": entries, "passed": report.passed}, args.format)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _out(help_text: str) -> tuple[str, dict]:
    return ("--out", {"help": help_text})


# Every verb takes --format after its own arguments.
FORMAT = ("--format", {"choices": ("text", "json"), "default": "text"})

# verb -> (help, handler, arguments before --format); an argument is a bare
# positional name or a (name, add_argument keywords) pair.  A handler of
# None marks a family of subverbs.
VERBS: dict[str, tuple] = {
    "check-axioms": ("run the ten representability axioms on an algebra file", cmd_check_axioms, ("file",)),
    "dualize": ("build the dual category of an algebra", cmd_dualize,
                ("file", _out("write the category file here"), ("--dot", {"help": "write a DOT rendering here"}))),
    "sections": ("build the section algebra of a category file", cmd_sections,
                 ("file", _out("write the algebra file here"))),
    "bidual": ("verify the double-dual isomorphism of an algebra", cmd_bidual, ("file",)),
    "hom-check": ("validate a homomorphism file and its dual functor", cmd_hom_check, ("file",)),
    "functor-check": ("validate a multivalued-functor file", cmd_functor_check, ("file",)),
    "naturality": ("check the naturality square of a hom or functor file", cmd_naturality, ("file",)),
    "transducer": ("transducer operations", None, ()),
}
TRANSDUCER_VERBS: dict[str, tuple] = {
    "eval": ("run a transducer on a word", cmd_transducer_eval, ("file", "word")),
    "compose": ("compose two transducers (left first)", cmd_transducer_combine,
                ("left", "right", _out("write the resulting transducer here"))),
    "pref": ("override union of two transducers", cmd_transducer_combine,
             ("left", "right", _out("write the resulting transducer here"))),
    "dom": ("domain acceptor", cmd_transducer_acceptor, ("file", _out("write the acceptor here"))),
    "range": ("range acceptor", cmd_transducer_acceptor, ("file", _out("write the acceptor here"))),
    "axioms": ("bounded axiom sweep over a set of transducers", cmd_transducer_axioms,
               (("files", {"nargs": "+"}), ("--max-len", {"type": int, "default": 8}))),
}


def _arguments(arguments: tuple) -> list[tuple[str, dict]]:
    """Each argument of a verb as a (name, add_argument keywords) pair,
    --format last."""
    return [(arg, {}) if isinstance(arg, str) else arg for arg in (*arguments, FORMAT)]


def _parse(argv: Sequence[str]) -> Optional[dict]:
    """The attributes argparse sets for a plain command line, read from the
    verb tables; None for anything else (help, a usage error, or another
    form argparse accepts, such as --format=json, --form json, --max-len -1,
    -- or positionals split around an option), which main leaves to argparse.

    A plain command line is a verb (and a transducer subverb), then one
    contiguous run of positionals of the verb's arity, with each option of
    the verb written `--name value`, the value not starting with '-'.
    """
    if not argv or argv[0] not in VERBS:
        return None
    parsed: dict[str, Any] = {"command": argv[0]}
    _, fn, arguments = VERBS[argv[0]]
    rest = list(argv[1:])
    if fn is None:
        if not rest or rest[0] not in TRANSDUCER_VERBS:
            return None
        parsed["sub"] = rest[0]
        _, fn, arguments = TRANSDUCER_VERBS[rest.pop(0)]
    positionals, options = [], {}
    for name, kw in _arguments(arguments):
        if name.startswith("--"):
            dest = name[2:].replace("-", "_")
            options[name] = dest, kw
            parsed[dest] = kw.get("default")
        else:
            positionals.append((name, kw.get("nargs")))
    values: list[str] = []
    ended = False  # an option has followed the run of positionals
    tokens = iter(rest)
    for token in tokens:
        if not token.startswith("-"):
            if ended:
                return None
            values.append(token)
            continue
        if token not in options:
            return None
        ended = bool(values)
        dest, kw = options[token]
        value = next(tokens, "-")  # a missing value reads as an option
        if value.startswith("-"):
            return None
        try:
            value = kw.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        parsed[dest] = value
    n = len(positionals)
    if len(values) < n or len(values) > n and positionals[-1][1] != "+":
        return None
    for k, (name, nargs) in enumerate(positionals):
        parsed[name] = values[k:] if nargs == "+" else values[k]
    parsed["fn"] = fn
    return parsed


def _add_verbs(parser: argparse.ArgumentParser, dest: str, verbs: dict) -> None:
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (help_text, fn, arguments) in verbs.items():
        p = sub.add_parser(name, help=help_text)
        if fn is None:
            _add_verbs(p, "sub", TRANSDUCER_VERBS)
            continue
        for arg_name, options in _arguments(arguments):
            p.add_argument(arg_name, **options)
        p.set_defaults(fn=fn)


def _build_parser() -> argparse.ArgumentParser:
    """The full parser, which prints help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="pfdual",
        description="Check, dualize and compare finite partial-function algebras, "
                    "their dual categories, and word transducers.",
    )
    _add_verbs(parser, "command", VERBS)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parsed = _parse(argv)
    args = _build_parser().parse_args(argv) if parsed is None else SimpleNamespace(**parsed)
    try:
        if not hasattr(args, "file"):  # compose, pref and axioms name their files themselves
            return args.fn(args)
        return fmt.built([args.file], lambda: args.fn(args))
    except InconsistencyError as e:
        sys.stderr.write(f"internal error: {e}\n")
        return 3
    except (ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
