"""JSON file formats for algebras, categories, morphisms and machines.

All formats are JSON objects with a fixed key order; `write_*` functions
emit the canonical form (two-space indent, documented key order, trailing
newline), so writing a parsed file normalizes it byte-stably.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .algebra import MAX_ELEMENTS, FinAlgebra, Homomorphism
from .bitsets import bits, mask_of, popcount
from .pfun import Base, PFunc, as_abstract
from .topcat import FinTopology, MultiFunctor, TopCategory, comp_table, generate_topology
from .transducer import Transducer


class FormatError(ValueError):
    """A structural problem in an input file."""

    def __init__(self, path: str | Path, message: str, line: int | None = None, column: int | None = None) -> None:
        self.path = str(path)
        self.line = line
        self.column = column
        where = f"{path}" if line is None else f"{path}:{line}:{column}"
        super().__init__(f"{where}: {message}")


def load_json(path: str | Path) -> Any:
    """The JSON object a UTF-8 file holds; undecodable bytes, bad JSON or
    another top-level type is a FormatError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(path, f"not UTF-8: byte 0x{e.object[e.start]:02x} at offset {e.start}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(path, e.msg, e.lineno, e.colno) from None
    if not isinstance(data, dict):
        raise FormatError(path, "expected a JSON object")
    return data


def _dump(obj: Any) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _need(data: dict, key: str, path, kind: type | None = None) -> Any:
    """data[key], refused when missing or, given a kind, of another JSON type."""
    if key not in data:
        raise FormatError(path, f"missing key {key!r}")
    if kind is not None and not isinstance(data[key], kind):
        name = {dict: "object", list: "list", str: "string"}[kind]
        raise FormatError(path, f"{key!r} must be a JSON {name}")
    return data[key]


# ---------------------------------------------------------------------------
# Algebras: abstract tables, or concrete partial functions
# ---------------------------------------------------------------------------

# The most points a concrete algebra file may list; MAX_ELEMENTS bounds its functions.
MAX_BASE = 6


def _check_size(count: int, key: str, path) -> None:
    if count > MAX_ELEMENTS:
        raise FormatError(path, f"{count} {key} exceed the limit MAX_ELEMENTS = {MAX_ELEMENTS}")


def algebra_to_dict(alg: FinAlgebra) -> dict:
    names = alg.names
    return {
        "elements": list(names),
        "compose": [[names[v] for v in row] for row in alg.compose_t],
        "antidomain": [names[v] for v in alg.anti_t],
        "range": [names[v] for v in alg.range_t],
        "pref": [[names[v] for v in row] for row in alg.pref_t],
    }


def write_algebra(alg: FinAlgebra) -> str:
    return _dump(algebra_to_dict(alg))


def parse_algebra(data: dict, path: str | Path = "<algebra>") -> FinAlgebra:
    if "functions" in data:
        return parse_concrete_algebra(data, path)[0]
    names = _need(data, "elements", path, list)
    if not all(isinstance(name, str) for name in names):
        raise FormatError(path, "'elements' must be a list of strings")
    _check_size(len(names), "elements", path)
    idx = {name: i for i, name in enumerate(names)}
    if len(idx) != len(names):
        raise FormatError(path, "element names must be distinct")

    def vector(values: Any, key: str) -> list[int]:
        if not isinstance(values, list):
            raise FormatError(path, f"rows of {key!r} must be lists of element names")
        try:
            return list(map(idx.__getitem__, values))
        except (KeyError, TypeError):
            for name in values:
                if not isinstance(name, str) or name not in idx:
                    raise FormatError(path, f"unknown element {name!r} in {key}") from None
            raise

    def table(key: str) -> list[list[int]]:
        return [vector(row, key) for row in _need(data, key, path, list)]

    compose = table("compose")
    anti = vector(_need(data, "antidomain", path, list), "antidomain")
    rng = vector(_need(data, "range", path, list), "range")
    pref = table("pref")
    try:
        return FinAlgebra.from_tables(compose, anti, rng, pref, names)
    except ValueError as e:
        raise FormatError(path, str(e)) from None


def parse_concrete_algebra(data: dict, path: str | Path = "<algebra>"):
    """A family of named partial functions over a listed base; the family
    must be closed under the four operations."""
    points = _need(data, "base", path)
    if not isinstance(points, list):
        raise FormatError(path, "'base' must be a list of points")
    if not all(isinstance(point, str) for point in points):
        raise FormatError(path, "'base' points must be strings")
    if len(points) > MAX_BASE:
        raise FormatError(path, f"base size {len(points)} exceeds the limit MAX_BASE = {MAX_BASE}")
    try:
        base = Base(tuple(points))
    except ValueError as e:
        raise FormatError(path, str(e)) from None
    functions = _need(data, "functions", path)
    if not isinstance(functions, dict):
        raise FormatError(path, "'functions' must map names to graphs")
    _check_size(len(functions), "functions", path)
    named: dict[PFunc, str] = {}
    for name, graph in functions.items():
        if not isinstance(graph, dict):
            raise FormatError(path, f"function {name!r}: graph must be an object")
        try:
            f = PFunc.from_pairs(base, graph)
        except ValueError as e:
            raise FormatError(path, f"function {name!r}: {e}") from None
        if f in named:
            raise FormatError(path, f"functions {named[f]!r} and {name!r} are identical")
        named[f] = name
    if not named:
        raise FormatError(path, "at least one function is required")
    return as_abstract(named.keys(), named)


def load_algebra(path: str | Path) -> FinAlgebra:
    return parse_algebra(load_json(path), path)


# ---------------------------------------------------------------------------
# Categories
# ---------------------------------------------------------------------------


def _basis_to_lists(top: FinTopology, names: tuple[str, ...]) -> list[list[str]]:
    return [[names[i] for i in bits(m)] for m in top.basis]


def category_to_dict(cat: TopCategory) -> dict:
    return {
        "objects": list(cat.obj_names),
        "opens_obj": _basis_to_lists(cat.obj_top, cat.obj_names),
        "arrows": [
            {"name": cat.arr_names[f], "src": cat.obj_names[cat.src[f]], "tgt": cat.obj_names[cat.tgt[f]]}
            for f in range(cat.n_arrows)
        ],
        "opens_arr": _basis_to_lists(cat.arr_top, cat.arr_names),
        "id": {cat.obj_names[x]: cat.arr_names[cat.id_of[x]] for x in range(cat.n_objects)},
        "comp": {
            f"{cat.arr_names[f]},{cat.arr_names[g]}": cat.arr_names[h]
            for f, row in enumerate(cat.comp_t) for g, h in enumerate(row) if h != cat.n_arrows
        },
    }


def write_category(cat: TopCategory) -> str:
    for name in cat.arr_names:
        if "," in name:
            raise ValueError(f"arrow name {name!r} may not contain a comma")
    return _dump(category_to_dict(cat))


def parse_category(data: dict, path: str | Path = "<category>") -> TopCategory:
    obj_names = tuple(_need(data, "objects", path, list))
    _check_size(len(obj_names), "objects", path)
    arrows = _need(data, "arrows", path, list)
    _check_size(len(arrows), "arrows", path)
    for a in arrows:
        if not isinstance(a, dict) or not {"name", "src", "tgt"} <= a.keys():
            raise FormatError(path, f"arrows need a 'name', 'src' and 'tgt': {a!r}")
    arr_names = tuple(a["name"] for a in arrows)
    if not all(isinstance(n, str) for n in obj_names + arr_names):
        raise FormatError(path, "object and arrow names must be strings")
    if len(set(obj_names)) != len(obj_names) or len(set(arr_names)) != len(arr_names):
        raise FormatError(path, "object and arrow names must be distinct")
    oi = {n: i for i, n in enumerate(obj_names)}
    ai = {n: i for i, n in enumerate(arr_names)}

    def obj(n, where):
        if not isinstance(n, str) or n not in oi:
            raise FormatError(path, f"unknown object {n!r} in {where}")
        return oi[n]

    def arr(n, where):
        if not isinstance(n, str) or n not in ai:
            raise FormatError(path, f"unknown arrow {n!r} in {where}")
        return ai[n]

    def topology(key, index, size):
        """The listed sets are read as a subbasis."""
        groups = _need(data, key, path, list)
        if not all(isinstance(group, list) for group in groups):
            raise FormatError(path, f"{key!r} must list sets as lists")
        subbasis = [mask_of(index(n, key) for n in group) for group in groups]
        return generate_topology(size, subbasis)

    triples = []
    for pair, h in _need(data, "comp", path, dict).items():
        parts = pair.split(",")
        if len(parts) != 2:
            raise FormatError(path, f"bad composition key {pair!r}")
        triples.append((arr(parts[0], "comp"), arr(parts[1], "comp"), arr(h, "comp")))
    id_map = _need(data, "id", path, dict)
    for o in obj_names:
        if o not in id_map:
            raise FormatError(path, f"'id' is missing object {o!r}")
    obj_top = topology("opens_obj", obj, len(obj_names))
    arr_top = topology("opens_arr", arr, len(arr_names))
    near = sum(popcount(m) for i, m in enumerate(arr_top.nbhds) if m != 1 << i)
    if len(arrows) * near > MAX_ELEMENTS**2:
        raise FormatError(path, f"{len(arrows)} arrows times {near} near pairs exceed the limit "
                                f"MAX_ELEMENTS**2 = {MAX_ELEMENTS**2}")
    try:
        return TopCategory(
            obj_names=obj_names,
            arr_names=arr_names,
            obj_top=obj_top,
            arr_top=arr_top,
            src=tuple(obj(a["src"], "arrows") for a in arrows),
            tgt=tuple(obj(a["tgt"], "arrows") for a in arrows),
            id_of=tuple(arr(id_map[o], "id") for o in obj_names),
            comp_t=comp_table(len(arr_names), triples),
        )
    except (KeyError, ValueError) as e:
        raise FormatError(path, str(e)) from None


def load_category(path: str | Path) -> TopCategory:
    return parse_category(load_json(path), path)


# ---------------------------------------------------------------------------
# Homomorphisms and functors (sources and targets are file paths)
# ---------------------------------------------------------------------------


def _find(index: dict[str, int], name: Any) -> int | None:
    """index[name], or None when name is not a key; a JSON value may be unhashable."""
    return index.get(name) if isinstance(name, str) else None


def _name_map(data: dict, key: str, path, sources: tuple[str, ...], targets: tuple[str, ...],
              missing: str, unknown: str) -> tuple[int, ...]:
    """The position in targets of data[key][name], for each name in sources.
    missing and unknown are the nouns for a source name data[key] lacks and
    for a value that names no target."""
    m = _need(data, key, path, dict)
    index = {name: i for i, name in enumerate(targets)}
    positions = []
    for name in sources:
        if name not in m:
            raise FormatError(path, f"{key} is missing {missing} {name!r}")
        if (v := _find(index, m[name])) is None:
            raise FormatError(path, f"unknown {unknown} {m[name]!r} in {key}")
        positions.append(v)
    return tuple(positions)


def load_homomorphism(path: str | Path) -> Homomorphism:
    data = load_json(path)
    folder = Path(path).parent
    source = load_algebra(folder / _need(data, "source", path, str))
    target = load_algebra(folder / _need(data, "target", path, str))
    mapping = _name_map(data, "map", path, source.names, target.names, "source element", "element")
    return Homomorphism(source, target, mapping)


def load_functor(path: str | Path) -> MultiFunctor:
    data = load_json(path)
    folder = Path(path).parent
    source_file = folder / _need(data, "source", path, str)
    pairs = _need(data, "arr_rel", path, list)
    _check_size(len(pairs), "related pairs", path)
    source = load_category(source_file)
    target_file = folder / _need(data, "target", path, str)
    target = source if target_file == source_file else load_category(target_file)
    obj_map = _name_map(data, "obj_map", path, source.obj_names, target.obj_names, "object", "object")
    source_arrows = {name: f for f, name in enumerate(source.arr_names)}
    target_arrows = {name: g for g, name in enumerate(target.arr_names)}
    rel = [0] * source.n_arrows
    for pair in pairs:
        if not isinstance(pair, list) or len(pair) != 2:
            raise FormatError(path, f"arr_rel entries must be pairs, got {pair!r}")
        f, g = _find(source_arrows, pair[0]), _find(target_arrows, pair[1])
        if f is None or g is None:
            raise FormatError(path, f"unknown arrow in pair {pair!r}")
        rel[f] |= 1 << g
    return MultiFunctor(source, target, obj_map, tuple(rel))


# ---------------------------------------------------------------------------
# Transducers and acceptors
# ---------------------------------------------------------------------------


def transducer_to_dict(t: Transducer) -> dict:
    return {
        "alphabet": list(t.alphabet),
        "states": list(t.states),
        "initial": t.initial,
        "final": dict(sorted(t.final_out.items())),
        "trans": [
            {"from": q, "in": a, "out": out, "to": q2}
            for (q, a) in sorted(t.trans)
            for out, q2 in sorted(t.trans[(q, a)])
        ],
    }


def write_transducer(t: Transducer) -> str:
    return _dump(transducer_to_dict(t))


def parse_transducer(data: dict, path: str | Path = "<transducer>") -> Transducer:
    def strings(key: str) -> tuple[str, ...]:
        values = _need(data, key, path, list)
        if not all(isinstance(v, str) for v in values):
            raise FormatError(path, f"{key!r} must be a list of strings")
        return tuple(values)

    trans: dict[tuple[str, str], set[tuple[str, str]]] = {}
    for e in _need(data, "trans", path, list):
        for key in ("from", "in", "out", "to"):
            if not isinstance(e, dict) or key not in e:
                raise FormatError(path, f"transition missing key {key!r}: {e!r}")
            if not isinstance(e[key], str):
                raise FormatError(path, f"transition key {key!r} must be a string: {e!r}")
        trans.setdefault((e["from"], e["in"]), set()).add((e["out"], e["to"]))
    final = _need(data, "final", path, dict)
    if not all(isinstance(v, str) for v in final.values()):
        raise FormatError(path, "'final' must map states to output strings")
    states, alphabet, initial = strings("states"), strings("alphabet"), _need(data, "initial", path, str)
    try:
        return Transducer(states, alphabet, initial, {k: frozenset(v) for k, v in trans.items()}, final)
    except ValueError as e:
        raise FormatError(path, str(e)) from None


def load_transducer(path: str | Path) -> Transducer:
    return parse_transducer(load_json(path), path)


def dfa_to_dict(d: Transducer) -> dict:
    """The acceptor file of an identity machine with one move per state and
    letter, such as D and R build: its final states accept."""
    return {
        "alphabet": list(d.alphabet),
        "states": list(d.states),
        "initial": d.initial,
        "accepting": sorted(d.final_out),
        "trans": [
            {"from": q, "in": a, "to": to}
            for q in d.states
            for a in d.alphabet
            for _, to in d.trans[(q, a)]
        ],
    }


def write_dfa(d: Transducer) -> str:
    return _dump(dfa_to_dict(d))


# ---------------------------------------------------------------------------
# DOT rendering
# ---------------------------------------------------------------------------


def _dot_string(name: str) -> str:
    """name as a quoted DOT string, its backslashes and quotes escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def category_to_dot(cat: TopCategory) -> str:
    """Objects as nodes, arrows as labelled edges; identity arrows are drawn
    as doubled loops."""
    lines = ["digraph dual {", "  rankdir=LR;"]
    names = [_dot_string(name) for name in cat.obj_names]
    for name in names:
        lines.append(f"  {name} [shape=circle];")
    identity = set(cat.id_of)
    for f in range(cat.n_arrows):
        style = ' color="black:invis:black"' if f in identity else ""
        lines.append(f"  {names[cat.src[f]]} -> {names[cat.tgt[f]]} "
                     f"[label={_dot_string(cat.arr_names[f])}{style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
