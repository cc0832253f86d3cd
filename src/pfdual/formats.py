"""JSON file formats for algebras, categories, morphisms and machines.

All formats are JSON objects with a fixed key order; `write_*` functions
emit the canonical form (two-space indent, documented key order, trailing
newline), so writing a parsed file normalizes it byte-stably.

Algebra and category tables, which hold up to MAX_ELEMENTS² names, are
written by rows and read a block of rows at a time (`jsonrows`), never as
one JSON document of one string per entry.  The row readers accept only
files they read exactly as `json.loads` and `parse_*` do; any other file,
every faulty one included, is read that plain way, so each refusal keeps
its text.
"""

from __future__ import annotations

import json
from itertools import compress, repeat
from pathlib import Path
from typing import Any, Iterable, Iterator

from .algebra import MAX_ELEMENTS, FinAlgebra, Homomorphism
from .bitsets import bits, mask_of, popcount
from .jsonrows import Reader, Unread, document, encode, joined, pieces
from .pfun import Base, PFunc, as_abstract
from .topcat import FinTopology, MultiFunctor, TopCategory, generate_topology
from .transducer import Transducer, from_names


class FormatError(ValueError):
    """A structural problem in an input file."""

    def __init__(self, path: str | Path, message: str, line: int | None = None, column: int | None = None) -> None:
        self.path = str(path)
        self.line = line
        self.column = column
        where = f"{path}" if line is None else f"{path}:{line}:{column}"
        super().__init__(f"{where}: {message}")


def built(files: Iterable[str | Path], build):
    """build(), with a refusal that names no file, such as an algebra that
    is not closed, a machine that is not functional or one past the state
    limit, naming the files it builds from."""
    try:
        return build()
    except FormatError:
        raise
    except ValueError as e:
        raise FormatError(", ".join(map(str, files)), str(e)) from None


def _read_text(path: str | Path) -> str:
    """A UTF-8 file's text; undecodable bytes are a FormatError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(path, f"not UTF-8: byte 0x{e.object[e.start]:02x} at offset {e.start}") from None


def load_json(path: str | Path) -> Any:
    """The JSON object a UTF-8 file holds; undecodable bytes, bad JSON or
    another top-level type is a FormatError."""
    return _json_object(_read_text(path), path)


def _json_object(text: str, path: str | Path) -> Any:
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
# Tables by rows
# ---------------------------------------------------------------------------

# About this many characters of a table are decoded at a time.
BLOCK = 1 << 16


def _indices(index: dict[str, int], names: Any) -> tuple[int, ...]:
    """The positions of a list of names, each a key of index."""
    if not isinstance(names, list):
        raise Unread
    try:
        return tuple(map(index.__getitem__, names))
    except (KeyError, TypeError):
        raise Unread from None


def _name_index(names: Any) -> dict[str, int]:
    """The position of each name of a list of at most MAX_ELEMENTS distinct
    strings."""
    if not isinstance(names, list) or len(names) > MAX_ELEMENTS or not all(isinstance(n, str) for n in names):
        raise Unread
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise Unread
    return index


# ---------------------------------------------------------------------------
# Algebras: abstract tables, or concrete partial functions
# ---------------------------------------------------------------------------

# The most points a concrete algebra file may list; MAX_ELEMENTS bounds its functions.
MAX_BASE = 6


def _check_size(count: int, key: str, path) -> None:
    if count > MAX_ELEMENTS:
        raise FormatError(path, f"{count} {key} exceed the limit MAX_ELEMENTS = {MAX_ELEMENTS}")


def write_algebra(alg: FinAlgebra) -> str:
    """The abstract algebra file: elements, then the tables by name."""
    names = list(map(encode, alg.names))

    def vector(values: Iterable[int], depth: int) -> str:
        return joined("[]", map(names.__getitem__, values), depth)

    def table(rows: Iterable[Iterable[int]]) -> Iterator[str]:
        return pieces("[]", (vector(row, 2) for row in rows), 1)

    return document((
        ("elements", (joined("[]", names, 1),)),
        ("compose", table(alg.compose_t)),
        ("antidomain", (vector(alg.anti_t, 1),)),
        ("range", (vector(alg.range_t, 1),)),
        ("pref", table(alg.pref_t)),
    ))


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


def _read_algebra(reader: Reader) -> FinAlgebra:
    """An abstract algebra file with 'elements' first and the four tables
    after it, each block of rows mapped to indices as soon as it is
    decoded."""
    index: dict[str, int] | None = None
    tables: dict[str, Any] = {}
    for key in reader.members():
        if key == "elements":
            index = _name_index(reader.value())
        elif index is None:
            raise Unread
        elif key in ("compose", "pref"):
            tables[key] = [_indices(index, row) for block in reader.blocks("[]", BLOCK) for row in block]
        elif key in ("antidomain", "range"):
            tables[key] = _indices(index, reader.value())
        else:
            raise Unread
    if index is None or len(tables) != 4:
        raise Unread
    return FinAlgebra.from_tables(tables["compose"], tables["antidomain"], tables["range"], tables["pref"],
                                  tuple(index))


def load_algebra(path: str | Path) -> FinAlgebra:
    text = _read_text(path)
    try:
        return _read_algebra(Reader(text))
    except ValueError:
        pass
    return parse_algebra(_json_object(text, path), path)


# ---------------------------------------------------------------------------
# Categories
# ---------------------------------------------------------------------------


def write_category(cat: TopCategory) -> str:
    """The category file: objects, arrows and the bases of their
    topologies, identities, and each composite by its "f,g" pair, a row of
    the table at a time."""
    for name in cat.arr_names:
        if "," in name:
            raise ValueError(f"arrow name {name!r} may not contain a comma")
    objs, arrs = list(map(encode, cat.obj_names)), list(map(encode, cat.arr_names))

    def basis(top: FinTopology, names: list[str]) -> str:
        return joined("[]", (joined("[]", map(names.__getitem__, bits(m)), 2) for m in top.basis), 1)

    arrows = (joined("{}", (f'"name": {arrs[f]}', f'"src": {objs[cat.src[f]]}', f'"tgt": {objs[cat.tgt[f]]}'), 2)
              for f in range(cat.n_arrows))
    # A member is '"f,g": "h"', the key cut in two after its comma.
    lefts, rights = [a[:-1] + "," for a in arrs], [a[1:] + ": " for a in arrs]
    n, every = cat.n_arrows, range(cat.n_arrows)

    def comp_row(f: int, row: tuple[int, ...]) -> str:
        defined = list(map(n.__ne__, row))
        members = map(str.__add__, map(rights.__getitem__, compress(every, defined)),
                      map(arrs.__getitem__, compress(row, defined)))
        return lefts[f] + (",\n    " + lefts[f]).join(members) if any(defined) else ""

    comp = filter(None, map(comp_row, every, cat.comp_t))
    return document((
        ("objects", (joined("[]", objs, 1),)),
        ("opens_obj", (basis(cat.obj_top, objs),)),
        ("arrows", (joined("[]", arrows, 1),)),
        ("opens_arr", (basis(cat.arr_top, arrs),)),
        ("id", (joined("{}", (f"{objs[x]}: {arrs[f]}" for x, f in enumerate(cat.id_of)), 1),)),
        ("comp", pieces("{}", comp, 1)),
    ))


def parse_category(data: dict, path: str | Path = "<category>",
                   comp_t: list[list[int]] | None = None) -> TopCategory:
    """The category a file's JSON object describes.  comp_t, when given,
    is its composition table, read from the file by rows, and data need
    not hold 'comp'; its rows are made tuples in place."""
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

    if comp_t is None:
        comp_t = _empty_comp(len(arr_names))
        for pair, h in _need(data, "comp", path, dict).items():
            parts = pair.split(",")
            if len(parts) != 2:
                raise FormatError(path, f"bad composition key {pair!r}")
            f, g = arr(parts[0], "comp"), arr(parts[1], "comp")
            comp_t[f][g] = arr(h, "comp")
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
    for f, row in enumerate(comp_t):  # one row at a time, so no second table is held whole
        comp_t[f] = tuple(row)
    try:
        return TopCategory(
            obj_names=obj_names,
            arr_names=arr_names,
            obj_top=obj_top,
            arr_top=arr_top,
            src=tuple(obj(a["src"], "arrows") for a in arrows),
            tgt=tuple(obj(a["tgt"], "arrows") for a in arrows),
            id_of=tuple(arr(id_map[o], "id") for o in obj_names),
            comp_t=tuple(comp_t),
        )
    except (KeyError, ValueError) as e:
        raise FormatError(path, str(e)) from None


def _empty_comp(n: int) -> list[list[int]]:
    """The composition table of n arrows with no composite: the zero index n throughout."""
    return [[n] * n for _ in range(n)]


def _read_category(reader: Reader, path: str | Path) -> TopCategory:
    """A category file with 'arrows' before 'comp'; the composites go
    straight into the table, a block of members at a time."""
    data: dict[str, Any] = {}
    comp_t = None
    for key in reader.members():
        if key != "comp":
            data[key] = reader.value()
            continue
        arrows = data.get("arrows")
        if not isinstance(arrows, list) or not all(isinstance(a, dict) for a in arrows):
            raise Unread
        index = _name_index([a.get("name") for a in arrows])
        comp_t = _empty_comp(len(index))
        for block in reader.blocks("{}", BLOCK):
            # each key of the block holds one comma, so the joined keys split into f, g, f, g, ...
            if set(map(str.count, block, repeat(","))) - {1}:
                raise Unread
            ends = ",".join(block).split(",") if block else []
            for f, g, h in zip(_indices(index, ends[::2]), _indices(index, ends[1::2]),
                               _indices(index, list(block.values()))):
                comp_t[f][g] = h
    if comp_t is None:
        raise Unread
    return parse_category(data, path, comp_t)


def load_category(path: str | Path) -> TopCategory:
    text = _read_text(path)
    try:
        return _read_category(Reader(text), path)
    except ValueError:
        pass
    return parse_category(_json_object(text, path), path)


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


def parse_homomorphism(data: dict, path: str | Path) -> Homomorphism:
    folder = Path(path).parent
    source_file = folder / _need(data, "source", path, str)
    source = built([source_file], lambda: load_algebra(source_file))
    target_file = folder / _need(data, "target", path, str)
    target = built([target_file], lambda: load_algebra(target_file))
    mapping = _name_map(data, "map", path, source.names, target.names, "source element", "element")
    return Homomorphism(source, target, mapping)


def load_homomorphism(path: str | Path) -> Homomorphism:
    return parse_homomorphism(load_json(path), path)


def parse_functor(data: dict, path: str | Path) -> MultiFunctor:
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


def load_functor(path: str | Path) -> MultiFunctor:
    return parse_functor(load_json(path), path)


# ---------------------------------------------------------------------------
# Transducers and acceptors
# ---------------------------------------------------------------------------


def transducer_to_dict(t: Transducer) -> dict:
    """The machine file: transitions by source name, letter, output and
    target name, final outputs by state name, each sorted as strings."""
    names, al = t.names, t.alphabet
    return {
        "alphabet": list(al),
        "states": list(names),
        "initial": names[t.initial],
        "final": dict(sorted((names[q], v) for q, v in enumerate(t.final) if v is not None)),
        "trans": [
            {"from": names[q], "in": al[j], "out": out, "to": to}
            for q in sorted(range(len(names)), key=names.__getitem__)
            for j in sorted(range(len(al)), key=al.__getitem__)
            for out, to in sorted((out, names[q2]) for out, q2 in t.delta[q][j])
        ],
    }


def write_transducer(t: Transducer) -> str:
    return _dump(transducer_to_dict(t))


def parse_transducer(data: dict, path: str | Path = "<transducer>") -> Transducer:
    """A transducer file, or an acceptor file read as the identity machine
    on its language: each move writes its letter, each accepting state ''.
    More than MAX_ELEMENTS states are refused."""
    def strings(key: str) -> tuple[str, ...]:
        values = _need(data, key, path, list)
        if not all(isinstance(v, str) for v in values):
            raise FormatError(path, f"{key!r} must be a list of strings")
        return tuple(values)

    acceptor = "accepting" in data
    trans: dict[tuple[str, str], set[tuple[str, str]]] = {}
    for e in _need(data, "trans", path, list):
        for key in ("from", "in", "to") if acceptor else ("from", "in", "out", "to"):
            if not isinstance(e, dict) or key not in e:
                raise FormatError(path, f"transition missing key {key!r}: {e!r}")
            if not isinstance(e[key], str):
                raise FormatError(path, f"transition key {key!r} must be a string: {e!r}")
        trans.setdefault((e["from"], e["in"]), set()).add((e["in" if acceptor else "out"], e["to"]))
    final = dict.fromkeys(strings("accepting"), "") if acceptor else _need(data, "final", path, dict)
    if not all(isinstance(v, str) for v in final.values()):
        raise FormatError(path, "'final' must map states to output strings")
    states, alphabet, initial = strings("states"), strings("alphabet"), _need(data, "initial", path, str)
    _check_size(len(states), "states", path)
    try:
        return from_names(states, alphabet, initial, trans, final)
    except ValueError as e:
        raise FormatError(path, str(e)) from None


def load_transducer(path: str | Path) -> Transducer:
    return parse_transducer(load_json(path), path)


def dfa_to_dict(d: Transducer) -> dict:
    """The acceptor file of an identity machine with one move per state and
    letter, such as D and R build: its final states accept."""
    names = d.names
    return {
        "alphabet": list(d.alphabet),
        "states": list(names),
        "initial": names[d.initial],
        "accepting": sorted(names[q] for q, v in enumerate(d.final) if v is not None),
        "trans": [
            {"from": names[q], "in": a, "to": names[to]}
            for q, row in enumerate(d.delta)
            for a, step in zip(d.alphabet, row)
            for _, to in step
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
