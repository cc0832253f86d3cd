"""JSON file formats for algebras, categories, morphisms and machines.

All formats are JSON objects with a fixed key order.  `write_*` lays each
out with `jsonrows` in the canonical form (two-space indent, documented key
order, trailing newline), so writing a parsed file normalizes it byte-stably.

A table file, of up to MAX_ELEMENTS² names, is written by rows, decoded once
(`_decoded`) and checked once, by `parse_algebra` or `parse_category`, which
word every refusal.  'compose' and 'pref' after 'elements', and 'comp' after
'arrows', are read a block of rows at a time and handed over as `_Mapped`
index tables.  Only a file with a repeated key, bad JSON, or a streamed table
entry that names no element or arrow is read whole by `json.loads`.
"""

from __future__ import annotations

import json
from itertools import chain, compress, repeat
from pathlib import Path
from typing import Any, Iterable, Iterator

from .algebra import MAX_ELEMENTS, FinAlgebra, Homomorphism
from .bitsets import bits, mask_of
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
    limit, naming the files it builds from.  A FormatError names its file
    already and passes through."""
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
    except RecursionError:
        raise FormatError(path, "JSON nested too deeply") from None
    except ValueError as e:  # such as an integer past sys.get_int_max_str_digits()
        raise FormatError(path, str(e)) from None
    if not isinstance(data, dict):
        raise FormatError(path, "expected a JSON object")
    return data


def _need(data: dict, key: str, path, kind: type | None = None) -> Any:
    """data[key], refused when missing or, given a kind, of another JSON type."""
    if key not in data:
        raise FormatError(path, f"missing key {key!r}")
    if kind is not None and not isinstance(data[key], kind):
        name = {dict: "object", list: "list", str: "string"}[kind]
        raise FormatError(path, f"{key!r} must be a JSON {name}")
    return data[key]


def _strings(data: dict, key: str, path) -> list:
    """data[key], refused when missing or not a list of strings."""
    values = _need(data, key, path, list)
    if not all(isinstance(v, str) for v in values):
        raise FormatError(path, f"{key!r} must be a list of strings")
    return values


def _position(index: dict[str, int], name: Any, path, noun: str, key: str) -> int:
    """index[name]; a name that is not a string key of index is an unknown noun in key."""
    if isinstance(name, str) and name in index:
        return index[name]
    raise FormatError(path, f"unknown {noun} {name!r} in {key}")


# ---------------------------------------------------------------------------
# Tables by rows
# ---------------------------------------------------------------------------

BLOCK = 1 << 16  # about this many characters of a table are decoded at a time


class _Mapped(tuple):
    """A table that _decoded mapped to index rows; parse_* trust it as it is."""


def _decoded(path: str | Path, member) -> dict:
    """A table file's JSON object, as json.loads gives it but for the tables
    member maps to _Mapped tables: member(data, key, reader) decodes the
    value of key at the cursor, data holding the members before it.
    json.loads reads a file that the reader cannot decode exactly."""
    text = _read_text(path)
    reader, data = Reader(text), {}
    try:
        for key in reader.members():
            data[key] = member(data, key, reader)
        return data
    except (ValueError, RecursionError):
        data.clear()  # the partial tables go before the text is read whole
    return _json_object(text, path)


def _indices(index: dict[str, int], names: Any) -> tuple[int, ...]:
    """The positions of a list of names, each a key of index."""
    if not isinstance(names, list):
        raise Unread
    try:
        return tuple(map(index.__getitem__, names))
    except (KeyError, TypeError):
        raise Unread from None


def _name_index(names: Any) -> dict[str, int] | None:
    """The position of each name of a list of at most MAX_ELEMENTS distinct
    strings; None for any other value, which the parser refuses."""
    if not isinstance(names, list) or len(names) > MAX_ELEMENTS or not all(isinstance(n, str) for n in names):
        return None
    index = {name: i for i, name in enumerate(names)}
    return index if len(index) == len(names) else None


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
    names = _strings(data, "elements", path)
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
            pass
        return [_position(idx, name, path, "element", key) for name in values]

    def table(key: str) -> Any:
        mapped = data.get(key)
        return mapped if isinstance(mapped, _Mapped) else [vector(row, key) for row in _need(data, key, path, list)]

    compose = table("compose")
    anti = vector(_need(data, "antidomain", path, list), "antidomain")
    rng = vector(_need(data, "range", path, list), "range")
    pref = table("pref")
    return built([path], lambda: FinAlgebra.from_tables(compose, anti, rng, pref, names))


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
    base = built([path], lambda: Base(tuple(points)))
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


def _algebra_member(data: dict, key: str, reader: Reader) -> Any:
    """An algebra file's member: a list 'compose' or 'pref' after valid
    'elements' as a tuple of index rows, mapped a block of rows at a time."""
    listed = key in ("compose", "pref") and reader.text.startswith("[", reader.pos)
    index = _name_index(data.get("elements")) if listed else None
    if index is None:
        return reader.value()
    return _Mapped(_indices(index, row) for block in reader.blocks("[]", BLOCK) for row in block)


def load_algebra(path: str | Path) -> FinAlgebra:
    return parse_algebra(_decoded(path, _algebra_member), path)


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


def parse_category(data: dict, path: str | Path = "<category>") -> TopCategory:
    """The category a file's JSON object describes; a _Mapped 'comp' is
    its composition table, mapped as it was decoded."""
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
        return _position(oi, n, path, "object", where)

    def arr(n, where):
        return _position(ai, n, path, "arrow", where)

    def topology(key, index, size):
        """The listed sets are read as a subbasis."""
        groups = _need(data, key, path, list)
        if not all(isinstance(group, list) for group in groups):
            raise FormatError(path, f"{key!r} must list sets as lists")
        subbasis = [mask_of(index(n, key) for n in group) for group in groups]
        return generate_topology(size, subbasis)

    def composites(comp: dict) -> Iterator[tuple[int, int, int]]:
        for pair, h in comp.items():
            parts = pair.split(",")
            if len(parts) != 2:
                raise FormatError(path, f"bad composition key {pair!r}")
            yield arr(parts[0], "comp"), arr(parts[1], "comp"), arr(h, "comp")

    comp_t = data.get("comp")
    if not isinstance(comp_t, _Mapped):
        comp_t = _comp_table(len(arr_names), composites(_need(data, "comp", path, dict)))
    id_of = _name_map(data, "id", path, obj_names, arr_names, "object", "arrow")
    obj_top = topology("opens_obj", obj, len(obj_names))
    arr_top = topology("opens_arr", arr, len(arr_names))
    near = sum(m.bit_count() for i, m in enumerate(arr_top.nbhds) if m != 1 << i)
    if len(arrows) * near > MAX_ELEMENTS**2:
        raise FormatError(path, f"{len(arrows)} arrows times {near} near pairs exceed the limit "
                                f"MAX_ELEMENTS**2 = {MAX_ELEMENTS**2}")
    return built([path], lambda: TopCategory(
        obj_names=obj_names,
        arr_names=arr_names,
        obj_top=obj_top,
        arr_top=arr_top,
        src=tuple(obj(a["src"], "arrows") for a in arrows),
        tgt=tuple(obj(a["tgt"], "arrows") for a in arrows),
        id_of=id_of,
        comp_t=tuple(comp_t),
    ))


def _comp_table(n: int, composites: Iterable[tuple[int, int, int]]) -> tuple[tuple[int, ...], ...]:
    """The composition table of n arrows with the given composites (f, g,
    f;g), and the zero index n elsewhere."""
    rows: list[Any] = [[n] * n for _ in range(n)]
    for f, g, h in composites:
        rows[f][g] = h
    for f, row in enumerate(rows):  # one row at a time, so no second table is held whole
        rows[f] = tuple(row)
    return tuple(rows)


def _category_member(data: dict, key: str, reader: Reader) -> Any:
    """A category file's member: an object 'comp' after valid 'arrows' as
    its composition table, mapped a block of members at a time."""
    arrows = data.get("arrows") if key == "comp" and reader.text.startswith("{", reader.pos) else None
    valid = isinstance(arrows, list) and all(isinstance(a, dict) for a in arrows)
    index = _name_index([a.get("name") for a in arrows]) if valid else None
    if index is None:
        return reader.value()

    def composites(block: dict) -> Iterator[tuple[int, int, int]]:
        # each key of the block holds one comma, so the joined keys split into f, g, f, g, ...
        if set(map(str.count, block, repeat(","))) - {1}:
            raise Unread
        ends = ",".join(block).split(",") if block else []
        return zip(_indices(index, ends[::2]), _indices(index, ends[1::2]), _indices(index, list(block.values())))

    return _Mapped(_comp_table(len(index), chain.from_iterable(map(composites, reader.blocks("{}", BLOCK)))))


def load_category(path: str | Path) -> TopCategory:
    return parse_category(_decoded(path, _category_member), path)


# ---------------------------------------------------------------------------
# Homomorphisms and functors (sources and targets are file paths)
# ---------------------------------------------------------------------------


def _name_map(data: dict, key: str, path, sources: tuple[str, ...], targets: tuple[str, ...],
              missing: str, unknown: str) -> tuple[int, ...]:
    """The position in targets of data[key][name], for each name in sources.
    missing and unknown are the nouns for a source name data[key] lacks, or
    a key of it that names no source, and for a value that names no target."""
    m = _need(data, key, path, dict)
    index = {name: i for i, name in enumerate(targets)}
    positions = []
    for name in sources:
        if name not in m:
            raise FormatError(path, f"{key} is missing {missing} {name!r}")
        positions.append(_position(index, m[name], path, unknown, key))
    known = dict.fromkeys(sources)
    for name in m:
        _position(known, name, path, missing, key)
    return tuple(positions)


def parse_homomorphism(data: dict, path: str | Path) -> Homomorphism:
    folder = Path(path).parent
    source_file = folder / _need(data, "source", path, str)
    source = built([source_file], lambda: load_algebra(source_file))
    target_file = folder / _need(data, "target", path, str)
    target = source if target_file == source_file else built([target_file], lambda: load_algebra(target_file))
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
        f = _position(source_arrows, pair[0], path, "arrow", "arr_rel")
        rel[f] |= 1 << _position(target_arrows, pair[1], path, "arrow", "arr_rel")
    return MultiFunctor(source, target, obj_map, tuple(rel))


def load_functor(path: str | Path) -> MultiFunctor:
    return parse_functor(load_json(path), path)


# ---------------------------------------------------------------------------
# Transducers and acceptors
# ---------------------------------------------------------------------------


def write_transducer(t: Transducer) -> str:
    """The machine file: transitions by source name, letter, output and
    target name, final outputs by state name, each sorted as strings."""
    names, letters = list(map(encode, t.names)), list(map(encode, t.alphabet))
    states = sorted(range(len(names)), key=t.names.__getitem__)
    order = sorted(range(len(letters)), key=t.alphabet.__getitem__)
    trans = (joined("{}", (f'"from": {names[q]}', f'"in": {letters[j]}', f'"out": {encode(out)}',
                           f'"to": {names[to]}'), 2)
             for q in states for j in order
             for out, to in sorted(t.delta[q][j], key=lambda move: (move[0], t.names[move[1]])))
    final = (f"{names[q]}: {encode(t.final[q])}" for q in states if t.final[q] is not None)
    return document((
        ("alphabet", (joined("[]", letters, 1),)),
        ("states", (joined("[]", names, 1),)),
        ("initial", (names[t.initial],)),
        ("final", (joined("{}", final, 1),)),
        ("trans", pieces("[]", trans, 1)),
    ))


def parse_transducer(data: dict, path: str | Path = "<transducer>") -> Transducer:
    """A transducer file, or an acceptor file read as the identity machine
    on its language: each move writes its letter, each accepting state ''.
    More than MAX_ELEMENTS states are refused."""
    acceptor = "accepting" in data
    trans: dict[tuple[str, str], set[tuple[str, str]]] = {}
    for e in _need(data, "trans", path, list):
        for key in ("from", "in", "to") if acceptor else ("from", "in", "out", "to"):
            if not isinstance(e, dict) or key not in e:
                raise FormatError(path, f"transition missing key {key!r}: {e!r}")
            if not isinstance(e[key], str):
                raise FormatError(path, f"transition key {key!r} must be a string: {e!r}")
        trans.setdefault((e["from"], e["in"]), set()).add((e["in" if acceptor else "out"], e["to"]))
    final = dict.fromkeys(_strings(data, "accepting", path), "") if acceptor else _need(data, "final", path, dict)
    if not all(isinstance(v, str) for v in final.values()):
        raise FormatError(path, "'final' must map states to output strings")
    states, alphabet = _strings(data, "states", path), _strings(data, "alphabet", path)
    initial = _need(data, "initial", path, str)
    _check_size(len(states), "states", path)
    return built([path], lambda: from_names(states, alphabet, initial, trans, final))


def load_transducer(path: str | Path) -> Transducer:
    return parse_transducer(load_json(path), path)


def write_dfa(d: Transducer) -> str:
    """The acceptor file of an identity machine with one move per state and
    letter, such as D and R build: its final states accept."""
    names, letters = list(map(encode, d.names)), list(map(encode, d.alphabet))
    accepting = sorted(name for name, out in zip(d.names, d.final) if out is not None)
    trans = (joined("{}", (f'"from": {names[q]}', f'"in": {a}', f'"to": {names[to]}'), 2)
             for q, row in enumerate(d.delta) for a, step in zip(letters, row) for _, to in step)
    return document((
        ("alphabet", (joined("[]", letters, 1),)),
        ("states", (joined("[]", names, 1),)),
        ("initial", (names[d.initial],)),
        ("accepting", (joined("[]", map(encode, accepting), 1),)),
        ("trans", pieces("[]", trans, 1)),
    ))


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
