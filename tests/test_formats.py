"""File format round trips and canonicalization."""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pfdual import formats as fmt
from pfdual import transducer as td
from pfdual.algebra import FinAlgebra
from pfdual.cli import main
from pfdual.dualize import pf_object
from pfdual.errors import NotClosedError
from pfdual.sections import seccl_object
from pfdual.topcat import TopCategory, generate_topology

from conftest import (algebra_to_dict, build_swap_const, category_to_dict, dfa_to_dict, dump_oracle, functor_to_dict,
                      hom_to_dict, identity_multifunctor, make_category, transducer_to_dict, zero_extended_cyclic)

ROOT = Path(__file__).resolve().parent.parent


class TestAlgebraFiles:
    def test_abstract_round_trip(self, swap_const):
        text = fmt.write_algebra(swap_const)
        parsed = fmt.parse_algebra(json.loads(text))
        assert parsed == swap_const
        assert fmt.write_algebra(parsed) == text

    def test_concrete_file(self, tmp_path, swap_const):
        data = {
            "base": ["1", "2", "3"],
            "functions": {
                "0": {}, "e12": {"1": "1", "2": "2"}, "e3": {"3": "3"},
                "1": {"1": "1", "2": "2", "3": "3"},
                "s": {"1": "2", "2": "1"}, "s3": {"1": "2", "2": "1", "3": "3"},
                "c": {"1": "3", "2": "3"}, "c3": {"1": "3", "2": "3", "3": "3"},
            },
        }
        path = tmp_path / "a.json"
        path.write_text(json.dumps(data))
        loaded = fmt.load_algebra(path)
        assert loaded.size == 8
        assert set(loaded.names) == set(swap_const.names)
        # same algebra up to the (deterministic) canonical element order
        assert loaded == swap_const

    def test_concrete_not_closed(self, tmp_path):
        data = {"base": ["1", "2"], "functions": {"s": {"1": "2", "2": "1"}}}
        path = tmp_path / "open.json"
        path.write_text(json.dumps(data))
        with pytest.raises(NotClosedError):
            fmt.load_algebra(path)

    def test_parse_errors_carry_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"elements": [,]}')
        with pytest.raises(fmt.FormatError) as err:
            fmt.load_algebra(path)
        assert err.value.line == 1 and err.value.column is not None

    def test_unknown_element_rejected(self):
        """Each entry of a table names an element; a row is a list."""
        good = {"elements": ["0"], "compose": [["0"]], "antidomain": ["0"], "range": ["0"], "pref": [["0"]]}
        for key, value, message in (
            ("compose", [["nope"]], "unknown element 'nope' in compose"),
            ("antidomain", [3], "unknown element 3 in antidomain"),
            ("pref", [[["0"]]], "unknown element ['0'] in pref"),
            ("compose", ["0"], "rows of 'compose' must be lists of element names"),
        ):
            with pytest.raises(fmt.FormatError) as err:
                fmt.parse_algebra({**good, key: value})
            assert str(err.value) == f"<algebra>: {message}"


class TestCategoryFiles:
    def test_round_trip(self, swap_const):
        cat = pf_object(swap_const).category
        text = fmt.write_category(cat)
        parsed = fmt.parse_category(json.loads(text))
        assert parsed == cat
        assert fmt.write_category(parsed) == text

    def test_empty_category_round_trip(self, one_elem):
        cat = pf_object(one_elem).category
        parsed = fmt.parse_category(json.loads(fmt.write_category(cat)))
        assert parsed == cat


class TestMorphismFiles:
    def test_hom_file(self, tmp_path, swap_only, swap_const, incl_hom):
        (tmp_path / "small.json").write_text(fmt.write_algebra(swap_only))
        (tmp_path / "big.json").write_text(fmt.write_algebra(swap_const))
        hom_data = hom_to_dict(incl_hom, "small.json", "big.json")
        path = tmp_path / "incl.json"
        path.write_text(json.dumps(hom_data))
        loaded = fmt.load_homomorphism(path)
        assert loaded.mapping == incl_hom.mapping

    def test_hom_file_from_a_file_to_itself_reads_it_once(self, tmp_path, monkeypatch):
        algebra = ROOT / "data" / "swap_const.alg.json"
        names = fmt.load_algebra(algebra).names
        path = tmp_path / "endo.json"
        path.write_text(json.dumps({"source": str(algebra), "target": str(algebra), "map": {x: x for x in names}}))
        loads = []
        load = fmt.load_algebra
        monkeypatch.setattr(fmt, "load_algebra", lambda file: loads.append(file) or load(file))
        h = fmt.load_homomorphism(path)
        assert h.source is h.target and h.mapping == tuple(range(len(names)))
        assert loads == [algebra]

    def test_functor_file(self, tmp_path, incl_hom):
        from pfdual.dualize import pf_morphism

        fun = pf_morphism(incl_hom)
        (tmp_path / "src.json").write_text(fmt.write_category(fun.source))
        (tmp_path / "tgt.json").write_text(fmt.write_category(fun.target))
        data = functor_to_dict(fun, "src.json", "tgt.json")
        path = tmp_path / "fun.json"
        path.write_text(json.dumps(data))
        loaded = fmt.load_functor(path)
        assert loaded.obj_map == fun.obj_map and loaded.arr_rel == fun.arr_rel
        # a functor from a file to itself reads that file once
        path.write_text(json.dumps(functor_to_dict(identity_multifunctor(fun.source), "src.json", "src.json")))
        loaded = fmt.load_functor(path)
        assert loaded.source is loaded.target and loaded.arr_rel == tuple(1 << f for f in range(fun.source.n_arrows))

    def test_functor_file_unknown_object(self, tmp_path, incl_hom):
        from pfdual.dualize import pf_morphism

        fun = pf_morphism(incl_hom)
        (tmp_path / "src.json").write_text(fmt.write_category(fun.source))
        (tmp_path / "tgt.json").write_text(fmt.write_category(fun.target))
        data = functor_to_dict(fun, "src.json", "tgt.json")
        first = fun.source.obj_names[0]
        data["obj_map"][first] = "nowhere"
        path = tmp_path / "fun.json"
        path.write_text(json.dumps(data))
        with pytest.raises(fmt.FormatError, match="unknown object 'nowhere' in obj_map"):
            fmt.load_functor(path)


class TestTransducerFiles:
    def test_round_trip(self):
        t = td.from_names(
            states=("q0", "q1"), alphabet=("a", "b"), initial="q0",
            trans={("q0", "a"): frozenset({("b", "q0")}), ("q0", "b"): frozenset({("", "q1")})},
            final_out={"q1": ""},
        )
        text = fmt.write_transducer(t)
        parsed = fmt.parse_transducer(json.loads(text))
        assert fmt.write_transducer(parsed) == text
        for w in td.words_upto(("a", "b"), 5):
            assert td.eval(parsed, w) == td.eval(t, w)

    def test_dfa_file(self):
        t = td.identity_transducer(("a", "b"))
        d = td.domain_transducer(t)
        data = json.loads(fmt.write_dfa(d))
        assert set(data) == {"alphabet", "states", "initial", "accepting", "trans"}


class TestDot:
    def test_identity_loops_doubled(self, swap_const):
        cat = pf_object(swap_const).category
        dot = fmt.category_to_dot(cat)
        assert dot.startswith("digraph")
        doubled = [line for line in dot.splitlines() if "black:invis:black" in line]
        assert len(doubled) == 2
        assert 'label="p_c"' in dot

    def test_quotes_and_backslashes_escaped(self):
        """Every line is a node or an edge of quoted DOT strings, which read
        back as the names, whatever quotes and backslashes they hold."""
        objs, arrs = ('x"y', "z\\"), ('i"x', "i\\z", 'f\\"')
        cat = make_category(objs, [(arrs[0], objs[0], objs[0]), (arrs[1], objs[1], objs[1]),
                                   (arrs[2], objs[0], objs[1])],
                            dict(zip(objs, arrs)),
                            {(arrs[0], arrs[0]): arrs[0], (arrs[1], arrs[1]): arrs[1],
                             (arrs[0], arrs[2]): arrs[2], (arrs[2], arrs[1]): arrs[2]})
        quoted = r'"((?:[^"\\]|\\.)*)"'
        node = re.compile(rf"  {quoted} \[shape=circle\];")
        edge = re.compile(rf'  {quoted} -> {quoted} \[label={quoted}( color="black:invis:black")?\];')
        lines = fmt.category_to_dot(cat).splitlines()
        assert lines[:2] == ["digraph dual {", "  rankdir=LR;"] and lines[-1] == "}"
        read = []
        for line in lines[2:-1]:
            m = node.fullmatch(line) or edge.fullmatch(line)
            assert m, line
            read.append(tuple(re.sub(r"\\(.)", r"\1", g) for g in m.groups()[:3] if g is not None))
        assert read == [(objs[0],), (objs[1],), (objs[0], objs[0], arrs[0]),
                        (objs[1], objs[1], arrs[1]), (objs[0], objs[1], arrs[2])]


# ---------------------------------------------------------------------------
# Tables by rows: the same bytes, results and refusals as the plain path
# ---------------------------------------------------------------------------

# Names with quotes, backslashes, commas, non-ASCII and control characters.
NAMES = st.text(st.sampled_from('a"\\,é€\x00\n\t\U0001d11e ') | st.characters(), max_size=4)


@st.composite
def algebras(draw) -> FinAlgebra:
    """Any tables of the right shape: the files do not ask for the axioms."""
    n = draw(st.integers(1, 5))
    names = draw(st.lists(NAMES, min_size=n, max_size=n, unique=True))
    vector = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    table = st.lists(vector, min_size=n, max_size=n)
    return FinAlgebra.from_tables(draw(table), draw(vector), draw(vector), draw(table), names)


@st.composite
def categories(draw) -> TopCategory:
    """Any tables and topologies of the right shape, often with no composite
    at all; arrow names hold no comma."""
    n_obj = draw(st.integers(0, 3))
    n_arr = draw(st.integers(1, 5)) if n_obj else 0
    objs = draw(st.lists(NAMES, min_size=n_obj, max_size=n_obj, unique=True))
    arrs = draw(st.lists(NAMES.filter(lambda name: "," not in name), min_size=n_arr, max_size=n_arr, unique=True))
    entry = st.integers(0, n_arr) if draw(st.booleans()) else st.just(n_arr)

    def points(size: int, count: int) -> tuple[int, ...]:
        return tuple(draw(st.lists(st.integers(0, max(size - 1, 0)), min_size=count, max_size=count)))

    def topology(size: int):
        return generate_topology(size, draw(st.lists(st.integers(0, (1 << size) - 1), max_size=4)))

    return TopCategory(
        obj_names=tuple(objs), arr_names=tuple(arrs), obj_top=topology(n_obj), arr_top=topology(n_arr),
        src=points(n_obj, n_arr), tgt=points(n_obj, n_arr), id_of=points(n_arr, n_obj),
        comp_t=tuple(tuple(draw(st.lists(entry, min_size=n_arr, max_size=n_arr))) for _ in range(n_arr)),
    )


@st.composite
def machines(draw, acceptor: bool = False) -> td.Transducer:
    """Any move tables of the right shape, often with a state of no moves
    or no final state: the writers do not ask for a function.  An
    acceptor's moves write their letter, at most one a state and letter."""
    alphabet = tuple(draw(st.lists(st.sampled_from('ab"\\é€\U0001d11e'), min_size=1, max_size=3, unique=True)))
    n = draw(st.integers(1, 4))
    names = tuple(draw(st.lists(NAMES, min_size=n, max_size=n, unique=True)))
    target = st.integers(0, n - 1)
    word = st.just("") if acceptor else st.text(st.sampled_from(alphabet), max_size=3)

    def step(a: str) -> tuple:
        if acceptor:
            return tuple(draw(st.lists(target.map(lambda q: (a, q)), max_size=1)))
        return tuple(sorted(draw(st.sets(st.tuples(word, target), max_size=2))))

    delta = tuple(tuple(map(step, alphabet)) for _ in range(n))
    final = tuple(draw(st.lists(st.none() | word, min_size=n, max_size=n)))
    return td.Transducer(alphabet, draw(target), delta, final, names)


# Names and letters that JSON escapes; the state named "é€" has no moves.
AWKWARD = td.from_names(('q"0', "q\\1", "é€"), ('"', "\\", "é"), 'q"0',
                        {('q"0', '"'): {("\\é", "q\\1")}, ("q\\1", "é"): {('"', "é€"), ("", 'q"0')}},
                        {"é€": '\\"'})


def read_by_rows(load, text: str, block: int = 1):
    """load of a file holding text, read in blocks of block characters,
    and refused if it falls back to json.loads."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "file.json"
        path.write_text(text, encoding="utf-8")
        saved = fmt._json_object, fmt.BLOCK
        fmt._json_object, fmt.BLOCK = None, block
        try:
            return load(path)
        finally:
            fmt._json_object, fmt.BLOCK = saved


class TestBytesByRows:
    @given(algebras())
    def test_algebra_bytes_and_round_trip(self, alg):
        text = fmt.write_algebra(alg)
        assert text == dump_oracle(algebra_to_dict(alg))
        for block in (1, 2, 10, 40, len(text)):
            assert read_by_rows(fmt.load_algebra, text, block) == alg
        assert fmt.parse_algebra(json.loads(text)) == alg

    @given(categories())
    def test_category_bytes_and_round_trip(self, cat):
        text = fmt.write_category(cat)
        assert text == dump_oracle(category_to_dict(cat))
        for block in (1, 2, 10, 40, len(text)):
            assert read_by_rows(fmt.load_category, text, block) == cat
        assert fmt.parse_category(json.loads(text)) == cat

    @given(machines())
    def test_machine_bytes_and_round_trip(self, t):
        text = fmt.write_transducer(t)
        assert text == dump_oracle(transducer_to_dict(t))
        assert fmt.write_transducer(fmt.parse_transducer(json.loads(text))) == text

    @given(machines(acceptor=True))
    def test_acceptor_bytes_and_round_trip(self, d):
        text = fmt.write_dfa(d)
        assert text == dump_oracle(dfa_to_dict(d))
        assert fmt.write_dfa(fmt.parse_transducer(json.loads(text))) == text

    def test_machine_edge_cases(self):
        """Escaped names and letters, no final state, no moves at all, and
        a state with no moves."""
        no_final = td.from_names(("s",), ("a",), "s", {("s", "a"): {("a", "s")}}, {})
        no_moves = td.from_names(("s", "t"), ("a", "b"), "t", {}, {"s": ""})
        for t in (AWKWARD, no_final, no_moves):
            assert fmt.write_transducer(t) == dump_oracle(transducer_to_dict(t))
            assert fmt.write_dfa(t) == dump_oracle(dfa_to_dict(t))
        assert '"final": {}' in fmt.write_transducer(no_final)
        assert '"accepting": [],' in fmt.write_dfa(no_final)
        assert fmt.write_dfa(no_moves).endswith('"trans": []\n}\n')

    def test_derived_machines(self):
        """compose and pref_union of each pair of machines on one alphabet,
        and D, A and R of each machine."""
        files = sorted((ROOT / "data").glob("*.td.json")) + sorted((ROOT / "tests" / "golden").glob("*.td.json"))
        sources = [*map(fmt.load_transducer, files), AWKWARD]
        for t in sources:
            for d in (td.domain_transducer(t), td.antidomain(t), td.range_transducer(t)):
                assert fmt.write_dfa(d) == dump_oracle(dfa_to_dict(d))
        pairs = [(x, y) for x in sources for y in sources if x.alphabet == y.alphabet]
        assert len(pairs) > 20
        for x, y in pairs:
            for m in (td.compose(x, y), td.pref_union(x, y)):
                assert fmt.write_transducer(m) == dump_oracle(transducer_to_dict(m))

    def test_smallest_files(self, one_elem):
        """A one-element algebra, and a category with no composable pair."""
        cat = pf_object(one_elem).category
        assert cat.n_arrows == 0
        for x, write, load, oracle in ((one_elem, fmt.write_algebra, fmt.load_algebra, algebra_to_dict),
                                       (cat, fmt.write_category, fmt.load_category, category_to_dict)):
            assert write(x) == dump_oracle(oracle(x))
            assert read_by_rows(load, write(x)) == x
        lone = make_category(["x", "y"], [("f", "x", "y")], {"x": "f", "y": "f"}, {})
        assert '"comp": {}' in fmt.write_category(lone)
        assert read_by_rows(fmt.load_category, fmt.write_category(lone)) == lone

    def test_golden_categories(self):
        """Each golden category file, written or laid out by hand, reads by
        rows as json.loads reads it, at one character a block and at the
        default block size, and the written one back to its bytes."""
        for path in sorted((ROOT / "tests" / "golden").glob("*.cat.json")):
            text = path.read_text(encoding="utf-8")
            cat = read_by_rows(fmt.load_category, text)
            assert cat == fmt.parse_category(json.loads(text))
            assert read_by_rows(fmt.load_category, text, fmt.BLOCK) == cat
            if path.name == "swap_const.cat.json":
                assert fmt.write_category(cat) == text

    def test_files_of_several_default_blocks(self):
        """The cyclic group on 90 arrows writes 8,100 composites, and its
        section algebra 2 * 91² table entries, in a few blocks each."""
        cat = zero_extended_cyclic(90)
        sections = seccl_object(cat)[0]
        for x, write, load in ((cat, fmt.write_category, fmt.load_category),
                               (sections, fmt.write_algebra, fmt.load_algebra)):
            text = write(x)
            assert 2 * fmt.BLOCK < len(text) < 10 * fmt.BLOCK
            assert read_by_rows(load, text, fmt.BLOCK) == x


def reordered(text: str, first: str) -> str:
    data = json.loads(text)
    return json.dumps({first: data.pop(first), **data}, indent=2)


def edited(text: str, edit) -> str:
    data = json.loads(text)
    edit(data)
    return json.dumps(data, indent=2)


ALG = fmt.write_algebra(build_swap_const()[0])
CAT = fmt.write_category(pf_object(build_swap_const()[0]).category)
ARROW = json.loads(CAT)["arrows"][1]["name"]
PAIR = next(iter(json.loads(CAT)["comp"]))

# (name, verb, file bytes): malformed files of each kind, which the row
# readers leave to json.loads and parse_*, and well-formed ones that they
# also leave to it (keys out of order, duplicated or unknown, one line).
FILES = [
    ("algebra truncated", "check-axioms", ALG[:len(ALG) // 2].encode()),
    ("algebra not UTF-8", "check-axioms", ALG.encode().replace(b'"s3"', b'"s\xe93"', 1)),
    ("algebra top level a list", "check-axioms", json.dumps(list(json.loads(ALG).values())).encode()),
    ("algebra extra data", "check-axioms", (ALG + "[]").encode()),
    ("algebra row not a list", "check-axioms", edited(ALG, lambda d: d["compose"].__setitem__(0, "0")).encode()),
    ("algebra pref row a string of names", "check-axioms",
     edited(ALG, lambda d: d["pref"].__setitem__(0, "".join(d["elements"][:1] * len(d["elements"])))).encode()),
    ("algebra unknown name in compose", "check-axioms",
     edited(ALG, lambda d: d["compose"][2].__setitem__(1, "nope")).encode()),
    ("algebra unknown name in pref", "check-axioms", edited(ALG, lambda d: d["pref"][3].__setitem__(0, 7)).encode()),
    ("algebra unknown name in range", "check-axioms", edited(ALG, lambda d: d["range"].__setitem__(0, None)).encode()),
    ("algebra compose before elements", "check-axioms", reordered(ALG, "compose").encode()),
    ("algebra duplicated key, last bad", "check-axioms", ALG.replace("\n}\n", ',\n  "pref": [5]\n}\n').encode()),
    ("algebra duplicated key, last good", "check-axioms",
     ALG.replace('\n  "range"', '\n  "pref": 5,\n  "range"', 1).encode()),
    ("algebra elements again, last good", "check-axioms",
     ALG.replace("\n}\n", ',\n  "elements": ' + json.dumps(json.loads(ALG)["elements"][::-1]) + "\n}\n").encode()),
    ("algebra trailing comma", "check-axioms", ALG.replace('"\n    ]', '",\n    ]', 1).encode()),
    ("algebra short row", "check-axioms", edited(ALG, lambda d: d["compose"][1].pop()).encode()),
    ("algebra names not distinct", "check-axioms",
     edited(ALG, lambda d: d["elements"].__setitem__(1, d["elements"][0])).encode()),
    ("algebra extra key", "check-axioms", edited(ALG, lambda d: d.__setitem__("note", [1])).encode()),
    ("algebra on one line", "check-axioms", json.dumps(json.loads(ALG)).encode()),
    ("algebra with a byte order mark", "check-axioms", b"\xef\xbb\xbf" + ALG.encode()),
    ("category truncated", "sections", CAT[:len(CAT) * 2 // 3].encode()),
    ("category not UTF-8", "sections", CAT.encode().replace(b"p_c", b"p_\xffc", 1)),
    ("category top level a string", "sections", b'"comp"'),
    ("category extra data", "sections", (CAT + "{}").encode()),
    ("category arrow not an object", "sections",
     edited(CAT, lambda d: d["arrows"].__setitem__(0, [ARROW, "x", "x"])).encode()),
    ("category unknown arrow in a comp key", "sections",
     edited(CAT, lambda d: d["comp"].__setitem__(PAIR.split(",")[0] + ",zz", ARROW)).encode()),
    ("category unknown arrow in a comp value", "sections",
     edited(CAT, lambda d: d["comp"].__setitem__(PAIR, "zz")).encode()),
    ("category comp value not a name", "sections",
     edited(CAT, lambda d: d["comp"].__setitem__(PAIR, [ARROW])).encode()),
    ("category comp key with no comma", "sections",
     edited(CAT, lambda d: d["comp"].__setitem__(ARROW, ARROW)).encode()),
    ("category comp key with two commas", "sections",
     edited(CAT, lambda d: d["comp"].__setitem__(f"{PAIR},{ARROW}", ARROW)).encode()),
    ("category comp before arrows", "sections", reordered(CAT, "comp").encode()),
    ("category comp not an object", "sections", edited(CAT, lambda d: d.__setitem__("comp", [])).encode()),
    ("category duplicated comp, last good", "sections",
     CAT.replace('\n  "comp"', '\n  "comp": {},\n  "comp"', 1).encode()),
    ("category duplicated comp, last bad", "sections", CAT.replace("\n}\n", ',\n  "comp": {"a,b": "c"}\n}\n').encode()),
    ("category duplicated comp member, last good", "sections",
     CAT.replace(f'"{PAIR}": ', f'"{PAIR}": "zz",\n    "{PAIR}": ', 1).encode()),
    ("category duplicated comp member, last bad", "sections",
     CAT.replace("\n  }\n}", f',\n    "{PAIR}": "zz"\n  }}\n}}').encode()),
    ("category trailing comma in comp", "sections", CAT.replace("\n  }\n}", ",\n  }\n}").encode()),
    ("category missing an identity", "sections", edited(CAT, lambda d: d["id"].popitem()).encode()),
    ("category on one line", "sections", json.dumps(json.loads(CAT)).encode()),
    ("category comp last member alone on its line", "sections",
     CAT.replace("\n  }\n}", "\n\n  }\n}").encode()),
]


class TestRefusalParity:
    """Each file reaches the same exit code, report and refusal text by rows
    as by the plain path."""

    @pytest.mark.parametrize("block", [1, 50, 1000])
    @pytest.mark.parametrize("name, verb, content", FILES, ids=[f[0] for f in FILES])
    def test_same_outcome(self, capsys, monkeypatch, tmp_path, block, name, verb, content):
        path = tmp_path / "file.json"
        path.write_bytes(content)
        monkeypatch.setattr(fmt, "BLOCK", block)
        by_rows = (main([verb, str(path)]), *capsys.readouterr())
        # the plain path: json.loads and parse_* on the whole file
        monkeypatch.setattr(fmt, "load_algebra", lambda path: fmt.parse_algebra(fmt.load_json(path), path))
        monkeypatch.setattr(fmt, "load_category", lambda path: fmt.parse_category(fmt.load_json(path), path))
        assert by_rows == (main([verb, str(path)]), *capsys.readouterr())

    def test_only_well_formed_files_pass(self, capsys, tmp_path):
        passed = []
        for name, verb, content in FILES:
            (tmp_path / "file.json").write_bytes(content)
            if main([verb, str(tmp_path / "file.json")]) != 2:
                passed.append(name)
            capsys.readouterr()
        assert passed == [name for name, _, _ in FILES if "last good" in name or re.search(
            r"before|extra key|one line|alone", name)]


class TestDecodedOnce:
    """A table file is decoded once; json.loads reads it again only when the
    member reader cannot decode it exactly."""

    @pytest.mark.parametrize("load, parse, text", [
        (fmt.load_algebra, fmt.parse_algebra, (ROOT / "data" / "swap_const.alg.json").read_text(encoding="utf-8")),
        (fmt.load_algebra, fmt.parse_algebra, reordered(ALG, "compose")),
        (fmt.load_algebra, fmt.parse_algebra, edited(ALG, lambda d: d.__setitem__("note", [1]))),
        (fmt.load_category, fmt.parse_category, reordered(CAT, "comp")),
    ], ids=["concrete algebra", "compose before elements", "algebra extra key", "comp before arrows"])
    def test_layouts_the_writer_does_not_give(self, load, parse, text):
        for block in (1, fmt.BLOCK):
            assert read_by_rows(load, text, block) == parse(json.loads(text))

    def test_json_loads_reads_only_what_the_reader_cannot(self, monkeypatch, tmp_path):
        """Of FILES, json.loads reads the ones with bad JSON or a repeated
        key, and those whose streamed table holds an entry that names no
        element or arrow; every other one is decoded once, refused or not."""
        class ReadWhole(Exception):
            pass

        def read_whole_stub(text, path):
            raise ReadWhole

        monkeypatch.setattr(fmt, "_json_object", read_whole_stub)
        read_whole = []
        for name, verb, content in FILES:
            (tmp_path / "file.json").write_bytes(content)
            try:
                (fmt.load_algebra if verb == "check-axioms" else fmt.load_category)(tmp_path / "file.json")
            except ReadWhole:
                read_whole.append(name)
            except fmt.FormatError:
                pass
        assert read_whole == [name for name, _, _ in FILES if re.search(
            r"truncated|top level|extra data|trailing comma|duplicated key|again|byte order|duplicated comp,|"
            r"last bad|row not a list|string of names|unknown name in (compose|pref)|comp (key|value)", name)]

    def test_tuple_tables_from_a_caller_are_checked(self):
        """Only the reader's own mapped tables skip the name checks; a dict
        built in Python with tuple tables is refused as JSON would be."""
        alg, cat = json.loads(ALG), json.loads(CAT)
        alg["compose"] = tuple(tuple(range(len(alg["elements"]))) for _ in alg["elements"])
        with pytest.raises(fmt.FormatError, match="'compose' must be a JSON list"):
            fmt.parse_algebra(alg)
        cat["comp"] = tuple((99,) * len(cat["arrows"]) for _ in cat["arrows"])
        with pytest.raises(fmt.FormatError, match="'comp' must be a JSON object"):
            fmt.parse_category(cat)


class TestFileGuards:
    def test_reading_a_512_element_algebra_keeps_one_copy(self, tmp_path):
        """Reading peaks below five times the two tables it builds (the
        plain path, json.loads with a string per entry, took 9.7 times)."""
        n, rnd = 512, random.Random(0)

        def vector() -> list[int]:
            return [rnd.randrange(n) for _ in range(n)]

        alg = FinAlgebra.from_tables([vector() for _ in range(n)], vector(), vector(), [vector() for _ in range(n)],
                                     [f"e{i}" for i in range(n)])
        path = tmp_path / "big.alg.json"
        path.write_text(fmt.write_algebra(alg), encoding="utf-8")
        tracemalloc.start()
        try:
            loaded = fmt.load_algebra(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded == alg
        assert peak < 5 * (2 * n * n * 8)

    def test_formats_is_imported_first(self):
        """`import pfdual` imports formats, its largest source, before any
        other pfdual module.  Without a bytecode cache formats is then
        compiled while little else is live; compiled last, as `pfdual.cli`
        would import it, it left about 0.35 MB more in the process and in
        every verdict forked from it."""
        script = ("import sys\n"
                  "started = []\n"
                  "sys.addaudithook(lambda event, args: event == 'import' and started.append(args[0]))\n"
                  "import pfdual\n"
                  "print([name for name in started if name.startswith('pfdual.')][0])\n")
        result = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
                                capture_output=True, text=True, check=True)
        assert result.stdout == "pfdual.formats\n"

    def test_verbs_import_nothing_more(self, tmp_path):
        """Every verb runs on the shipped files without importing a module
        that `import pfdual.cli` has not: each forked verdict would compile
        it again."""
        golden = str(ROOT / "tests" / "golden" / "swap_const.cat.json")
        fun = tmp_path / "id.fun.json"
        fun.write_text(json.dumps(functor_to_dict(identity_multifunctor(fmt.load_category(golden)), golden, golden)))
        commands = [
            ["check-axioms", "data/swap_const.alg.json"],
            ["check-axioms", "data/swap_only.alg.json", "--format", "json"],
            ["dualize", "data/swap_const.alg.json", "--out", str(tmp_path / "d.cat.json"),
             "--dot", str(tmp_path / "d.dot")],
            ["sections", "tests/golden/swap_const.cat.json", "--out", str(tmp_path / "s.alg.json")],
            ["sections", "tests/golden/indiscrete2.cat.json"],
            ["bidual", "data/swap_const.alg.json"],
            ["hom-check", "data/swap_inclusion.hom.json"],
            ["naturality", "data/swap_inclusion.hom.json"],
            ["functor-check", str(fun)],
            ["naturality", str(fun)],
            ["transducer", "eval", "data/as_to_bs.td.json", "aab"],
            ["transducer", "compose", "data/as_to_bs.td.json", "tests/golden/thirds.td.json"],
            ["transducer", "pref", "data/id_on_as.td.json", "data/as_to_bs.td.json"],
            ["transducer", "dom", "tests/golden/thirds.td.json", "--out", str(tmp_path / "dom.dfa.json")],
            ["transducer", "range", "tests/golden/range_thirds.dfa.json"],
            ["transducer", "axioms", "data/id_on_as.td.json", "data/as_to_bs.td.json", "--max-len", "4"],
        ]
        script = ("import contextlib, io, json, sys\n"
                  "import pfdual.cli\n"
                  "before = set(sys.modules)\n"
                  "codes = []\n"
                  "for argv in json.loads(sys.argv[1]):\n"
                  "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
                  "        codes.append(pfdual.cli.main(argv))\n"
                  "print(codes, sorted(set(sys.modules) - before))\n")
        env = {**os.environ, "PYTHONPATH": "src"}
        result = subprocess.run([sys.executable, "-c", script, json.dumps(commands)], cwd=ROOT, env=env,
                                capture_output=True, text=True, check=True)
        codes = [0] * len(commands)
        codes[4] = 2  # the indiscrete category is refused
        assert result.stdout == f"{codes} []\n"


def test_category_without_comp_is_refused_before_its_table(tmp_path):
    """A file of MAX_ELEMENTS arrows and no 'comp' is refused before the
    table of zero indices is built, which took 34 MB."""
    arrows = [{"name": f"a{i}", "src": "x", "tgt": "x"} for i in range(fmt.MAX_ELEMENTS)]
    path = tmp_path / "no_comp.cat.json"
    path.write_text(json.dumps({"objects": ["x"], "opens_obj": [], "arrows": arrows, "opens_arr": [], "id": {"x": "a0"}}))
    tracemalloc.start()
    try:
        with pytest.raises(fmt.FormatError, match="missing key 'comp'"):
            fmt.load_category(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
