"""File format round trips and canonicalization."""

from __future__ import annotations

import json
import re

import pytest

from pfdual import formats as fmt
from pfdual import transducer as td
from pfdual.dualize import pf_object
from pfdual.errors import NotClosedError
from pfdual.topcat import identity_multifunctor

from conftest import functor_to_dict, hom_to_dict, make_category


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
        t = td.Transducer(
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
