"""End-to-end command-line checks against the shipped data files."""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pfdual import formats as fmt
from pfdual import transducer as td
from pfdual.cli import TRANSDUCER_VERBS, VERBS, _build_parser, _parse, main
from pfdual.pfun import Base, enumerate_all

from conftest import algebra_to_dict, functor_to_dict, index_of

DATA = Path(__file__).resolve().parent.parent / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv) -> tuple[int, str]:
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


class TestCheckAxioms:
    def test_passes_on_swap_const(self, capsys):
        code, out = run(capsys, "check-axioms", DATA / "swap_const.alg.json")
        assert code == 0
        assert "passed: True" in out

    def test_report_to_a_stream_with_no_byte_buffer(self, capsys):
        # a StringIO has no .buffer, so the text is written to it as it is
        for fmt_kind in ("text", "json"):
            argv = ["check-axioms", str(DATA / "swap_const.alg.json"), "--format", fmt_kind]
            expected = run(capsys, *argv)
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = main(argv)
            assert (code, out.getvalue()) == expected

    def test_json_format(self, capsys):
        code, out = run(capsys, "check-axioms", DATA / "swap_const.alg.json", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True and len(report["axioms"]) == 10

    def test_failure_exit_code_and_witness(self, capsys, tmp_path):
        data = json.loads((DATA / "swap_const.alg.json").read_text())
        from pfdual import formats as fmt
        from pfdual.algebra import FinAlgebra

        alg = fmt.load_algebra(DATA / "swap_const.alg.json")
        table = list(alg.range_t)
        table[index_of(alg, "s")] = index_of(alg, "0")
        broken = FinAlgebra.from_tables(alg.compose_t, alg.anti_t, table, alg.pref_t, alg.names)
        path = tmp_path / "broken.json"
        path.write_text(fmt.write_algebra(broken))
        code, out = run(capsys, "check-axioms", path, "--format", "json")
        assert code == 1
        report = json.loads(out)
        bad = [e for e in report["axioms"] if not e["passed"]]
        assert any(e["axiom"] == 7 and e["witness"] == ["s"] for e in bad)

    def test_detail_on_an_algebra_with_no_zero(self, capsys, tmp_path):
        """A(0)*0 = 1 but A(1)*1 = 0, so axiom 3's identity constant is
        undefined: it repeats axiom 2's witness and says why."""
        path = tmp_path / "no_zero.json"
        path.write_text(json.dumps({"elements": ["0", "1"], "compose": [["0", "0"], ["1", "1"]],
                                    "antidomain": ["1", "0"], "range": ["0", "1"], "pref": [["0", "0"], ["1", "1"]]}))
        code, out = run(capsys, "check-axioms", path, "--format", "json")
        assert code == 1
        axioms = json.loads(out)["axioms"]
        assert axioms[1]["witness"] == ["0", "1"] and "detail" not in axioms[1]
        assert axioms[2] == {"axiom": 3, "name": "left_identity", "statement": "id*a = a", "passed": False,
                             "witness": ["0", "1"],
                             "detail": "identity constant undefined because A(a)*a is not constant"}

    def test_concrete_file_that_is_not_closed(self, capsys, tmp_path):
        """Refused naming the file, also where a homomorphism file names it,
        and the operands by the file's names."""
        path = tmp_path / "open.json"
        path.write_text(json.dumps({"base": ["1", "2"], "functions": {"s": {"1": "2", "2": "1"}}}))
        hom = tmp_path / "open.hom.json"
        hom.write_text(json.dumps({"source": "open.json", "target": "open.json", "map": {"s": "s"}}))
        for verb, file in (("check-axioms", path), ("bidual", path), ("hom-check", hom), ("naturality", hom)):
            assert main([verb, str(file)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == (
                f"error: {path}: set not closed under compose: compose(s, s) = PFunc{{'1'>'1','2'>'2'}} is missing\n")

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code = main(["check-axioms", str(path)])
        assert code == 2

    def test_deterministic_output(self, capsys):
        _, first = run(capsys, "check-axioms", DATA / "swap_const.alg.json", "--format", "json")
        _, second = run(capsys, "check-axioms", DATA / "swap_const.alg.json", "--format", "json")
        assert first == second


class TestMalformedInput:
    """Structural faults in input files are bad input (exit 2), not a
    failed check or a traceback."""

    @pytest.mark.parametrize("verb, data", [
        ("sections", {"objects": ["x"], "opens_obj": [], "arrows": [{"src": "x", "tgt": "x"}],
                      "opens_arr": [], "id": {"x": "ix"}, "comp": {}}),
        ("check-axioms", {"base": [1, 2], "functions": [["f", {"1": 2}]]}),
        ("check-axioms", {"base": [1, 2], "functions": {"f": [1, 2]}}),
    ])
    def test_malformed_file_is_bad_input(self, capsys, tmp_path, verb, data):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data))
        code = main([verb, str(path)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    CATEGORY = {"objects": ["x", "y"], "opens_obj": [["x"], ["y"]],
                "arrows": [{"name": "ix", "src": "x", "tgt": "x"}, {"name": "iy", "src": "y", "tgt": "y"}],
                "opens_arr": [["ix"], ["iy"]], "id": {"x": "ix", "y": "iy"},
                "comp": {"ix,ix": "ix", "iy,iy": "iy"}}
    ALGEBRA = {"elements": ["0"], "compose": [["0"]], "antidomain": ["0"], "range": ["0"], "pref": [["0"]]}

    @pytest.mark.parametrize("verb, data, message", [
        ("sections", {**CATEGORY, "comp": [["ix", "ix", "ix"]]}, "'comp' must be a JSON object"),
        ("sections", {**CATEGORY, "id": {"x": "ix"}}, "'id' is missing object 'y'"),
        ("check-axioms", {**ALGEBRA, "elements": 5}, "'elements' must be a JSON list"),
        ("check-axioms", {**ALGEBRA, "compose": [5]}, "rows of 'compose' must be lists of element names"),
        ("check-axioms", {**ALGEBRA, "range": [["0"]]}, "unknown element ['0'] in range"),
        ("hom-check", {"source": str(DATA / "swap_only.alg.json"), "target": str(DATA / "swap_const.alg.json"),
                       "map": [["s", "s"]]}, "'map' must be a JSON object"),
        ("hom-check", 5, "expected a JSON object"),
        ("sections", [], "expected a JSON object"),
        ("check-axioms", {**ALGEBRA, "elements": [0]}, "'elements' must be a list of strings"),
        ("check-axioms", {"base": [[1], [2]], "functions": {"0": {}}}, "'base' points must be strings"),
        ("check-axioms", {"base": [1, {"x": 2}], "functions": {"0": {}}}, "'base' points must be strings"),
        ("check-axioms", {"base": [1, 2], "functions": {"0": {}, "f": {"1": 2}}}, "'base' points must be strings"),
        ("check-axioms", {"base": ["a", "a"], "functions": {"0": {}}}, "base points must be distinct: ('a', 'a')"),
        ("sections", {"objects": [1], "opens_obj": [], "arrows": [{"name": "i", "src": 1, "tgt": 1}],
                      "opens_arr": [], "id": {"1": "i"}, "comp": {"i,i": "i"}},
         "object and arrow names must be strings"),
        ("sections", {**CATEGORY, "arrows": [{"name": 1, "src": "x", "tgt": "x"}, {"name": "iy", "src": "y", "tgt": "y"}],
                      "opens_arr": [["1"], ["iy"]], "id": {"x": "1", "y": "iy"}, "comp": {"1,1": "1", "iy,iy": "iy"}},
         "object and arrow names must be strings"),
        ("sections", {**CATEGORY, "objects": [True, "y"]}, "object and arrow names must be strings"),
        ("check-axioms", {k: v for k, v in ALGEBRA.items() if k != "range"}, "missing key 'range'"),
        ("check-axioms", {**ALGEBRA, "elements": ["0", "0"]}, "element names must be distinct"),
        ("check-axioms", {"base": "12", "functions": {"0": {}}}, "'base' must be a list of points"),
        ("check-axioms", {"base": ["1"], "functions": [["0", {}]]}, "'functions' must map names to graphs"),
        ("check-axioms", {"base": ["1"], "functions": {"f": ["1"]}}, "function 'f': graph must be an object"),
        ("check-axioms", {"base": ["1"], "functions": {"f": {"1": "9"}}}, "function 'f': point '9' not in base ('1',)"),
        ("check-axioms", {"base": ["1"], "functions": {"e": {"1": "1"}, "f": {"1": "1"}}},
         "functions 'e' and 'f' are identical"),
        ("sections", {**CATEGORY, "objects": ["x", "x"]}, "object and arrow names must be distinct"),
        ("sections", {**CATEGORY, "comp": {"ix,iz": "ix"}}, "unknown arrow 'iz' in comp"),
        ("sections", {**CATEGORY, "opens_arr": ["ix"]}, "'opens_arr' must list sets as lists"),
        ("sections", {**CATEGORY, "comp": {"ix": "ix"}}, "bad composition key 'ix'"),
        ("sections", {**CATEGORY, "arrows": [{"name": "ix", "src": "z", "tgt": "x"}, CATEGORY["arrows"][1]]},
         "unknown object 'z' in arrows"),
        ("sections", {**CATEGORY, "id": {"x": "ix", "y": "iz"}}, "unknown arrow 'iz' in id"),
    ])
    def test_malformed_file_names_the_key(self, capsys, tmp_path, verb, data, message):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data))
        assert main([verb, str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("verb", ["check-axioms", "dualize", "bidual"])
    def test_numeric_element_names_are_refused(self, capsys, tmp_path, verb):
        """A homomorphism file names elements by JSON keys, so every verb
        refuses names that are not strings, not only the later ones."""
        path = tmp_path / "numeric.alg.json"
        path.write_text(json.dumps({"elements": [0], "compose": [[0]], "antidomain": [0], "range": [0],
                                    "pref": [[0]]}))
        assert main([verb, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {path}: 'elements' must be a list of strings\n"

    SWAP_MAP = json.loads((DATA / "swap_inclusion.hom.json").read_text())["map"]

    @pytest.mark.parametrize("verb, data, message", [
        ("hom-check", {"source": 5, "target": "swap_const.alg.json", "map": SWAP_MAP},
         "'source' must be a JSON string"),
        ("naturality", {"source": 5, "target": "swap_const.alg.json", "map": SWAP_MAP},
         "'source' must be a JSON string"),
        ("hom-check", {"source": "swap_only.alg.json", "target": ["swap_const.alg.json"], "map": SWAP_MAP},
         "'target' must be a JSON string"),
        ("functor-check", {"source": 5, "target": "cat.json", "obj_map": {}, "arr_rel": []},
         "'source' must be a JSON string"),
        ("naturality", {"source": "cat.json", "target": None, "obj_map": {}, "arr_rel": []},
         "'target' must be a JSON string"),
        ("hom-check", {"source": "swap_only.alg.json", "target": "swap_const.alg.json",
                       "map": {**SWAP_MAP, "s": "nope"}}, "unknown element 'nope' in map"),
        ("naturality", {"source": "swap_only.alg.json", "target": "swap_const.alg.json",
                        "map": {**SWAP_MAP, "s": ["s"]}}, "unknown element ['s'] in map"),
        ("hom-check", {"source": "swap_only.alg.json", "target": "swap_const.alg.json",
                       "map": {k: v for k, v in SWAP_MAP.items() if k != "s"}}, "map is missing source element 's'"),
        ("functor-check", {"source": "cat.json", "target": "cat.json", "obj_map": {"x": "x"}, "arr_rel": []},
         "obj_map is missing object 'y'"),
        ("functor-check", {"source": "cat.json", "target": "cat.json", "obj_map": {"x": "x", "y": ["y"]},
                           "arr_rel": []}, "unknown object ['y'] in obj_map"),
        ("naturality", {"source": "cat.json", "target": "cat.json", "obj_map": {"x": "x", "y": "y"},
                        "arr_rel": [["ix", "ix"], [["iy"], "iy"]]}, "unknown arrow ['iy'] in arr_rel"),
        ("functor-check", {"source": "cat.json", "target": "cat.json", "obj_map": {"x": "x", "y": "y"},
                           "arr_rel": [["ix", 5]]}, "unknown arrow 5 in arr_rel"),
        ("functor-check", {"source": "cat.json", "target": "cat.json", "obj_map": {"x": "x", "y": "y"},
                           "arr_rel": [["ix"]]}, "arr_rel entries must be pairs, got ['ix']"),
    ])
    def test_malformed_morphism_file(self, capsys, tmp_path, verb, data, message):
        for name in ("swap_only.alg.json", "swap_const.alg.json"):
            (tmp_path / name).write_text((DATA / name).read_text())
        (tmp_path / "cat.json").write_text(json.dumps(self.CATEGORY))
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data))
        assert main([verb, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {path}: {message}\n"

    TRANSDUCER = {"alphabet": ["a"], "states": ["s"], "initial": "s", "final": {"s": ""},
                  "trans": [{"from": "s", "in": "a", "out": "a", "to": "s"}]}

    @pytest.mark.parametrize("data, message", [
        ({**TRANSDUCER, "final": ["s"]}, "'final' must be a JSON object"),
        ({**TRANSDUCER, "final": {"s": 5}}, "'final' must map states to output strings"),
        ({**TRANSDUCER, "trans": [{"from": "s", "in": "a", "out": 5, "to": "s"}]},
         "transition key 'out' must be a string: {'from': 's', 'in': 'a', 'out': 5, 'to': 's'}"),
        ({**TRANSDUCER, "trans": [{"from": ["s"], "in": "a", "out": "a", "to": "s"}]},
         "transition key 'from' must be a string: {'from': ['s'], 'in': 'a', 'out': 'a', 'to': 's'}"),
        ({**TRANSDUCER, "alphabet": ["a", "a"]}, "alphabet ['a', 'a'] must list distinct one-character letters"),
        ({**TRANSDUCER, "alphabet": ["ab"], "trans": [{"from": "s", "in": "ab", "out": "ab", "to": "s"}]},
         "alphabet ['ab'] must list distinct one-character letters"),
        ({**TRANSDUCER, "states": "s"}, "'states' must be a JSON list"),
        ({**TRANSDUCER, "alphabet": [1]}, "'alphabet' must be a list of strings"),
        ({**TRANSDUCER, "initial": ["s"]}, "'initial' must be a JSON string"),
        ({**TRANSDUCER, "initial": "x"}, "initial state must be listed"),
        ({**TRANSDUCER, "final": {"x": ""}}, "final states must be listed states"),
        ({**TRANSDUCER, "trans": [{"from": "x", "in": "a", "out": "a", "to": "s"}]},
         "transition from unknown state/letter ('x','a')"),
        ({**TRANSDUCER, "trans": [{"from": "s", "in": "b", "out": "a", "to": "s"}]},
         "transition from unknown state/letter ('s','b')"),
        ({**TRANSDUCER, "trans": [{"from": "s", "in": "a", "out": "a", "to": "x"}]}, "transition to unknown state 'x'"),
        ({**TRANSDUCER, "trans": [{"from": "s", "in": "a", "out": "ab", "to": "s"}]},
         "output 'ab' uses letters outside the alphabet"),
        ({**TRANSDUCER, "final": {"s": "b"}}, "final output 'b' uses letters outside the alphabet"),
        ({**TRANSDUCER, "states": ["s", "t", "s"]}, "state 's' is listed twice"),
    ])
    def test_malformed_transducer_names_the_key(self, capsys, tmp_path, data, message):
        path = tmp_path / "malformed.td.json"
        path.write_text(json.dumps(data))
        assert main(["transducer", "axioms", str(path), "--max-len", "2"]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_transition_that_is_not_an_object(self, capsys, tmp_path):
        path = tmp_path / "malformed.td.json"
        path.write_text(json.dumps({"alphabet": ["a"], "states": ["q"], "initial": "q",
                                    "final": {"q": ""}, "trans": [5]}))
        assert main(["transducer", "eval", str(path), "a"]) == 2
        assert capsys.readouterr().err == f"error: {path}: transition missing key 'from': 5\n"


# A locale whose encoding is ASCII, with Python's UTF-8 mode and locale
# coercion both off.
ASCII_LOCALE = {"PYTHONUTF8": "0", "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}


class TestUtf8Files:
    """Files are read and written as UTF-8 (RFC 8259) whatever the locale's
    encoding; a file that is not UTF-8 is bad input naming the file."""

    @staticmethod
    def pfdual(*argv) -> subprocess.CompletedProcess:
        env = {**os.environ, "PYTHONPATH": str(DATA.parent / "src"), **ASCII_LOCALE}
        return subprocess.run([sys.executable, "-m", "pfdual.cli", *map(str, argv)],
                              env=env, capture_output=True, text=True)

    def test_non_ascii_names_under_an_ascii_locale(self, tmp_path):
        data = json.loads((DATA / "swap_const.alg.json").read_text())
        funcs = data["functions"]
        funcs["café"], funcs["swäp"] = funcs.pop("c"), funcs.pop("s")
        path = tmp_path / "names.alg.json"
        path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
        checked = self.pfdual("check-axioms", path, "--format", "json")
        assert (checked.returncode, checked.stderr) == (0, "")
        dot, cat = tmp_path / "dual.dot", tmp_path / "dual.json"
        dualized = self.pfdual("dualize", path, "--dot", dot, "--out", cat, "--format", "json")
        assert (dualized.returncode, dualized.stderr) == (0, "")
        assert '[label="p_swäp"]' in dot.read_text(encoding="utf-8")
        assert self.pfdual("sections", cat, "--format", "json").returncode == 0

    def test_text_report_under_an_ascii_locale(self, tmp_path):
        """A text report naming swäp is written whole, as UTF-8, the same
        bytes as under a UTF-8 locale."""
        data = json.loads((DATA / "swap_const.alg.json").read_text())
        data["functions"]["swäp"] = data["functions"].pop("s")
        path = tmp_path / "names.alg.json"
        path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
        reports = []
        for locale in (ASCII_LOCALE, {"PYTHONUTF8": "1"}):
            env = {**os.environ, "PYTHONPATH": str(DATA.parent / "src"), **locale}
            result = subprocess.run([sys.executable, "-m", "pfdual.cli", "dualize", str(path)],
                                    env=env, capture_output=True)
            assert (result.returncode, result.stderr) == (0, b"")
            reports.append(result.stdout)
        assert reports[0] == reports[1] and "swäp".encode() in reports[0]

    def test_undecodable_file_is_bad_input(self, capsys, tmp_path):
        path = tmp_path / "latin1.alg.json"
        path.write_bytes('{"base": ["é"]}'.encode("latin-1"))
        assert main(["check-axioms", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {path}: not UTF-8: byte 0xe9 at offset 11\n"


class TestElementLimit:
    """Files over MAX_ELEMENTS are refused before any table is built; a
    file at the limit gets past the count to the next check."""

    @pytest.mark.parametrize("extra", [0, 1])
    def test_abstract_file(self, capsys, tmp_path, extra):
        names = [f"e{k}" for k in range(fmt.MAX_ELEMENTS + extra)]
        path = tmp_path / "big.alg.json"
        path.write_text(json.dumps({"elements": names, "compose": [], "antidomain": names,
                                    "range": names, "pref": []}))
        assert main(["check-axioms", str(path)]) == 2
        err = capsys.readouterr().err
        assert ("MAX_ELEMENTS = 2048" in err) == bool(extra)
        assert extra or "compose table must be" in err

    @pytest.mark.parametrize("extra", [0, 1])
    def test_concrete_file(self, capsys, tmp_path, extra):
        # graphs that are not objects: building any PFunc would fail on them
        functions = {f"f{k}": [] for k in range(fmt.MAX_ELEMENTS + extra)}
        path = tmp_path / "big.alg.json"
        path.write_text(json.dumps({"base": ["1", "2"], "functions": functions}))
        assert main(["check-axioms", str(path)]) == 2
        err = capsys.readouterr().err
        assert ("2049 functions exceed the limit MAX_ELEMENTS" in err) == bool(extra)
        assert extra or "graph must be an object" in err


class TestLimits:
    """Each size limit is one module constant, named in its refusal and
    listed in the README; none is an option."""

    LIMITS = {"MAX_ELEMENTS", "MAX_BASE", "MAX_WORDS", "BOUND_CAP"}

    def test_every_limit_is_listed(self):
        defined = [
            name
            for path in sorted((DATA.parent / "src" / "pfdual").glob("*.py"))
            for name in re.findall(r"^(MAX_\w+|\w+_CAP)\s*=", path.read_text(), re.MULTILINE)
        ]
        assert sorted(defined) == sorted(self.LIMITS)

    def test_readme_lists_every_limit(self):
        text = (DATA.parent / "README.md").read_text()
        paragraph = text[text.index("**Limits.**"):]
        paragraph = paragraph[:paragraph.index("\n\n")]
        listed = re.findall(r"`([A-Z_]+) = (\d+)(?:\*\*(\d+))?` \(`(\w+)`\)", paragraph)
        assert {name for name, *_ in listed} == self.LIMITS and len(listed) == len(self.LIMITS)
        for name, base, power, module in listed:
            value = int(base) ** int(power or 1)
            assert getattr(importlib.import_module(f"pfdual.{module}"), name) == value, name

    @pytest.mark.parametrize("extra", [0, 1])
    def test_concrete_base(self, capsys, tmp_path, extra):
        points = [str(k) for k in range(fmt.MAX_BASE + extra)]
        (tmp_path / "wide.alg.json").write_text(json.dumps({"base": points, "functions": {}}))
        path = tmp_path / "wide_id.hom.json"
        path.write_text(json.dumps({"source": "wide.alg.json", "target": "wide.alg.json", "map": {}}))
        for verb, file in (("check-axioms", tmp_path / "wide.alg.json"), ("hom-check", path)):
            assert main([verb, str(file)]) == 2
            err = capsys.readouterr().err
            assert ("base size 7 exceeds the limit MAX_BASE = 6" in err) == bool(extra)
            assert extra or "at least one function is required" in err

    @pytest.mark.parametrize("extra", [0, 1])
    def test_category_file_arrows(self, capsys, tmp_path, extra):
        # a 'comp' that is not an object: parsing it is the check after the count
        arrows = [{"name": f"g{k}", "src": "x", "tgt": "x"} for k in range(fmt.MAX_ELEMENTS + extra)]
        path = tmp_path / "many.cat.json"
        path.write_text(json.dumps({"objects": ["x"], "opens_obj": [["x"]], "arrows": arrows,
                                    "opens_arr": [], "id": {"x": "g0"}, "comp": []}))
        assert main(["sections", str(path)]) == 2
        err = capsys.readouterr().err
        assert ("2049 arrows exceed the limit MAX_ELEMENTS = 2048" in err) == bool(extra)
        assert extra or "'comp' must be a JSON object" in err

    @pytest.mark.parametrize("extra", [0, 1])
    def test_category_file_objects(self, capsys, tmp_path, extra):
        # one arrow and a 'comp' that is not an object, the check after the count
        objects = [f"x{k}" for k in range(fmt.MAX_ELEMENTS + extra)]
        path = tmp_path / "wide.cat.json"
        path.write_text(json.dumps({"objects": objects, "opens_obj": [], "opens_arr": [],
                                    "arrows": [{"name": "g0", "src": "x0", "tgt": "x0"}],
                                    "id": {"x0": "g0"}, "comp": []}))
        assert main(["sections", str(path)]) == 2
        err = capsys.readouterr().err
        assert ("2049 objects exceed the limit MAX_ELEMENTS = 2048" in err) == bool(extra)
        assert extra or "'comp' must be a JSON object" in err

    @pytest.mark.parametrize("extra", [0, 1])
    def test_category_file_near_pairs(self, capsys, tmp_path, extra):
        # 1,024 arrows, 64 of them near each other: 1024 * 64**2 steps is
        # the limit; an unknown source object is the check after it
        names = [f"g{k}" for k in range(1024 + extra)]
        arrows = [{"name": a, "src": "y", "tgt": "x"} for a in names]
        path = tmp_path / "coarse.cat.json"
        path.write_text(json.dumps({"objects": ["x"], "opens_obj": [["x"]], "arrows": arrows,
                                    "opens_arr": [names[:64], *([a] for a in names[64:])],
                                    "id": {"x": "g0"}, "comp": {}}))
        assert main(["sections", str(path)]) == 2
        message = ("1025 arrows times 4096 near pairs exceed the limit MAX_ELEMENTS**2 = 4194304" if extra
                   else "unknown object 'y' in arrows")
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("extra", [0, 1])
    def test_functor_file_pairs(self, capsys, tmp_path, extra):
        # a source category file that cannot be read: the count comes first
        (tmp_path / "bad.cat.json").write_text(json.dumps({"objects": 5}))
        pairs = [["g", "g"]] * (fmt.MAX_ELEMENTS + extra)
        path = tmp_path / "many.fun.json"
        path.write_text(json.dumps({"source": "bad.cat.json", "target": "bad.cat.json",
                                    "obj_map": {}, "arr_rel": pairs}))
        assert main(["functor-check", str(path)]) == 2
        err = capsys.readouterr().err
        assert ("2049 related pairs exceed the limit MAX_ELEMENTS = 2048" in err) == bool(extra)
        assert extra or "'objects' must be a JSON list" in err

    @pytest.mark.parametrize("extra", [0, 1])
    def test_enumerate_all(self, extra):
        base = Base(tuple(range(4 + extra)))
        if extra:
            with pytest.raises(ValueError, match="^7776 functions exceed the limit MAX_ELEMENTS = 2048$"):
                enumerate_all(base)
        else:
            assert len(enumerate_all(base)) == 625

    def test_word_bound(self, capsys):
        assert main(["transducer", "axioms", str(DATA / "as_to_bs.td.json"), "--max-len", "13"]) == 2
        assert capsys.readouterr().err == "error: bound 13 exceeds the limit BOUND_CAP = 12\n"

    @pytest.mark.parametrize("argv", [
        ["check-axioms", "data/swap_const.alg.json", "--max-base", "7"],
        ["transducer", "dom", "data/as_to_bs.td.json", "--max-len", "2"],
    ])
    def test_removed_options_are_rejected(self, capsys, monkeypatch, argv):
        monkeypatch.chdir(DATA.parent)
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestDualize:
    def test_shape_and_files(self, capsys, tmp_path):
        out_file = tmp_path / "dual.json"
        dot_file = tmp_path / "dual.dot"
        code, out = run(
            capsys, "dualize", DATA / "swap_const.alg.json",
            "--out", out_file, "--dot", dot_file, "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["objects"] == 2 and report["arrows"] == 4 and report["identities"] == 2
        dot = dot_file.read_text()
        assert dot.count("black:invis:black") == 2
        # the emitted category file feeds back into the sections command
        code, out = run(capsys, "sections", out_file, "--format", "json")
        assert code == 0
        assert json.loads(out)["sections"] == 8

    def test_category_file_canonical(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "dualize", DATA / "swap_const.alg.json", "--out", out1)
        run(capsys, "dualize", DATA / "swap_const.alg.json", "--out", out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_category_file_matches_golden_file(self, capsys, tmp_path):
        out = tmp_path / "dual.json"
        assert main(["dualize", str(DATA / "swap_const.alg.json"), "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "swap_const.cat.json").read_bytes()

    def test_arrow_name_with_a_comma_is_refused_only_for_a_file(self, capsys, tmp_path):
        """A comma in an element name reaches an arrow name, which a category
        file cannot hold: --out refuses it and writes nothing; the report
        alone is still given."""
        data = json.loads((DATA / "swap_const.alg.json").read_text())
        data["functions"] = {("x,3" if name == "e3" else name): graph for name, graph in data["functions"].items()}
        path, out = tmp_path / "comma.alg.json", tmp_path / "comma.cat.json"
        path.write_text(json.dumps(data))
        assert main(["dualize", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: arrow name 'p_x,3' may not contain a comma\n"
        assert not out.exists()
        assert main(["dualize", str(path)]) == 0
        assert "p_x,3" in capsys.readouterr().out

    def test_sections_report_matches_golden_file(self, capsys, monkeypatch):
        monkeypatch.chdir(DATA.parent)
        assert main(["sections", "--format", "json", "tests/golden/swap_const.cat.json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out == (GOLDEN / "sections_swap_const.json").read_text()

    def test_sections_out_reads_back_as_the_section_algebra(self, capsys, tmp_path):
        from pfdual.sections import seccl_object

        out_file = tmp_path / "sections.alg.json"
        code, out = run(capsys, "sections", GOLDEN / "swap_const.cat.json", "--out", out_file)
        assert code == 0 and f"algebra_file: {out_file}" in out
        expected, _ = seccl_object(fmt.load_category(GOLDEN / "swap_const.cat.json"))
        assert fmt.load_algebra(out_file) == expected

    def test_sections_validates_the_category_once(self, capsys, monkeypatch):
        """The membership problems are kept on the category, so the CLI and
        the section enumeration read one validation: the category axioms
        are checked once."""
        from pfdual import algebra as alg
        from pfdual import topcat as tc

        alg._canonical.clear()  # so no equal category brings its kept problems
        calls = []
        check_category = tc.TopCategory.check_category
        monkeypatch.setattr(tc.TopCategory, "check_category", lambda cat: calls.append(cat) or check_category(cat))
        monkeypatch.chdir(DATA.parent)
        assert main(["sections", "--format", "json", "tests/golden/swap_const.cat.json"]) == 0
        assert capsys.readouterr().out == (GOLDEN / "sections_swap_const.json").read_text()
        assert len(calls) == 1

    def test_sections_refusal_matches_golden_file(self, capsys, monkeypatch):
        """Two objects that the indiscrete topology does not separate; the
        refusal names the file as the command gave it."""
        monkeypatch.chdir(GOLDEN.parent.parent)
        assert main(["sections", "tests/golden/indiscrete2.cat.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (GOLDEN / "sections_indiscrete2.err").read_text()

    def test_sections_rejects_invalid_category(self, capsys, monkeypatch):
        """`nonepi_category`, whose arrow a is not an epimorphism (a;b = a;c
        = d): the command refuses it on that line alone, although the
        section enumeration accepts it (tests/test_sections.py)."""
        from conftest import build_nonepi_category

        assert (GOLDEN / "nonepi.cat.json").read_text() == fmt.write_category(build_nonepi_category())
        monkeypatch.chdir(GOLDEN.parent.parent)
        assert main(["sections", "tests/golden/nonepi.cat.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (GOLDEN / "sections_nonepi.err").read_text()

    def test_corrupted_table_is_an_internal_error(self, capsys, monkeypatch, tmp_path):
        """A composite that is zero where two dual arrows compose is refused
        as bad input; with the representability check switched off it
        reaches the guard in pf_object, an internal error."""
        from pfdual import dualize

        data = algebra_to_dict(fmt.load_algebra(DATA / "swap_const.alg.json"))
        s = data["elements"].index("s")
        data["compose"][s][s] = "0"
        path = tmp_path / "bad.alg.json"
        path.write_text(json.dumps(data))
        assert main(["dualize", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: algebra is not representable: ")
        monkeypatch.setattr(dualize, "require_representable", lambda a: None)
        for verb in ("dualize", "bidual"):
            assert main([verb, str(path)]) == 3
            assert capsys.readouterr().err == "internal error: composite of s and s is not a minimal element\n"

    def test_sections_refuses_section_explosion(self, capsys, tmp_path):
        # 16 objects with identities only: 2^16 sections and 2^32-entry tables
        objs = [f"x{i}" for i in range(16)]
        path = tmp_path / "ids16.json"
        path.write_text(json.dumps({
            "objects": objs,
            "opens_obj": [[x] for x in objs],
            "arrows": [{"name": f"i{x}", "src": x, "tgt": x} for x in objs],
            "opens_arr": [[f"i{x}"] for x in objs],
            "id": {x: f"i{x}" for x in objs},
            "comp": {f"i{x},i{x}": f"i{x}" for x in objs},
        }, indent=2))
        start = time.perf_counter()
        code = main(["sections", str(path)])
        assert code == 2 and time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"error: {path}: category may have 65536 sections, over the limit MAX_ELEMENTS = 2048\n")

    def test_sections_refuses_by_its_bound_before_validating(self, capsys, monkeypatch, tmp_path):
        """The section bound reads only the stars, so a file over it is
        refused without checking the category: 12 identities give 4,096
        sections."""
        from pfdual.topcat import TopCategory

        objs = [f"x{i}" for i in range(12)]
        path = tmp_path / "ids12.json"
        path.write_text(json.dumps({
            "objects": objs,
            "opens_obj": [[x] for x in objs],
            "arrows": [{"name": f"i{x}", "src": x, "tgt": x} for x in objs],
            "opens_arr": [[f"i{x}"] for x in objs],
            "id": {x: f"i{x}" for x in objs},
            "comp": {f"i{x},i{x}": f"i{x}" for x in objs},
        }))

        def refuse(self):
            raise AssertionError("the category was checked before the section bound")

        monkeypatch.setattr(TopCategory, "check_category", refuse)
        assert main(["sections", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: category may have 4096 sections, over the limit MAX_ELEMENTS = 2048\n")

    def test_sections_reads_back_a_65_arrow_dual(self, capsys, tmp_path):
        alg_file, cat_file = tmp_path / "z65.alg.json", tmp_path / "z65.cat.json"
        alg_file.write_text(json.dumps(zero_extended_cyclic_group(65)))
        code, out = run(capsys, "dualize", alg_file, "--out", cat_file)
        assert code == 0 and "arrows: 65" in out
        code, out = run(capsys, "sections", cat_file)
        assert code == 0 and "sections: 66" in out


def zero_extended_cyclic_group(n: int) -> dict:
    """The algebra file of the cyclic group of order n with a zero adjoined:
    n + 1 elements, whose dual has one object and n arrows."""
    names = [f"g{k}" for k in range(n)]
    elements = ["0", *names]

    def compose(a: str, b: str) -> str:
        return "0" if "0" in (a, b) else names[(int(a[1:]) + int(b[1:])) % n]

    return {
        "elements": elements,
        "compose": [[compose(a, b) for b in elements] for a in elements],
        "antidomain": ["g0", *["0"] * n],
        "range": ["0", *["g0"] * n],
        "pref": [[b if a == "0" else a for b in elements] for a in elements],
    }


class TestBidual:
    def test_isomorphism_line(self, capsys):
        code, out = run(capsys, "bidual", DATA / "swap_const.alg.json")
        assert code == 0
        assert "theta: isomorphism (8 <-> 8)" in out

    def test_dual_with_65_arrows(self, capsys, tmp_path):
        path = tmp_path / "z65.alg.json"
        path.write_text(json.dumps(zero_extended_cyclic_group(65)))
        code, out = run(capsys, "bidual", path)
        assert code == 0 and "theta: isomorphism (66 <-> 66)" in out

    def test_internal_error_exit_code(self, capsys, monkeypatch, tmp_path):
        from pfdual import duality
        from pfdual.errors import InconsistencyError

        def broken(alg):
            raise InconsistencyError("theta: maps are not mutually inverse")

        monkeypatch.setattr(duality, "theta", broken)
        code = main(["bidual", str(DATA / "swap_const.alg.json")])
        assert code == 3
        assert capsys.readouterr().err == "internal error: theta: maps are not mutually inverse\n"
        # bad input still takes precedence over the stage that would break
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["bidual", str(path)]) == 2


class TestHomCheck:
    def test_inclusion(self, capsys):
        code, out = run(capsys, "hom-check", DATA / "swap_inclusion.hom.json", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["valid"] is True
        assert report["locally_proper"] is False
        assert report["locally_proper_witness"] == ["c", "c3"]
        dual = report["dual"]
        assert dual["star_coherent"] is True and dual["plain_functor"] is False

    @pytest.mark.parametrize("form", ["text", "json"])
    def test_report_matches_golden_file(self, capsys, monkeypatch, form):
        monkeypatch.chdir(DATA.parent)
        code = main(["hom-check", "data/swap_inclusion.hom.json", "--format", form])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert captured.out == (GOLDEN / f"hom_check_swap_inclusion.{form}").read_text()

    def test_non_representable_algebra_is_bad_input(self, capsys, tmp_path):
        """The identity map of an algebra failing axiom (10) is refused with
        exit 2, as naturality and dualize refuse the algebra, not reported
        as an internal error of the prime-filter enumeration."""
        data = algebra_to_dict(fmt.load_algebra(DATA / "swap_const.alg.json"))
        zero = data["elements"].index("0")
        data["pref"][zero][zero] = "e3"
        (tmp_path / "bad.alg.json").write_text(json.dumps(data))
        path = tmp_path / "bad_id.hom.json"
        path.write_text(json.dumps({"source": "bad.alg.json", "target": "bad.alg.json",
                                    "map": {name: name for name in data["elements"]}}))
        bad = tmp_path / "bad.alg.json"
        for argv in (["hom-check", path], ["naturality", path], ["dualize", bad], ["bidual", bad]):
            code = main([str(a) for a in argv])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err == f"error: {argv[1]}: algebra is not representable: axiom (10) pref_outside_domain fails\n"

    def test_invalid_hom_exit_code(self, capsys, tmp_path):
        data = json.loads((DATA / "swap_inclusion.hom.json").read_text())
        data["map"]["s"] = "c"
        data["source"] = str(DATA / "swap_only.alg.json")
        data["target"] = str(DATA / "swap_const.alg.json")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out = run(capsys, "hom-check", path, "--format", "json")
        assert code == 1
        assert json.loads(out)["valid"] is False


class TestNaturality:
    def test_hom_square(self, capsys):
        code, out = run(capsys, "naturality", DATA / "swap_inclusion.hom.json", "--format", "json")
        assert code == 0
        assert json.loads(out)["commutes"] is True

    def test_file_of_neither_kind_is_refused(self, capsys, tmp_path):
        path = tmp_path / "neither.json"
        path.write_text(json.dumps({"source": "a.alg.json", "target": "b.alg.json"}))
        assert main(["naturality", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: expected a homomorphism ('map') or functor ('arr_rel') file\n"

    def test_non_homomorphism_is_bad_input(self, capsys, tmp_path):
        """A map that is not a homomorphism is refused with exit 2, before
        any dual is built, as hom-check reports it invalid."""
        data = json.loads((DATA / "swap_inclusion.hom.json").read_text())
        names, values = list(data["map"]), list(data["map"].values())
        data["map"] = dict(zip(names, values[1:] + values[:1]))
        data["source"] = str(DATA / "swap_only.alg.json")
        data["target"] = str(DATA / "swap_const.alg.json")
        path = tmp_path / "rotated.json"
        path.write_text(json.dumps(data))
        code, out = run(capsys, "hom-check", path, "--format", "json")
        assert code == 1 and json.loads(out)["valid"] is False
        code = main(["naturality", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {path}: map is not a homomorphism\n"

    def test_file_is_read_once(self, capsys, tmp_path, monkeypatch):
        """The command parses the one dict it read: the homomorphism file and
        a functor file are each read once, their algebras and categories once."""
        from pfdual.dualize import pf_morphism

        fun = pf_morphism(fmt.load_homomorphism(DATA / "swap_inclusion.hom.json"))
        (tmp_path / "src.json").write_text(fmt.write_category(fun.source))
        (tmp_path / "tgt.json").write_text(fmt.write_category(fun.target))
        (tmp_path / "fun.json").write_text(json.dumps(functor_to_dict(fun, "src.json", "tgt.json")))
        reads, load_json = [], fmt.load_json
        monkeypatch.setattr(fmt, "load_json", lambda path: reads.append(Path(path).name) or load_json(path))
        for path in (DATA / "swap_inclusion.hom.json", tmp_path / "fun.json"):
            reads.clear()
            assert run(capsys, "naturality", path)[0] == 0
            assert sorted(reads) == sorted({*reads}) and path.name in reads

    def test_non_stone_functor_is_bad_input(self, capsys, tmp_path):
        """The identity functor of a category whose two objects the
        indiscrete topology does not separate: sections are taken only of
        Stone categories, so this is refused as bad input."""
        (tmp_path / "cat.json").write_text(json.dumps({
            "objects": ["x", "y"], "opens_obj": [["x", "y"]],
            "arrows": [{"name": "ix", "src": "x", "tgt": "x"}, {"name": "iy", "src": "y", "tgt": "y"}],
            "opens_arr": [["ix", "iy"]], "id": {"x": "ix", "y": "iy"},
            "comp": {"ix,ix": "ix", "iy,iy": "iy"},
        }))
        path = tmp_path / "fun.json"
        path.write_text(json.dumps({"source": "cat.json", "target": "cat.json", "obj_map": {"x": "x", "y": "y"},
                                    "arr_rel": [["ix", "ix"], ["iy", "iy"]]}))
        code = main(["naturality", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {path}: cannot enumerate sections: object space is not Stone\n"


    @pytest.mark.parametrize("text, message", [
        ("5", ": expected a JSON object"),
        ("{nope", ":1:2: Expecting property name enclosed in double quotes"),
    ])
    def test_unreadable_file_is_bad_input(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["naturality", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {path}{message}\n"


# One object, an identity i and an arrow a, with no composite for (a, a).
MISSING_COMPOSITE = {
    "objects": ["x"], "opens_obj": [["x"]],
    "arrows": [{"name": "i", "src": "x", "tgt": "x"}, {"name": "a", "src": "x", "tgt": "x"}],
    "opens_arr": [["i"], ["a"]], "id": {"x": "i"},
    "comp": {"i,i": "i", "i,a": "a", "a,i": "a"},
}


class TestCategoryAxioms:
    """A category file that breaks the category axioms is bad input (exit 2)
    naming the broken pair, not a traceback."""

    @pytest.fixture
    def files(self, tmp_path):
        (tmp_path / "broken.cat.json").write_text(json.dumps(MISSING_COMPOSITE))
        one_arrow = {**MISSING_COMPOSITE, "arrows": MISSING_COMPOSITE["arrows"][:1],
                     "opens_arr": [["i"]], "comp": {"i,i": "i"}}
        (tmp_path / "one.cat.json").write_text(json.dumps(one_arrow))
        for name, source, target, rel in (("broken_source", "broken", "broken", [["i", "i"], ["a", "a"]]),
                                          ("broken_target", "one", "broken", [["i", "i"]])):
            (tmp_path / f"{name}.fun.json").write_text(json.dumps({
                "source": f"{source}.cat.json", "target": f"{target}.cat.json",
                "obj_map": {"x": "x"}, "arr_rel": rel}))
        return tmp_path

    @pytest.mark.parametrize("verb, file, message", [
        ("sections", "broken.cat.json", "category fails membership checks: composition defined on wrong pair (a,a)"),
        ("naturality", "broken_source.fun.json", "cannot enumerate sections: composition defined on wrong pair (a,a)"),
        ("functor-check", "broken_source.fun.json",
         "functor source is not a category: composition defined on wrong pair (a,a)"),
        ("functor-check", "broken_target.fun.json",
         "functor target is not a category: composition defined on wrong pair (a,a)"),
    ])
    def test_missing_composite_is_bad_input(self, capsys, files, verb, file, message):
        assert main([verb, str(files / file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {files / file}: {message}\n"

    CATEGORY = TestMalformedInput.CATEGORY
    # Sierpinski objects ({x} open): f runs from x to y, so the open {f}
    # goes to {y}, which is not open
    SIERPINSKI = {"objects": ["x", "y"], "opens_obj": [["x"]],
                  "arrows": [{"name": "ix", "src": "x", "tgt": "x"}, {"name": "f", "src": "x", "tgt": "y"},
                             {"name": "iy", "src": "y", "tgt": "y"}],
                  "opens_arr": [["ix"], ["f"], ["ix", "iy"]], "id": {"x": "ix", "y": "iy"},
                  "comp": {"ix,ix": "ix", "ix,f": "f", "f,iy": "f", "iy,iy": "iy"}}

    # Epimorphisms are decided only on a category, so a wrong identity is
    # reported alone; the target map of SIERPINSKI is not open, which the
    # Stone failure already covers
    @pytest.mark.parametrize("data, problems", [
        ({**CATEGORY, "id": {"x": "iy", "y": "iy"}},
         "identity of object 'x' has wrong endpoints; left unit law fails at arrow 'ix'; "
         "right unit law fails at arrow 'ix'"),
        (SIERPINSKI, "object space is not Stone"),
    ])
    def test_membership_problem_texts(self, capsys, tmp_path, data, problems):
        path = tmp_path / "c.cat.json"
        path.write_text(json.dumps(data))
        assert main(["sections", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {path}: category fails membership checks: {problems}\n"


class TestFunctorCheck:
    def test_one_category_file_is_checked_once(self, capsys, monkeypatch, tmp_path):
        """A functor whose source and target name one file holds one
        category, and functor-check checks it once."""
        from pfdual.topcat import TopCategory

        cat = fmt.load_category(DATA / "swap_const.cat.json")
        (tmp_path / "cat.json").write_text(fmt.write_category(cat))
        path = tmp_path / "id.fun.json"
        path.write_text(json.dumps({"source": "cat.json", "target": "cat.json",
                                    "obj_map": {x: x for x in cat.obj_names},
                                    "arr_rel": [[f, f] for f in cat.arr_names]}))
        calls = []
        check = TopCategory.check_category

        def counted(self):
            calls.append(self)
            return check(self)

        monkeypatch.setattr(TopCategory, "check_category", counted)
        code, out = run(capsys, "functor-check", path)
        assert code == 0, out
        assert len(calls) == 1

    def test_dual_of_inclusion(self, capsys, tmp_path):
        from pfdual import formats as fmt
        from pfdual.dualize import pf_morphism

        incl = fmt.load_homomorphism(DATA / "swap_inclusion.hom.json")
        fun = pf_morphism(incl)
        (tmp_path / "src.json").write_text(fmt.write_category(fun.source))
        (tmp_path / "tgt.json").write_text(fmt.write_category(fun.target))
        path = tmp_path / "fun.json"
        path.write_text(json.dumps(functor_to_dict(fun, "src.json", "tgt.json")))
        code, out = run(capsys, "functor-check", path, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["star_coherent"] is True and report["plain_functor"] is False
        code, out = run(capsys, "naturality", path, "--format", "json")
        assert code == 0
        assert json.loads(out)["commutes"] is True

    def test_shipped_example(self, capsys):
        """data/ holds the dual of swap_inclusion.hom.json as a functor
        file, between the category files dualize --out writes, and every
        README example on it passes."""
        from pfdual.dualize import pf_morphism, pf_object

        for name in ("swap_const", "swap_only"):
            dual = fmt.write_category(pf_object(fmt.load_algebra(DATA / f"{name}.alg.json")).category)
            assert (DATA / f"{name}.cat.json").read_text() == dual
        fun = pf_morphism(fmt.load_homomorphism(DATA / "swap_inclusion.hom.json"))
        text = (DATA / "swap_inclusion.fun.json").read_text()
        assert text == json.dumps(functor_to_dict(fun, "swap_const.cat.json", "swap_only.cat.json"), indent=2) + "\n"
        assert fmt.load_functor(DATA / "swap_inclusion.fun.json") == fun
        for argv in (["functor-check", "data/swap_inclusion.fun.json"], ["naturality", "data/swap_inclusion.fun.json"],
                     ["naturality", "data/swap_inclusion.hom.json"]):
            assert argv[1] in (DATA.parent / "README.md").read_text()
            code, out = run(capsys, *argv[:1], DATA.parent / argv[1])
            assert code == 0, out


class TestTransducerCommands:
    def test_eval(self, capsys):
        code, out = run(capsys, "transducer", "eval", DATA / "as_to_bs.td.json", "aab", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["output"] == "bb" and report["defined"] is True

    @pytest.mark.parametrize("word", ["?", "ba?"])
    def test_eval_letter_outside_the_alphabet(self, capsys, word):
        # in "ba?" the only run has died before the "?"
        path = str(DATA / "as_to_bs.td.json")
        assert main(["transducer", "eval", path, word]) == 2
        assert capsys.readouterr().err == f"error: {path}: letter '?' outside the alphabet\n"

    def test_eval_undefined(self, capsys):
        code, out = run(capsys, "transducer", "eval", DATA / "as_to_bs.td.json", "ba", "--format", "json")
        assert code == 1
        assert json.loads(out)["defined"] is False

    def test_compose_and_eval(self, capsys, tmp_path):
        out_file = tmp_path / "c.json"
        code, _ = run(capsys, "transducer", "compose",
                      DATA / "as_to_bs.td.json", DATA / "id_on_as.td.json", "--out", out_file)
        assert code == 0
        code, out = run(capsys, "transducer", "eval", out_file, "b", "--format", "json")
        assert code == 0 and json.loads(out)["output"] == ""

    @pytest.mark.parametrize("verb", ["compose", "pref"])
    @pytest.mark.parametrize("left, right", [("as_to_bs", "id_on_as"), ("id_on_as", "as_to_bs"),
                                             ("thirds", "as_to_bs"), ("as_to_bs", "thirds")])
    def test_written_machine_matches_golden_file(self, capsys, tmp_path, verb, left, right):
        """The machine file compose and pref write on the data machines and on
        the nondeterministic thirds, byte for byte as written when every
        built machine was validated (thirds: as pref_union restricted t2
        by its own product construction)."""
        def path(name):
            return (GOLDEN if name == "thirds" else DATA) / f"{name}.td.json"

        out_file = tmp_path / "m.json"
        code, _ = run(capsys, "transducer", verb, path(left), path(right), "--out", out_file)
        assert code == 0
        assert out_file.read_bytes() == (GOLDEN / f"{verb}_{left}_{right}.td.json").read_bytes()

    @pytest.mark.parametrize("verb", ["compose", "pref"])
    def test_written_machine_without_out_is_printed(self, capsys, verb):
        code, out = run(capsys, "transducer", verb, DATA / "as_to_bs.td.json", DATA / "id_on_as.td.json")
        assert code == 0
        assert out == (GOLDEN / f"{verb}_as_to_bs_id_on_as.td.json").read_text()

    def two_alphabets(self, capsys, tmp_path, verb, *options):
        """The refusal of the data machine beside a one-letter machine: it
        names the second file and the first, whose alphabet it does not
        share."""
        path = tmp_path / "a.td.json"
        path.write_text(json.dumps({"alphabet": ["a"], "states": ["s"], "initial": "s", "final": {"s": ""},
                                    "trans": []}))
        first = str(DATA / "as_to_bs.td.json")
        assert main(["transducer", verb, first, str(path), *options]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and \
            captured.err == f"error: {path}: alphabet ['a'] differs from ['a', 'b'] of {first}\n"

    def test_pref_refuses_two_alphabets(self, capsys, tmp_path):
        self.two_alphabets(capsys, tmp_path, "pref")

    @pytest.mark.parametrize("verb, options", [("compose", ()), ("axioms", ("--max-len", "-1"))])
    def test_compose_and_axioms_refuse_two_alphabets(self, capsys, tmp_path, verb, options):
        # the sweep refuses the files before it reads its bound
        self.two_alphabets(capsys, tmp_path, verb, *options)

    def test_dom_range(self, capsys, tmp_path):
        code, out = run(capsys, "transducer", "dom", DATA / "as_to_bs.td.json",
                        "--out", tmp_path / "d.json", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert "b" in report["accepted_sample"] and "" not in report["accepted_sample"]
        code, out = run(capsys, "transducer", "range", DATA / "as_to_bs.td.json", "--format", "json")
        assert code == 0
        assert "" in json.loads(out)["accepted_sample"]

    @pytest.mark.parametrize("verb", ["dom", "range"])
    @pytest.mark.parametrize("name", ["thirds", "as_to_bs"])
    def test_acceptor_matches_golden_file(self, capsys, monkeypatch, tmp_path, verb, name):
        """The acceptor file and the JSON report that dom and range write on
        the nondeterministic thirds and on a data machine, byte for byte as
        written when acceptors were a machine type of their own."""
        source = (GOLDEN if name == "thirds" else DATA) / f"{name}.td.json"
        (tmp_path / source.name).write_bytes(source.read_bytes())
        monkeypatch.chdir(tmp_path)
        code = main(["transducer", verb, source.name, "--out", "acceptor.json", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert captured.out == (GOLDEN / f"transducer_{verb}_{name}.json").read_text()
        assert (tmp_path / "acceptor.json").read_bytes() == (GOLDEN / f"{verb}_{name}.dfa.json").read_bytes()

    @pytest.mark.parametrize("verb", ["dom", "range"])
    @pytest.mark.parametrize("name", ["thirds", "as_to_bs"])
    def test_acceptor_file_reads_back(self, capsys, tmp_path, verb, name):
        """Every verb reads a written acceptor as the identity machine on its
        language: eval accepts, each word unchanged, exactly the words of the
        reported sample."""
        source = (GOLDEN if name == "thirds" else DATA) / f"{name}.td.json"
        acceptor = tmp_path / "acceptor.json"
        code, out = run(capsys, "transducer", verb, source, "--out", acceptor, "--format", "json")
        assert code == 0
        accepted = set()
        for word in td.words_upto(("a", "b"), 4):
            code, out = run(capsys, "transducer", "eval", acceptor, word, "--format", "json")
            assert code in (0, 1)
            report = json.loads(out)
            assert code == (0 if report["defined"] else 1)
            if report["defined"]:
                assert report["output"] == word
                accepted.add(word)
        assert accepted == set(json.loads((GOLDEN / f"transducer_{verb}_{name}.json").read_text())["accepted_sample"])
        assert run(capsys, "transducer", "compose", acceptor, source, "--out", tmp_path / "c.json")[0] == 0

    def test_pref(self, capsys, tmp_path):
        out_file = tmp_path / "p.json"
        code, _ = run(capsys, "transducer", "pref",
                      DATA / "id_on_as.td.json", DATA / "as_to_bs.td.json", "--out", out_file)
        assert code == 0
        code, out = run(capsys, "transducer", "eval", out_file, "aab", "--format", "json")
        assert json.loads(out)["output"] == "bb"

    def test_axioms(self, capsys):
        code, out = run(capsys, "transducer", "axioms",
                        DATA / "id_on_as.td.json", DATA / "as_to_bs.td.json",
                        "--max-len", "5", "--format", "json")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_axioms_report_matches_golden_file(self, capsys, monkeypatch):
        """The JSON report on the two data machines at L = 10, byte for byte
        as the word-by-word sweep first wrote it."""
        monkeypatch.chdir(DATA.parent)
        code = main(["transducer", "axioms", "data/id_on_as.td.json", "data/as_to_bs.td.json",
                     "--max-len", "10", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert captured.out == (GOLDEN / "transducer_axioms_data_L10.json").read_text()

    def test_nondeterministic_report_matches_golden_file(self, capsys, monkeypatch):
        """The text report on a nondeterministic machine, a^3k -> a^k with
        two runs per group of three letters, beside a data machine at L = 8,
        as the sweep wrote it when it built a table for every side.  Axiom 8
        fails at 'aaa':
        the range word a^3 comes only from a^9, past the bound."""
        monkeypatch.chdir(DATA.parent)
        code = main(["transducer", "axioms", "tests/golden/thirds.td.json", "data/as_to_bs.td.json",
                     "--max-len", "8", "--format", "text"])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        assert captured.out == (GOLDEN / "transducer_axioms_thirds_L8.text").read_text()

    # q -a-> (a|b) q, final q: the word 'a' has two outputs
    TWO_OUTPUTS = {
        "alphabet": ["a", "b"], "states": ["q"], "initial": "q", "final": {"q": ""},
        "trans": [{"from": "q", "in": "a", "out": out, "to": "q"} for out in ("a", "b")],
    }

    def test_axioms_on_non_functional_machine(self, capsys, tmp_path):
        path = tmp_path / "two_outputs.td.json"
        path.write_text(json.dumps(self.TWO_OUTPUTS))
        code = main(["transducer", "axioms", str(path), "--max-len", "4"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: not functional: input 'a' has outputs 'a' and 'b'\n"

    def test_eval_on_non_functional_machine(self, capsys, tmp_path):
        path = tmp_path / "two_outputs.td.json"
        path.write_text(json.dumps(self.TWO_OUTPUTS))
        assert main(["transducer", "eval", str(path), "a"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: not functional: input 'a' has outputs 'a' and 'b'\n"

    @pytest.mark.parametrize("bound", [5, 8, 12])
    def test_axioms_on_branching_non_functional_machine(self, capsys, tmp_path, bound):
        # q -a-> (aa|bb) q, q -b-> '' q, final output b: a composite of it
        # has exponentially many outputs per word, but 'a' already has two
        path = tmp_path / "branching.td.json"
        path.write_text(json.dumps({
            "alphabet": ["a", "b"], "states": ["q"], "initial": "q", "final": {"q": "b"},
            "trans": [{"from": "q", "in": a, "out": out, "to": "q"}
                      for a, out in (("a", "aa"), ("a", "bb"), ("b", ""))],
        }))
        start = time.perf_counter()
        code = main(["transducer", "axioms", str(path), "--max-len", str(bound)])
        assert code == 2 and time.perf_counter() - start < 0.1
        assert capsys.readouterr().err == \
            f"error: {path}: not functional: input 'a' has outputs 'aaaaaaaab' and 'aaaaaabbb'\n"

    @pytest.mark.parametrize("verb", ["compose", "axioms"])
    def test_non_functional_composite_names_a_word(self, capsys, tmp_path, verb):
        # the first machine accepts only '', with output 'a'; the second
        # reads 'a' with outputs 'a' and 'b', so the composite has both on ''
        first, second = tmp_path / "p.td.json", tmp_path / "q.td.json"
        first.write_text(json.dumps({
            "alphabet": ["a", "b"], "states": ["p"], "initial": "p", "final": {"p": "a"}, "trans": [],
        }))
        second.write_text(json.dumps({
            "alphabet": ["a", "b"], "states": ["q", "r"], "initial": "q", "final": {"r": ""},
            "trans": [{"from": "q", "in": "a", "out": out, "to": "r"} for out in ("a", "b")],
        }))
        code = main(["transducer", verb, str(first), str(second)])
        err = capsys.readouterr().err
        assert code == 2 and "<final>" not in err
        assert err == f"error: {first}, {second}: not functional: input '' has outputs 'a' and 'b'\n"

    def test_axioms_refuses_negative_bound(self, capsys):
        code = main(["transducer", "axioms", str(DATA / "as_to_bs.td.json"), "--max-len", "-1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: bound -1 is negative\n"

    @staticmethod
    def nth_file(tmp_path, n: int, antidomain: bool = False) -> str:
        """The file of nth(n), the identity on words whose n-th letter from
        the end is a (n + 1 states, a domain DFA of 2^n), or of its
        antidomain."""
        trans = {("p0", "a"): {("a", "p0"), ("a", "p1")}, ("p0", "b"): {("b", "p0")}}
        trans.update({(f"p{i}", a): {(a, f"p{i + 1}")} for i in range(1, n) for a in "ab"})
        t = td.from_names([f"p{i}" for i in range(n + 1)], "ab", "p0", trans, {f"p{n}": ""})
        path = tmp_path / f"{'a' if antidomain else 'nth'}{n}.td.json"
        path.write_text(fmt.write_transducer(td.antidomain(t) if antidomain else t))
        return str(path)

    def test_dom_refuses_too_many_states(self, capsys, tmp_path):
        """nth20's domain and range DFAs have 2^20 states: refused at once,
        naming the file."""
        path = self.nth_file(tmp_path, 20)
        for verb, op in (("dom", "domain_transducer"), ("range", "range_transducer")):
            start = time.perf_counter()
            code = main(["transducer", verb, path])
            assert code == 2 and time.perf_counter() - start < 1.0
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {path}: {op} reaches 2050 states, over the limit MAX_ELEMENTS = 2048\n"

    def test_combined_machines_over_the_limit_name_both_files(self, capsys, tmp_path):
        nth20, a11 = self.nth_file(tmp_path, 20), self.nth_file(tmp_path, 11, antidomain=True)
        assert main(["transducer", "compose", nth20, a11]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {nth20}, {a11}: compose reaches 2051 states, "
                                "over the limit MAX_ELEMENTS = 2048\n")
        ident = str(DATA / "id_on_as.td.json")
        assert main(["transducer", "pref", nth20, ident]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {nth20}, {ident}: domain_transducer reaches 2050 states, "
                                "over the limit MAX_ELEMENTS = 2048\n")

    def test_axioms_over_the_limit_name_the_file(self, capsys, tmp_path):
        """An input whose A, D or R passes the limit is named alone; a
        composite that passes it names every input of the sweep."""
        ident, nth20 = str(DATA / "id_on_as.td.json"), self.nth_file(tmp_path, 20)
        assert main(["transducer", "axioms", ident, nth20, "--max-len", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {nth20}: domain_transducer reaches 2050 states, "
                                "over the limit MAX_ELEMENTS = 2048\n")
        nth11, a11 = self.nth_file(tmp_path, 11), self.nth_file(tmp_path, 11, antidomain=True)
        assert main(["transducer", "axioms", nth11, a11, "--max-len", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {nth11}, {a11}: compose reaches 2051 states, "
                                "over the limit MAX_ELEMENTS = 2048\n")

    @pytest.mark.parametrize("bound, message", [("-1", "bound -1 is negative"),
                                                ("13", "bound 13 exceeds the limit BOUND_CAP = 12")])
    def test_bound_refusals_come_before_the_state_limit(self, capsys, tmp_path, bound, message):
        assert main(["transducer", "axioms", self.nth_file(tmp_path, 20), "--max-len", bound]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("count", [2048, 2049])
    def test_machine_file_states_are_bounded(self, capsys, tmp_path, count):
        path = tmp_path / "many.td.json"
        states = [f"s{i}" for i in range(count)]
        path.write_text(json.dumps({"alphabet": ["a"], "states": states, "initial": "s0", "final": {"s0": ""},
                                    "trans": [{"from": q, "in": "a", "out": "a", "to": q} for q in states]}))
        code = main(["transducer", "eval", str(path), "aa"])
        captured = capsys.readouterr()
        if count == 2048:
            assert code == 0 and captured.err == ""
        else:
            assert code == 2 and captured.out == ""
            assert captured.err == f"error: {path}: 2049 states exceed the limit MAX_ELEMENTS = 2048\n"

    def test_axioms_refuses_too_many_words(self, capsys, tmp_path):
        # one state over 26 letters: 12,356,631 words up to length 5
        letters = [chr(ord("a") + i) for i in range(26)]
        path = tmp_path / "id26.td.json"
        path.write_text(json.dumps({
            "alphabet": letters, "states": ["q"], "initial": "q", "final": {"q": ""},
            "trans": [{"from": "q", "in": a, "out": a, "to": "q"} for a in letters],
        }))
        start = time.perf_counter()
        code = main(["transducer", "axioms", str(path), "--max-len", "5"])
        assert code == 2 and time.perf_counter() - start < 1.0
        assert "exceed MAX_WORDS = 1048576" in capsys.readouterr().err


def subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def parse_outcome(capsys, parser: argparse.ArgumentParser, argv: list[str]):
    """Exit code (None when parsing succeeds), stdout, stderr and the parsed
    arguments of parser on argv."""
    try:
        args, code = vars(parser.parse_args(argv)), None
    except SystemExit as e:
        args, code = None, e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, args


FULL_PARSER = _build_parser()
VERB_NAMES = list(subcommands(FULL_PARSER))
TRANSDUCER_NAMES = list(subcommands(subcommands(FULL_PARSER)["transducer"]))

# Tokens a generated command line draws on: the table's words, and forms
# argparse reads otherwise (abbreviations, --name=value, negative numbers,
# --, -h) or refuses.
ARGV_TOKENS = (
    *VERBS, *TRANSDUCER_VERBS, "--format", "--out", "--dot", "--max-len",
    "--form", "--format=json", "--max-len=3", "-h", "--help", "--", "-", "-x", "",
    "text", "json", "xml", "5", "-1", "08", " 7", "+3", "1_0", "x", "a.json", "b c",
)
PLAIN_TOKENS = ("a.json", "b", "c", "--format", "json", "--out", "--max-len", "5")


def random_argv(rng: random.Random) -> list[str]:
    """A verb (and subverb) most of the time, then up to five tokens, half
    of them from the forms a plain command line uses."""
    argv = []
    if rng.random() < 0.9:
        argv.append(rng.choice(list(VERBS)))
        if argv[0] == "transducer" and rng.random() < 0.9:
            argv.append(rng.choice(list(TRANSDUCER_VERBS)))
    for _ in range(rng.randrange(6)):
        argv.append(rng.choice(PLAIN_TOKENS if rng.random() < 0.5 else ARGV_TOKENS))
    return argv


class TestParserPerVerb:
    """A plain command line is read from the verb tables into the
    attributes the full parser sets; help and usage errors are the full
    parser's, through main."""

    @pytest.mark.parametrize("argv", [
        ["-h"],
        *([verb, "-h"] for verb in VERB_NAMES),
        *(["transducer", sub, "-h"] for sub in TRANSDUCER_NAMES),
        ["nope"],
        ["transducer", "nope"],
        ["transducer"],
        ["check-axioms"],
        ["transducer", "eval", "m.td.json"],
        ["bidual", "a.json", "--format", "xml"],
        ["check-axioms", "a.json", "extra"],
        ["dualize", "a.json", "--out", "d.json", "--format", "json"],
        ["transducer", "axioms", "m.td.json", "n.td.json", "--max-len", "5"],
        ["transducer", "axioms", "--max-len", "5", "m.td.json", "--max-len", "6"],
        ["transducer", "axioms", "a", "b", "--format", "json", "c"],
        ["transducer", "axioms", "a", "--max-len", "five"],
        ["dualize", "a.json", "--out"],
    ], ids=" ".join)
    def test_matches_the_full_parser(self, capsys, argv):
        code, out, err, args = parse_outcome(capsys, FULL_PARSER, argv)
        if code is None:
            assert _parse(argv) == args
            return
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        captured = capsys.readouterr()
        assert (exit_.value.code, captured.out, captured.err) == (code, out, err)

    @pytest.mark.parametrize("seed", range(3))
    def test_table_reading_agrees_with_the_full_parser(self, capsys, seed):
        """On generated command lines the table either declines or reads
        what the full parser reads, and declines whatever it refuses."""
        rng = random.Random(seed)
        accepted = 0
        for _ in range(1500):
            argv = random_argv(rng)
            parsed = _parse(argv)
            if parsed is None:
                continue
            accepted += 1
            code, _, _, args = parse_outcome(capsys, FULL_PARSER, argv)
            assert (code, parsed) == (None, args), argv
        assert accepted >= 100

    @pytest.mark.parametrize("argv, plain", [
        (["check-axioms", "--form", "json", "S"], ["check-axioms", "S", "--format", "json"]),
        (["check-axioms", "--format=json", "S"], ["check-axioms", "S", "--format", "json"]),
        (["check-axioms", "--", "S"], ["check-axioms", "S"]),
        (["transducer", "eval", "T", "--format", "json", "ab"], ["transducer", "eval", "T", "ab", "--format", "json"]),
        (["transducer", "axioms", "T", "--max-len=2"], ["transducer", "axioms", "T", "--max-len", "2"]),
    ], ids=lambda argv: " ".join(argv))
    def test_other_accepted_forms_go_to_argparse(self, capsys, argv, plain):
        files = {"S": str(DATA / "swap_const.alg.json"), "T": str(DATA / "as_to_bs.td.json")}
        argv, plain = ([files.get(a, a) for a in args] for args in (argv, plain))
        assert _parse(argv) is None and _parse(plain) is not None
        outcomes = []
        for args in (argv, plain):
            code = main(args)
            outcomes.append((code, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]

    def test_plain_command_imports_no_argparse(self):
        script = ("import contextlib, io, sys\n"
                  "from pfdual.cli import main\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    code = main(['check-axioms', 'data/swap_const.alg.json'])\n"
                  "print(code, sorted({'argparse', 'gettext'} & set(sys.modules)))\n")
        env = {**os.environ, "PYTHONPATH": "src"}
        result = subprocess.run([sys.executable, "-c", script], cwd=DATA.parent, env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout == "0 []\n"

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        expected = parse_outcome(capsys, FULL_PARSER, ["bidual", "-h"])
        monkeypatch.setattr(sys, "argv", ["pfdual", "bidual", "-h"])
        with pytest.raises(SystemExit) as exit_:
            main()
        captured = capsys.readouterr()
        assert (exit_.value.code, captured.out, captured.err) == expected[:3]
        monkeypatch.setattr(sys, "argv", ["pfdual", "check-axioms", str(DATA / "swap_const.alg.json")])
        assert run(capsys, "check-axioms", DATA / "swap_const.alg.json") == (main(), capsys.readouterr().out)

    def test_readme_lists_every_verb(self):
        """The README's command-line block names exactly the registered
        verbs and transducer subverbs."""
        text = (DATA.parent / "README.md").read_text()
        block = text[text.index("## Command line"):]
        block = block[block.index("```\n") + 4:]
        lines = block[:block.index("```")].splitlines()
        assert all(line.startswith("pfdual ") for line in lines)
        words = [line.split()[1:3] for line in lines]
        assert sorted({verb for verb, _ in words}) == sorted(VERB_NAMES)
        subverbs = [name for verb, sub in words if verb == "transducer" for name in sub.split("|")]
        assert sorted(subverbs) == sorted(TRANSDUCER_NAMES)
