"""The committed parity slice: fixed pfdual command lines whose results must
not change.

tests/parity/commands.txt lists the command lines, run in order from one
workspace; tests/parity/manifest.txt holds one SHA-256 a command, taken over
its exit code, standard output, standard error and the files it writes.  A
change that means to alter some output rewrites the manifest with

    PYTHONPATH=src python tests/test_parity.py --write

and says which lines moved and why.  With --diff instead, the script prints
each command line whose digest differs from the manifest, and exits 1 if
any does."""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

from pfdual.cli import main

ROOT = Path(__file__).resolve().parent.parent
PARITY = ROOT / "tests" / "parity"
COMMANDS = PARITY / "commands.txt"
MANIFEST = PARITY / "manifest.txt"


def command_lines() -> list[str]:
    lines = COMMANDS.read_text(encoding="utf-8").splitlines()
    return [line for line in lines if line and not line.startswith("#")]


def abstract_file(k: int) -> str:
    """The abstract algebra file of all partial functions on k points, laid
    out as pfdual writes it."""
    functions = list(itertools.product([None, *range(k)], repeat=k))
    names = {f: "f" + "".join("_" if y is None else str(y + 1) for y in f) for f in functions}

    def table(op) -> list[list[str]]:
        return [[names[op(f, g)] for g in functions] for f in functions]

    return json.dumps({
        "elements": list(names.values()),
        "compose": table(lambda f, g: tuple(None if y is None else g[y] for y in f)),
        "antidomain": [names[tuple(x if y is None else None for x, y in enumerate(f))] for f in functions],
        "range": [names[tuple(x if x in f else None for x in range(k))] for f in functions],
        "pref": table(lambda f, g: tuple(g[x] if y is None else y for x, y in enumerate(f))),
    }, indent=2) + "\n"


def malformed(alg: str, cat: str) -> dict[str, str]:
    """Files that are faulty, or laid out otherwise than pfdual writes them,
    by name under bad/: an algebra from alg and a category from cat, and
    homomorphisms and functors from those files (abstract2.alg.json and
    tests/golden/swap_const.cat.json) to themselves, each using a name its
    source or target does not list, one homomorphism whose source file is
    missing, and one functor whose source file is nested too deeply."""
    def too_deep(text: str) -> str:
        """text with one more member, nested deeper than the JSON decoder's recursion limit."""
        return text.rstrip()[:-1] + ', "zz": ' + "[" * 100_000 + "]" * 100_000 + "}"

    def reordered(text: str, first: str) -> str:
        data = json.loads(text)
        return json.dumps({first: data.pop(first), **data}, indent=2)

    def edited(text: str, edit) -> str:
        data = json.loads(text)
        edit(data)
        return json.dumps(data, indent=2)

    def nonassociative(d: dict) -> None:
        """Give p_s's object a third arrow p_t, with p_s*p_s = p_t, p_s*p_t =
        p_s and p_t*p_s = p_t*p_t = p_t: endpoints and unit laws hold, and
        (p_s*p_s)*p_s != p_s*(p_s*p_s)."""
        d["arrows"].append({"name": "p_t", "src": "u_e12", "tgt": "u_e12"})
        d["opens_arr"].append(["p_t"])
        d["comp"].update({"p_e12,p_t": "p_t", "p_t,p_e12": "p_t", "p_s,p_s": "p_t", "p_s,p_t": "p_s",
                          "p_t,p_s": "p_t", "p_t,p_t": "p_t", "p_t,p_c": "p_c"})

    def wrong_pair(d: dict) -> None:
        nonassociative(d)
        d["comp"]["p_c,p_s"] = "p_c"

    elements, objects = json.loads(alg)["elements"], json.loads(cat)["objects"]
    arrows = [a["name"] for a in json.loads(cat)["arrows"]]
    arrow = arrows[0]
    algebra, category = "../abstract2.alg.json", "../tests/golden/swap_const.cat.json"
    return {
        "truncated.alg.json": alg[:len(alg) // 2],
        "bom.alg.json": "\ufeff" + alg,
        "order.alg.json": reordered(alg, "compose"),
        "repeated.alg.json": alg.replace('\n  "range"', '\n  "pref": 5,\n  "range"', 1),
        "extra.alg.json": edited(alg, lambda d: d.__setitem__("note", [1])),
        "unknown.alg.json": edited(alg, lambda d: d["pref"][2].__setitem__(1, "nope")),
        "short.alg.json": edited(alg, lambda d: d["compose"][1].pop()),
        "truncated.cat.json": cat[:len(cat) * 2 // 3],
        "bom.cat.json": "\ufeff" + cat,
        "order.cat.json": reordered(cat, "comp"),
        "repeated.cat.json": cat.replace('\n  "comp"', '\n  "comp": {},\n  "comp"', 1),
        "extra.cat.json": edited(cat, lambda d: d.__setitem__("note", {})),
        "unknown.cat.json": edited(cat, lambda d: d["comp"].__setitem__(f"{arrow},{arrow}", "zz")),
        "nocomma.cat.json": edited(cat, lambda d: d["comp"].__setitem__(arrow, arrow)),
        "nonassoc.cat.json": edited(cat, nonassociative),
        "wrongpair.cat.json": edited(cat, wrong_pair),
        "unit.cat.json": edited(cat, lambda d: d["comp"].__setitem__("p_e12,p_s", "p_e12")),
        "srcobject.cat.json": edited(cat, lambda d: d["arrows"][0].__setitem__("src", "zz")),
        "idarrow.cat.json": edited(cat, lambda d: d["id"].__setitem__(d["objects"][0], "zz")),
        "idextra.cat.json": edited(cat, lambda d: d["id"].__setitem__("zz", d["id"][d["objects"][0]])),
        "idmissing.cat.json": edited(cat, lambda d: d["id"].pop(d["objects"][-1])),
        "unknown.hom.json": json.dumps({"source": algebra, "target": algebra,
                                        "map": {**{e: e for e in elements}, elements[1]: "zz"}}, indent=2),
        "extramap.hom.json": json.dumps({"source": algebra, "target": algebra,
                                         "map": {**{e: e for e in elements}, "zz": elements[1]}}, indent=2),
        "nosource.hom.json": json.dumps({"source": "missing.alg.json", "target": algebra,
                                         "map": {e: e for e in elements}}, indent=2),
        "unknown.fun.json": json.dumps({"source": category, "target": category, "obj_map": {x: x for x in objects},
                                        "arr_rel": [[arrow, arrow], [arrow, "zz"]]}, indent=2),
        "extraobj.fun.json": json.dumps({"source": category, "target": category,
                                         "obj_map": {**{x: x for x in objects}, "zz": objects[0]},
                                         "arr_rel": [[a, a] for a in arrows]}, indent=2),
        "deep.alg.json": too_deep(alg),
        "deep.cat.json": too_deep(cat),
        "deepsource.fun.json": json.dumps({"source": "deep.cat.json", "target": category,
                                           "obj_map": {x: x for x in objects}, "arr_rel": []}, indent=2),
    }


def identities(k: int, stone: bool) -> str:
    """The category file of k objects and their identities, 2^k sections:
    discrete, or with one open holding every object when stone is False."""
    objs = [f"x{i}" for i in range(k)]
    return json.dumps({
        "objects": objs,
        "opens_obj": [[x] for x in objs] if stone else [objs],
        "arrows": [{"name": f"i{x}", "src": x, "tgt": x} for x in objs],
        "opens_arr": [[f"i{x}"] for x in objs],
        "id": {x: f"i{x}" for x in objs},
        "comp": {f"i{x},i{x}": f"i{x}" for x in objs},
    }, indent=2)


# q -a-> (aa|bb) q, q -b-> '' q, final output b: not functional, so a
# composite that reads a's in a final output has two outputs there
BRANCHING = {
    "alphabet": ["a", "b"], "states": ["q"], "initial": "q", "final": {"q": "b"},
    "trans": [{"from": "q", "in": a, "out": out, "to": "q"} for a, out in (("a", "aa"), ("a", "bb"), ("b", ""))],
}


def make_workspace(work: Path) -> None:
    """Copy data/, tests/golden/ and the machines of tests/parity/ into
    work, write the concrete algebras of all partial functions on 3 and 4
    points, the identity homomorphism of the one on 4 points, the abstract
    one on 2 points, the categories of 12 identities, the machine
    BRANCHING, and under bad/ the files of `malformed`."""
    shutil.copytree(ROOT / "data", work / "data")
    shutil.copytree(ROOT / "tests" / "golden", work / "tests" / "golden")
    shutil.copytree(PARITY, work / "tests" / "parity", ignore=shutil.ignore_patterns("*.txt"))
    (work / "out").mkdir()
    for k in (3, 4):
        points = [str(p) for p in range(1, k + 1)]
        functions = {}
        for images in itertools.product([None, *points], repeat=k):
            name = "f" + "".join(y or "_" for y in images)
            functions[name] = {x: y for x, y in zip(points, images) if y is not None}
        (work / f"all{k}.alg.json").write_text(json.dumps({"base": points, "functions": functions}), encoding="utf-8")
    identity = {"source": "all4.alg.json", "target": "all4.alg.json", "map": {f: f for f in functions}}
    (work / "all4_id.hom.json").write_text(json.dumps(identity), encoding="utf-8")
    (work / "ids12.cat.json").write_text(identities(12, True), encoding="utf-8")
    (work / "ids12_indiscrete.cat.json").write_text(identities(12, False), encoding="utf-8")
    (work / "branching.td.json").write_text(json.dumps(BRANCHING), encoding="utf-8")
    alg = abstract_file(2)
    (work / "abstract2.alg.json").write_text(alg, encoding="utf-8")
    (work / "bad").mkdir()
    cat = (ROOT / "tests" / "golden" / "swap_const.cat.json").read_text(encoding="utf-8")
    for name, text in malformed(alg, cat).items():
        (work / "bad" / name).write_text(text, encoding="utf-8")


def digest(line: str) -> str:
    """Run one command line in the current directory; the SHA-256 of its
    exit code, output, errors and every file named after --out or --dot."""
    argv = line.split()
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    # argparse wraps a usage message to the terminal's width, and exits instead of returning
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    out.flush()
    err.flush()
    written = [argv[i + 1] for i, a in enumerate(argv[:-1]) if a in ("--out", "--dot")]
    parts = [str(code).encode(), out.buffer.getvalue(), err.buffer.getvalue()]
    for name in written:
        path = Path(name)
        parts += [name.encode(), path.read_bytes() if path.exists() else b""]
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def run_slice(work: Path) -> list[tuple[str, str]]:
    """The (digest, command line) of every command, run in order in work."""
    make_workspace(work)
    here = os.getcwd()
    os.chdir(work)
    try:
        return [(digest(line), line) for line in command_lines()]
    finally:
        os.chdir(here)


def read_manifest() -> list[tuple[str, str]]:
    return [tuple(line.split("  ", 1)) for line in MANIFEST.read_text(encoding="utf-8").splitlines()]


def test_slice_matches_manifest(tmp_path):
    start = time.perf_counter()
    got = run_slice(tmp_path)
    elapsed = time.perf_counter() - start
    expected = read_manifest()
    assert [line for _, line in got] == [line for _, line in expected]
    assert [line for (h, line), (e, _) in zip(got, expected) if h != e] == []
    assert elapsed < 5


if __name__ == "__main__":
    if sys.argv[1:] not in (["--write"], ["--diff"]):
        sys.exit("usage: python tests/test_parity.py --write | --diff")
    with tempfile.TemporaryDirectory() as work:
        rows = run_slice(Path(work))
    if sys.argv[1] == "--diff":
        expected = read_manifest()
        moved = [line for i, (h, line) in enumerate(rows) if expected[i:i + 1] != [(h, line)]]
        for line in moved:
            print(line)
        sys.exit(1 if moved else 0)
    MANIFEST.write_text("".join(f"{h}  {line}\n" for h, line in rows), encoding="utf-8")
