"""The exit-code contract under mutated input: each shipped data file, edited
at one place by a fixed seed, is run through its verb in process.  Every
run exits 0, 1 or 2, raises nothing out of `main`, and refuses in one line
that begins `error: ` and a file: the mutant, or one it names in its folder.
Each data file with a member nested too deeply is refused the same way."""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import time
from pathlib import Path
from typing import Any, Iterator

from pfdual.cli import main

DATA = Path(__file__).resolve().parent.parent / "data"
CASES = 300
DEPTH = 100_000  # lists nested deeper than the JSON decoder's recursion limit

# The verb of each kind of data file, by the suffix before .json; FILE is the mutant.
VERBS = {
    "alg": ("check-axioms", "FILE"),
    "cat": ("sections", "FILE"),
    "hom": ("hom-check", "FILE"),
    "fun": ("functor-check", "FILE"),
    "td": ("transducer", "axioms", "FILE", "--max-len", "3"),
}
# One value of each JSON type: null, boolean, number, string, list, object.
VALUES = (None, True, 0, "zz", ["zz"], {"zz": "zz"})


def json_type(value: Any) -> str:
    if isinstance(value, bool):
        return "boolean"
    return "number" if isinstance(value, (int, float)) else type(value).__name__


def places(value: Any, path: tuple = ()) -> Iterator[tuple]:
    """The path of value and of every value inside it, outermost first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield from places(inner, (*path, key))


def mutate(data: Any, rng: random.Random) -> Any:
    """data edited at one place: a value replaced by one of another JSON
    type, a string respelled (so a file name can name a missing file), a key
    of an object deleted, or a key "zz" added to an object with the value of
    one of its keys."""
    paths = list(places(data))
    objects = [p for p in paths if isinstance(at(data, p), dict)]
    members = [p for p in paths if p and isinstance(at(data, p[:-1]), dict)]
    strings = [p for p in paths if p and isinstance(at(data, p), str)]
    how = rng.choice(["replace", "respell", "delete", "add"])
    if how == "respell" and strings:
        path = rng.choice(strings)
        at(data, path[:-1])[path[-1]] += "z"
    elif how == "delete" and members:
        path = rng.choice(members)
        del at(data, path[:-1])[path[-1]]
    elif how == "add" and objects:
        target = at(data, rng.choice(objects))
        target["zz"] = rng.choice(list(target.values())) if target else "zz"
    else:
        path = rng.choice(paths)
        value = rng.choice([v for v in VALUES if json_type(v) != json_type(at(data, path))])
        if not path:
            return value
        at(data, path[:-1])[path[-1]] = value
    return data


def at(data: Any, path: tuple) -> Any:
    for key in path:
        data = data[key]
    return data


def test_mutated_data_files(tmp_path):
    shutil.copytree(DATA, tmp_path, dirs_exist_ok=True)
    sources = sorted(DATA.glob("*.json"))
    rng = random.Random(0)
    start = time.perf_counter()
    for _ in range(CASES):
        source = rng.choice(sources)
        kind = source.name.split(".")[-2]
        text = json.dumps(mutate(json.loads(source.read_text(encoding="utf-8")), rng))
        path = tmp_path / f"mutant.{kind}.json"
        path.write_text(text, encoding="utf-8")
        argv = [str(path) if a == "FILE" else a for a in VERBS[kind]]
        case = f"{' '.join(argv)} on {text}"
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        except Exception as e:
            raise AssertionError(f"{case} raised {e!r}") from e
        assert code in (0, 1, 2), case
        if code == 2:
            # the mutant's folder: the mutant itself, or a file it names there
            named = err.getvalue().startswith(f"error: {tmp_path}{os.sep}")
            assert named and err.getvalue().count("\n") == 1, (case, err.getvalue())
    assert time.perf_counter() - start < 2


def test_too_deep_data_files(tmp_path):
    """Each data file with one more member, DEPTH lists deep, exits 2
    naming itself, not 1 with a traceback."""
    for source in sorted(DATA.glob("*.json")):
        kind = source.name.split(".")[-2]
        text = json.dumps(json.loads(source.read_text(encoding="utf-8")))
        path = tmp_path / f"deep.{kind}.json"
        path.write_text(f'{text[:-1]}, "zz": {"[" * DEPTH}{"]" * DEPTH}}}', encoding="utf-8")
        argv = [str(path) if a == "FILE" else a for a in VERBS[kind]]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert (code, err.getvalue()) == (2, f"error: {path}: JSON nested too deeply\n"), source.name
