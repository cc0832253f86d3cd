"""The committed parity slice: fixed pfdual command lines whose results must
not change.

tests/parity/commands.txt lists the command lines, run in order from one
workspace; tests/parity/manifest.txt holds one SHA-256 a command, taken over
its exit code, standard output, standard error and the files it writes.  A
change that means to alter some output rewrites the manifest with

    PYTHONPATH=src python tests/test_parity.py --write

and says which lines moved and why."""

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

from pfdual.cli import main

ROOT = Path(__file__).resolve().parent.parent
PARITY = ROOT / "tests" / "parity"
COMMANDS = PARITY / "commands.txt"
MANIFEST = PARITY / "manifest.txt"


def command_lines() -> list[str]:
    lines = COMMANDS.read_text(encoding="utf-8").splitlines()
    return [line for line in lines if line and not line.startswith("#")]


def make_workspace(work: Path) -> None:
    """Copy data/ and tests/golden/ into work, and write the concrete
    algebras of all partial functions on 3 and 4 points."""
    shutil.copytree(ROOT / "data", work / "data")
    shutil.copytree(ROOT / "tests" / "golden", work / "tests" / "golden")
    (work / "out").mkdir()
    for k in (3, 4):
        points = [str(p) for p in range(1, k + 1)]
        functions = {}
        for images in itertools.product([None, *points], repeat=k):
            name = "f" + "".join(y or "_" for y in images)
            functions[name] = {x: y for x, y in zip(points, images) if y is not None}
        (work / f"all{k}.alg.json").write_text(json.dumps({"base": points, "functions": functions}), encoding="utf-8")


def digest(line: str) -> str:
    """Run one command line in the current directory; the SHA-256 of its
    exit code, output, errors and every file named after --out or --dot."""
    argv = line.split()
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
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
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_parity.py --write")
    with tempfile.TemporaryDirectory() as work:
        rows = run_slice(Path(work))
    MANIFEST.write_text("".join(f"{h}  {line}\n" for h, line in rows), encoding="utf-8")
