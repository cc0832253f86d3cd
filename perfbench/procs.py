"""Process helpers: forked verdict children and timed fresh interpreters."""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

from speed import Timed


def peak_rss_mb() -> float:
    """Highest resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_in_child(fn: Callable[[], object]) -> object:
    """Run fn in a forked child and return its JSON-serialisable result.

    The child starts from this process's state (modules already imported,
    no verdict run yet) and exits after fn; its caches die with it.  An
    exception in the child comes back as {"error": "..."}.  The child's
    peak RSS is added to a dict result under "rss_mb".
    """
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(rfd)
        code = 0
        try:
            result = fn()
            if isinstance(result, dict):
                result["rss_mb"] = peak_rss_mb()
            payload = json.dumps(result)
        except BaseException as e:  # reported to the parent, never re-raised
            payload = json.dumps({"error": f"{type(e).__name__}: {e}"})
            code = 1
        with os.fdopen(wfd, "wb") as out:
            out.write(payload.encode())
        os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as inp:
        data = inp.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        return {"error": f"child exited with status {status} and no result"}
    return json.loads(data)


# A fresh interpreter that imports a fixed set of standard modules, and how
# long it takes at the nominal speed.  Starting an interpreter and importing
# modules is mostly system calls, unmarshalling and module bodies, which the
# reference loop does not track; another launch does.
REFERENCE_LAUNCH = ("import argparse, dataclasses, fractions, json, pathlib, typing; "
                    "print('ready', flush=True)")
NOMINAL_LAUNCH_S = 0.060


def _launch(cmd: list[str], root: Path) -> tuple[float, str]:
    """Seconds from starting cmd until it prints its "ready" line, and the
    rest of that line."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    took = time.perf_counter() - start
    rest = proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or not line.startswith("ready"):
        raise RuntimeError(f"{cmd[1]} failed: {line!r}{rest!r}")
    return took, line[len("ready"):].strip()


def measure_setup(root: Path, probe_args: list[str], samples: int) -> list[Timed]:
    """Time fresh interpreters from launch until the probe reports that
    pfdual is imported and the first verdict's inputs are loaded.

    The probe times its reading of the inputs with the speed sampler; the
    rest of each launch (interpreter start and imports) is scaled by the
    reference launches just before and after it.  One launch of each before
    the samples fills the bytecode cache, so that every sample is a warm start.
    """
    probe = [sys.executable, str(root / "perfbench" / "probe.py"), *probe_args]
    reference = [sys.executable, "-c", REFERENCE_LAUNCH]
    _launch(probe, root)
    before, _ = _launch(reference, root)
    out = []
    for _ in range(samples):
        wall, line = _launch(probe, root)
        after, _ = _launch(reference, root)
        ref = (before + after) / 2
        load = json.loads(line)
        start_s = wall - load["load_raw_s"] - load["samples_s"]
        out.append(Timed(start_s + load["load_raw_s"],
                         start_s * NOMINAL_LAUNCH_S / ref + load["load_scaled_s"], ref))
        before = after
    return out


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
