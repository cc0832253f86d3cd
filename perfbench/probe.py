"""Set-up probe: a fresh interpreter imports pfdual, reads the inputs of a
workload's first verdict, prints "ready" and exits.  The benchmark times
it from launch to that line.  Reading the inputs is timed here too, with
the speed sampler, and reported on the "ready" line as JSON: the raw and
scaled time of the reading and the time spent in speed samples.

    python3 perfbench/probe.py algebra FILE
    python3 perfbench/probe.py transducers FILE...
    python3 perfbench/probe.py pool POOL_FILE
"""

import json
import sys
from pathlib import Path

from speed import Sampler

sys.path.insert(0, str(Path.cwd() / "src"))

import pfdual  # noqa: E402,F401  (the whole package, as a user imports it)
from pfdual import formats  # noqa: E402


def main(argv: list[str]) -> int:
    sampler = Sampler()
    with sampler:
        load(argv[0], argv[1:])
    report = {"load_raw_s": sampler.timed.raw_s, "load_scaled_s": sampler.timed.scaled_s,
              "samples_s": sum(sampler.samples)}
    print("ready " + json.dumps(report), flush=True)
    return 0


def load(kind: str, paths: list[str]) -> None:
    if kind == "algebra":
        formats.load_algebra(paths[0])
    elif kind == "transducers":
        for path in paths:
            formats.load_transducer(path)
    elif kind == "pool":
        from inputs import load_pool

        load_pool(paths[0])
    else:
        raise SystemExit(f"unknown input kind {kind!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
