"""Benchmark of the pfdual duality pipeline, axiom checker and transducer oracles.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a pfdual checkout; pfdual is imported from ./src.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the run makes one untraced and one traced
pass and reports the per-layer metrics and the tracing overhead.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

import corpus
from procs import measure_setup, median, run_in_child
from workloads import RUNNERS

# One pass over a corpus takes about this many reference-speed seconds; a
# run makes round(seconds / PASS_NOMINAL_S) passes, and at least one.
PASS_NOMINAL_S = 10
SETUP_SAMPLES = 11
# Set iteration order inside pfdual depends on the hash seed; fixing it
# keeps the program's work the same from run to run.
HASH_SEED = "0"

END_TO_END_UNITS = {"verdict_p50_s": "s", "corpus_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "pfdual" / "__init__.py").is_file():
        sys.stderr.write("error: run from the root of a pfdual checkout (no src/pfdual here)\n")
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path.insert(0, str(root / "src"))

    workdir = root / "perfbench" / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, root: Path, workdir: Path) -> int:
    generate = corpus.GENERATORS[args.workload]
    manifest = run_in_child(lambda: generate(args.seed, root, workdir))
    if "error" in manifest:
        raise RuntimeError(f"corpus generation failed: {manifest['error']}")
    print(f"workload {args.workload}, seed {args.seed}: {len(manifest['verdicts'])} verdicts per pass")
    print(f"corpus: {json.dumps(manifest['info'])}")

    setup = measure_setup(root, manifest["probe"], SETUP_SAMPLES)
    start = time.perf_counter()
    import pfdual.cli  # noqa: F401  (verdict children are forked with pfdual loaded)
    print(f"import pfdual: {time.perf_counter() - start:.4f} s in this process")
    pfdual_file = Path(sys.modules["pfdual"].__file__).resolve()
    if not pfdual_file.is_relative_to(root / "src"):
        raise RuntimeError(f"imported pfdual from {pfdual_file}, not from this checkout")

    runner = RUNNERS[args.workload]
    passes = 1 if args.trace else max(1, round(args.seconds / PASS_NOMINAL_S))
    results = [runner(manifest) for _ in range(passes)]
    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        traced = runner(manifest, tracer)
        results.append(traced)

    attempted = sum(len(r.raw_s) for r in results)
    errors = [e for r in results for e in r.errors]
    for e in errors:
        print(f"FAILED {e}")
    untraced = results[:passes]
    end_to_end = {
        "verdict_p50_s": median([t for r in untraced for t in r.scaled_s]),
        "corpus_s": median([r.corpus_s for r in untraced]),
        "setup_s": median([t.scaled_s for t in setup]),
        "peak_rss_mb": max(r.rss_mb for r in untraced),
    }
    print(f"passes: {passes} untraced{' + 1 traced' if args.trace else ''}, "
          f"verdicts: {attempted} attempted, {len(errors)} failed")
    print(f"verdict_p50_s: {end_to_end['verdict_p50_s']:.4f} scaled, "
          f"{median([t for r in untraced for t in r.raw_s]):.4f} raw, "
          f"over {sum(len(r.raw_s) for r in untraced)} verdicts")
    print(f"corpus_s: {end_to_end['corpus_s']:.4f} scaled, "
          f"{median([r.corpus_raw_s for r in untraced]):.4f} raw")
    print(f"setup_s: {end_to_end['setup_s']:.4f} scaled, "
          f"{median([t.raw_s for t in setup]):.4f} raw, over {len(setup)} launches")
    print(f"peak_rss_mb: {end_to_end['peak_rss_mb']:.1f}")

    if args.trace:
        metrics = layer_metrics(traced.layers)
        overhead = traced.corpus_s - results[0].corpus_s
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        for name, m in metrics.items():
            print(f"  {name}: {m['value']:.6g} {m['unit']}")
        print(f"tracing overhead: traced corpus_s {traced.corpus_s:.4f} - "
              f"untraced {results[0].corpus_s:.4f} = {overhead:.4f} s")
        out = root / "perfbench" / "_out" / f"trace-{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                   "verdicts": traced.spans}))
        print(f"spans written to {out.relative_to(root)}")
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end.items()}

    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": len(errors), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
