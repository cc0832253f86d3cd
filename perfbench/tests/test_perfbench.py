"""Tests of the benchmark: tiny corpora end to end, the oracles against
planted wrong answers and against pfdual, the tracer, and the timing."""

import argparse
import io
import json
import random
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout

import pytest

import corpus
import oracles
import run
import speed
import workloads
from conftest import ROOT
from procs import run_in_child


def _manifest(name, root, workdir, seed=3):
    return run_in_child(lambda: corpus.GENERATORS[name](seed, root, workdir))


def _cli(argv):
    from pfdual import cli

    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


# ---------------------------------------------------------------------------
# Tiny corpora, end to end
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(corpus.GENERATORS))
def test_tiny_workload_passes_every_oracle(name, tiny, in_root, workdir):
    manifest = _manifest(name, in_root, workdir)
    assert "error" not in manifest
    result = workloads.RUNNERS[name](manifest)
    assert result.errors == []
    assert len(result.scaled_s) == len(manifest["verdicts"]) > 0
    assert all(t > 0 for t in result.scaled_s)
    assert result.rss_mb > 0


def test_same_seed_same_inputs(tiny, in_root, workdir):
    first = _manifest("axioms-large", in_root, workdir, seed=5)
    files = {p.name: p.read_bytes() for p in workdir.iterdir()}
    second = _manifest("axioms-large", in_root, workdir, seed=5)
    first.pop("rss_mb"), second.pop("rss_mb")
    assert first == second
    assert files == {p.name: p.read_bytes() for p in workdir.iterdir()}


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_result_line(trace, tiny, in_root, workdir):
    args = argparse.Namespace(workload="bidual-cold", seed=2, seconds=1, trace=trace)
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.run(args, in_root, workdir) == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert result["metrics"]["dualize.pf_object_calls"]["value"] > 0
        assert result["metrics"]["topcat.opens_generated"]["value"] > 0
        assert "tracing overhead" in out.getvalue()
        (in_root / "perfbench" / "_out" / "trace-bidual-cold-seed2.json").unlink()
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_untraced_run_never_loads_the_tracer(tmp_path):
    script = (
        "import argparse, sys, io, contextlib, pathlib\n"
        "sys.path[:0] = ['perfbench', 'src']\n"
        "import corpus, run\n"
        "corpus.TRANSDUCER_PROFILE = ((None, None, 3),)\n"
        "work = pathlib.Path('perfbench/_work/untraced-test'); work.mkdir(parents=True)\n"
        "args = argparse.Namespace(workload='transducer-bounded', seed=1, seconds=1, trace=0)\n"
        "try:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        run.run(args, pathlib.Path.cwd(), work)\n"
        "finally:\n"
        "    import shutil; shutil.rmtree(work)\n"
        "print('tracer' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bidual-cold",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


# ---------------------------------------------------------------------------
# Each oracle rejects a planted wrong answer
# ---------------------------------------------------------------------------


def _planted(stdout, **changes):
    data = json.loads(stdout)
    data.update(changes)
    return json.dumps(data)


def test_dualize_oracle_rejects_a_wrong_arrow_count(tiny, in_root, workdir):
    verdict = _manifest("bidual-cold", in_root, workdir)["verdicts"][0]
    rc, stdout = _cli(verdict["argv"])
    assert oracles.check_cli(verdict, rc, stdout) is None
    wrong = _planted(stdout, arrows=json.loads(stdout)["arrows"] + 1)
    assert "arrows" in oracles.check_cli(verdict, rc, wrong)


def test_sections_and_bidual_oracles_reject_wrong_sizes(tiny, in_root, workdir):
    verdicts = _manifest("bidual-cold", in_root, workdir)["verdicts"]
    _cli(verdicts[0]["argv"])  # writes the category file
    for verdict, key in ((verdicts[1], "sections"), (verdicts[2], "theta")):
        rc, stdout = _cli(verdict["argv"])
        assert oracles.check_cli(verdict, rc, stdout) is None
        n = verdict["expect"]["elements"]
        wrong = n - 1 if key == "sections" else f"isomorphism ({n} <-> {n - 1})"
        assert oracles.check_cli(verdict, rc, _planted(stdout, **{key: wrong})) is not None


def test_axioms_oracle_rejects_a_shifted_witness(tiny, in_root, workdir):
    corrupted = _manifest("axioms-large", in_root, workdir)["verdicts"][1]
    rc, stdout = _cli(corrupted["argv"])
    assert rc == 1
    assert oracles.check_cli(corrupted, rc, stdout) is None
    assert oracles.check_cli(corrupted, 0, stdout) is not None
    names = json.loads((in_root / corrupted["argv"][1]).read_text())["elements"]
    data = json.loads(stdout)
    failing = next(e for e in data["axioms"] if not e["passed"])
    failing["witness"][0] = names[(names.index(failing["witness"][0]) + 1) % len(names)]
    assert f"axiom {failing['axiom']}" in oracles.check_cli(corrupted, rc, json.dumps(data))


def test_naturality_oracle_rejects_commutes_false():
    for check in ("naturality_theta", "naturality_phi"):
        assert oracles.check_naturality(check, {"commutes": True}, {"proper": False}) is None
        assert oracles.check_naturality(check, {"commutes": False}, {"proper": False}) is not None
    ok = {"preserved": True, "input_restricted": True}
    assert oracles.check_naturality("restricted", ok, {"proper": True}) is None
    assert oracles.check_naturality("restricted", ok, {"proper": False}) is not None
    agree = {"plain_functor": False, "locally_proper": False}
    assert oracles.check_naturality("functor_vs_proper", agree, {"proper": False}) is None
    assert oracles.check_naturality("functor_vs_proper", agree, {"proper": True}) is not None


def test_transducer_oracle_rejects_a_failed_axiom(tiny, in_root, workdir):
    verdict = _manifest("transducer-bounded", in_root, workdir)["verdicts"][1]
    rc, stdout = _cli(verdict["argv"])
    assert oracles.check_cli(verdict, rc, stdout) is None
    data = json.loads(stdout)
    data["axioms"][4]["passed"] = False
    data["passed"] = False
    assert "[5]" in oracles.check_cli(verdict, rc, json.dumps(data))
    assert oracles.check_cli(verdict, 1, json.dumps(data)) is not None
    assert oracles.check_cli(verdict, rc, _planted(stdout, max_len=3)) is not None


# ---------------------------------------------------------------------------
# The oracles agree with pfdual where both apply
# ---------------------------------------------------------------------------


def _program_report(comp, anti, rng, pref):
    from pfdual.algebra import FinAlgebra, check_axioms

    report = check_axioms(FinAlgebra.from_tables(comp, anti, rng, pref))
    return [(r.index, r.passed, r.witness) for r in report.results]


def test_numpy_recheck_matches_the_checker_on_corrupted_tables():
    space = corpus.FunctionSpace(3)
    rnd = random.Random(7)
    seen_failing = set()
    for _ in range(40):
        closed, _ = corpus.random_closed_set(space, rnd, 24, 6)
        _, comp, anti, rng, pref = corpus.subset_tables(space, closed)
        n = len(anti)
        assert oracles.axiom_report(comp, anti, rng, pref) == [(i, True, None) for i in range(1, 11)]
        table = rnd.choice(["comp", "pref", "anti", "rng"])
        a, b, v = rnd.randrange(n), rnd.randrange(n), rnd.randrange(n)
        tables = {"comp": [list(r) for r in comp], "pref": [list(r) for r in pref],
                  "anti": list(anti), "rng": list(rng)}
        if table in ("comp", "pref"):
            tables[table][a][b] = v
        else:
            tables[table][a] = v
        args = (tables["comp"], tables["anti"], tables["rng"], tables["pref"])
        mine = oracles.axiom_report(*args)
        assert mine == _program_report(*args)
        seen_failing |= {i for i, passed, _ in mine if not passed}
    assert len(seen_failing) >= 6


def test_graph_counts_match_the_dual():
    from pfdual.dualize import pf_object
    from pfdual.pfun import Base, PFunc, as_abstract

    space = corpus.FunctionSpace(3)
    rnd = random.Random(11)
    for size, arrows in ((6, 3), (12, 4), (18, 5), (24, 6)):
        closed, _ = corpus.random_closed_set(space, rnd, size, arrows)
        alg, _ = as_abstract(PFunc(Base((0, 1, 2)), space.graphs[f]) for f in closed)
        cat = pf_object(alg).category
        assert (cat.n_objects, cat.n_arrows) == (oracles.count_objects(space, closed),
                                                 oracles.count_arrows(space, closed))


def test_locally_proper_matches_the_program():
    from pfdual.algebra import Homomorphism, check_locally_proper
    from pfdual.pfun import Base, PFunc, as_abstract

    space = corpus.FunctionSpace(3)
    rnd = random.Random(13)
    verdicts = set()
    for k in range(12):
        small, gens = corpus.random_closed_set(space, rnd, 12, 4)
        large = small if k % 3 == 0 else corpus.random_closed_set(
            space, rnd, 24, 6, within=small, gens=gens, tries=2000)[0]
        base = Base((0, 1, 2))
        a, la = as_abstract(PFunc(base, space.graphs[f]) for f in small)
        b, lb = as_abstract(PFunc(base, space.graphs[f]) for f in large)
        index = {f: i for i, f in enumerate(lb)}
        proper, _ = check_locally_proper(Homomorphism(a, b, tuple(index[f] for f in la)))
        assert proper == oracles.inclusion_locally_proper(space, small, large)
        verdicts.add(proper)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# The tracer and the timing
# ---------------------------------------------------------------------------


def test_tracer_wraps_every_binding_and_restores_it():
    import pfdual
    from pfdual import duality, dualize
    from pfdual.algebra import FinAlgebra
    from tracer import Tracer, add_summary, layer_metrics

    original = dualize.pf_object
    tracer = Tracer()
    tracer.install()
    try:
        assert duality.pf_object is dualize.pf_object is pfdual.pf_object is not original
        alg = FinAlgebra.from_tables([[0, 0], [0, 1]], [1, 0], [0, 1], [[0, 1], [1, 1]])
        duality.theta(alg)
        summary = tracer.summary()
    finally:
        tracer.uninstall()
    assert duality.pf_object is dualize.pf_object is pfdual.pf_object is original
    assert summary["calls"]["dualize.pf_object"] == 1
    assert summary["calls"]["duality.dual_of"] >= 1
    total = {}
    add_summary(total, summary, 2.0)
    metrics = layer_metrics(total)
    assert metrics["duality.theta_s"]["value"] == pytest.approx(2 * summary["self_s"]["duality.theta"])
    spans = tracer.spans()
    theta = next(i for i, s in enumerate(spans) if s[0] == "duality.theta")
    inner = [s for s in spans if s[3] == theta]
    assert inner and all(spans[theta][1] <= s[1] <= s[2] <= spans[theta][2] for s in inner)
    covered = sum(s[2] - s[1] for s in inner)
    assert summary["self_s"]["duality.theta"] == pytest.approx(
        spans[theta][2] - spans[theta][1] - covered)


def test_sampler_leaves_out_its_own_loops():
    sampler = speed.Sampler()
    with sampler:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    inside = sampler.samples[1:-1]
    assert len(inside) >= 10
    assert sampler.timed.raw_s == pytest.approx(0.2 - sum(inside), abs=0.005)
    assert sampler.timed.scaled_s == pytest.approx(
        sampler.timed.raw_s * speed.NOMINAL_LOOP_S / sampler.timed.reference_s)
