"""How a pass over each workload's corpus runs its verdicts.

A pass is one closed loop with one client: the next verdict starts when the
previous one has returned.  CLI verdicts (`bidual-cold`, `axioms-large`,
`transducer-bounded`) each run `pfdual.cli.main` in a child forked from a
parent that has imported pfdual but run nothing, so no module cache carries
over from one verdict to the next, as with separate CLI processes.  The
library session (`naturality-warm`) runs all its checks in one forked child
on the same algebra objects.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from dataclasses import dataclass, field

import oracles
from inputs import load_pool
from procs import run_in_child
from speed import Sampler, Timed


@dataclass
class PassResult:
    raw_s: list[float] = field(default_factory=list)      # per verdict
    scaled_s: list[float] = field(default_factory=list)   # per verdict
    errors: list[str] = field(default_factory=list)       # one per failed verdict
    rss_mb: float = 0.0
    layers: dict = field(default_factory=dict)             # traced passes only
    spans: list = field(default_factory=list)              # traced passes only

    @property
    def corpus_raw_s(self) -> float:
        return sum(self.raw_s)

    @property
    def corpus_s(self) -> float:
        return sum(self.scaled_s)


# ---------------------------------------------------------------------------
# CLI verdicts, one forked child each
# ---------------------------------------------------------------------------


def cli_verdict(argv: list[str], tracer) -> dict:
    """Run one `pfdual` command in this (child) process."""
    from pfdual import cli

    out = io.StringIO()
    error = None
    sampler = Sampler(tracer.pause if tracer is not None else None)
    try:
        with sampler, redirect_stdout(out):
            rc = cli.main(argv)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # a verdict that raises is a failed verdict
        rc, error = None, f"raised {type(e).__name__}: {e}"
    t = sampler.timed
    result = {"timed": t.as_list(), "rc": rc, "stdout": out.getvalue(),
              "error": error}
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["spans"] = tracer.spans()
    return result


def run_cli_pass(manifest: dict, tracer=None) -> PassResult:
    result = PassResult()
    for verdict in manifest["verdicts"]:
        child = run_in_child(lambda: cli_verdict(verdict["argv"], tracer))
        timed = Timed(*child.get("timed", (0.0, 0.0, 0.0)))
        error = child.get("error") or oracles.check_cli(verdict, child["rc"], child["stdout"])
        _record(result, timed, error, child.get("rss_mb", 0.0), " ".join(verdict["argv"]))
        if tracer is not None and "trace" in child:
            _add_trace(result, child["trace"], child["spans"], timed, verdict["argv"])
    return result


def _record(result: PassResult, timed, error, rss_mb: float, label: str) -> None:
    result.raw_s.append(timed.raw_s)
    result.scaled_s.append(timed.scaled_s)
    if error:
        result.errors.append(f"{label}: {error}")
    result.rss_mb = max(result.rss_mb, rss_mb)


def _add_trace(result: PassResult, summary: dict, spans: list, timed, label: list) -> None:
    from tracer import add_summary

    factor = timed.scaled_s / timed.raw_s if timed.raw_s > 0 else 1.0
    add_summary(result.layers, summary, factor)
    result.spans.append({"verdict": label, "scale": factor, "spans": spans})


# ---------------------------------------------------------------------------
# The library session: every check in one child, on shared objects
# ---------------------------------------------------------------------------


def _library_check(check: str, h) -> dict:
    """One library verdict on homomorphism h, as plain data.  Functions are
    looked up on their modules at call time, so the tracer sees them."""
    from pfdual import dualize, duality

    if check == "naturality_theta":
        return {"commutes": duality.check_naturality_theta(h)}
    if check == "naturality_phi":
        return {"commutes": duality.check_naturality_phi(dualize.pf_morphism(h))}
    if check == "restricted":
        report = duality.restricted_duality_check(h)
        return {"preserved": report.preserved, "input_restricted": report.input_restricted}
    if check == "functor_vs_proper":
        verdict = dualize.pf_is_functor_iff_locally_proper(h)
        return {"plain_functor": verdict.plain_functor, "locally_proper": verdict.locally_proper}
    raise ValueError(f"unknown check {check!r}")


def naturality_session(manifest: dict, tracer) -> dict:
    """Run the whole session in this (child) process."""
    homs = load_pool(manifest["pool"])
    records = []
    for verdict in manifest["verdicts"]:
        mark = tracer.mark() if tracer is not None else None
        sampler = Sampler(tracer.pause if tracer is not None else None)
        try:
            with sampler:
                outcome = _library_check(verdict["check"], homs[verdict["hom"]])
            error = None
        except Exception as e:  # a verdict that raises is a failed verdict
            outcome, error = None, f"raised {type(e).__name__}: {e}"
        timed = sampler.timed
        if error is None:
            error = oracles.check_naturality(verdict["check"], outcome, verdict["expect"])
        record = {"timed": timed.as_list(), "error": error}
        if tracer is not None:
            record["trace"] = tracer.summary(mark)
            record["spans"] = tracer.spans(mark[0])
        records.append(record)
    return {"records": records}


def run_session_pass(manifest: dict, tracer=None) -> PassResult:
    child = run_in_child(lambda: naturality_session(manifest, tracer))
    result = PassResult()
    if "error" in child:
        raise RuntimeError(f"library session failed: {child['error']}")
    for verdict, record in zip(manifest["verdicts"], child["records"]):
        timed = Timed(*record["timed"])
        label = f"hom {verdict['hom']} {verdict['check']}"
        _record(result, timed, record["error"], child["rss_mb"], label)
        if tracer is not None:
            _add_trace(result, record["trace"], record["spans"], timed, [label])
    return result


RUNNERS = {
    "bidual-cold": run_cli_pass,
    "naturality-warm": run_session_pass,
    "axioms-large": run_cli_pass,
    "transducer-bounded": run_cli_pass,
}
