"""Spans around calls into pfdual's public functions, for the traced run.

Only the traced run imports this module.  `Tracer.install` replaces each
function named in WRAPPED with a wrapper on every pfdual module that binds
it, since modules import these functions by name.  A span records its name,
start, end and parent; spans stay in memory until the run writes them out.
Self time is a span's duration minus the time its child spans cover.

Two kinds of boundary are too hot to keep one span per call: `count`
boundaries only count calls, and `leaf` boundaries (which call no other
wrapped function) add their count and time to running totals, and their
time to the enclosing span's child time.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

# (module, function, kind).  kind is "span", "count" or "leaf".
WRAPPED = (
    ("formats", "load_algebra", "span"),
    ("formats", "load_category", "span"),
    ("formats", "load_transducer", "span"),
    ("formats", "write_algebra", "span"),
    ("formats", "write_category", "span"),
    ("formats", "write_transducer", "span"),
    ("pfun", "as_abstract", "span"),
    ("algebra", "check_axioms", "span"),
    ("algebra", "derive_constants", "span"),
    ("algebra", "check_homomorphism", "span"),
    ("filters", "enumerate_prime_filters", "span"),
    ("filters", "compose_filters", "count"),
    ("filters", "upward_closure", "count"),
    ("topcat", "generate_topology", "span"),
    ("topcat", "validate_object_of_C", "span"),
    ("topcat", "is_local_homeo", "span"),
    ("dualize", "pf_object", "span"),
    ("dualize", "pf_morphism", "span"),
    ("sections", "seccl_object", "span"),
    ("sections", "enumerate_sections", "span"),
    ("sections", "seccl_morphism", "span"),
    ("duality", "theta", "span"),
    ("duality", "phi", "span"),
    ("duality", "check_naturality_theta", "span"),
    ("duality", "check_naturality_phi", "span"),
    ("duality", "dual_of", "count"),
    ("duality", "sections_of", "count"),
    ("transducer", "axioms_bounded", "span"),
    ("transducer", "eval", "leaf"),
    ("transducer", "compose", "span"),
    ("transducer", "pref_union", "span"),
    ("transducer", "antidomain", "span"),
    ("transducer", "domain_transducer", "span"),
    ("transducer", "range_transducer", "span"),
)

# Sizes recorded at a boundary: span name -> size of the returned value.
SIZES = {
    "formats.write_algebra": len,
    "formats.write_category": len,
    "formats.write_transducer": len,
    "topcat.generate_topology": lambda top: len(top.opens),
    "sections.enumerate_sections": len,
}

_BUILD = ("transducer.compose", "transducer.pref_union", "transducer.antidomain",
          "transducer.domain_transducer", "transducer.range_transducer")

# Per-layer metric -> (unit, what, span names).  what is "self" (summed
# self time), "calls", "size" (summed sizes) or "ratio" (calls of the first
# name per call of the second).
METRICS = {
    "formats.load_s": ("s", "self", ("formats.load_algebra", "formats.load_category",
                                     "formats.load_transducer")),
    "formats.write_s": ("s", "self", ("formats.write_algebra", "formats.write_category",
                                      "formats.write_transducer")),
    "formats.bytes_written": ("bytes", "size", ("formats.write_algebra", "formats.write_category",
                                                "formats.write_transducer")),
    "pfun.as_abstract_s": ("s", "self", ("pfun.as_abstract",)),
    "algebra.check_axioms_s": ("s", "self", ("algebra.check_axioms",)),
    "algebra.check_axioms_calls": ("count", "calls", ("algebra.check_axioms",)),
    "algebra.derive_constants_s": ("s", "self", ("algebra.derive_constants",)),
    "algebra.derive_constants_calls": ("count", "calls", ("algebra.derive_constants",)),
    "algebra.check_homomorphism_s": ("s", "self", ("algebra.check_homomorphism",)),
    "filters.prime_filters_s": ("s", "self", ("filters.enumerate_prime_filters",)),
    "filters.compose_filters_calls": ("count", "calls", ("filters.compose_filters",)),
    "filters.upward_closure_calls": ("count", "calls", ("filters.upward_closure",)),
    "topcat.generate_topology_s": ("s", "self", ("topcat.generate_topology",)),
    "topcat.opens_generated": ("count", "size", ("topcat.generate_topology",)),
    "topcat.validate_s": ("s", "self", ("topcat.validate_object_of_C",)),
    "topcat.local_homeo_s": ("s", "self", ("topcat.is_local_homeo",)),
    "dualize.pf_object_s": ("s", "self", ("dualize.pf_object",)),
    "dualize.pf_object_calls": ("count", "calls", ("dualize.pf_object",)),
    "dualize.pf_morphism_s": ("s", "self", ("dualize.pf_morphism",)),
    "sections.seccl_object_s": ("s", "self", ("sections.seccl_object",)),
    "sections.sections_enumerated": ("count", "size", ("sections.enumerate_sections",)),
    "sections.seccl_morphism_s": ("s", "self", ("sections.seccl_morphism",)),
    "duality.theta_s": ("s", "self", ("duality.theta",)),
    "duality.phi_s": ("s", "self", ("duality.phi",)),
    "duality.naturality_s": ("s", "self", ("duality.check_naturality_theta",
                                           "duality.check_naturality_phi")),
    "duality.dual_reuse": ("ratio", "ratio", ("duality.dual_of", "dualize.pf_object")),
    "duality.sections_reuse": ("ratio", "ratio", ("duality.sections_of", "sections.seccl_object")),
    "transducer.axioms_bounded_s": ("s", "self", ("transducer.axioms_bounded",)),
    "transducer.eval_s": ("s", "self", ("transducer.eval",)),
    "transducer.eval_calls": ("count", "calls", ("transducer.eval",)),
    "transducer.build_s": ("s", "self", _BUILD),
    "transducer.machines_built": ("count", "calls", _BUILD),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.leaf_child = array("d")   # time of leaf calls made directly inside each span
        self.calls: Counter = Counter()
        self.sizes: Counter = Counter()
        self.leaf_time: Counter = Counter()
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._paused = [0.0]

    def pause(self, seconds: float) -> None:
        """Leave out time spent outside pfdual (the speed samples)."""
        self._paused[0] += seconds

    def _clock(self):
        paused, perf_counter = self._paused, time.perf_counter

        def now() -> float:
            return perf_counter() - paused[0]
        return now

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import pfdual.cli  # noqa: F401  (loads every pfdual module)

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "pfdual" or n.startswith("pfdual."))]
        for module_name, func, kind in WRAPPED:
            original = getattr(sys.modules[f"pfdual.{module_name}"], func)
            wrapper = self._wrap(f"{module_name}.{func}", kind, original)
            for module in modules:
                if module.__dict__.get(func) is original:
                    self._installed.append((module, func, original))
                    setattr(module, func, wrapper)

    def uninstall(self) -> None:
        for module, func, original in reversed(self._installed):
            setattr(module, func, original)
        self._installed.clear()

    def _wrap(self, qualname: str, kind: str, fn):
        calls = self.calls
        if kind == "count":
            def counted(*args, **kwargs):
                calls[qualname] += 1
                return fn(*args, **kwargs)
            return counted

        clock = self._clock()
        stack = self._stack
        if kind == "leaf":
            leaf_time, leaf_child = self.leaf_time, self.leaf_child

            def leaf(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    calls[qualname] += 1
                    leaf_time[qualname] += dur
                    if stack:
                        leaf_child[stack[-1]] += dur
            return leaf

        nid = self._id(qualname)
        size_of = SIZES.get(qualname)
        name, parent, start, end, leaf_child = self.name, self.parent, self.start, self.end, self.leaf_child
        sizes = self.sizes

        def span(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            leaf_child.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                calls[qualname] += 1
            if size_of is not None:
                sizes[qualname] += size_of(result)
            return result
        return span

    def _id(self, qualname: str) -> int:
        if qualname not in self._ids:
            self._ids[qualname] = len(self.names)
            self.names.append(qualname)
        return self._ids[qualname]

    # -- read-out ----------------------------------------------------------

    def mark(self) -> tuple:
        """A position to take a summary from."""
        return (len(self.start), Counter(self.calls), Counter(self.sizes), Counter(self.leaf_time))

    def summary(self, since: tuple = (0, Counter(), Counter(), Counter())) -> dict:
        """Self time, calls and sizes of each boundary since a mark, in raw seconds."""
        first, calls0, sizes0, leaf0 = since
        n = len(self.start)
        child = [0.0] * (n - first)
        for i in range(first, n):
            p = self.parent[i]
            if p >= first:
                child[p - first] += self.end[i] - self.start[i]
        self_s: Counter = Counter()
        for i in range(first, n):
            dur = self.end[i] - self.start[i]
            self_s[self.names[self.name[i]]] += dur - child[i - first] - self.leaf_child[i]
        for qualname, total in self.leaf_time.items():
            self_s[qualname] += total - leaf0.get(qualname, 0.0)
        return {
            "self_s": dict(self_s),
            "calls": dict(self.calls - calls0),
            "sizes": dict(self.sizes - sizes0),
        }

    def spans(self, since: int = 0) -> list[list]:
        return [[self.names[self.name[i]], self.start[i], self.end[i],
                 self.parent[i] - since if self.parent[i] >= since else -1]
                for i in range(since, len(self.start))]


def add_summary(total: dict, part: dict, factor: float) -> None:
    """Accumulate a summary, scaling its times to reference speed."""
    for key in ("self_s", "calls", "sizes"):
        bucket = total.setdefault(key, {})
        scale = factor if key == "self_s" else 1
        for name, value in part.get(key, {}).items():
            bucket[name] = bucket.get(name, 0) + value * scale


def layer_metrics(total: dict) -> dict:
    """The per-layer metrics from an accumulated summary."""
    self_s, calls, sizes = total.get("self_s", {}), total.get("calls", {}), total.get("sizes", {})
    out = {}
    for metric, (unit, what, names) in METRICS.items():
        if what == "self":
            value = sum(self_s.get(n, 0.0) for n in names)
        elif what == "calls":
            value = sum(calls.get(n, 0) for n in names)
        elif what == "size":
            value = sum(sizes.get(n, 0) for n in names)
        else:
            lookups, computations = (calls.get(n, 0) for n in names)
            value = lookups / computations if computations else 0.0
        out[metric] = {"value": value, "unit": unit}
    return out
