"""The benchmark's traced run (perfbench/tracer.py) wraps pfdual functions
by module and name, and sizes some of their return values; a rename or a
change of return type here must not silently break it."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from pfdual import formats as fmt
from pfdual import sections as sc
from pfdual import topcat as tc
from pfdual import transducer as td

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_wrapped_function_resolves():
    tracer = load_tracer()
    assert tracer.WRAPPED
    missing = [
        f"{module}.{name}"
        for module, name, _ in tracer.WRAPPED
        if not callable(getattr(importlib.import_module(f"pfdual.{module}"), name, None))
    ]
    assert missing == []


def test_sizes_apply_to_real_return_values(one_elem, one_arrow_category):
    tracer = load_tracer()
    returned = {
        "formats.write_algebra": fmt.write_algebra(one_elem),
        "formats.write_category": fmt.write_category(one_arrow_category),
        "formats.write_transducer": fmt.write_transducer(td.identity_transducer(("a",))),
        "topcat.generate_topology": tc.generate_topology(2, [1]),
        "sections.enumerate_sections": sc.enumerate_sections(one_arrow_category),
    }
    assert set(tracer.SIZES) == set(returned)
    sizes = {name: size_of(returned[name]) for name, size_of in tracer.SIZES.items()}
    assert sizes["topcat.generate_topology"] == 3  # the opens of the Sierpinski space
    assert sizes["sections.enumerate_sections"] == 2  # the empty section and the identity
    assert all(isinstance(n, int) and n > 0 for n in sizes.values())
