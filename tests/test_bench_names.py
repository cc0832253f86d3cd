"""The benchmark's traced run (perfbench/tracer.py) wraps pfdual functions
by module and name; a rename here must not silently break it."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_wrapped_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    missing = [
        f"{module}.{name}"
        for module, name, _ in tracer.WRAPPED
        if not callable(getattr(importlib.import_module(f"pfdual.{module}"), name, None))
    ]
    assert missing == []
