"""Shared set-up for the benchmark's own tests.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import os
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402


@pytest.fixture
def in_root(monkeypatch):
    """Run in the repository root, as the benchmark does."""
    monkeypatch.chdir(ROOT)
    return ROOT


@pytest.fixture
def workdir(in_root, tmp_path_factory):
    path = in_root / "perfbench" / "_work" / f"test-{os.getpid()}-{tmp_path_factory.getbasetemp().name}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every corpus to a few verdicts."""
    monkeypatch.setattr(corpus, "BIDUAL_PROFILE", ((3, 12, 4), (4, 24, 5)))
    monkeypatch.setattr(corpus, "AXIOMS_PROFILE", ((36, 6),))
    monkeypatch.setattr(corpus, "NATURALITY_CHAINS", ((3, ((4, 2), (12, 4))),))
    monkeypatch.setattr(corpus, "NATURALITY_COPIES", ((0, 1),))
    monkeypatch.setattr(corpus, "TRANSDUCER_PROFILE", ((None, None, 4), (2, (1, 2), 4)))
