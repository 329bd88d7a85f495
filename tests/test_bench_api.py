"""The package API that the benchmark's tracer (``bench/tracer.py``) wraps or
reads: deleting or moving any of it breaks the benchmark, so tier-1 checks
that it is all still there."""

import importlib
import sys
from pathlib import Path

import pytest

from bohmpair.numerics import TrajectoryBatch

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("tracer")
    finally:
        sys.path.remove(str(BENCH))


def test_traced_functions_exist(tracer):
    missing = [f"{module}.{attr}" for module, attr, _ in tracer.FUNCTIONS
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing


def test_traced_methods_exist(tracer):
    # The tracer replaces each method in the class's own namespace.
    missing = [f"{module}.{cls}.{attr}" for module, cls, attr, _ in tracer.METHODS
               if attr not in vars(getattr(importlib.import_module(module), cls))]
    assert not missing


def test_members_view_exists():
    # The tracer's write_csv counter walks ``ensemble.members``.
    assert isinstance(vars(TrajectoryBatch).get("members"), property)
