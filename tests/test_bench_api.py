"""The package API that the benchmark's tracer (``bench/tracer.py``) wraps or
reads: deleting or moving any of it breaks the benchmark, so tier-1 checks
that it is all still there."""

import importlib
import json
import sys
from pathlib import Path

import pytest

from bohmpair import cli, numerics
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


def test_tracing_a_split_integration(tracer, tmp_path, monkeypatch):
    # The benchmark's plane-wave ensemble at 2 x MIN_BLOCK_ROWS members on
    # two CPUs, so its integration runs in two blocks, one in a forked
    # child, and so does its CSV write (8,192 rows of 5 floats, above two
    # blocks' MIN_CSV_FLOATS).  The children's spans and counts are dropped
    # with them; the parent's spans still hold the workload's pinned counts,
    # and their self times still add up to the traced wall time.
    workload = importlib.import_module("workloads").WORKLOADS["planewave_ensemble"]
    (raw,) = workload.configs(seed=1, out_root=tmp_path)
    config = cli.validate_config({**raw, "n": 2 * numerics.MIN_BLOCK_ROWS})
    monkeypatch.setattr(numerics, "_cpu_count", lambda: 2)
    with tracer.tracing() as traced:
        assert cli.run(config) == 0
    meta = json.loads((Path(config.output_dir) / "meta.json").read_text())
    assert meta["integrator"]["blocks"] == 2
    assert meta["csv_blocks"] == {"ensemble.csv": 2}

    summary = traced.summary()
    calls = summary["calls"]
    assert {span: calls.get(span, 0) for span in workload.calls} == workload.calls
    assert all(calls.get(span, 0) > 0 for span in workload.touched)
    assert abs(sum(summary["self_s"].values()) - summary["root_s"]) < 1e-6
