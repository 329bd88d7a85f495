"""Smoke test of the benchmark's tracing, at small sizes.

    PYTHONPATH=src python3 -m pytest -q bench/test_smoke.py

Runs each workload twice in-process under ``tracing()`` and checks that the
wrappers reached every binding site (exact span counts), that exact counts
repeat, that the self times declared in BENCHMARK.json account for the traced
wall time, that tracing leaves the artifacts byte-identical, and that the
metric names match BENCHMARK.json.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from bohmpair import analyses, cli, ensemble, numerics
from run_bench import unaccounted_s
from tracer import layer_metrics, overhead_s, tracing
from worker import CSV_ARTIFACTS, digest
from workloads import WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
DECLARED = [m["name"] for m in BENCHMARK["per_layer"]]
SMALL = {"n": {"planewave": 2000, "spherical": 300}, "trajectory_count": 4,
         "trajectory_samples": 21}


def small_configs(workload, out: Path):
    configs = []
    for cfg in workload.configs(seed=1, out_root=out):
        if "n" in cfg:
            cfg["n"] = SMALL["n"][cfg["model"]]
        if "trajectory_count" in cfg:
            cfg["trajectory_count"] = SMALL["trajectory_count"]
            cfg["trajectory_samples"] = SMALL["trajectory_samples"]
        configs.append(cli.validate_config(cfg))
    return configs


def traced_run(workload, out: Path):
    configs = small_configs(workload, out)
    with tracing() as tracer:
        codes = [cli.run(c) for c in configs]
    assert codes == [0] * len(configs)
    digests = [{name: digest(Path(c.output_dir) / name)
                for name in ("claims_report.json",) + CSV_ARTIFACTS
                if (Path(c.output_dir) / name).exists()} for c in configs]
    wall = tracer.summary()["root_s"]
    return tracer, layer_metrics(tracer, wall), digests


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_spans_reach_every_binding_site(name, tmp_path):
    workload = WORKLOADS[name]
    first, metrics, digests = traced_run(workload, tmp_path / "a")
    second, metrics2, digests2 = traced_run(workload, tmp_path / "b")

    calls = first.summary()["calls"]
    calls["numerics.integrate_ode"] -= metrics["ensemble.fallback_members"]
    for span, count in workload.calls.items():
        assert calls.get(span, 0) == count, span
    for span in workload.touched:
        assert calls.get(span, 0) > 0, span
    assert {s[0] for s in first.spans if s[3] < 0} == {"cli.run"}
    reported = {name: metrics[name] for name in DECLARED if name in metrics}
    assert abs(unaccounted_s(reported)) < 1e-6

    counts = {k: v for k, v in metrics.items() if not k.endswith("_s")}
    assert counts == {k: v for k, v in metrics2.items() if not k.endswith("_s")}
    assert counts["ensemble.fallback_members"] == 0
    assert counts["ensemble.csv_rows"] > 0 and counts["ensemble.sample_proposals"] > 0
    assert digests == digests2


def test_tracing_restores_bindings():
    originals = (cli.run, analyses.build_ensemble, ensemble.integrate_ode,
                 numerics.integrate_ode)
    with tracing() as tracer:
        assert analyses.build_ensemble is cli.build_ensemble is ensemble.build_ensemble
        assert analyses.build_ensemble is not originals[1]
        assert tracer.binding_sites["ensemble.build"] >= 3
    assert (cli.run, analyses.build_ensemble, ensemble.integrate_ode,
            numerics.integrate_ode) == originals


def test_metric_names_match_benchmark_json(tmp_path):
    tracer, metrics, _ = traced_run(WORKLOADS["planewave_ensemble"], tmp_path)
    assert set(DECLARED) == set(metrics) | {"trace_overhead_s"}
    assert 0 < overhead_s(tracer, calls=1000) < tracer.summary()["root_s"]
