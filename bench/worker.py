"""One measured process of the benchmark: set up, run one workload through
``bohmpair.cli`` (``validate_config`` then ``run``), check what it wrote,
and print one JSON line describing it.

Started by run_bench.py with ``src`` on PYTHONPATH; each run gets its own
process so ``ru_maxrss`` is that run's high-water mark.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import time
from pathlib import Path

from tracer import layer_metrics, overhead_s, tracing
from workloads import ENSEMBLE_META_KEYS, META_KEYS, WORKLOADS

CSV_ARTIFACTS = ("ensemble.csv", "trajectories.csv")


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def inspect_output(out: Path, artifact: str, claims: tuple[str, ...]) -> dict:
    """Problems with one config's output directory, the digests of its
    byte-stable artifacts, the CSV row count and the failed claim ids."""
    problems, digests, rows = [], {}, 0
    for name in ("claims_report.json", "meta.json", artifact):
        if not (out / name).is_file():
            problems.append(f"missing artifact {name}")
    failed_claims = []
    if (out / "claims_report.json").is_file():
        report = json.loads((out / "claims_report.json").read_text())
        ids = {c["claim_id"] for c in report}
        problems += [f"missing claim {c}" for c in claims if c not in ids]
        failed_claims = sorted(c["claim_id"] for c in report if c["status"] == "fail")
        digests["claims_report.json"] = digest(out / "claims_report.json")
    if (out / "meta.json").is_file():
        required = ENSEMBLE_META_KEYS if artifact == "ensemble.csv" else META_KEYS
        missing = required - set(json.loads((out / "meta.json").read_text()))
        problems += [f"meta.json lacks key {k}" for k in sorted(missing)]
    for name in CSV_ARTIFACTS:
        if (out / name).is_file():
            digests[name] = digest(out / name)
            with open(out / name, "rb") as fh:
                rows += sum(1 for _ in fh) - 1
    return {"problems": problems, "digests": digests, "rows": rows,
            "failed_claims": failed_claims}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() reading taken just before this process started")
    parser.add_argument("--trace", action="store_true",
                        help="trace the run; spans go to spans-<out name>.csv beside --out")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    import numpy
    import scipy

    from bohmpair import cli

    configs = [cli.validate_config(c) for c in workload.configs(args.seed, args.out)]
    for config in configs:
        model = cli.build_model(config)
        # The plane-wave quadrature norm is part of getting ready; the
        # spherical Monte Carlo norm is left to the runs that use it.  Norms
        # are cached per model instance, and cli.run builds its own, so
        # nothing computed here is reused by the timed run.
        if config.model == "planewave":
            model.norm
    setup_s = time.monotonic() - args.spawned_at

    with tracing() if args.trace else contextlib.nullcontext() as tracer:
        start = time.perf_counter()
        codes = [cli.run(config) for config in configs]
        wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    runs = []
    for config, code, (_, artifact, claims) in zip(configs, codes, workload.points):
        runs.append({"exit_code": code,
                     **inspect_output(Path(config.output_dir), artifact, claims)})
    result = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "runs": runs,
              "versions": {"python": platform.python_version(),
                           "numpy": numpy.__version__, "scipy": scipy.__version__}}
    if tracer is not None:
        result["layers"] = {**layer_metrics(tracer, wall_s),
                            "trace_overhead_s": overhead_s(tracer)}
        result["span_calls"] = tracer.summary()["calls"]
        result["root_names"] = sorted({s[0] for s in tracer.spans if s[3] < 0})
        tracer.write_spans(args.out.parent / f"spans-{args.out.name}.csv")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
