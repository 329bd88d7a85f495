"""Benchmark of ``bohmpair run`` on three workloads, measured from outside the
package.

    python3 bench/run_bench.py --workload planewave_ensemble --seed 1 \
        --seconds 40 --trace 0

Run from the root of a checkout.  Each measured run is its own process
(worker.py), so peak RSS and set-up time are per run.  ``--trace 0`` runs the
workload untraced while the next run is expected to end within ``--seconds``
(at least MIN_RUNS times) and reports the end-to-end metrics.  ``--trace 1``
makes TRACED_RUNS traced runs and reports the per-layer metrics.  The metric
names and units are those declared in BENCHMARK.json.  Every run's outputs
are checked; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import STATISTICAL_CLAIMS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

MIN_RUNS = 3
TRACED_RUNS = 2
RUN_TIMEOUT_S = 150
# Seed kept out of development: a later change confirms its claimed gain on
# it after tuning on other seeds.
HOLDOUT_SEED = 20_060_945
# Largest traced wall time, in seconds, that the reported self times may
# leave unaccounted for (the loop around the cli.run calls takes about 2e-5 s).
UNACCOUNTED_TOLERANCE_S = 1e-3


def thread_caps() -> dict:
    nproc = str(len(os.sched_getaffinity(0)))
    return {var: nproc for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def child_env() -> dict:
    env = {**os.environ, **thread_caps()}
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"]
                                             if env.get("PYTHONPATH") else "")
    return env


def stamp(args, versions: dict) -> dict:
    """Machine and run description recorded with every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {"workload": args.workload, "seed": args.seed, "holdout_seed": HOLDOUT_SEED,
            "trace": args.trace, "seconds": args.seconds, "commit": commit,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "thread_caps": thread_caps(), **versions,
            "cache": "warm (one import before timing); cold-cache runs are out of "
                     "scope because dropping the page cache is not allowed"}


def run_once(args, index: int, run_dir: Path) -> dict | None:
    """One worker process; None when it crashed or timed out."""
    out = run_dir / f"run{index}"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out)]
    if args.trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(time.monotonic())],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run {index}: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        print(f"run {index}: worker exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def gate(results: list[dict | None], points: int) -> tuple[int, int, list[str], bool]:
    """Count ``cli.run`` calls attempted and failed, and decide correctness.

    A call fails when it exits non-zero, misses an artifact, claim id or
    meta.json key, or writes claims_report.json / CSV bytes that differ from
    the first run of the same seed.  A failure that is only a tripped 99 % KS
    claim is reported but leaves the result correct.
    """
    attempted, failed, notes, correct = 0, 0, [], True
    reference = next((r["runs"] for r in results if r is not None), None)
    for i, result in enumerate(results):
        attempted += points
        if result is None:
            failed += points
            correct = False
            notes.append(f"run {i}: no result")
            continue
        for j, call in enumerate(result["runs"]):
            problems = list(call["problems"])
            if call["digests"] != reference[j]["digests"]:
                problems.append("artifact bytes differ from the first run of this seed")
            correct = correct and not problems
            if call["exit_code"] != 0:
                problems.append(f"exit code {call['exit_code']}, failed claims "
                                f"{call['failed_claims']}")
                statistical = (call["exit_code"] == 2 and call["failed_claims"]
                               and set(call["failed_claims"]) <= STATISTICAL_CLAIMS)
                correct = correct and bool(statistical)
            if problems:
                failed += 1
                notes.append(f"run {i} config {j}: " + "; ".join(problems))
    return attempted, failed, notes, correct


def end_to_end(results: list[dict]) -> tuple[dict, dict]:
    """Median of each end-to-end metric over the runs of one seed, and the
    samples behind them."""
    samples = {
        "wall_s": [r["wall_s"] for r in results],
        "setup_s": [r["setup_s"] for r in results],
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
        "rows_per_s": [sum(c["rows"] for c in r["runs"]) / r["wall_s"] for r in results],
    }
    return {k: statistics.median(v) for k, v in samples.items()}, samples


def per_layer(traced: list[dict], expected) -> tuple[dict, list[str]]:
    """Median per-layer values over the traced runs, plus binding checks:
    exact counts repeat, expected span counts hold, every span sits under a
    cli.run root."""
    problems = []
    layers = [t["layers"] for t in traced]
    metrics = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        if name.endswith("_s"):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between traced runs: {values}")
    for t in traced:
        calls = dict(t["span_calls"])
        calls["numerics.integrate_ode"] = (calls.get("numerics.integrate_ode", 0)
                                           - t["layers"]["ensemble.fallback_members"])
        for span, count in expected.calls.items():
            if calls.get(span, 0) != count:
                problems.append(f"span {span}: {calls.get(span, 0)} calls, expected {count}")
        for span in expected.touched:
            if not calls.get(span):
                problems.append(f"span {span} never recorded")
        if t["root_names"] != ["cli.run"]:
            problems.append(f"spans outside cli.run: roots {t['root_names']}")
    return metrics, sorted(set(problems))


def unaccounted_s(reported: dict) -> float:
    """Traced wall time not covered by the reported self times.  The spans
    are nested and their self times disjoint, so this stays near 0 unless a
    span's self time is not reported or time passes outside the cli.run
    spans."""
    return reported["traced_wall_s"] - sum(v for k, v in reported.items()
                                           if k.endswith("_self_s"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "bohmpair" / "__init__.py").is_file():
        print(f"bohmpair sources not found under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = ROOT / ".bench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    declared = {m["name"]: m["unit"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]}
    # Warm the page cache and the bytecode cache before anything is timed.
    subprocess.run([sys.executable, "-c", "import bohmpair.cli"], cwd=ROOT, env=child_env(),
                   check=True, timeout=RUN_TIMEOUT_S)

    if args.trace:
        results = [run_once(args, i, run_dir) for i in range(TRACED_RUNS)]
    else:
        # Start another run only while it is expected to end within --seconds.
        results, start, longest = [], time.monotonic(), 0.0
        while (len(results) < MIN_RUNS
               or time.monotonic() - start + longest <= args.seconds):
            began = time.monotonic()
            results.append(run_once(args, len(results), run_dir))
            longest = max(longest, time.monotonic() - began)
    attempted, failed, notes, correct = gate(results, len(workload.points))
    good = [r for r in results if r is not None]

    if not good:
        metrics, samples, problems = {}, {}, ["every run failed"]
    elif args.trace:
        samples = {}
        if len(good) == len(results):
            metrics, problems = per_layer(good, workload)
        else:
            metrics, problems = {}, ["a traced run failed"]
    else:
        metrics, samples = end_to_end(good)
        problems = []
    if metrics:
        problems += [f"metric {name} declared in BENCHMARK.json but not measured"
                     for name in declared if name not in metrics]
        metrics = {name: metrics[name] for name in declared if name in metrics}
    if args.trace and metrics:
        gap = unaccounted_s(metrics)
        if abs(gap) > UNACCOUNTED_TOLERANCE_S:
            problems.append(f"reported self times leave {gap:.6g} s of traced_wall_s "
                            "unaccounted for")
    correct = correct and not problems

    info = stamp(args, good[0]["versions"] if good else {})
    print(f"stamp {json.dumps(info, sort_keys=True)}")
    for note in notes + problems:
        print(f"CHECK {note}")
    for name, value in metrics.items():
        unit = declared[name]
        extra = ""
        if name in samples:
            extra = f"  (median of {len(samples[name])}: " + ", ".join(
                f"{v:.4g}" for v in samples[name]) + ")"
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"{name:40s} {shown} {unit}{extra}")
    print(f"{'error_rate':40s} {failed / attempted:>16.6g} "
          f"failed/attempted  ({failed} of {attempted} cli.run calls)")
    (run_dir / "result.json").write_text(json.dumps(
        {"stamp": info, "metrics": metrics, "samples": samples, "attempted": attempted,
         "failed": failed, "correct": correct, "notes": notes + problems}, indent=1) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": declared[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
