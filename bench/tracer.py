"""Span tracing of the bohmpair layers from outside the package.

Every public function or method listed in ``FUNCTIONS`` / ``METHODS`` is
replaced, for the lifetime of a ``tracing()`` block, by a wrapper that
records a span (name, start, end, parent span) and a few exact counters.
Functions are rebound at every module of the package that holds them by
name (``cli`` and ``analyses`` import most of them with ``from ... import``),
and model methods are replaced on the classes, so bound methods picked up
inside the program are traced too.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, span name)
FUNCTIONS = (
    ("bohmpair.cli", "run", "cli.run"),
    ("bohmpair.analyses", "equivariance_claims", "analyses.equivariance"),
    ("bohmpair.analyses", "global_constraint_claims", "analyses.global_constraint"),
    ("bohmpair.analyses", "trajectory_ensemble", "analyses.trajectory_ensemble"),
    ("bohmpair.analyses", "constraint_claims", "analyses.constraints"),
    ("bohmpair.analyses", "oracle_crosscheck", "analyses.oracle_crosscheck"),
    ("bohmpair.analyses", "uniqueness_claims", "analyses.uniqueness"),
    ("bohmpair.analyses", "density_discrepancy_claims", "analyses.density_discrepancy"),
    ("bohmpair.ensemble", "sample_configurations", "ensemble.sample"),
    ("bohmpair.ensemble", "build_ensemble", "ensemble.build"),
    ("bohmpair.ensemble", "evolve_ensemble", "ensemble.evolve"),
    ("bohmpair.ensemble", "compare_distribution", "ensemble.compare"),
    ("bohmpair.ensemble", "write_ensemble_csv", "ensemble.write_csv"),
    ("bohmpair.numerics", "integrate_ode", "numerics.integrate_ode"),
    ("bohmpair.oracles", "velocity_from_psi", "oracles.velocity_from_psi"),
    ("bohmpair.oracles", "phase_gradient", "oracles.phase_gradient"),
)

# (module, class, attribute, span name)
METHODS = (
    ("bohmpair.planewave", "PlaneWavePair", "rhs", "planewave.field"),
    ("bohmpair.planewave", "PlaneWavePair", "batch_rhs", "planewave.field"),
    ("bohmpair.planewave", "PlaneWavePair", "inverse_flow", "planewave.inverse_flow"),
    ("bohmpair.planewave", "PlaneWavePair", "density_batch", "planewave.density_batch"),
    ("bohmpair.spherical", "SlitPair", "rhs", "spherical.field"),
    ("bohmpair.spherical", "SlitPair", "batch_rhs", "spherical.field"),
    ("bohmpair.spherical", "SlitPair", "density_batch", "spherical.density_batch"),
    ("bohmpair.spherical", "SlitPair", "density_bound", "spherical.density_bound"),
    ("bohmpair.spherical", "SlitPair", "_norm_estimate", "spherical.norm"),
)

# Every span name gets a self time (``<name>_self_s``); the self times are
# disjoint and add up to the wall time of the cli.run roots.  These span
# names also get their inclusive span time (``<name>_s``).
SPAN_NAMES = tuple(dict.fromkeys([f[2] for f in FUNCTIONS] + [m[3] for m in METHODS]))
INCLUSIVE = ("analyses.uniqueness", "analyses.density_discrepancy", "ensemble.sample",
             "ensemble.write_csv", "planewave.field", "planewave.inverse_flow",
             "spherical.field", "spherical.density_batch", "spherical.density_bound",
             "spherical.norm", "oracles.velocity_from_psi", "oracles.phase_gradient")


class Tracer:
    """Spans kept in memory as (name, start, end, parent index) tuples, plus
    counters incremented at the same wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []          # span name by index, set at open
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[int] = []          # indices of the open spans
        self.counts: Counter = Counter()
        self.binding_sites: Counter = Counter()

    def parent_name(self) -> str | None:
        """Name of the span enclosing the innermost open span."""
        return self.names[self.stack[-2]] if len(self.stack) > 1 else None

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` recording a span per call; ``after(result, args)``
        runs inside the span to update counters."""
        names, spans, stack = self.names, self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            names.append(name)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    # -- aggregation ------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds (inclusive
        minus the time covered by direct child spans)."""
        if self.stack:
            raise RuntimeError("summary() called with spans still open")
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child[i]
        roots = sum(end - start for name, start, end, parent in spans if parent < 0)
        return {"calls": dict(calls), "total_s": dict(total), "self_s": dict(self_s),
                "root_s": roots}

    def fallback_members(self) -> int:
        """Per-member ``integrate_ode`` calls under an evolve span: every call
        beyond the one batched attempt each evolve span makes."""
        spans = self.spans
        evolves = sum(1 for s in spans if s[0] == "ensemble.evolve")
        under = sum(1 for s in spans
                    if s[0] == "numerics.integrate_ode" and s[3] >= 0
                    and spans[s[3]][0] == "ensemble.evolve")
        return under - evolves

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """The per-layer metrics of one traced process whose ``cli.run`` calls
    took ``wall_s`` seconds in all."""
    summary = tracer.summary()
    calls, total, self_s = summary["calls"], summary["total_s"], summary["self_s"]
    c = tracer.counts
    metrics = {f"{name}_self_s": self_s.get(name, 0.0) for name in SPAN_NAMES}
    metrics.update({f"{name}_s": total.get(name, 0.0) for name in INCLUSIVE})
    proposals = c["ensemble.sample_proposals"]
    metrics.update({
        "ensemble.sample_calls": calls.get("ensemble.sample", 0),
        "ensemble.sample_proposals": proposals,
        "ensemble.sample_rows": c["ensemble.sample_rows"],
        "ensemble.sample_acceptance": c["ensemble.sample_rows"] / proposals if proposals else 0.0,
        "ensemble.fallback_members": tracer.fallback_members(),
        "ensemble.csv_rows": c["ensemble.csv_rows"],
        "ensemble.csv_bytes": c["ensemble.csv_bytes"],
        "numerics.integrate_ode_calls": calls.get("numerics.integrate_ode", 0),
        "numerics.segments": c["numerics.segments"],
        "numerics.rhs_evals": c["numerics.rhs_evals"],
        "numerics.rhs_coords": c["numerics.rhs_coords"],
        "numerics.truncated": c["numerics.truncated"],
        "planewave.field_calls": calls.get("planewave.field", 0),
        "spherical.field_calls": calls.get("spherical.field", 0),
        "spherical.density_batch_points": c["spherical.density_batch_points"],
        "traced_wall_s": wall_s,
    })
    return metrics


def overhead_s(tracer: Tracer, calls: int = 100_000) -> float:
    """Estimated seconds the wrappers added to a traced run: its spans and
    counted right-hand-side evaluations, each times the cost of one, timed on
    a no-op (best of three rounds of ``calls`` calls, minus the bare calls).

    A direct traced-minus-untraced wall time is smaller than the run-to-run
    spread of a shared host, so it is not used."""
    def noop(t=None, y=None):
        return None

    def count_once(rhs, *args, **kwargs):
        return rhs
    counted = _count_rhs(Tracer(), count_once)(noop)
    best_span = best_rhs = float("inf")
    for _ in range(3):
        traced = Tracer().wrap("noop", noop)
        start = time.perf_counter()
        for _ in range(calls):
            noop(0.0, 0.0)
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced(0.0, 0.0)
        best_span = min(best_span, time.perf_counter() - start - bare)
        start = time.perf_counter()
        for _ in range(calls):
            counted(0.0, 0.0)
        best_rhs = min(best_rhs, time.perf_counter() - start - bare)
    return (len(tracer.spans) * best_span
            + tracer.counts["numerics.rhs_evals"] * best_rhs) / calls


def _counters(tracer: Tracer) -> dict:
    """Counter hooks keyed by span name; each runs inside its span."""
    c = tracer.counts

    def sample(result, args):
        c["ensemble.sample_rows"] += len(result[0])

    def density_batch(prefix):
        def after(result, args):
            c[prefix + ".density_batch_points"] += len(args[1])
            if tracer.parent_name() == "ensemble.sample":
                c["ensemble.sample_proposals"] += len(args[1])
        return after

    def write_csv(result, args):
        path, ensemble = args[0], args[1]
        c["ensemble.csv_rows"] += sum(len(m.times) for m in ensemble.members)
        c["ensemble.csv_bytes"] += os.path.getsize(path)

    def integrated(result, args):
        c["numerics.segments"] += len(result) - 1
        c["numerics.truncated"] += int(not result.complete)

    return {
        "ensemble.sample": sample,
        "planewave.density_batch": density_batch("planewave"),
        "spherical.density_batch": density_batch("spherical"),
        "ensemble.write_csv": write_csv,
        "numerics.integrate_ode": integrated,
    }


def _count_rhs(tracer: Tracer, integrate_ode):
    """Pass integrate_ode a right-hand side that counts its evaluations and
    the coordinates evaluated."""
    c = tracer.counts

    @functools.wraps(integrate_ode)
    def counting(rhs, *args, **kwargs):
        def counted(t, y):
            c["numerics.rhs_evals"] += 1
            c["numerics.rhs_coords"] += np.size(y)
            return rhs(t, y)
        return integrate_ode(counted, *args, **kwargs)

    return counting


@contextlib.contextmanager
def tracing():
    """Install the wrappers, yield the :class:`Tracer`, restore on exit."""
    tracer = Tracer()
    hooks = _counters(tracer)
    package = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "bohmpair" or name.startswith("bohmpair."))]
    undo = []
    try:
        for module_name, attr, span in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            fn = _count_rhs(tracer, original) if span == "numerics.integrate_ode" else original
            wrapped = tracer.wrap(span, fn, hooks.get(span))
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, value))
                        setattr(module, key, wrapped)
                        tracer.binding_sites[span] += 1
        for module_name, cls_name, attr, span in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, functools.cached_property):
                replacement = functools.cached_property(tracer.wrap(span, original.func))
                replacement.__set_name__(cls, attr)
            else:
                replacement = tracer.wrap(span, original, hooks.get(span))
            undo.append((cls, attr, original))
            setattr(cls, attr, replacement)
            tracer.binding_sites[span] += 1
        yield tracer
    finally:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)
