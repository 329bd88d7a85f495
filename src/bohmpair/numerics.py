"""Numerical kernel shared by the model modules: central-difference gradients,
ODE integration with truncation-aware dense output, and bracketed root finding
with a grid scanner for counting roots."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import RK45
from scipy.optimize import brentq

from .errors import BracketError, ModelDomainError

RK45_STAGES = 6  # right-hand-side evaluations per accepted adaptive step


@dataclass(frozen=True)
class IntegratorConfig:
    """Settings for :func:`integrate_ode`.

    ``method`` is ``"rk45"`` (adaptive, default) or ``"rk4"`` (fixed step).
    ``step`` applies to the fixed-step method only; ``rel_tol``/``abs_tol``
    to the adaptive one.  ``max_steps`` caps the work per call: it counts
    fixed steps exactly and adaptive steps through the evaluation budget
    of ``RK45_STAGES`` calls per step.
    """

    method: str = "rk45"
    step: float = 0.01
    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    max_steps: int = 1_000_000

    def __post_init__(self) -> None:
        if self.method not in ("rk45", "rk4"):
            raise ValueError(f"method must be 'rk45' or 'rk4', got {self.method!r}")
        if not self.step > 0:
            raise ValueError("step must be positive")
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("rel_tol and abs_tol must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered samples of an integrated flow.

    ``states`` has shape ``(len(times), dim)``; ``velocities`` holds the
    field evaluated at each sample (NaN where it could not be evaluated).
    ``complete`` is False when integration stopped early, in which case
    ``termination`` names the reason.
    """

    times: np.ndarray
    states: np.ndarray
    velocities: np.ndarray
    complete: bool = True
    termination: str = "completed"

    def __len__(self) -> int:
        return len(self.times)

    @property
    def initial_state(self) -> np.ndarray:
        return self.states[0]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    def sample_index(self, t: float, tol: float = 1e-9) -> int:
        """Index of the sample taken at time ``t`` (raises if absent)."""
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > tol:
            raise KeyError(f"no sample at t={t}")
        return idx


@dataclass(frozen=True)
class RootScanReport:
    """Outcome of a sign-change scan over a uniform grid."""

    interval: tuple[float, float]
    grid_points: int
    roots: tuple[float, ...]
    is_monotone_on_interval: bool

    @property
    def root_count(self) -> int:
        return len(self.roots)


def stencil_steps(x: np.ndarray) -> np.ndarray:
    """Default central-difference steps max(1e-6, 1e-8 |x_i|), balancing
    truncation against round-off."""
    return np.maximum(1e-6, 1e-8 * np.abs(x))


def central_gradient(f: Callable, x, h=None) -> np.ndarray:
    """Central-difference gradient of a scalar field at the point ``x``.

    Component ``i`` is (f(x + h_i e_i) - f(x - h_i e_i)) / (2 h_i), accurate
    to second order in the step.  The steps are :func:`stencil_steps` by
    default; pass ``h`` (scalar or per-component) to override.  Evaluation
    failures at a stencil point propagate to the caller.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if h is None:
        steps = stencil_steps(x)
    else:
        steps = np.broadcast_to(np.asarray(h, dtype=float), x.shape).copy()
        if np.any(steps <= 0):
            raise ValueError("finite-difference step must be positive")
    out = np.empty(x.shape, dtype=float)
    for i in range(x.size):
        offset = np.zeros_like(x)
        offset[i] = steps[i]
        out[i] = (f(x + offset) - f(x - offset)) / (2.0 * steps[i])
    return out


class _BudgetExhausted(Exception):
    pass


class _SegmentFailure(Exception):
    pass


class _EvalBudget:
    """Caps right-hand-side work for one integrate_ode call."""

    __slots__ = ("remaining",)

    def __init__(self, evaluations: int) -> None:
        self.remaining = evaluations

    def charge(self, n: int = 1) -> None:
        self.remaining -= n
        if self.remaining < 0:
            raise _BudgetExhausted


# Each stepper advances y from t_from to t_to and returns (y, f_start, f_end):
# the field it evaluated at the start and at the end of the segment, f_end
# None where the field is undefined there.  ``f`` is the field at the start
# when the caller already has it.

def _advance_rk45(rhs, y, f, t_from, t_to, cfg, budget):
    def counted(t, yy):
        budget.charge()
        return rhs(t, yy)

    # The stepping loop of solve_ivp(method="RK45") without its per-step
    # history: same steps and evaluations, only the final state is kept.
    # The solver evaluates the start field itself (``f`` goes unused); its
    # last stage is the field at the end (first same as last).
    solver = RK45(counted, float(t_from), y, float(t_to),
                  rtol=cfg.rel_tol, atol=cfg.abs_tol)
    f_start = solver.f
    while solver.status == "running":
        message = solver.step()
    if solver.status == "failed":
        raise _SegmentFailure(message)
    return solver.y, f_start, solver.f


def _advance_rk4(rhs, y, f, t_from, t_to, cfg, budget):
    span = t_to - t_from
    n = max(1, math.ceil(abs(span) / cfg.step))
    h = span / n
    f_start = f = np.asarray(rhs(t_from, y)) if f is None else f
    for i in range(n):
        # Four evaluations a step: k2, k3, k4 and the next step's k1.
        budget.charge(4)
        t = t_from + i * h
        k2 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * f))
        k3 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k2))
        k4 = np.asarray(rhs(t + h, y + h * k3))
        y = y + (h / 6.0) * (f + 2.0 * k2 + 2.0 * k3 + k4)
        if i < n - 1:
            f = np.asarray(rhs(t_from + (i + 1) * h, y))
    try:
        f_end = np.asarray(rhs(t_to, y))
    except ModelDomainError:
        f_end = None
    return y, f_start, f_end


def sample_grid(t0: float, t_end: float, sample_times) -> np.ndarray:
    """Sample times of an integration from ``t0`` to ``t_end``: the requested
    times in the direction of integration, framed by both end points."""
    if sample_times is None:
        return np.linspace(t0, t_end, 201) if t_end != t0 else np.array([t0])
    ts = np.unique(np.asarray(sample_times, dtype=float))
    lo, hi = min(t0, t_end), max(t0, t_end)
    if np.any(ts < lo - 1e-12) or np.any(ts > hi + 1e-12):
        raise ValueError("sample_times must lie between the initial and final time")
    if t_end < t0:
        ts = ts[::-1]
    if ts.size == 0 or ts[0] != t0:
        ts = np.concatenate([[t0], ts])
    if ts[-1] != t_end:
        ts = np.concatenate([ts, [t_end]])
    return ts


def integrate_ode(rhs: Callable, y0, t0: float, t_end: float,
                  config: IntegratorConfig | None = None,
                  sample_times: Sequence[float] | None = None) -> Trajectory:
    """Integrate ``dy/dt = rhs(t, y)`` from ``t0`` to ``t_end`` (either
    direction) and return samples at the requested times.

    The integrator lands exactly on each sample time.  If the field raises
    :class:`ModelDomainError`, the step budget runs out, or the adaptive
    stepper stalls, the trajectory is truncated at the last completed sample
    and the reason is recorded in ``termination``.

    Sample velocities are field values the steppers evaluated anyway: RK45's
    first and last stages, RK4's k1 and segment-end evaluation.  The field is
    taken to be autonomous (both models' fields ignore ``t``): RK45's last
    stage is evaluated at its own step end, which may differ from the sample
    time in the last bit.  A sample whose field no stepper evaluated gets it
    evaluated here, NaN where it is undefined.
    """
    cfg = config or IntegratorConfig()
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    ts = sample_grid(t0, t_end, sample_times)
    advance = _advance_rk45 if cfg.method == "rk45" else _advance_rk4
    evals = RK45_STAGES * cfg.max_steps if cfg.method == "rk45" else 4 * cfg.max_steps
    budget = _EvalBudget(evals)

    states = [y.copy()]
    fields = [None]
    kept = [ts[0]]
    f = None
    complete, termination = True, "completed"
    for target in ts[1:]:
        try:
            y, f_start, f = advance(rhs, y, f, kept[-1], target, cfg, budget)
        except _BudgetExhausted:
            complete, termination = False, "max_steps"
            break
        except _SegmentFailure as exc:
            complete, termination = False, f"integration_failure: {exc}"
            break
        except ModelDomainError as exc:
            complete, termination = False, f"domain_error: {exc}"
            break
        if fields[-1] is None:
            fields[-1] = f_start
        states.append(np.asarray(y, dtype=float).copy())
        fields.append(f)
        kept.append(float(target))

    times = np.asarray(kept, dtype=float)
    states_arr = np.asarray(states, dtype=float)
    velocities = np.full_like(states_arr, np.nan)
    for i, field in enumerate(fields):
        try:
            velocities[i] = rhs(times[i], states_arr[i]) if field is None else field
        except ModelDomainError:
            pass
    return Trajectory(times=times, states=states_arr, velocities=velocities,
                      complete=complete, termination=termination)


def bracketed_root(g: Callable[[float], float], lo: float, hi: float,
                   tol: float = 1e-10) -> float:
    """Root of ``g`` inside ``[lo, hi]``; requires a sign change on the bracket."""
    flo, fhi = g(lo), g(hi)
    if flo == 0.0:
        return float(lo)
    if fhi == 0.0:
        return float(hi)
    if flo * fhi > 0:
        raise BracketError(f"g({lo}) = {flo} and g({hi}) = {fhi} do not bracket a root")
    return float(brentq(g, lo, hi, xtol=tol))


def scan_roots(g: Callable, lo: float, hi: float, grid: int = 1001,
               tol: float = 1e-10) -> RootScanReport:
    """Locate every sign-change root of ``g`` on a uniform grid over
    ``[lo, hi]`` and report whether the sampled values are monotone.

    ``g`` may be vectorised over numpy arrays; scalar-only callables are
    evaluated pointwise.  Exact zeros at grid points count as roots.
    """
    if grid < 2:
        raise ValueError("grid must have at least 2 points")
    xs = np.linspace(lo, hi, grid)
    try:
        vals = np.asarray(g(xs), dtype=float)
        if vals.shape != xs.shape:
            raise TypeError
    except TypeError:
        vals = np.array([float(g(x)) for x in xs])

    roots: list[float] = [float(xs[i]) for i in np.nonzero(vals == 0.0)[0]]
    products = vals[:-1] * vals[1:]
    for i in np.nonzero(products < 0)[0]:
        roots.append(bracketed_root(g, xs[i], xs[i + 1], tol=tol))
    roots.sort()

    spacing = (hi - lo) / (grid - 1)
    deduped: list[float] = []
    for r in roots:
        if not deduped or r - deduped[-1] > 0.5 * spacing:
            deduped.append(r)

    diffs = np.diff(vals)
    monotone = not (np.any(diffs > 0) and np.any(diffs < 0))
    return RootScanReport(interval=(float(lo), float(hi)), grid_points=grid,
                          roots=tuple(deduped), is_monotone_on_interval=monotone)
