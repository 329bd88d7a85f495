"""Numerical kernel shared by the model modules: central-difference steps,
batched ODE integration with per-member step control and dense output, and
bracketed root finding with a grid scanner for counting roots."""

from __future__ import annotations

import math
import mmap
import os
import pickle
import signal
from collections.abc import Sequence
from dataclasses import astuple, dataclass, field
from fractions import Fraction
from typing import BinaryIO, Callable, NoReturn

import numpy as np

from .errors import BracketError, ModelDomainError

# Distance from a requested time within which TrajectoryBatch.states_at takes
# a sample as at that time.
SAMPLE_TIME_TOL = 1e-9
# Bracket width at which bracketed_root stops bisecting.
ROOT_TOL = 1e-10
# Fewest members per block for integrate_ode to split a batch across CPUs
# (a fork costs what _fork_blocks says): 2048 plane-wave members took 0.12 s
# to integrate to t = 3 on one core of a 2-core x86-64 host; 4096 such
# members took 0.23 s in one block and 0.18 s in two.
MIN_BLOCK_ROWS = 2048
# Most rows a large array pass works on at once: integrate_ode's chunks of
# members, the root scan's grid blocks, and the plane-wave pull-back's
# separations and the Kolmogorov-Smirnov statistic's sorted samples that
# compare_distribution works through.  One
# 50,000-member plane-wave block integrated to t = 3 on one core of a 2-core
# x86-64 host took 0.87 s whole, 0.78 s and 0.77 s in chunks of 16,384 and
# 8,192 members, 0.83 s in chunks of 4,096 and 1.00 s in chunks of 2,048
# (medians of 5); in chunks of 8,192 its traced peak memory fell from 14.9
# to 5.7 MiB.
BLOCK_ROWS = 8192


@dataclass(frozen=True)
class IntegratorConfig:
    """Settings for :func:`integrate_ode`, which steps by adaptive
    Dormand-Prince 5(4): ``rel_tol``/``abs_tol`` scale each step's error
    estimate, and ``max_steps`` caps one member's step attempts, rejected
    ones included.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    max_steps: int = 1_000_000

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("rel_tol and abs_tol must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass(frozen=True)
class IntegratorWork:
    """What one :func:`integrate_ode` call did, summed over its members:
    field evaluations (one per member row passed to the field), step
    attempts accepted and rejected, and the member blocks it ran in (one
    per process)."""

    rhs_evals: int = 0
    accepted_steps: int = 0
    rejected_steps: int = 0
    blocks: int = 0


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


@dataclass(frozen=True)
class TrajectoryBatch:
    """Samples of a batch of trajectories at shared sample times.

    ``states`` and ``velocities`` have shape ``(len(times), size, dim)``.
    Member ``i`` holds ``lengths[i]`` samples (``int32``); past a truncation
    its states and velocities are NaN.  ``codes[i]`` (``int8``) indexes the
    reason it stopped in ``_REASONS`` (``_COMPLETED`` if it did not).  The
    arrays are read-only.  ``work`` counts what the integration did (zero
    for a batch that was not integrated).
    """

    times: np.ndarray
    states: np.ndarray
    velocities: np.ndarray
    lengths: np.ndarray
    codes: np.ndarray
    work: IntegratorWork = field(default=IntegratorWork(), kw_only=True)

    def __post_init__(self) -> None:
        for array in (self.times, self.states, self.velocities, self.lengths, self.codes):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.times)

    @property
    def size(self) -> int:
        return self.states.shape[1]

    @property
    def complete(self) -> bool:
        """True when every member reached the last sample time."""
        return bool(np.all(self.lengths == len(self.times)))

    @property
    def survival_fraction(self) -> float:
        if not self.size:
            return 0.0
        return np.count_nonzero(self.lengths == len(self.times)) / self.size

    @property
    def members(self) -> Sequence[Trajectory]:
        """Read-only per-member view; each access builds a :class:`Trajectory`."""
        return _Members(self)

    def member(self, i: int) -> Trajectory:
        """Member ``i`` as a :class:`Trajectory` of views into the arrays."""
        i = range(self.size)[i]
        k = self.lengths[i]
        return Trajectory(times=self.times[:k], states=self.states[:k, i],
                          velocities=self.velocities[:k, i],
                          complete=bool(k == len(self.times)),
                          termination=_REASONS[self.codes[i]])

    def states_at(self, t: float) -> np.ndarray:
        """Configurations of every member holding a sample within
        ``SAMPLE_TIME_TOL`` of time ``t`` (truncated members are skipped past
        their last sample): a read-only view of ``states`` when every member
        holds that sample, else a copy of the rows that do."""
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > SAMPLE_TIME_TOL:
            return np.empty((0, self.states.shape[2]))
        held = self.lengths > idx
        return self.states[idx] if held.all() else self.states[idx, held]

    def initial_states(self) -> np.ndarray:
        return self.states[0]


class _Members(Sequence):
    """Sequence of a batch's members, built one by one on access."""

    __slots__ = ("_batch",)

    def __init__(self, batch: TrajectoryBatch) -> None:
        self._batch = batch

    def __len__(self) -> int:
        return self._batch.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._batch.member(j) for j in range(self._batch.size)[i]]
        return self._batch.member(i)


def require_defined(values: np.ndarray, message: str) -> np.ndarray:
    """``values`` unchanged, or :class:`ModelDomainError` with ``message``
    if any of them is NaN: the raising form of a field that returns NaN rows
    where it is undefined."""
    if np.isnan(values).any():
        raise ModelDomainError(message)
    return values


def stencil_steps(x: np.ndarray) -> np.ndarray:
    """Central-difference steps max(1e-6, 1e-8 |x_i|), balancing truncation
    against round-off."""
    return np.maximum(1e-6, 1e-8 * np.abs(x))


# -- ODE integration -----------------------------------------------------------

def _row(*coefficients: str) -> tuple[tuple[float, ...], float]:
    """A tableau row as integer numerators over their common denominator."""
    fractions = [Fraction(c) for c in coefficients]
    den = math.lcm(*(f.denominator for f in fractions))
    return tuple(float(f * den) for f in fractions), float(den)


# Dormand & Prince, J. Comput. Appl. Math. 6 (1980) 19-26: a fifth-order
# solution with a fourth-order error estimate, as (nodes, rows, error): the
# times t + c h and inputs y + (h / den)(n_1 k_1 + n_2 k_2 + ...) of stages
# 2..7, the last row being the solution weights, so the last stage is the
# field at the step's end and the next step's first (first same as last);
# and the weights of the embedded error estimate over all seven stages.
DORMAND_PRINCE = (
    (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0),
    (_row("1/5"),
     _row("3/40", "9/40"),
     _row("44/45", "-56/15", "32/9"),
     _row("19372/6561", "-25360/2187", "64448/6561", "-212/729"),
     _row("9017/3168", "-355/33", "46732/5247", "49/176", "-5103/18656"),
     _row("35/384", "0", "500/1113", "125/192", "-2187/6784", "11/84")),
    _row("71/57600", "0", "-71/16695", "71/1920", "-17253/339200", "22/525", "-1/40"))

# Shampine's free continuous extension of DORMAND_PRINCE (Math. Comp. 46
# (1986) 135), a quartic u(x) = y + h (b_1(x) k_1 + ... + b_7(x) k_7) at the
# fraction x of the step, with b_i(x) = P_i1 x + P_i2 x^2 + P_i3 x^3 + P_i4 x^4.
_FREE_QUARTIC = (
    ("1", "-8048581381/2820520608", "8663915743/2820520608", "-12715105075/11282082432"),
    ("0", "0", "0", "0"),
    ("0", "131558114200/32700410799", "-68118460800/10900136933", "87487479700/32700410799"),
    ("0", "-1754552775/470086768", "14199869525/1410260304", "-10690763975/1880347072"),
    ("0", "127303824393/49829197408", "-318862633887/49829197408", "701980252875/199316789632"),
    ("0", "-282668133/205662961", "2019193451/616988883", "-1453857185/822651844"),
    ("0", "40617522/29380423", "-110615467/29380423", "69997945/29380423"))


def _quartic_row(x: Fraction) -> tuple[tuple[float, ...], float]:
    """The stage weights b_i(x) of the free quartic as a tableau row."""
    return _row(*(sum(Fraction(p) * x ** (j + 1) for j, p in enumerate(ps))
                  for ps in _FREE_QUARTIC))


# Dense output one order above the free quartic, by bootstrapping (Enright,
# Jackson, Norsett & Thomsen, ACM TOMS 12 (1986) 193): the field g_1, g_2 at
# u(1/3), u(2/3) and the step's data fix the quintic
# p(x) = y + h (c_1 x + ... + c_5 x^5) through p(1) = y_new, p'(0) = h f,
# p'(1) = h f_new, p'(1/3) = h g_1 and p'(2/3) = h g_2.  As (nodes, the
# quartic's rows at them, rows c_1..c_5 over the data
# (y_new - y) / h, f, f_new, g_1, g_2).
BOOTSTRAP = (
    (1 / 3, 2 / 3),
    (_quartic_row(Fraction(1, 3)), _quartic_row(Fraction(2, 3))),
    (_row("0", "1", "0", "0", "0"),
     _row("30", "-13/2", "-13/4", "-27/4", "-27/2"),
     _row("-110", "67/4", "49/4", "135/4", "189/4"),
     _row("135", "-18", "-63/4", "-189/4", "-54"),
     _row("-54", "27/4", "27/4", "81/4", "81/4")))

# Step-size control as in Hairer, Norsett & Wanner, Solving ODEs I, II.4: the
# initial-step rule, safety factor 0.9, at most a 5x shrink per rejection and
# no growth right after one.  Growth is capped at 2x per step (scipy allows
# 10x): with 10x, an error estimate that passes near zero lets a step grow
# into an accept its true error does not earn, and about 0.1 % of plane-wave
# members ended with a pull-back residual above 1e-6.  With 2x, 37 of 20,000
# members at (a, b) = (1, 0.5) still do (seed 3, t = 3; at most 1.41e-6).
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 2.0
ERROR_EXPONENT = -1.0 / 5.0      # the error estimate is of fourth order

TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

# Why a member stopped, by code.
_REASONS = ("completed", "domain_error: field undefined",
            "max_steps", f"integration_failure: {TOO_SMALL_STEP}")
_COMPLETED, _DOMAIN, _MAX_STEPS, _FAILED = range(len(_REASONS))


def _rms(x: np.ndarray) -> np.ndarray:
    """Root mean square of each row, summed column by column so that a row's
    value never depends on the other rows."""
    total = x[:, 0] ** 2
    for j in range(1, x.shape[1]):
        total = total + x[:, j] ** 2
    return np.sqrt(total / x.shape[1])


def _nan_rows(x: np.ndarray) -> np.ndarray:
    """Rows of ``x`` holding a NaN (or both infinities); a reduction over
    each short row of a large batch is slower than this product."""
    return np.isnan(x @ np.ones(x.shape[1]))


def _initial_steps(field, t, y, f, span: float, cfg: IntegratorConfig):
    """First step of each row, signed, by the rule of Hairer, Norsett & Wanner
    (scipy's ``select_initial_step``), and the rows whose probe point the
    field is undefined at."""
    scale = cfg.abs_tol + np.abs(y) * cfg.rel_tol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / np.maximum(d1, 1e-5))
    h0 = math.copysign(1.0, span) * np.minimum(h0, abs(span))
    probe = field(t + h0, y + h0[:, None] * f)
    d = np.maximum(d1, _rms((probe - f) / scale) / np.abs(h0))
    h1 = np.where(d <= 1e-15, np.maximum(1e-6, np.abs(h0) * 1e-3),
                  (0.01 / np.maximum(d, 1e-15)) ** -ERROR_EXPONENT)
    h = np.minimum(np.minimum(100 * np.abs(h0), h1), abs(span))
    return math.copysign(1.0, span) * h, _nan_rows(probe)


def _combine(row, stages, h: np.ndarray) -> np.ndarray:
    """(h / den)(n_1 k_1 + n_2 k_2 + ...) per row, summed left to right over
    the nonzero numerators."""
    nums, den = row
    total = None
    for num, k in zip(nums, stages):
        if num and total is None:
            total = num * k
        elif num:
            total += num * k
    total *= (h / den)[:, None]
    return total


def _attempt(field, t, y, f, h, keep=None):
    """One Dormand-Prince step of size ``h`` from each row: the new states,
    the field there, the rows whose field was undefined at a stage, the
    error estimate, and the seven stages of the rows in the mask ``keep``
    (None without one or when it holds no row; the other rows' stages are
    dropped here)."""
    nodes, rows, error_row = DORMAND_PRINCE
    stages = [f]
    for c, row in zip(nodes, rows):
        y_new = _combine(row, stages, h)
        y_new += y
        stages.append(field(t + c * h, y_new))
    undefined = np.any([_nan_rows(k) for k in stages[1:]], axis=0)
    kept = [k[keep] for k in stages] if keep is not None and keep.any() else None
    return y_new, stages[-1], undefined, _combine(error_row, stages, h), kept


def _control(error, y, y_new, accept, rejected, step, cfg: IntegratorConfig):
    """Accept each row's attempt by its own error norm and set its next step
    by the controller."""
    error = _rms(error / (cfg.abs_tol + np.maximum(np.abs(y), np.abs(y_new)) * cfg.rel_tol))
    with np.errstate(divide="ignore"):
        factor = np.minimum(MAX_FACTOR, SAFETY * error ** ERROR_EXPONENT)
    accept = accept & (error < 1.0)
    factor = np.where(accept, np.where(rejected, np.minimum(1.0, factor), factor),
                      np.maximum(MIN_FACTOR, factor))
    return accept, step * factor


def _interpolate(field, ts, sign, t, y, y_new, t_new, h, stages, held):
    """States at the sample times inside each row's accepted step from
    ``t`` to ``t_new``: those from index ``held`` on that lie before both
    ``t_new`` and the last sample, from the bootstrapped quintic
    (``BOOTSTRAP``), whose field values at both nodes come from one call.
    Returns their sample indices, the row each belongs to and the states,
    each row's next sample index, and the rows whose field is undefined at
    a node (which get no samples)."""
    nodes, quartic_rows, rows = BOOTSTRAP
    probes = []
    for row in quartic_rows:
        u = _combine(row, stages, h)
        u += y
        probes.append(u)
    g = field(np.concatenate([t + c * h for c in nodes]), np.concatenate(probes))
    g1, g2 = g[:len(y)], g[len(y):]
    data = ((y_new - y) / h[:, None], stages[0], stages[-1], g1, g2)
    coeffs = [_combine(row, data, h) for row in rows]     # h c_1, ..., h c_5
    bad = _nan_rows(g1) | _nan_rows(g2)
    end = np.minimum(np.searchsorted(sign * ts, sign * t_new), len(ts) - 1)
    count = np.where(bad, 0, end - held)
    row = np.repeat(np.arange(len(t)), count)
    idx = held[row] + np.arange(row.size) - np.repeat(np.cumsum(count) - count, count)
    x = ((ts[idx] - t[row]) / h[row])[:, None]
    value = coeffs[-1][row]
    for c in coeffs[-2::-1]:
        value = value * x + c[row]
    return idx, row, y[row] + value * x, held + count, bad


def sorted_unique(x) -> np.ndarray:
    """The distinct values of ``x``, flattened and sorted: ``np.unique`` for
    arrays without NaN, bit for bit, without importing ``numpy.ma``, which
    ``np.unique`` does on first use (1.2 MiB resident with numpy 2.4)."""
    x = np.sort(x, axis=None)
    keep = np.ones(x.shape, bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def _sample_grid(t0: float, t_end: float, sample_times) -> np.ndarray:
    """Sample times of an integration from ``t0`` to ``t_end``: the requested
    times, if any, in the direction of integration, framed by both end
    points.  A time up to 1e-12 outside the span is taken as the end point
    it passes."""
    ts = np.asarray([] if sample_times is None else sample_times, dtype=float)
    lo, hi = min(t0, t_end), max(t0, t_end)
    if not np.all((ts >= lo - 1e-12) & (ts <= hi + 1e-12)):     # NaN included
        raise ValueError("sample_times must lie between the initial and final time")
    ts = sorted_unique(np.clip(ts, lo, hi))
    if t_end < t0:
        ts = ts[::-1]
    if ts.size == 0 or ts[0] != t0:
        ts = np.concatenate([[t0], ts])
    if ts[-1] != t_end:
        ts = np.concatenate([ts, [t_end]])
    return ts


def integrate_ode(rhs: Callable, y0, t0: float, t_end: float,
                  config: IntegratorConfig | None = None,
                  sample_times: Sequence[float] | None = None):
    """Integrate ``dy/dt = rhs(t, y)`` for a batch of states from ``t0`` to
    ``t_end`` (either direction) by adaptive Dormand-Prince 5(4), sampling
    each member at the requested times and at both end points (only there
    when ``sample_times`` is None).

    ``y0`` has shape ``(n, dim)`` and the result is a :class:`TrajectoryBatch`
    (``member(i)`` views one member as a :class:`Trajectory`).  ``rhs`` gets
    the running members' times ``(m,)`` and rows ``(m, dim)`` and returns a
    NaN row where the field is undefined.

    Each member has its own step size, error norm, step count and
    termination, so its samples are bitwise the same in any batch.  It steps
    freely, clipping a step only to land on ``t_end``; a sample time before
    the end of an accepted step takes its state from the step's
    bootstrapped quintic (``BOOTSTRAP``), whose two extra field values come
    from one more ``rhs`` call over the rows that have such a sample.  An
    attempt over a sample that meets an undefined field, at a stage or a
    bootstrap node, is tried once more with its step clipped to land on
    that sample; when that fails too, the member stops at its last sample
    (``domain_error``).  It also stops after ``max_steps`` step attempts,
    or when its step falls below ten float spacings
    (``integration_failure``).  Sample velocities are the field at each
    sample state: at ``t0``, ``t_end`` and landed samples the stepper's own
    evaluations, at interpolated samples one ``rhs`` call over all of them
    after the loop (at the sample time, or at ``t_end`` a time that may
    differ from it in the last bit; both models' fields ignore ``t``).  An
    interpolated sample the field is undefined at ends its member there
    (``domain_error``).

    A batch of at least ``MIN_BLOCK_ROWS`` members per CPU that this
    process may run on (``os.sched_getaffinity``) is split into one
    contiguous block of members per CPU: this process integrates the first
    and forked children the others.  The result's arrays live in an
    anonymous shared mapping, so every process writes its members into
    them in place, and a child sends back only its pickled work.  Every
    process integrates its block in chunks of at most ``BLOCK_ROWS``
    members.  As each member's samples are the same in any batch, so is the
    result; ``rhs`` then runs in the children too, and what it records
    there is lost.  Where ``os.fork`` is missing the batch runs in this
    process.
    """
    cfg = config or IntegratorConfig()
    y = np.asarray(y0, dtype=float)
    n, dim = y.shape
    ts = _sample_grid(t0, t_end, sample_times)
    out = (_shared((len(ts), n, dim), np.nan, float), _shared((len(ts), n, dim), np.nan, float),
           _shared((n,), 1, np.int32), _shared((n,), _COMPLETED, np.int8))
    blocks = _block_count(n, MIN_BLOCK_ROWS)
    # The blocks of np.array_split: the first n % blocks hold one more row.
    edges = [i * (n // blocks) + min(i, n % blocks) for i in range(blocks + 1)]

    def block(i: int) -> IntegratorWork:
        lo, hi = edges[i], edges[i + 1]
        return _integrate_block(rhs, y[lo:hi], ts, cfg, _rows(out, lo, hi))

    works = _fork_blocks(blocks, lambda: block(0),
                         lambda i: pickle.dumps(block(i), pickle.HIGHEST_PROTOCOL), pickle.load)
    states, velocities, lengths, codes = out
    return TrajectoryBatch(times=ts, states=states, velocities=velocities, lengths=lengths,
                           codes=codes,
                           work=IntegratorWork(*map(sum, zip(*map(astuple, works)))))


def _shared(shape: tuple[int, ...], value, dtype) -> np.ndarray:
    """An array of ``shape`` filled with ``value`` in an anonymous shared
    mapping, which forked children write into in place."""
    dtype = np.dtype(dtype)
    count = math.prod(shape)
    array = np.frombuffer(mmap.mmap(-1, max(count * dtype.itemsize, 1)), dtype, count)
    array[:] = value
    return array.reshape(shape)


def _rows(out, lo: int, hi: int) -> tuple[np.ndarray, ...]:
    """Views of members ``lo`` to ``hi - 1`` in the (states, velocities,
    lengths, termination codes) arrays ``out`` of :func:`integrate_ode`."""
    states, velocities, lengths, code = out
    return states[:, lo:hi], velocities[:, lo:hi], lengths[lo:hi], code[lo:hi]


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # not on Linux
        return os.cpu_count() or 1


def _block_count(work: int, floor: int) -> int:
    """How many blocks to split ``work`` units into: one per CPU, while
    each block keeps at least ``floor`` units, and 1 where ``os.fork`` is
    missing."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(_cpu_count(), work // floor))


def _fork_blocks(blocks: int, first: Callable, child: Callable[[int], bytes],
                 receive: Callable[[BinaryIO], object]) -> list:
    """``[first(), receive(pipe 1), ..., receive(pipe blocks - 1)]``: block
    0 runs here as ``first()``, and each block ``i`` from 1 on runs in a
    forked child as ``child(i)``, whose bytes come back through the child's
    own pipe, read here in block order by ``receive``, which gets the pipe
    as a binary file and must leave it at the end of those bytes.  With one
    block nothing is forked.  The children of :func:`integrate_ode` send
    only their pickled work, as their members are already in its shared
    result; those of ``ensemble.write_ensemble_csv`` send their formatted
    rows.

    A child first sends whether ``child(i)`` raised, so its exception is
    raised here; a child that ends without sending, ends before the last
    byte ``receive`` reads (an :class:`EOFError` from it), or exits with a
    failure after sending, is a :class:`RuntimeError`.  On any exception
    the children are killed; every child is reaped before returning.  A
    child ends by ``os._exit``, so it flushes no buffer it inherited; a
    caller that has written to a file flushes it before calling.

    A fork, a pipe and a reap took 3.6-4.8 ms (15 runs) in a 70 MiB process
    on a 2-core x86-64 host, so callers split only work that takes several
    times that.
    """
    children = []       # (pid, read end of the pipe from it), until reaped
    try:
        for i in range(1, blocks):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                _send_block(write, child, i)
            os.close(write)
            children.append((pid, read))
        results = [first()]
        while children:
            pid, read = children[0]
            with open(read, "rb", closefd=False) as pipe:
                try:
                    ok, error = pickle.load(pipe)
                    if ok:
                        results.append(receive(pipe))
                except (EOFError, pickle.UnpicklingError):
                    ok, error = False, None
            del children[0]
            os.close(read)
            if os.waitpid(pid, 0)[1] or not ok:
                raise error or RuntimeError(f"block process {pid} ended without a result")
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read in children:
            os.close(read)
            os.waitpid(pid, 0)
    return results


def _send_block(write: int, child, i: int) -> NoReturn:
    """In a forked child: write ``(True, None)`` and the bytes of
    ``child(i)``, or ``(False, exception)`` if it raised, to the pipe
    ``write``, and exit without returning to the caller's code."""
    code = 1
    try:
        try:
            status, data = (True, None), child(i)
        except BaseException as exc:
            status, data = (False, exc), b""
        try:
            header = pickle.dumps(status, pickle.HIGHEST_PROTOCOL)
        except Exception:       # an exception that does not pickle
            header = pickle.dumps((False, RuntimeError(f"a block raised {status[1]!r}")))
        with open(write, "wb") as pipe:
            pipe.write(header)
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _integrate_block(rhs, y: np.ndarray, ts: np.ndarray, cfg: IntegratorConfig,
                     out) -> IntegratorWork:
    """:func:`integrate_ode` of the rows ``y`` over the sample grid ``ts``
    in this process, into ``out`` (:func:`_rows` of them), in chunks of at
    most ``BLOCK_ROWS`` members: a chunk's stage arrays, not the block's,
    set the peak memory.  One block's work."""
    works = [_integrate_chunk(rhs, y[lo:lo + BLOCK_ROWS], ts, cfg,
                              _rows(out, lo, lo + BLOCK_ROWS))
             for lo in range(0, len(y), BLOCK_ROWS)]
    return IntegratorWork(*map(sum, zip(*works)), blocks=1)


def _integrate_chunk(rhs, y: np.ndarray, ts: np.ndarray, cfg: IntegratorConfig,
                     out) -> tuple[int, int, int]:
    """Integrate the rows ``y`` into ``out``, (states, velocities, lengths,
    termination codes) set to NaN, NaN, 1 and ``_COMPLETED``; returns the
    field evaluations and the accepted and rejected steps."""
    t0, t_end = float(ts[0]), float(ts[-1])
    evals = 0

    def counted(t, y):
        nonlocal evals
        evals += len(y)
        return rhs(t, y)

    states, velocities, lengths, code = out
    n = len(y)
    f = counted(np.full(n, ts[0]), y)
    states[0], velocities[0] = y, f
    code[_nan_rows(f)] = _DOMAIN
    # The direction of integration, the last sample's index, and the
    # (sample, member) indices filled by interpolation.
    sign = math.copysign(1.0, t_end - t0)
    last, filled = len(ts) - 1, []
    steps_accepted = steps_rejected = 0

    # One entry per running member: id, time, state, field, samples held,
    # step attempts, step, whether the last attempt met an undefined field
    # or was rejected, and whether the next attempt lands on the next sample.
    ids = np.flatnonzero(code == _COMPLETED) if len(ts) > 1 else np.empty(0, np.intp)
    m = len(ids)
    t, y, f = np.full(m, ts[0]), y[ids], f[ids]
    held, tries = np.ones(m, np.int32), np.zeros(m, np.int32)
    h, undefined, rejected = np.zeros(m), np.zeros(m, bool), np.zeros(m, bool)
    clip = np.zeros(m, bool)
    if m:
        h, undefined = _initial_steps(counted, t, y, f, t_end - t0, cfg)

    while ids.size:
        reason = np.where(undefined, _DOMAIN,
                          np.where(tries >= cfg.max_steps, _MAX_STEPS, _COMPLETED))
        reason[(reason == _COMPLETED)
               & (np.abs(h) < 10 * np.abs(np.nextafter(t, t_end) - t))] = _FAILED
        done = (reason != _COMPLETED) | (held == len(ts))
        if done.any():
            lengths[ids[done]], code[ids[done]] = held[done], reason[done]
            ids, t, y, f, held, tries, h, rejected, clip = (
                a[~done] for a in (ids, t, y, f, held, tries, h, rejected, clip))
            if not ids.size:
                break

        target = np.where(clip, ts[held], t_end) if last > 1 else t_end
        land = np.abs(target - t) <= np.abs(h)
        step = np.where(land, target - t, h)
        dense = None
        if last > 1:    # rows whose next sample, not the last, lies before their attempt's end
            t_new = np.where(land, target, t + step)
            dense = (held < last) & (sign * ts[held] < sign * t_new)
        y_new, f_new, undefined, error, stages = _attempt(counted, t, y, f, step, dense)
        accept, h = _control(error, y, y_new, ~undefined, rejected, step, cfg)

        if dense is not None:
            if (fits := accept[dense]).any():
                rows = np.flatnonzero(dense)[fits]
                idx, owner, values, end, bad = _interpolate(
                    counted, ts, sign, t[rows], y[rows], y_new[rows], t_new[rows],
                    step[rows], [k[fits] for k in stages], held[rows])
                accept[rows[bad]], undefined[rows[bad]] = False, True
                members = ids[rows[owner]]
                states[idx, members] = values
                filled.append((idx, members))
                held[rows] = end
            # An attempt over a sample that met an undefined field is tried
            # once more, landing on that sample, before the member stops.
            retry = dense & undefined
            undefined &= ~retry
            h[retry] = step[retry]
            clip = retry | (clip & ~(accept & land))

        rejected = ~accept
        tries += 1
        steps_accepted += int(np.count_nonzero(accept))
        steps_rejected += int(np.count_nonzero(rejected))

        landed = accept & land
        t = np.where(accept, np.where(land, target, t + step), t)
        y = np.where(accept[:, None], y_new, y)
        f = np.where(accept[:, None], f_new, f)
        states[held[landed], ids[landed]] = y[landed]
        velocities[held[landed], ids[landed]] = f[landed]
        held = held + landed
        del y_new, f_new, error, stages     # before the next attempt (peak memory)

    if filled:
        idx, members = (np.concatenate(a) for a in zip(*filled))
        velocities[idx, members] = v = counted(ts[idx], states[idx, members])
        # A sample state the field is undefined at ends its member there.
        cut, nan = np.full(n, len(ts)), _nan_rows(v)
        np.minimum.at(cut, members[nan], idx[nan])
        for i in np.flatnonzero(cut < lengths):
            lengths[i], code[i] = cut[i], _DOMAIN
            states[cut[i]:, i] = velocities[cut[i]:, i] = np.nan
    return evals, steps_accepted, steps_rejected


def bracketed_root(g: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of ``g`` inside ``[lo, hi]`` within ``ROOT_TOL``, by bisection;
    requires a sign change on the bracket.  Stops at adjacent floats when
    ``ROOT_TOL`` is below the float spacing at the root."""
    flo, fhi = g(lo), g(hi)
    if flo == 0.0:
        return float(lo)
    if fhi == 0.0:
        return float(hi)
    if flo * fhi > 0:
        raise BracketError(f"g({lo}) = {flo} and g({hi}) = {fhi} do not bracket a root")
    while True:
        mid = 0.5 * (lo + hi)
        if abs(hi - lo) <= 2.0 * ROOT_TOL or mid == lo or mid == hi:
            return float(mid)
        fmid = g(mid)
        if fmid == 0.0:
            return float(mid)
        if (fmid < 0) == (flo < 0):
            lo, flo = mid, fmid
        else:
            hi = mid


def scan_roots(g: Callable, lo: float, hi: float, grid: int) -> tuple[tuple[float, ...], bool]:
    """Locate every sign-change root of ``g`` on a uniform grid over
    ``[lo, hi]``: returns the sorted roots and whether the sampled values
    are monotone.

    ``g`` must be elementwise: it is evaluated on blocks of at most
    ``BLOCK_ROWS + 1`` grid points (``np.linspace(lo, hi, grid)``, bit for
    bit), each sharing its last point with the next block, so no array
    spans the grid; then on scalars while bisecting each bracket.  Exact
    zeros at grid points count as roots.
    """
    if grid < 2:
        raise ValueError("grid must have at least 2 points")
    roots: list[float] = []
    rising = falling = False
    for start in range(0, grid - 1, BLOCK_ROWS):
        xs = _grid_points(lo, hi, grid, start, min(grid, start + BLOCK_ROWS + 1))
        vals = np.asarray(g(xs), dtype=float)
        # The first point of a later block is the last of the one before.
        roots.extend(float(xs[i]) for i in np.nonzero(vals == 0.0)[0] if i or not start)
        products = vals[:-1] * vals[1:]
        for i in np.nonzero(products < 0)[0]:
            roots.append(bracketed_root(g, xs[i], xs[i + 1]))
        diffs = np.diff(vals)
        rising = rising or bool(np.any(diffs > 0))
        falling = falling or bool(np.any(diffs < 0))
    roots.sort()

    spacing = (hi - lo) / (grid - 1)
    deduped: list[float] = []
    for r in roots:
        if not deduped or r - deduped[-1] > 0.5 * spacing:
            deduped.append(r)
    return tuple(deduped), not (rising and falling)


def _grid_points(lo: float, hi: float, grid: int, start: int, stop: int) -> np.ndarray:
    """Points ``start`` to ``stop - 1`` of ``np.linspace(lo, hi, grid)``,
    computed as numpy computes them: i * step + lo (i / (grid - 1) * (hi - lo)
    when the step underflows to 0), with the last point exactly ``hi``."""
    lo, hi = float(lo), float(hi)
    xs = np.arange(start, stop, dtype=float)
    step = (hi - lo) / (grid - 1)
    xs = xs / (grid - 1) * (hi - lo) if step == 0 else xs * step
    xs += lo
    if stop == grid:
        xs[-1] = hi
    return xs
