"""Ensembles of guided trajectories: seeded sampling from the quantum
density, batch evolution under the guidance flow, and distribution-level
comparisons against reference densities."""

from __future__ import annotations

import datetime
import json
import math
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, InsufficientSampleError
from .numerics import (_COMPLETED, _REASONS, BLOCK_ROWS, IntegratorConfig, TrajectoryBatch,
                       _block_count, _fork_blocks, integrate_ode, sorted_unique)
from .prng import PhiloxStream

# Counter-based generator, so samples are reproducible from the seed alone:
# numpy's Philox4x64 stream, drawn by prng.PhiloxStream.
PRNG_ID = "numpy-philox-4x64"

# One-sample Kolmogorov-Smirnov critical coefficient at 99% confidence.
KS_COEFF_99 = 1.63

# Acceptance rate below which the sampler's proposal is taken as pathological.
MIN_SAMPLER_EFFICIENCY = 1e-4

# A density above the sampler's envelope by less than this relative amount
# is rounding (the plane-wave density reaches its bound exactly), not clipping.
ENVELOPE_RTOL = 1e-12

# Fewest members with a sample at the compared time that compare_distribution
# accepts.
MIN_SURVIVORS = 100

ENSEMBLE_CSV_COLUMNS = ("member_id", "t", "x1", "y1", "z1", "x2", "y2", "z2",
                        "v1x", "v1y", "v1z", "v2x", "v2y", "v2z", "truncated")


@dataclass(frozen=True)
class SamplerReport:
    """What one :func:`sample_configurations` call did.

    ``draws`` counts every proposal draw, those the model's proposal put
    outside its box included; ``accepted`` counts the accepted draws (the
    surplus of the last round beyond the rows asked for included, though
    the sample leaves it out).
    ``envelope_violations`` counts in-box draws whose density exceeded
    bound x weight beyond rounding (``ENVELOPE_RTOL``), where the envelope
    clips the density: 0 for an exact envelope.
    """

    proposal: str
    draws: int
    accepted: int
    envelope_violations: int

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.draws

    def to_dict(self) -> dict:
        return {**asdict(self), "acceptance_rate": self.acceptance_rate}


@dataclass(frozen=True)
class Ensemble(TrajectoryBatch):
    """A :class:`TrajectoryBatch` whose members share one model, seed, and
    integrator setup, starting at t = 0 (both models are stationary)."""

    model: Any
    seed: int
    integrator: IntegratorConfig | None = None
    sampler: SamplerReport | None = None   # None for user-supplied states

    @property
    def sampling(self) -> str:
        """``"density"`` for sampled states, ``"user"`` for supplied ones."""
        return "user" if self.sampler is None else "density"

    @property
    def acceptance_rate(self) -> float | None:
        return None if self.sampler is None else self.sampler.acceptance_rate


# -- statistics helpers ------------------------------------------------------

def ks_statistic(samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a reference CDF, NaN
    when a sample or its CDF value is NaN.

    The samples are sorted once; ``cdf`` must be elementwise, as it is
    evaluated on ``BLOCK_ROWS`` sorted samples at a time, and the statistic
    is the largest of the blocks' maxima, so it is bitwise that of one pass
    over all of them."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n == 0:
        raise ValueError("ks_statistic needs at least one sample")
    d = -np.inf
    for start in range(0, n, BLOCK_ROWS):
        f = np.asarray(cdf(x[start:start + BLOCK_ROWS]), dtype=float)
        i = np.arange(start, start + len(f))
        # np.maximum, unlike max(), keeps a NaN.
        d = np.maximum(d, np.max(np.maximum(f - i / n, (i + 1) / n - f)))
    return float(d)


def ks_two_sample(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    grid = np.concatenate([x, y])
    fx = np.searchsorted(x, grid, side="right") / len(x)
    fy = np.searchsorted(y, grid, side="right") / len(y)
    return float(np.max(np.abs(fx - fy)))


def ks_critical_value(n: int) -> float:
    return KS_COEFF_99 / math.sqrt(n)


def ks_critical_value_two_sample(n: int, m: int) -> float:
    """99% critical value of the two-sample statistic for samples of sizes
    ``n`` and ``m``: 1.63 sqrt((n + m) / (n m)) (Smirnov, Ann. Math.
    Statist. 19 (1948) 279-281)."""
    return KS_COEFF_99 * math.sqrt((n + m) / (n * m))


# -- sampling ----------------------------------------------------------------

def sample_configurations(model, n: int, seed: int):
    """Draw ``n`` configurations from the model density by rejection from the
    model's own proposal.

    Each round, ``model.propose(rng, m)`` makes ``m`` draws and returns the
    ones inside the model's box with their proposal weights; a point is kept
    when ``u * bound * weight < model.density_batch(point)`` with ``u``
    uniform on [0, 1) and ``bound = model.density_bound()``.
    Kept points follow the density exactly wherever it stays below
    bound x weight.  The plane-wave model proposes uniformly over its box
    (weight 1); the spherical one from a mixture about the sources.

    Returns ``(points, report)``: ``points`` is an array of its own, of
    shape ``(n, model.dimension)``, and ``report`` is a
    :class:`SamplerReport`.
    The seed fully determines the sample.  If the acceptance rate falls
    below ``MIN_SAMPLER_EFFICIENCY`` the proposal/envelope setup is
    considered pathological and a :class:`ConfigurationError` is raised.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    bound = model.density_bound()
    if bound <= 0:
        raise ConfigurationError("density bound must be positive")
    rng = PhiloxStream(seed)

    accepted: list[np.ndarray] = []
    got = 0
    proposed = 0
    violations = 0
    chunk = max(4096, min(n, 1 << 18))
    while got < n:
        pts, weight = model.propose(rng, chunk)
        u = rng.uniform(size=len(pts))
        density = model.density_batch(pts)
        envelope = bound * weight
        keep = u * envelope < density
        violations += int(np.count_nonzero(density > envelope * (1.0 + ENVELOPE_RTOL)))
        proposed += chunk
        kept = pts[keep]
        accepted.append(kept[:n - got])     # the last round's surplus is left out
        got += len(kept)
        if proposed >= max(100_000, 20 * n) and got / proposed < MIN_SAMPLER_EFFICIENCY:
            raise ConfigurationError(
                f"box_length: rejection efficiency {got / proposed:.2e} below "
                f"{MIN_SAMPLER_EFFICIENCY}; the proposal or density envelope is pathological")
    points = np.concatenate(accepted, axis=0)
    return points, SamplerReport(model.proposal, proposed, got, violations)


def reference_sample(ensemble: Ensemble, n: int) -> np.ndarray:
    """Configurations from the ensemble's model density to compare a sample
    of ``n`` of its members against: max(2 n, 10,000) rows, drawn at the
    ensemble's seed + 1."""
    points, _ = sample_configurations(ensemble.model, max(2 * n, 10_000),
                                      seed=ensemble.seed + 1)
    return points


def build_ensemble(model, n: int, seed: int,
                   initial_states: np.ndarray | None = None) -> Ensemble:
    """Create an unevolved ensemble at t = 0, sampling initial configurations
    from the model density unless explicit states are supplied."""
    if initial_states is None:
        points, report = sample_configurations(model, n, seed)
    else:
        # Own copy: the caller keeps its array.
        points = np.array(np.atleast_2d(initial_states), dtype=float)
        report = None
    velocities = model.batch_rhs(0.0, points)    # NaN rows where undefined
    # Every member holds its one sample and has completed: one value each,
    # broadcast over the members rather than stored per member.
    n = len(points)
    return Ensemble(model=model, seed=seed, times=np.array([0.0]), states=points[None],
                    velocities=velocities[None], lengths=np.broadcast_to(np.int32(1), n),
                    codes=np.broadcast_to(np.int8(_COMPLETED), n), sampler=report)


# -- evolution ----------------------------------------------------------------

def evolve_ensemble(ensemble: Ensemble, t_end: float,
                    config: IntegratorConfig | None = None,
                    sample_times: Sequence[float] | None = None) -> Ensemble:
    """Integrate every member to ``t_end`` and return the evolved ensemble.

    One :func:`integrate_ode` call steps all members as a batch, each under
    its own step control.  The model's ``batch_rhs`` returns a NaN row where
    the field is undefined, so a member that meets a node or a source is
    truncated there alone (``domain_error``) and the others run on.
    """
    cfg = config or IntegratorConfig()
    model = ensemble.model
    flow = integrate_ode(model.batch_rhs, ensemble.initial_states(), 0.0, t_end, cfg,
                         sample_times)
    return Ensemble(**vars(flow), model=model, seed=ensemble.seed, integrator=cfg,
                    sampler=ensemble.sampler)


# -- distribution comparison ---------------------------------------------------

def compare_distribution(ensemble: Ensemble, t: float) -> float:
    """Kolmogorov-Smirnov statistic of the ensemble at time ``t`` against the
    model density.

    Plane-wave ensembles compare the separation marginal: each sample is
    pulled back to t = 0 along the exact conserved relation (the
    flow transports the separation monotonically), and the pulled-back
    sample is tested against the closed-form CDF of the marginal on the
    initial box (``PlaneWavePair.separation_cdf``); its 99 % critical value
    is :func:`ks_critical_value` of the members compared.  Both the
    pull-back and the statistic work through ``BLOCK_ROWS`` separations at a
    time, and each holds one array of a value per member (its result, the
    sorted copy) beside its input.  Spherical
    ensembles compare the x1 marginal against a fresh reference sample
    (:func:`reference_sample`) by the two-sample statistic, since no closed
    transport is available in six dimensions; its critical value is
    :func:`ks_critical_value_two_sample` of both sample sizes.  Fewer than
    ``MIN_SURVIVORS`` members with a sample at ``t`` raise
    :class:`InsufficientSampleError`.
    """
    model = ensemble.model
    states = ensemble.states_at(t)
    if len(states) < MIN_SURVIVORS:
        raise InsufficientSampleError(
            f"only {len(states)} members have a sample at t={t} (need {MIN_SURVIVORS})")
    if model.tag == "planewave":
        separations = states[:, 0] - states[:, 1]
        del states      # before each pass (peak memory)
        pulled = model.inverse_flow(separations, t)
        del separations
        return ks_statistic(pulled, model.separation_cdf)
    return ks_two_sample(states[:, 0], reference_sample(ensemble, len(states))[:, 0])


# -- serialization --------------------------------------------------------------

# Rows converted to Python floats, formatted and written as one string at
# once.  The freed strings stay resident: against row-by-row writes, joined
# 256-row strings raised the peak RSS of a serial write by 0.38 MiB on a
# 1e5-member plane-wave run (64.6 MiB in all), 0.15 MiB on a 5000-member
# spherical one and 0.06 MiB on small probes; larger blocks cost more.
CSV_BLOCK_ROWS = 256

# Fewest formatted floats per block for write_ensemble_csv to split its rows
# across CPUs: one float repr takes about 1-1.5 us, so 2^14 of them take at
# least four times a fork (numerics._fork_blocks).
MIN_CSV_FLOATS = 1 << 14

# Largest read when copying a child's rows into the file.
CSV_COPY_BYTES = 1 << 16


def write_ensemble_csv(path, ensemble: Ensemble) -> int:
    """One row per member per sample; shortest round-trip decimals; the y/z
    columns stay empty for one-dimensional models.  No timestamps, so equal
    configurations and seeds give byte-identical files.

    The bytes are those of ``csv.writer`` (``\\r\\n`` line ends) fed the
    member id, ``repr`` of each float and the truncation flag row by row.

    Rows are formatted in up to one contiguous block of members per CPU
    (:func:`numerics._fork_blocks`), of about equal row counts and each
    holding at least ``MIN_CSV_FLOATS`` floats (1 + 2 dim per row): this
    process writes the first block, and forked children format the others
    in memory and send their bytes here to be copied in order.  A row's
    bytes depend only on its member, so the file is the same for any number
    of blocks.  Returns that number."""
    T, n, dim = ensemble.states.shape
    total = int(ensemble.lengths.sum())
    blocks = _block_count(total * (1 + 2 * dim), MIN_CSV_FLOATS)
    cuts = np.searchsorted(np.cumsum(ensemble.lengths), np.arange(1, blocks) * (total / blocks))
    edges = [0, *sorted_unique(cuts[cuts > 0]).tolist(), n]
    with open(path, "wb") as fh:
        def first():
            fh.write((",".join(ENSEMBLE_CSV_COLUMNS) + "\r\n").encode())
            for text in _csv_text(ensemble, edges[0], edges[1]):
                fh.write(text.encode())

        def copy(pipe):
            while chunk := pipe.read(CSV_COPY_BYTES):
                fh.write(chunk)

        _fork_blocks(len(edges) - 1, first,
                     lambda i: "".join(_csv_text(ensemble, edges[i], edges[i + 1])).encode(),
                     copy)
    return len(edges) - 1


def _csv_text(ensemble: Ensemble, lo: int, hi: int) -> Iterator[str]:
    """The CSV rows of members ``lo`` to ``hi - 1``, as one string per
    ``CSV_BLOCK_ROWS`` rows (or per member, for longer members).  Each
    sample time is formatted once, not once per row."""
    T, _, dim = ensemble.states.shape
    # Positions or velocities of both particles; y/z empty in one dimension.
    floats = "%r,,,%r,," if dim == 2 else ",".join(["%r"] * dim)
    row = f"%d,%s,{floats},{floats},%d\r\n"
    sample = np.arange(T)
    time_text = np.array([repr(t) for t in ensemble.times.tolist()], dtype=object)
    per_block = max(1, CSV_BLOCK_ROWS // T)
    for start in range(lo, hi, per_block):
        stop = min(hi, start + per_block)
        lengths = ensemble.lengths[start:stop]
        held = sample < lengths[:, None]                       # (members, T)
        columns = [np.repeat(np.arange(start, stop), lengths),
                   time_text[np.broadcast_to(sample, held.shape)[held]]]
        for array in (ensemble.states, ensemble.velocities):
            block = array[:, start:stop].transpose(1, 0, 2)[held]   # (rows, dim)
            columns.extend(block.T)
        columns.append(np.repeat(lengths < T, lengths))
        yield "".join(map(row.__mod__, zip(*(c.tolist() for c in columns))))


def integrator_metadata(ensemble: Ensemble) -> dict | None:
    """The ensemble's integrator settings, then the work the integration did,
    summed over members, the member blocks it ran in, and how many members
    stopped for each reason that occurred (``terminations``); None for an
    ensemble never evolved."""
    if ensemble.integrator is None:
        return None
    counts = np.bincount(ensemble.codes, minlength=len(_REASONS))
    return {**asdict(ensemble.integrator), **asdict(ensemble.work),
            "terminations": {_REASONS[c]: int(k) for c, k in enumerate(counts.tolist()) if k}}


def ensemble_metadata(ensemble: Ensemble | None, extra: dict | None = None) -> dict:
    """Run metadata: the creation time, the ensemble's model, sampling and
    integrator (when there is an ensemble), then ``extra``."""
    meta = {"created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat()}
    if ensemble is not None:
        model = ensemble.model
        meta.update({
            "model": model.tag,
            "params": {f: getattr(model, f) for f in model.__dataclass_fields__},
            "seed": ensemble.seed,
            "sampling": ensemble.sampling,
            "prng": PRNG_ID,
            "size": ensemble.size,
            "t0": 0.0,   # every ensemble starts at t = 0
            "acceptance_rate": ensemble.acceptance_rate,
            "sampler": None if ensemble.sampler is None else ensemble.sampler.to_dict(),
            "survival_fraction": ensemble.survival_fraction,
            "integrator": integrator_metadata(ensemble),
        })
    if extra:
        meta.update(extra)
    return meta


def write_metadata(path, ensemble: Ensemble | None, extra: dict | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(ensemble_metadata(ensemble, extra), fh, indent=2, sort_keys=True)
        fh.write("\n")
