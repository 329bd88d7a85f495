"""Claim-level analyses: the one module that turns model, oracle, and
ensemble quantities into claims.

Each analysis returns :class:`ClaimCheck` records for the consolidated claims
report: ``pass``/``fail`` entries carry a pinned tolerance, ``measured``
entries report a value without asserting one.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .ensemble import (Ensemble, build_ensemble, compare_distribution, evolve_ensemble,
                       ks_critical_value, ks_statistic, ks_two_sample, reference_sample)
from .errors import ConfigurationError, InsufficientSampleError
from .numerics import BLOCK_ROWS, IntegratorConfig, integrate_ode, scan_roots, sorted_unique
from .oracles import phase_gradient, velocity_from_psi
from .planewave import PlaneWavePair
from .prng import PhiloxStream
from .spherical import SlitPair, nearest_source


@dataclass(frozen=True)
class ClaimCheck:
    """One checked claim: pass/fail against a tolerance, or a bare measurement."""

    claim_id: str
    paper_anchor: str
    status: str                  # "pass" | "fail" | "measured"
    value: object
    tolerance: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def _finite(value: float) -> float | None:
    """``value`` as a float, or None (JSON null) when it is NaN or infinite,
    which strict JSON cannot hold."""
    value = float(value)
    return value if math.isfinite(value) else None


def _tolerance_claim(claim_id: str, anchor: str, value: float, tolerance: float,
                     checked: bool = True) -> ClaimCheck:
    """A claim whose evidence is incomplete (``checked`` False) fails."""
    value = _finite(value)
    status = "pass" if checked and value is not None and value < tolerance else "fail"
    return ClaimCheck(claim_id, anchor, status, value, tolerance)


def _measured(claim_id: str, anchor: str, value) -> ClaimCheck:
    if isinstance(value, (np.floating, float)):
        value = _finite(value)
    elif isinstance(value, (np.integer, int)) and not isinstance(value, bool):
        value = int(value)
    elif isinstance(value, np.bool_):
        value = bool(value)
    return ClaimCheck(claim_id, anchor, "measured", value, None)


# -- random valid states -------------------------------------------------------

# Relative density or node measure below which stencils are untrustworthy.
STENCIL_DENSITY_FLOOR = 1e-3
# Rounds in a row keeping no candidate after which the box is given up.
MAX_EMPTY_ROUNDS = 100
# Random valid states at which the oracle crosscheck compares velocities.
ORACLE_STATES = 1000
# Separations over one period at which the two density forms are compared.
DENSITY_GAP_POINTS = 4097
# Grid points of the uniqueness claims' root scan.
UNIQUENESS_GRID = 100_000


def random_valid_states(model, count: int, seed: int) -> np.ndarray:
    """Seeded configurations uniform over the model box, rejecting states too
    close to a node (or, for the spherical model, to a source or the support
    boundary) for finite-difference stencils to be trustworthy.  Raises
    :class:`ConfigurationError` after ``MAX_EMPTY_ROUNDS`` empty rounds."""
    rng = PhiloxStream(seed)
    box = np.asarray(model.sampling_box(), dtype=float)
    rows = []
    have = empty = 0
    while have < count:
        if empty == MAX_EMPTY_ROUNDS:
            raise ConfigurationError(f"box_length: {MAX_EMPTY_ROUNDS} rounds of random states "
                                     "in the box kept none fit for finite-difference stencils")
        pts = rng.uniform(box[:, 0], box[:, 1], size=(max(2 * count, 1024), len(box)))
        if model.tag == "spherical":
            pts[:, 0] = np.maximum(pts[:, 0], 0.05)
            pts[:, 3] = np.maximum(pts[:, 3], 0.05)
            dist = model.distances_of(pts[:, :3], pts[:, 3:])
            ok = ((nearest_source(*dist) > 0.05)
                  & (model.node_measure_of(*dist) > STENCIL_DENSITY_FLOOR))
        else:
            ok = model._density_shape(pts[:, 0] - pts[:, 1]) > STENCIL_DENSITY_FLOOR
        kept = pts[ok]
        rows.append(kept)
        have += len(kept)
        empty = 0 if len(kept) else empty + 1
    return np.concatenate(rows, axis=0)[:count]


# -- oracle crosscheck -----------------------------------------------------------

def oracle_crosscheck(model, seed: int) -> list[ClaimCheck]:
    """Analytic guidance velocities against the finite-difference phase-gradient
    oracle at ``ORACLE_STATES`` random valid states, plus the exact limiting
    cases where they apply."""
    claims: list[ClaimCheck] = []
    states = random_valid_states(model, ORACLE_STATES, seed)

    if model.tag == "planewave":
        rng = PhiloxStream(seed + 1)
        # Separations within 1e-3 of the removable tangent singularity.
        th = 0.5 * math.pi + rng.uniform(-1e-3, 1e-3, size=ORACLE_STATES)
        th[np.abs(th - 0.5 * math.pi) < 1e-9] += 1e-6
        near = np.column_stack([th / model.momentum, np.zeros(ORACLE_STATES)])
        all_states = np.vstack([states, near]) if model.a != model.b else states
        v1 = model.velocity_of_separation(all_states[:, 0] - all_states[:, 1])
        oracle = velocity_from_psi(model, all_states)
        dev = max(np.max(np.abs(oracle[:, 0] - v1)), np.max(np.abs(oracle[:, 1] + v1)))
        claims.append(_tolerance_claim(
            "velocity_oracle_agreement",
            "Eqs. (6)-(7) vs (hbar/m) Im(grad psi / psi), incl. theta near pi/2",
            dev, 1e-6))
        if model.b == 0.0:
            lim = np.max(np.abs(model.velocity_of_separation(states[:, 0] - states[:, 1])
                                - model.momentum))
            claims.append(_tolerance_claim(
                "single_wave_limit", "Eqs. (6)-(7) with b = 0: v = (p/m, -p/m)",
                float(lim), 1e-12))
        if model.a == model.b:
            lim = np.max(np.abs(model.velocity_of_separation(states[:, 0] - states[:, 1])))
            claims.append(ClaimCheck(
                "equal_amplitude_limit", "Eqs. (6)-(7) with a = b: static pair",
                "pass" if lim == 0.0 else "fail", float(lim), 0.0))
    else:
        analytic = model.batch_rhs(0.0, states)
        oracle = velocity_from_psi(model, states)
        dev = float(np.max(np.abs(analytic - oracle)))
        claims.append(_tolerance_claim(
            "velocity_oracle_agreement",
            "Eqs. (20)-(27) vs (hbar/m) Im(grad psi / psi)", dev, 1e-6))
        fd = phase_gradient(model, states)
        dev = float(np.max(np.abs(analytic - fd)))
        claims.append(_tolerance_claim(
            "phase_gradient_consistency",
            "Eqs. (20)-(27) chain rule vs finite differences of Eq. (19)", dev, 1e-6))
    return claims


# -- trajectory-based analyses ------------------------------------------------------

def trajectory_ensemble(model, count: int, seed: int, t_end: float,
                        cfg: IntegratorConfig, samples: int = 101,
                        sample_times=None) -> Ensemble:
    """Small density-sampled ensemble sampled at ``samples`` evenly spaced
    times from 0 to ``t_end`` (plus any ``sample_times``), shared by the
    trajectory and constraint analyses; the interior samples come from the
    integrator's dense output.

    For a plane-wave pair, ``rel_tol`` is scaled by the amplitude contrast
    |a - b| / (a + b): an error e in a separation moves the conserved
    separation relation by up to e (a + b) / |a - b|, so this keeps the
    relation's drift near a = b at what ``rel_tol`` gives far from it
    (``abs_tol`` bounds the step error as the contrast vanishes)."""
    if model.tag == "planewave" and model.a != model.b:
        cfg = replace(cfg, rel_tol=cfg.rel_tol * abs(model.contrast))
    ens = build_ensemble(model, count, seed)
    times = np.linspace(0.0, t_end, samples)
    if sample_times is not None:
        times = sorted_unique(np.append(times, sample_times))
    return evolve_ensemble(ens, t_end, cfg, sample_times=times)


def constraint_claims(model, evolved: Ensemble) -> list[ClaimCheck]:
    claims: list[ClaimCheck] = []
    if model.tag == "planewave":
        # A member stopped at its first sample adds 0: an incomplete probe fails.
        claims.append(_tolerance_claim(
            "centre_of_mass_frozen", "Eqs. (8)-(9): v1 + v2 = 0, x1 + x2 constant",
            model.cm_drift(evolved), 1e-8, evolved.complete))
        if model.a != model.b:
            claims.append(_tolerance_claim(
                "separation_relation_conserved",
                "Eq. (13) with unhalved linear coefficient (conserved form)",
                model.residual_drift(evolved), 1e-6, evolved.complete))
            claims.append(_measured(
                "separation_relation_printed_drift",
                "Eq. (13) as printed (halved linear coefficient)",
                model._relation_drift(evolved, model.constraint_lhs)))
    else:
        probe = integrate_ode(model.batch_rhs, [mirror_probe_state(model)], 0.0, 1.0,
                              evolved.integrator,
                              sample_times=np.linspace(0.0, 1.0, 101)).states[:, 0]
        mirror, axial = model.max_constraint_deviations(probe)
        claims.append(_tolerance_claim(
            "mirror_manifold_preserved",
            "Eq. (R), mirrored pairing r1A = r2B and r1B = r2A", mirror, 1e-6))
        claims.append(_measured(
            "axial_reading_deviation",
            "Eq. (R), literal second equality r2B = r2A", axial))
    return claims


def mirror_probe_state(model: SlitPair) -> np.ndarray:
    """Canonical mirror-symmetric start [r1, r2] at t = 0 used by the
    constraint analysis."""
    y = 0.6 * model.slit_offset
    return np.array([1.0, y, 0.0, 1.0, -y, 0.0])


# -- closed-form analyses -------------------------------------------------------------

def uniqueness_claims(model: PlaneWavePair) -> list[ClaimCheck]:
    """Roots of the separation constraint at t = 0 (the paper's t0),
    constraint_lhs(delta) = 0 (Eq. (14)), scanned on ``UNIQUENESS_GRID``
    points over |delta| <= 4 pi / p, beside the two candidate conditions for
    a unique root: 4ab < a^2 + b^2, exactly the positivity of the scanned
    slope, and the looser b < a/3.  The two disagree on part of parameter
    space, which the claims expose rather than resolve.  Raises
    :class:`DegenerateParametersError` when a == b."""
    half_width = 4.0 * math.pi / model.momentum
    roots, monotone = scan_roots(model.constraint_lhs, -half_width, half_width,
                                 UNIQUENESS_GRID)
    a, b = model._amplitudes
    monotone_condition = 4 * a * b < a * a + b * b
    ratio_condition = b < a / 3
    return [
        ClaimCheck("separation_constraint_root_count",
                   "Eq. (14) at t = t0: root count of the separation constraint",
                   "pass" if (monotone_condition and len(roots) == 1) else "measured",
                   len(roots), 1 if monotone_condition else None),
        _measured("uniqueness_monotone_condition", "post-Eq. (14): 4ab < a^2 + b^2",
                  monotone_condition),
        _measured("uniqueness_amplitude_ratio_condition", "post-Eq. (14): b < a/3",
                  ratio_condition),
        _measured("uniqueness_conditions_agree",
                  "post-Eq. (14): the two sufficiency conditions",
                  monotone_condition == ratio_condition),
        ClaimCheck("monotonicity_matches_condition",
                   "slope of Eq. (14) lhs positive everywhere iff 4ab < a^2 + b^2",
                   "pass" if monotone == monotone_condition else "fail", monotone, None),
    ]


def density_discrepancy_claims(model: PlaneWavePair) -> list[ClaimCheck]:
    """Measure the gap between |psi|^2 and the single-angle density variant
    over a full period (``DENSITY_GAP_POINTS`` separations), with the b = 0
    limit as an exactness control."""
    def max_gap(m: PlaneWavePair) -> float:
        deltas = np.linspace(0.0, 2.0 * math.pi, DENSITY_GAP_POINTS) / m.momentum
        zeros = np.zeros_like(deltas)
        gap = np.abs(m.density_values(deltas, zeros)
                     - m.density_single_angle_values(deltas, zeros))
        return float(np.max(gap))

    gap = max_gap(model)
    control = max_gap(PlaneWavePair(a=1.0, b=0.0, momentum=model.momentum,
                                    box_length=model.box_length))
    return [
        _measured("density_forms_gap",
                  "Eq. (4) as printed (cos theta) vs |psi|^2 (cos 2 theta)", gap),
        _measured("density_forms_agree", "Eq. (4): forms agree below 1e-12",
                  bool(gap < 1e-12)),
        _tolerance_claim("density_forms_agree_single_wave",
                         "Eq. (4) with b = 0: interference term vanishes",
                         control, 1e-12),
    ]


# -- ensemble analyses ------------------------------------------------------------------

def equivariance_claims(ens0: Ensemble, t_end: float, cfg: IntegratorConfig,
                        sample_times=None) -> tuple[list[ClaimCheck], Ensemble]:
    """Sampling fidelity at the initial time plus the measured distribution
    distance after evolving to ``t_end``; returns the evolved ensemble.

    The plane-wave sampling claim is measured, not gated, when its 99 %
    critical value is at least 1 (n <= 2): no KS statistic exceeds 1, so
    such a gate cannot fail."""
    model = ens0.model
    claims: list[ClaimCheck] = []
    initial = ens0.initial_states()

    if model.tag == "planewave":
        ks0 = ks_statistic(initial[:, 0] - initial[:, 1], model.separation_cdf)
        anchor = "prescription (3): P_t0 = |psi|^2 (separation marginal)"
        gate = ks_critical_value(ens0.size)
        if gate < 1.0:
            claims.append(_tolerance_claim("initial_sampling_ks", anchor, ks0, gate))
        else:
            claims.append(_measured(
                "initial_sampling_ks", anchor + "; not gated: at n <= 2 the 99 % critical "
                "value 1.63/sqrt(n) is at least 1, which no KS statistic exceeds", ks0))
    else:
        ks0 = ks_two_sample(initial[:, 0], reference_sample(ens0, len(initial))[:, 0])
        claims.append(_measured(
            "initial_sampling_ks_two_sample",
            "prescription (3): P_t0 = |psi|^2 (x1 marginal, two-sample)", ks0))

    evolved = evolve_ensemble(ens0, t_end, cfg, sample_times=sample_times)
    claims.append(_measured("survival_fraction",
                            "prescriptions (1)-(2): members evolved without domain errors",
                            evolved.survival_fraction))
    try:
        claims.append(_measured(
            "evolved_distribution_ks",
            "section 1 equivalence: P_t vs R^2_t at the final time",
            compare_distribution(evolved, t_end)))
    except InsufficientSampleError as exc:
        claims.append(_measured("evolved_distribution_ks",
                                "section 1 equivalence: P_t vs R^2_t at the final time",
                                f"unavailable: {exc}"))
    return claims, evolved


def global_constraint_claims(ens0: Ensemble) -> list[ClaimCheck]:
    """Zero-separation times of every member (plane-wave model, a != b), and
    the mismatch a single shared integration constant would force.

    Under per-member integration constants each trajectory crosses x1 = x2
    at its own time, a function of its initial separation only.  Under one
    ensemble-wide constant every member would cross at one common time,
    collapsing the separation distribution there to a point mass, whose KS
    distance from the quantum separation marginal F is max(F(0), 1 - F(0)).
    """
    model = ens0.model
    if model.tag != "planewave":
        raise ValueError("the constraint analysis applies to the plane-wave model")
    # The zero-separation times go into one array, and the translation
    # check runs beside them BLOCK_ROWS members at a time (peak memory).
    # np.maximum, unlike max(), keeps a NaN.
    initial = ens0.initial_states()
    zero_times = np.empty(len(initial))
    shift, moved_most = 64.0, 0.0
    for start in range(0, len(initial), BLOCK_ROWS):
        x1, x2 = initial[start:start + BLOCK_ROWS].T
        times = zero_times[start:start + BLOCK_ROWS]
        times[:] = model.zero_separation_times(x1 - x2)
        moved = model.zero_separation_times((x1 + shift) - (x2 + shift))
        moved_most = np.maximum(moved_most, np.max(np.abs(moved - times)))
    at_zero = float(model.separation_cdf(0.0))
    claims = [
        _measured("zero_time_spread",
                  "'Every pair ... must satisfy this constraint at t = t0': "
                  "std of per-member zero-separation times", np.std(zero_times)),
        _measured("zero_time_range",
                  "per-member zero-separation times: max - min", np.ptp(zero_times)),
        _measured("global_constant_point_mass_ks",
                  "impossibility of matching Eq. (4) at t0 under a shared constant: "
                  "KS(point mass, separation marginal)", max(at_zero, 1.0 - at_zero)),
    ]
    claims.append(_tolerance_claim(
        "zero_time_translation_invariance",
        "Eq. (13) involves the separation only: t0 unchanged by shifting the pair",
        float(moved_most), 1e-9))
    return claims
