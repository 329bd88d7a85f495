"""Seeded sampling, batch evolution, distribution comparison, and the
constraint-time analysis."""

import csv
import math
import os
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import bohmpair.ensemble as ensemble_module
from bohmpair import cli, numerics
from bohmpair.analyses import constraint_claims, global_constraint_claims
from bohmpair.ensemble import (CSV_BLOCK_ROWS, ENSEMBLE_CSV_COLUMNS, build_ensemble,
                               compare_distribution, evolve_ensemble, ks_critical_value,
                               ks_critical_value_two_sample, ks_statistic,
                               ks_two_sample, reference_sample, sample_configurations,
                               integrator_metadata, write_ensemble_csv, write_metadata)
from bohmpair.errors import (ConfigurationError, DegenerateParametersError,
                             InsufficientSampleError)
from bohmpair.numerics import _COMPLETED, _DOMAIN, IntegratorConfig
from bohmpair.planewave import PlaneWavePair
from bohmpair.spherical import SLIT_EXCLUSION, SlitPair


@pytest.fixture(scope="module")
def mild():
    return PlaneWavePair(a=1.0, b=0.2)


NODE_MEMBER = 1


@pytest.fixture(scope="module")
def node_ensembles():
    """Static (a == b) ensemble whose member NODE_MEMBER sits on a node of
    the wavefunction, x1 - x2 = (pi/2)/p: unevolved and evolved."""
    m = PlaneWavePair(a=1.0, b=1.0)
    states = np.array([[0.4, -0.1], [math.pi / 2, 0.0], [1.0, 0.5], [2.0, 1.2]])
    ens = build_ensemble(m, len(states), seed=0, initial_states=states)
    return ens, evolve_ensemble(ens, 1.0, sample_times=[0.0, 0.5, 1.0])


def reference_csv(path, ensemble):
    """Row-by-row csv.writer serializer over the member trajectories: the
    reference the block writer must reproduce byte for byte."""
    fmt = lambda value: repr(float(value))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ENSEMBLE_CSV_COLUMNS)
        for member_id, m in enumerate(ensemble.members):
            truncated = int(not m.complete)
            for i, t in enumerate(m.times):
                s, v = m.states[i], m.velocities[i]
                if ensemble.model.dimension == 2:
                    row = [member_id, fmt(t), fmt(s[0]), "", "", fmt(s[1]), "", "",
                           fmt(v[0]), "", "", fmt(v[1]), "", "", truncated]
                else:
                    row = [member_id, fmt(t), *map(fmt, s), *map(fmt, v), truncated]
                writer.writerow(row)


class TestKsHelpers:
    def test_one_sample_matches_scipy(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=500)
        ours = ks_statistic(x, lambda q: np.clip(q, 0, 1))
        ref = stats.kstest(x, "uniform").statistic
        assert ours == pytest.approx(ref, abs=1e-12)

    @staticmethod
    def one_pass_ks(samples, cdf):
        """ks_statistic over all the samples in one pass, as it was computed
        before it worked in blocks."""
        x = np.sort(np.asarray(samples, dtype=float))
        n = len(x)
        f = np.asarray(cdf(x), dtype=float)
        return float(np.max(np.maximum(f - np.arange(0, n) / n, np.arange(1, n + 1) / n - f)))

    @pytest.mark.parametrize("n", [1, numerics.BLOCK_ROWS - 1, numerics.BLOCK_ROWS,
                                   numerics.BLOCK_ROWS + 1, 3 * numerics.BLOCK_ROWS + 7])
    def test_blocks_match_one_pass(self, mild, n):
        x = np.random.default_rng(n).uniform(-mild.box_length, mild.box_length, n)
        x[::3] = x[0]                       # ties
        assert ks_statistic(x, mild.separation_cdf) == self.one_pass_ks(x, mild.separation_cdf)
        # A CDF that the sorted samples meet exactly: every lower gap is 0.
        grid = np.arange(n) / n
        uniform = lambda q: np.clip(q, 0.0, 1.0)
        ks = ks_statistic(grid[::-1], uniform)
        assert ks == self.one_pass_ks(grid, uniform) == pytest.approx(1 / n, rel=1e-12)
        x[n // 2] = np.nan
        assert math.isnan(ks_statistic(x, mild.separation_cdf))
        assert math.isnan(self.one_pass_ks(x, mild.separation_cdf))

    def test_nan_sample_gives_nan(self, mild):
        assert math.isnan(ks_statistic([np.nan, 1.0, 2.0], mild.separation_cdf))
        x = np.append(np.linspace(-10.0, 10.0, 20_000), np.nan)
        assert math.isnan(ks_statistic(x, mild.separation_cdf))

    def test_two_sample_matches_scipy(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=400)
        y = rng.normal(0.3, size=300)
        assert ks_two_sample(x, y) == pytest.approx(
            stats.ks_2samp(x, y, method="asymp").statistic, abs=1e-12)

    def test_critical_value(self):
        assert ks_critical_value(100_000) == pytest.approx(1.63 / math.sqrt(100_000))

    def test_two_sample_critical_value(self):
        assert ks_critical_value_two_sample(5000, 10_000) == pytest.approx(0.02823, abs=5e-6)
        assert (ks_critical_value_two_sample(5000, 10_000)
                == ks_critical_value_two_sample(10_000, 5000))
        # Two samples of size n each: sqrt(2) times the one-sample value.
        assert ks_critical_value_two_sample(800, 800) == pytest.approx(
            math.sqrt(2) * ks_critical_value(800))


class TestSampling:
    def test_deterministic(self, mild):
        a, report_a = sample_configurations(mild, 5000, seed=123)
        b, report_b = sample_configurations(mild, 5000, seed=123)
        assert np.array_equal(a, b) and report_a == report_b

    def test_seed_changes_sample(self, mild):
        a, _ = sample_configurations(mild, 1000, seed=1)
        b, _ = sample_configurations(mild, 1000, seed=2)
        assert not np.array_equal(a, b)

    def test_inside_box(self, mild):
        pts, report = sample_configurations(mild, 2000, seed=7)
        assert pts.shape == (2000, 2)
        assert np.all(pts >= 0.0) and np.all(pts <= mild.box_length)
        assert 0.0 < report.acceptance_rate <= 1.0

    def test_flat_density_separation_marginal(self):
        # With b = 0 the configuration density is flat: each coordinate is
        # uniform on the box and the separation follows the pure box-overlap
        # (triangular) law.
        m = PlaneWavePair(a=1.0, b=0.0)
        pts, _ = sample_configurations(m, 20_000, seed=11)
        deltas = pts[:, 0] - pts[:, 1]
        assert ks_statistic(deltas, m.separation_cdf) < ks_critical_value(len(deltas))
        uniform = lambda q: np.clip(q / m.box_length, 0.0, 1.0)
        assert ks_statistic(pts[:, 0], uniform) < ks_critical_value(len(pts))
        assert ks_statistic(pts[:, 1], uniform) < ks_critical_value(len(pts))

    def test_structured_density_separation_marginal(self, mild):
        pts, _ = sample_configurations(mild, 20_000, seed=13)
        deltas = pts[:, 0] - pts[:, 1]
        assert ks_statistic(deltas, mild.separation_cdf) < ks_critical_value(len(deltas))

    def test_interference_nodes_avoided(self):
        # For a = b the density vanishes quadratically at cos(theta) = 0, so
        # the sampled mass near the nodes is far below the uniform share.
        m = PlaneWavePair(a=1.0, b=1.0)
        pts, _ = sample_configurations(m, 20_000, seed=17)
        thetas = m.momentum * (pts[:, 0] - pts[:, 1])
        near_node = np.abs(np.cos(thetas)) < 0.05
        assert np.mean(near_node) < 0.005  # uniform share would be ~0.032

    def test_pathological_envelope_rejected(self, mild):
        class LooseEnvelope(PlaneWavePair):
            def density_bound(self):
                return super().density_bound() * 1e6

        loose = LooseEnvelope(a=mild.a, b=mild.b)
        assert loose.density_bound() == mild.density_bound() * 1e6
        with pytest.raises(ConfigurationError):
            sample_configurations(loose, 100, seed=3)

    def test_spherical_sampling(self):
        m = SlitPair(wavenumber=5.0, slit_offset=0.5)
        pts, rate = sample_configurations(m, 500, seed=29)
        assert pts.shape == (500, 6)
        r1a, r1b, r2a, r2b = m.distances_of(pts[:, :3], pts[:, 3:])
        assert min(r1a.min(), r1b.min(), r2a.min(), r2b.min()) > SLIT_EXCLUSION
        again, _ = sample_configurations(m, 500, seed=29)
        assert np.array_equal(pts, again)
        # Exchange symmetry: both particles' x coordinates follow one law.
        assert ks_two_sample(pts[:, 0], pts[:, 3]) < 0.1


class TestEvolution:
    def test_user_supplied_initial_states(self, mild):
        states = np.array([[0.4, -0.1], [1.0, 0.5]])
        ens = build_ensemble(mild, 2, seed=0, initial_states=states)
        assert ens.sampling == "user"
        assert ens.acceptance_rate is None
        assert np.array_equal(ens.initial_states(), states)
        states[0, 0] = 9.0      # the ensemble holds its own copy
        assert ens.initial_states()[0, 0] == 0.4
        assert ens.lengths.dtype == np.int32 and ens.codes.dtype == np.int8
        assert ens.lengths.tolist() == [1, 1] and ens.codes.tolist() == [_COMPLETED] * 2

    def test_static_ensemble_unchanged(self):
        m = PlaneWavePair(a=1.0, b=1.0)
        ens = build_ensemble(m, 200, seed=5)
        evolved = evolve_ensemble(ens, 4.0)
        for before, after in zip(ens.members, evolved.members):
            assert np.array_equal(after.states[-1], before.states[0])
        assert evolved.survival_fraction == 1.0

    def test_single_wave_linear_motion(self):
        m = PlaneWavePair(a=1.0, b=0.0)
        ens = build_ensemble(m, 100, seed=19)
        evolved = evolve_ensemble(ens, 2.5)
        start = ens.initial_states()
        end = evolved.states_at(2.5)
        assert np.max(np.abs(end[:, 0] - (start[:, 0] + m.momentum * 2.5))) < 1e-9
        assert np.max(np.abs(end[:, 1] - (start[:, 1] - m.momentum * 2.5))) < 1e-9

    def test_conservation_audit(self, mild):
        ens = build_ensemble(mild, 500, seed=23)
        evolved = evolve_ensemble(ens, 3.0, sample_times=[0.0, 1.5, 3.0])
        assert evolved.survival_fraction == 1.0
        for m in evolved.members:
            assert mild.residual_drift(m) < 1e-6
            assert mild.cm_drift(m) < 1e-8

    def test_unevolved_velocities_match_evolved(self, mild):
        # Both evaluate the field at t = 0 with one batch_rhs call, so the first
        # sample's velocities agree to the last bit.
        ens = build_ensemble(mild, 20_000, seed=3)
        evolved = evolve_ensemble(ens, 0.1)
        assert np.array_equal(ens.velocities[0], evolved.velocities[0])

    def test_arrays_read_only(self, mild):
        ens = build_ensemble(mild, 10, seed=31)
        evolved = evolve_ensemble(ens, 1.0, sample_times=[0.0, 0.5, 1.0])
        assert evolved.states.shape == evolved.velocities.shape == (3, 10, 2)
        with pytest.raises(ValueError):
            evolved.initial_states()[0, 0] = 1.0
        with pytest.raises(ValueError):
            evolved.member(0).states[0, 0] = 1.0

    def test_members_view(self, mild):
        evolved = evolve_ensemble(build_ensemble(mild, 5, seed=31), 1.0)
        members = list(evolved.members)
        assert evolved.size == 5 and len(members) == 5
        assert np.array_equal(evolved.member(-1).states, evolved.states[:, 4])
        assert [len(evolved.member(i)) for i in (1, 2)] == [2, 2]
        assert all(np.array_equal(m.states, evolved.member(i).states)
                   for i, m in enumerate(members))
        with pytest.raises(IndexError):
            evolved.member(5)

    def test_failing_member_truncated_alone(self, node_ensembles, monkeypatch):
        ens, evolved = node_ensembles
        n = ens.size
        regular = [i for i in range(n) if i != NODE_MEMBER]
        assert np.all(np.isnan(ens.velocities[0, NODE_MEMBER]))
        assert np.all(np.isfinite(ens.velocities[0, regular]))
        assert evolved.codes[NODE_MEMBER] == _DOMAIN
        assert np.all(evolved.codes[regular] == _COMPLETED)
        assert [m.complete for m in evolved.members] == [i != NODE_MEMBER for i in range(n)]
        assert evolved.member(NODE_MEMBER).times[-1] == 0.0
        assert np.all(np.isnan(evolved.states[1:, NODE_MEMBER]))
        assert np.array_equal(evolved.states_at(1.0), ens.initial_states()[regular])
        assert evolved.survival_fraction == (n - 1) / n
        assert integrator_metadata(evolved)["terminations"] == {
            "completed": n - 1, "domain_error: field undefined": 1}

        # One batch_rhs call to build, one integrate_ode call to evolve, and
        # no per-member path, although a member fails.
        calls = {"batch_rhs": 0, "integrate_ode": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def per_member(*args):
            raise AssertionError("per-member field called")

        monkeypatch.setattr(PlaneWavePair, "batch_rhs",
                            counted("batch_rhs", PlaneWavePair.batch_rhs))
        monkeypatch.setattr(PlaneWavePair, "rhs", per_member)
        monkeypatch.setattr(ensemble_module, "integrate_ode",
                            counted("integrate_ode", ensemble_module.integrate_ode))
        again = build_ensemble(ens.model, n, seed=0, initial_states=ens.initial_states())
        assert calls == {"batch_rhs": 1, "integrate_ode": 0}
        again = evolve_ensemble(again, 1.0, sample_times=[0.0, 0.5, 1.0])
        assert calls["integrate_ode"] == 1
        assert np.array_equal(again.states, evolved.states, equal_nan=True)
        assert np.array_equal(again.codes, evolved.codes)

    def test_batch_drifts_match_members(self, mild):
        # max_steps truncates most members, at different samples.
        ens = build_ensemble(mild, 24, seed=61)
        evolved = evolve_ensemble(ens, 3.0, IntegratorConfig(max_steps=60),
                                  sample_times=np.linspace(0.0, 3.0, 31))
        assert 0 < evolved.survival_fraction < 1
        members = list(evolved.members)
        printed = 0.0
        for m in members:
            deltas = m.states[:, 0] - m.states[:, 1]
            vals = np.asarray(mild.constraint_lhs(deltas)) - 2.0 * mild.momentum * m.times
            printed = max(printed, float(np.max(np.abs(vals - vals[0]))))
        expected = {"centre_of_mass_frozen": max(mild.cm_drift(m) for m in members),
                    "separation_relation_conserved": max(mild.residual_drift(m)
                                                         for m in members),
                    "separation_relation_printed_drift": printed}
        claims = {c.claim_id: c.value for c in constraint_claims(mild, evolved)}
        assert claims == expected

    def test_members_carry_velocities(self, mild):
        ens = build_ensemble(mild, 10, seed=31)
        evolved = evolve_ensemble(ens, 1.0)
        member = evolved.member(0)
        v1 = mild.velocity_of_separation(member.states[-1, 0] - member.states[-1, 1])
        assert member.velocities[-1, 0] == pytest.approx(v1, rel=1e-12)


class TestCompareDistribution:
    def test_flat_density_any_time(self):
        m = PlaneWavePair(a=1.0, b=0.0)
        ens = build_ensemble(m, 5000, seed=37)
        evolved = evolve_ensemble(ens, 2.0)
        ks = compare_distribution(evolved, 2.0)
        assert ks < ks_critical_value(5000)
        # The separations pulled back along the conserved relation, against
        # the closed-form marginal.
        states = evolved.states_at(2.0)
        pulled = m.inverse_flow(states[:, 0] - states[:, 1], 2.0)
        assert ks == ks_statistic(pulled, m.separation_cdf)

    def test_static_density_any_time(self):
        m = PlaneWavePair(a=1.0, b=1.0)
        ens = build_ensemble(m, 5000, seed=41)
        evolved = evolve_ensemble(ens, 1.0)
        assert compare_distribution(evolved, 1.0) < ks_critical_value(5000)

    def test_structured_flow(self, mild):
        ens = build_ensemble(mild, 5000, seed=43)
        evolved = evolve_ensemble(ens, 3.0)
        assert 0.0 <= compare_distribution(evolved, 3.0) <= 1.0
        assert len(evolved.states_at(3.0)) == 5000

    def test_insufficient_sample(self, mild):
        ens = build_ensemble(mild, 50, seed=47)
        with pytest.raises(InsufficientSampleError):
            compare_distribution(ens, 0.0)

    def test_spherical_two_sample(self):
        m = SlitPair(wavenumber=5.0, slit_offset=0.5)
        ens = build_ensemble(m, 300, seed=53)
        ks = compare_distribution(ens, 0.0)
        assert 0.0 <= ks < 0.2
        # Two-sample, against the 10,000-point reference sample.
        reference = reference_sample(ens, 300)
        assert len(reference) == 10_000
        assert ks == ks_two_sample(ens.initial_states()[:, 0], reference[:, 0])
        assert ks < ks_critical_value_two_sample(300, 10_000)


class TestGlobalConstraint:
    def test_zero_time_depends_on_separation_only(self, mild):
        # Dyadic coordinates: shifting both particles preserves the
        # separation bitwise, so the zero time is identical.
        rows = np.array([[0.75, -0.5], [0.75 + 8.0, -0.5 + 8.0]])
        t1, t2 = mild.zero_separation_times(rows[:, 0] - rows[:, 1])
        assert t1 == t2

    def test_single_wave_zero_time_exact(self):
        m = PlaneWavePair(a=1.0, b=0.0)
        ens = build_ensemble(m, 500, seed=59)
        init = ens.initial_states()
        zero_times = m.zero_separation_times(init[:, 0] - init[:, 1])
        expected = -(init[:, 0] - init[:, 1]) / (2.0 * m.momentum)
        assert np.max(np.abs(zero_times - expected)) < 1e-12
        claims = {c.claim_id: c for c in global_constraint_claims(ens)}
        assert claims["zero_time_spread"].value == float(np.std(zero_times))
        assert claims["zero_time_range"].value == float(np.ptp(zero_times))

    def test_point_mass_distance_for_symmetric_marginal(self, mild):
        ens = build_ensemble(mild, 300, seed=61)
        claims = {c.claim_id: c for c in global_constraint_claims(ens)}
        # The separation marginal is symmetric, so its CDF at zero is 1/2.
        assert claims["global_constant_point_mass_ks"].value == pytest.approx(0.5, abs=1e-9)
        assert claims["zero_time_spread"].value > 0.1

    def test_requires_unequal_amplitudes(self):
        m = PlaneWavePair(a=1.0, b=1.0)
        ens = build_ensemble(m, 200, seed=67)
        with pytest.raises(DegenerateParametersError):
            global_constraint_claims(ens)

    def test_requires_plane_wave_model(self):
        ens = build_ensemble(SlitPair(wavenumber=5.0, slit_offset=0.5), 10, seed=67)
        with pytest.raises(ValueError, match="plane-wave model"):
            global_constraint_claims(ens)


class TestSerialization:
    def test_csv_round_trip_and_determinism(self, mild, tmp_path):
        ens = build_ensemble(mild, 50, seed=71)
        evolved = evolve_ensemble(ens, 1.0, sample_times=[0.0, 0.5, 1.0])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_ensemble_csv(p1, evolved)
        write_ensemble_csv(p2, evolved)
        assert p1.read_bytes() == p2.read_bytes()

        with open(p1) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 50 * 3
        first = evolved.member(0)
        got = [float(r["x1"]) for r in rows if r["member_id"] == "0"]
        assert got == [float(v) for v in first.states[:, 0]]  # exact round trip
        assert all(r["y1"] == "" for r in rows[:5])
        assert all(r["truncated"] == "0" for r in rows)

    def test_truncated_member_flagged(self, node_ensembles, tmp_path):
        _, evolved = node_ensembles
        path = tmp_path / "t.csv"
        write_ensemble_csv(path, evolved)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        flags = {(r["member_id"], r["truncated"]) for r in rows}
        assert flags == {(str(i), str(int(i == NODE_MEMBER))) for i in range(evolved.size)}
        assert sum(r["member_id"] == str(NODE_MEMBER) for r in rows) == 1

    @pytest.mark.parametrize("case", ["planewave", "spherical", "spherical_unevolved",
                                      "truncated", "blocks", "blocks_unevolved"])
    def test_csv_matches_row_writer(self, case, mild, node_ensembles, tmp_path, monkeypatch):
        n_blocks = 3 * CSV_BLOCK_ROWS + 7    # several blocks, not a multiple
        sphere = SlitPair(wavenumber=1.0, slit_offset=0.5)
        ensemble = {
            "planewave": lambda: evolve_ensemble(build_ensemble(mild, 50, seed=71), 1.0,
                                                 sample_times=[0.0, 0.5, 1.0]),
            "spherical": lambda: evolve_ensemble(build_ensemble(sphere, 20, seed=73), 0.5,
                                                 sample_times=[0.0, 0.25, 0.5]),
            "spherical_unevolved": lambda: build_ensemble(sphere, 20, seed=73),
            "truncated": lambda: node_ensembles[1],
            "blocks": lambda: evolve_ensemble(build_ensemble(mild, n_blocks, seed=79), 0.5,
                                              sample_times=[0.0, 0.25, 0.5]),
            "blocks_unevolved": lambda: build_ensemble(mild, n_blocks, seed=79),
        }[case]()
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        assert write_ensemble_csv(ours, ensemble) == 1     # below the split floor
        reference_csv(ref, ensemble)
        assert ours.read_bytes() == ref.read_bytes()

        # Split across forked processes by member blocks of about equal row
        # counts; in the truncated case the blocks' members hold different
        # numbers of rows (on 2 CPUs, 3 and 1, then 3 and 3).
        monkeypatch.setattr(ensemble_module, "MIN_CSV_FLOATS", 1)
        for cpus in (2, 3):
            monkeypatch.setattr(numerics, "_cpu_count", lambda: cpus)
            assert write_ensemble_csv(ours, ensemble) == cpus
            assert ours.read_bytes() == ref.read_bytes()
        with pytest.raises(ChildProcessError):     # every child was reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("fail", ["raise", "exit"])
    def test_failing_writer_block_is_an_error(self, mild, tmp_path, monkeypatch, fail):
        # A child that raises, or dies before sending its rows, ends the
        # write with an error, not with a file missing that block's rows.
        parent, text = os.getpid(), ensemble_module._csv_text

        def failing(*args):
            if os.getpid() != parent:
                if fail == "exit":
                    os._exit(3)
                raise OverflowError("child block")
            return text(*args)

        monkeypatch.setattr(ensemble_module, "_csv_text", failing)
        monkeypatch.setattr(ensemble_module, "MIN_CSV_FLOATS", 1)
        monkeypatch.setattr(numerics, "_cpu_count", lambda: 3)
        error = {"raise": "child block", "exit": "ended without a result"}[fail]
        with pytest.raises((OverflowError, RuntimeError), match=error):
            write_ensemble_csv(tmp_path / "e.csv", build_ensemble(mild, 30, seed=71))
        with pytest.raises(ChildProcessError):     # every child was reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_split_write_to_a_full_disk_is_a_configuration_error(self, mild, monkeypatch):
        # Writing this process's block fails (/dev/full takes no bytes) while
        # a child formats the other: cli._artifact names output_dir.
        monkeypatch.setattr(ensemble_module, "MIN_CSV_FLOATS", 1)
        monkeypatch.setattr(numerics, "_cpu_count", lambda: 2)
        ensemble = build_ensemble(mild, 400, seed=71)       # 20 kB a block
        with pytest.raises(ConfigurationError, match="^output_dir: cannot write /dev/full"):
            with cli._artifact(Path("/dev/full")) as path:
                write_ensemble_csv(path, ensemble)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_spherical_csv_columns(self, tmp_path):
        m = SlitPair(wavenumber=5.0, slit_offset=0.5)
        ens = build_ensemble(m, 5, seed=73)
        path = tmp_path / "s.csv"
        write_ensemble_csv(path, ens)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["y1"] != "" and rows[0]["v2z"] != ""

    def test_metadata(self, mild, tmp_path):
        import json
        ens = build_ensemble(mild, 20, seed=79)
        path = tmp_path / "meta.json"
        write_metadata(path, ens, extra={"note": 1})
        meta = json.loads(path.read_text())
        assert meta["model"] == "planewave"
        assert meta["prng"] == "numpy-philox-4x64"
        assert meta["seed"] == 79
        assert meta["params"]["a"] == 1.0
        assert "created_utc" in meta and meta["note"] == 1
