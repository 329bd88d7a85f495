"""Plane-wave pair model: wavefunction, phase, velocities, conserved
quantities, and the separation-constraint analyzer."""

import cmath
import math

import numpy as np
import pytest

from bohmpair.errors import DegenerateParametersError, ModelDomainError
from bohmpair.numerics import IntegratorConfig, bracketed_root, central_gradient, integrate_ode
from bohmpair.oracles import velocity_from_psi
from bohmpair.planewave import PairState1D, PlaneWavePair


def state_at_theta(model, theta, t=0.0):
    return PairState1D(x1=theta * model.hbar / model.momentum, x2=0.0, t=t)


@pytest.fixture(scope="module")
def lopsided():
    return PlaneWavePair(a=1.0, b=0.5)


@pytest.fixture(scope="module")
def mild():
    return PlaneWavePair(a=1.0, b=0.2)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            PlaneWavePair(a=-0.1, b=1.0)
        with pytest.raises(ValueError):
            PlaneWavePair(a=0.0, b=0.0)
        with pytest.raises(ValueError):
            PlaneWavePair(a=1.0, b=0.0, momentum=0.0)
        with pytest.raises(ValueError):
            PlaneWavePair(a=1.0, b=0.0, box_length=-1.0)

    def test_derived_quantities(self):
        m = PlaneWavePair(a=1.0, b=0.5, momentum=2.0, mass=4.0)
        assert m.contrast == pytest.approx((1.0 - 0.5) / 1.5)
        assert m.energy == pytest.approx(2.0 ** 2 / 4.0)
        assert m.speed == pytest.approx(0.5)
        assert m.box_length == pytest.approx(20.0 * 1.0 / 2.0)

    def test_norm_single_wave_is_box_area(self):
        m = PlaneWavePair(a=1.0, b=0.0)
        assert m.norm == pytest.approx(m.box_length ** 2, rel=1e-12)

    def test_norm_against_grid_quadrature(self, mild):
        # Independent check: 2D trapezoid on a fine grid.
        L = mild.box_length
        x = np.linspace(0.0, L, 1601)
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        vals = mild._density_shape(X1 - X2)
        total = np.trapezoid(np.trapezoid(vals, x, axis=1), x)
        assert mild.norm == pytest.approx(total, rel=1e-6)

    def test_density_integrates_to_one(self, mild):
        L = mild.box_length
        x = np.linspace(0.0, L, 1201)
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        vals = mild.density_values(X1, X2, 0.0)
        total = np.trapezoid(np.trapezoid(vals, x, axis=1), x)
        assert total == pytest.approx(1.0, rel=1e-6)


class TestPsiAndDensity:
    def test_single_wave_at_origin(self):
        m = PlaneWavePair(a=1.0, b=0.0)
        val = m.psi(PairState1D(0.0, 0.0, 0.0))
        assert val == pytest.approx(1.0 / math.sqrt(m.norm))

    def test_symmetric_node(self):
        m = PlaneWavePair(a=1.0, b=1.0)
        val = m.psi(state_at_theta(m, math.pi / 2))
        assert abs(val) < 1e-15

    def test_value_against_direct_complex_arithmetic(self, lopsided):
        theta = math.pi / 4
        s = state_at_theta(lopsided, theta, t=0.7)
        expected = ((1.0 * cmath.exp(1j * theta) + 0.5 * cmath.exp(-1j * theta))
                    * cmath.exp(-1j * lopsided.energy * 0.7 / lopsided.hbar)
                    / (math.sqrt(lopsided.norm) * 1.5))
        assert lopsided.psi(s) == pytest.approx(expected, abs=1e-15)

    def test_density_is_modulus_squared(self, lopsided):
        rng = np.random.default_rng(5)
        for _ in range(50):
            s = PairState1D(*rng.uniform(-5, 5, size=2), t=rng.uniform(0, 3))
            assert lopsided.density(s) == pytest.approx(abs(lopsided.psi(s)) ** 2, rel=1e-12)

    def test_density_closed_form(self, lopsided):
        theta = math.pi / 3
        s = state_at_theta(lopsided, theta)
        a, b = 1.0, 0.5
        expected = (a * a + b * b + 2 * a * b * math.cos(2 * theta)) / (lopsided.norm * (a + b) ** 2)
        assert lopsided.density(s) == pytest.approx(expected, rel=1e-12)

    def test_flat_density_single_wave(self):
        m = PlaneWavePair(a=1.0, b=0.0)
        for theta in (0.0, 1.0, 2.7):
            assert m.density(state_at_theta(m, theta)) == pytest.approx(1.0 / m.norm, rel=1e-12)

    def test_density_time_independent_and_separation_only(self, mild):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x1, x2, s_shift, t1, t2 = rng.uniform(-4, 4, size=5)
            d0 = mild.density(PairState1D(x1, x2, t1))
            assert mild.density(PairState1D(x1, x2, t2)) == pytest.approx(d0, rel=1e-12)
            assert mild.density(PairState1D(x1 + s_shift, x2 + s_shift, t1)) == \
                pytest.approx(d0, rel=1e-10)


class TestDensitySingleAngle:
    def test_equal_amplitudes_quarter_turn(self):
        m = PlaneWavePair(a=1.0, b=1.0)
        val = m.density_single_angle(state_at_theta(m, math.pi / 2))
        assert val == pytest.approx(2.0 / (4.0 * m.norm), rel=1e-12)

    def test_single_wave_forms_agree(self):
        m = PlaneWavePair(a=1.0, b=0.0)
        thetas = np.linspace(0, 2 * math.pi, 101)
        deltas = thetas * m.hbar / m.momentum
        gap = np.abs(m.density_values(deltas, np.zeros_like(deltas), 0.0)
                     - m.density_single_angle_values(deltas, np.zeros_like(deltas)))
        assert np.max(gap) < 1e-15

    def test_equal_amplitude_gap_attains_full_scale(self):
        # The two closed forms differ by 2ab (cos 2theta - cos theta) / (N (a+b)^2),
        # maximised at theta = pi where the difference is 2; for a = b = 1 the
        # largest gap is therefore exactly 1/N.
        m = PlaneWavePair(a=1.0, b=1.0)
        thetas = np.linspace(0, 2 * math.pi, 4097)
        deltas = thetas * m.hbar / m.momentum
        gap = np.abs(m.density_values(deltas, np.zeros_like(deltas), 0.0)
                     - m.density_single_angle_values(deltas, np.zeros_like(deltas)))
        assert np.max(gap) == pytest.approx(1.0 / m.norm, rel=1e-9)


class TestPhase:
    def test_zero_at_origin(self, lopsided):
        ph = lopsided.phase(PairState1D(0.0, 0.0, 0.0))
        assert ph.S == 0.0 and ph.eta == 0

    def test_single_wave_phase_is_linear(self):
        m = PlaneWavePair(a=1.0, b=0.0)
        for theta in np.linspace(-9.0, 9.0, 61):
            s = state_at_theta(m, theta, t=0.4)
            expected = m.hbar * theta - m.energy * 0.4
            assert m.phase(s).S == pytest.approx(expected, abs=1e-12)

    def test_branch_index_past_quarter_turn(self, lopsided):
        ph = lopsided.phase(state_at_theta(lopsided, 3 * math.pi / 4))
        assert ph.eta == 1

    @pytest.mark.parametrize("a,b", [(1.0, 0.5), (0.5, 1.0), (1.0, 0.2)])
    def test_continuity_along_theta_path(self, a, b):
        m = PlaneWavePair(a=a, b=b)
        thetas = np.arange(-3 * math.pi, 3 * math.pi, math.pi / 200)
        values = np.array([m.phase(state_at_theta(m, th)).S for th in thetas])
        assert np.max(np.abs(np.diff(values))) < math.pi * m.hbar / 2

    def test_matches_unwrapped_arg_of_psi(self, lopsided):
        thetas = np.arange(-2 * math.pi, 2 * math.pi, math.pi / 300)
        t = 0.9
        values = np.array([lopsided.phase(state_at_theta(lopsided, th, t)).S
                           for th in thetas])
        psis = np.array([lopsided.psi(state_at_theta(lopsided, th, t)) for th in thetas])
        reference = lopsided.hbar * np.unwrap(np.angle(psis))
        offset = values[0] - reference[0]
        # Agreement up to one global multiple of 2 pi hbar.
        assert offset / (2 * math.pi * lopsided.hbar) == pytest.approx(
            round(offset / (2 * math.pi * lopsided.hbar)), abs=1e-9)
        assert np.max(np.abs(values - reference - offset)) < 1e-9

    def test_node_rejected(self):
        m = PlaneWavePair(a=1.0, b=1.0)
        with pytest.raises(ModelDomainError):
            m.phase(state_at_theta(m, math.pi / 2))


class TestVelocities:
    def test_single_wave_exact(self):
        m = PlaneWavePair(a=1.0, b=0.0, momentum=1.3, mass=0.7)
        rng = np.random.default_rng(3)
        for _ in range(200):
            s = PairState1D(*rng.uniform(-10, 10, size=2))
            v1, v2 = m.velocities(s)
            assert abs(v1 - m.speed) < 1e-12
            assert v2 == -v1

    def test_equal_amplitudes_static(self):
        m = PlaneWavePair(a=1.0, b=1.0)
        rng = np.random.default_rng(4)
        for _ in range(200):
            s = PairState1D(*rng.uniform(-10, 10, size=2))
            if abs(math.cos(m.theta(s))) < 1e-6:
                continue
            assert m.velocities(s) == (0.0, 0.0)

    def test_removable_singularity_value(self, lopsided):
        v1, v2 = lopsided.velocities(state_at_theta(lopsided, math.pi / 2))
        assert abs(v1 - 3.0) < 1e-12
        assert v2 == -v1

    def test_oracle_near_singularity(self, lopsided):
        for eps in (1e-3, -1e-3, 2e-4):
            s = state_at_theta(lopsided, math.pi / 2 + eps)
            point = np.array([[s.x1, s.x2]])
            oracle = velocity_from_psi(lopsided, point, t=0.0)[0]
            v1, v2 = lopsided.velocities(s)
            assert abs(oracle[0] - v1) < 1e-6
            assert abs(oracle[1] - v2) < 1e-6

    def test_oracle_agreement_random_states_and_params(self):
        rng = np.random.default_rng(12)
        for _ in range(12):
            a = rng.uniform(0.2, 2.0)
            b = rng.uniform(0.0, a * 0.95)
            m = PlaneWavePair(a=a, b=b, momentum=rng.uniform(0.5, 2.0),
                              mass=rng.uniform(0.5, 2.0))
            pts = rng.uniform(-4, 4, size=(80, 2))
            keep = m._density_shape(pts[:, 0] - pts[:, 1]) > 1e-3
            pts = pts[keep]
            v1 = m.velocity_of_separation(pts[:, 0] - pts[:, 1])
            oracle = velocity_from_psi(m, pts, t=0.0)
            assert np.max(np.abs(oracle[:, 0] - v1)) < 1e-6
            assert np.max(np.abs(oracle[:, 1] + v1)) < 1e-6

    def test_independent_finite_difference_phase_gradients(self, mild):
        # Both velocities recovered separately from d(phase)/dx1 and d(phase)/dx2.
        rng = np.random.default_rng(13)
        for _ in range(40):
            x1, x2 = rng.uniform(-3, 3, size=2)
            grad = central_gradient(
                lambda y: mild.phase(PairState1D(y[0], y[1], 0.0)).S,
                [x1, x2])
            v1, v2 = mild.velocities(PairState1D(x1, x2, 0.0))
            assert abs(grad[0] / mild.mass - v1) < 1e-6
            assert abs(grad[1] / mild.mass - v2) < 1e-6

    def test_translation_invariance_exact(self, mild):
        # Dyadic coordinates keep (x1+s) - (x2+s) bitwise equal to x1 - x2.
        base = [(0.25, -1.5), (3.125, 0.625), (-2.0, 0.5)]
        for x1, x2 in base:
            v = mild.velocities(PairState1D(x1, x2, 0.0))
            for shift in (0.5, 4.0, -128.0):
                assert mild.velocities(PairState1D(x1 + shift, x2 + shift, 0.0)) == v

    def test_sum_is_zero_bitwise(self, mild):
        rng = np.random.default_rng(14)
        for _ in range(100):
            v1, v2 = mild.velocities(PairState1D(*rng.uniform(-5, 5, size=2)))
            assert v1 + v2 == 0.0

    def test_node_rejected(self):
        m = PlaneWavePair(a=0.7, b=0.7)
        with pytest.raises(ModelDomainError):
            m.velocities(state_at_theta(m, math.pi / 2))


class TestConservedQuantities:
    def test_beta_definition_zeroes_residual(self, mild):
        s = PairState1D(0.8, -0.3, 1.7)
        beta = mild.beta_for(s)
        assert mild.implicit_residual(s, beta) == 0.0

    def test_zero_separation_reference(self, mild):
        t0 = 2.3
        beta = -2.0 * mild.speed * t0
        assert mild.implicit_residual(PairState1D(0.5, 0.5, t0), beta) == 0.0

    def test_residual_conserved_along_trajectory(self, mild):
        traj = integrate_ode(mild.batch_rhs, [[0.4, -0.1]], 0.0, 2.0,
                             sample_times=np.linspace(0, 2, 81)).member(0)
        assert traj.complete
        assert mild.residual_drift(traj) < 1e-6

    def test_halved_coefficient_form_is_not_conserved(self, mild):
        # The variant scanned by the uniqueness analyzer drifts by O(1) along
        # the same trajectory, which is why the two expressions are kept apart.
        traj = integrate_ode(mild.batch_rhs, [[0.4, -0.1]], 0.0, 2.0,
                             sample_times=np.linspace(0, 2, 81)).member(0)
        deltas = traj.states[:, 0] - traj.states[:, 1]
        vals = np.asarray(mild.constraint_lhs(deltas)) - 2 * mild.speed * traj.times
        assert np.max(np.abs(vals - vals[0])) > 1e-3

    def test_cm_frozen_long_horizon(self, mild):
        traj = integrate_ode(mild.batch_rhs, [[1.7, 0.2]], 0.0, 10.0,
                             sample_times=np.linspace(0, 10, 101)).member(0)
        assert mild.cm_drift(traj) < 1e-8

    def test_cm_single_state(self, mild):
        traj = integrate_ode(mild.batch_rhs, [[1.0, 0.5]], 0.0, 0.0).member(0)
        assert mild.cm_drift(traj) == 0.0

    def test_static_pair_exactly_preserved(self):
        m = PlaneWavePair(a=1.0, b=1.0)
        traj = integrate_ode(m.batch_rhs, [[1.0, 0.25]], 0.0, 5.0,
                             sample_times=[0, 2.5, 5]).member(0)
        assert np.array_equal(traj.states[-1], traj.states[0])
        assert m.cm_drift(traj) == 0.0

    def test_degenerate_parameters_rejected(self):
        m = PlaneWavePair(a=1.0, b=1.0)
        with pytest.raises(DegenerateParametersError):
            m.trajectory_invariant(0.5)
        with pytest.raises(DegenerateParametersError):
            m.implicit_residual(PairState1D(0.1, 0.0, 0.0), 0.0)

    def test_gradient_of_phase_matches_analytic(self, lopsided):
        # The kernel gradient evaluated on the phase reproduces the momentum
        # components m*v1, m*v2 at the reference point.
        grad = central_gradient(
            lambda y: lopsided.phase(PairState1D(y[0], y[1], 0.0)).S, [0.3, 0.1])
        v1, v2 = lopsided.velocities(PairState1D(0.3, 0.1, 0.0))
        assert abs(grad[0] - lopsided.mass * v1) < 1e-6
        assert abs(grad[1] - lopsided.mass * v2) < 1e-6

    def test_inverse_flow_round_trip(self, mild):
        rng = np.random.default_rng(21)
        deltas0 = rng.uniform(-3, 3, size=40)
        elapsed = 2.0
        starts = np.column_stack([deltas0, np.zeros_like(deltas0)])
        flow = integrate_ode(mild.batch_rhs, starts, 0.0, elapsed, sample_times=[0, elapsed])
        final = flow.states[-1]
        pulled = mild.inverse_flow(final[:, 0] - final[:, 1], elapsed)
        assert np.max(np.abs(pulled - deltas0)) < 1e-7

    def test_inverse_flow_static_model(self):
        m = PlaneWavePair(a=1.0, b=1.0)
        assert m.inverse_flow(0.7, 3.0) == 0.7

    def test_zero_time_single_wave_exact(self):
        m = PlaneWavePair(a=1.0, b=0.0)
        s = PairState1D(1.5, 0.25, 2.0)
        assert m.zero_separation_time(s) == pytest.approx(
            2.0 - (1.5 - 0.25) / (2.0 * m.speed), abs=1e-14)


class TestUniquenessAnalysis:
    def test_constraint_root_at_reference_time(self, mild):
        g = lambda d: float(mild.constraint_lhs(d))
        assert bracketed_root(g, -0.1, 0.1) == pytest.approx(0.0, abs=1e-10)

    def test_mild_amplitudes_unique_root(self, mild):
        rep = mild.uniqueness_analysis(grid=100_000)
        assert rep.monotone_condition and rep.amplitude_ratio_condition
        assert rep.conditions_agree
        assert rep.scan.root_count == 1
        assert rep.scan.roots[0] == pytest.approx(0.0, abs=1e-9)
        assert rep.scan.is_monotone_on_interval

    def test_single_wave_trivially_monotone(self):
        m = PlaneWavePair(a=1.0, b=0.0)
        # With b = 0 the scanned expression reduces to delta / 2.
        assert float(m.constraint_lhs(0.8)) == pytest.approx(0.4, rel=1e-12)
        rep = m.uniqueness_analysis(grid=20_000)
        assert rep.scan.root_count == 1 and rep.scan.is_monotone_on_interval

    def test_conditions_disagree_for_intermediate_amplitude(self):
        m = PlaneWavePair(a=1.0, b=0.3)
        rep = m.uniqueness_analysis(grid=100_000)
        assert not rep.monotone_condition      # 4ab = 1.2 > 1.09
        assert rep.amplitude_ratio_condition   # 0.3 < 1/3
        assert not rep.conditions_agree
        assert not rep.scan.is_monotone_on_interval
        assert rep.scan.root_count == 1        # frozen from a grid >= 1e5 scan

    def test_monotonicity_equivalence_random_params(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            a = rng.uniform(0.3, 2.0)
            b = rng.uniform(0.0, a * 0.99)
            m = PlaneWavePair(a=a, b=b)
            rep = m.uniqueness_analysis(grid=50_000)
            assert rep.scan.is_monotone_on_interval == rep.monotone_condition

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateParametersError):
            PlaneWavePair(a=1.0, b=1.0).uniqueness_analysis()
