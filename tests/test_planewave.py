"""Plane-wave pair model: wavefunction, phase, velocities, conserved
quantities, and the uniqueness claims."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bohmpair import planewave
from bohmpair.analyses import UNIQUENESS_GRID, uniqueness_claims
from bohmpair.errors import ConfigurationError, DegenerateParametersError, ModelDomainError
from bohmpair.numerics import Trajectory, bracketed_root, integrate_ode, scan_roots
from bohmpair.oracles import phase_gradient, velocity_from_psi
from bohmpair.planewave import NODE_DENSITY_FLOOR, PlaneWavePair


def x_at_theta(model, theta):
    """Position x1 at which theta = p (x1 - x2), with x2 = 0."""
    return np.asarray(theta, dtype=float) / model.momentum


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
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                PlaneWavePair(a=bad, b=1.0)
            with pytest.raises(ValueError):
                PlaneWavePair(a=1.0, b=bad)
        with pytest.raises(ValueError):
            PlaneWavePair(a=1.0, b=0.0, momentum=0.0)
        with pytest.raises(ValueError):
            PlaneWavePair(a=1.0, b=0.0, box_length=-1.0)
        # The box area L^2, the order of the norm, must be a normal float:
        # it overflows past ~1.3e154 (the command-line tests cover underflow).
        with pytest.raises(ConfigurationError, match="^box_length: "):
            PlaneWavePair(a=1.0, b=0.2, box_length=1.4e154)
        for L in (1e-150, 1e153):
            assert 0.0 < PlaneWavePair(a=1.0, b=0.2, box_length=L).density_bound() < math.inf

    def test_derived_quantities(self):
        m = PlaneWavePair(a=1.0, b=0.5, momentum=2.0)
        assert m.contrast == pytest.approx((1.0 - 0.5) / 1.5)
        assert m.box_length == pytest.approx(20.0 / 2.0)

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

    @given(a=st.floats(0.0, 5.0),
           b=st.sampled_from(["equal", 0.0]) | st.floats(0.0, 5.0),
           momentum=st.floats(0.1, 10.0),
           box_length=st.none() | st.floats(1e-3, 100.0))
    @example(a=1.0, b="equal", momentum=1.0, box_length=None)
    @example(a=1.0, b=0.0, momentum=1.0, box_length=None)
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_norm_matches_adaptive_quadrature(self, a, b, momentum, box_length):
        # Reference: the box integral by adaptive quadrature over the
        # separation, independent of the closed form.  On the most
        # oscillatory boxes quad stops at its subdivision limit before its own
        # error estimate reaches 1e-13 (it warns); the assertion checks the
        # agreement itself.
        b = a if b == "equal" else b
        assume(a > 0 or b > 0)
        m = PlaneWavePair(a=a, b=b, momentum=momentum, box_length=box_length)
        L = m.box_length
        reference, _ = quad(lambda d: (L - abs(d)) * m._density_shape(d), -L, L,
                            points=[0.0], limit=400, epsabs=1e-13, epsrel=1e-13)
        assert abs(m.norm - reference) <= 1e-12 * reference

    @settings(max_examples=32)
    @given(a=st.floats(0.1, 10.0), ratio=st.floats(0.0, 1.0))
    @example(a=1.0, ratio=1.0)
    @example(a=1.0, ratio=0.0)
    def test_separation_cdf_matches_trapezoid(self, a, ratio):
        # Reference: the cumulative trapezoid of the separation marginal
        # (L - |d|) shape(d) on a 200,001-point grid, normalized to one.
        m = PlaneWavePair(a=a, b=ratio * a)
        L = m.box_length
        d = np.linspace(-L, L, 200_001)
        marginal = (L - np.abs(d)) * m._density_shape(d)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (marginal[1:] + marginal[:-1])
                                               * np.diff(d))])
        cdf = m.separation_cdf(d)
        assert np.max(np.abs(cdf - cum / cum[-1])) < 1e-8
        assert np.all(np.diff(cdf) >= 0.0)
        assert m.separation_cdf(L) == 1.0 and m.separation_cdf(2 * L) == 1.0
        assert m.separation_cdf(-L) == 0.0 and m.separation_cdf(-2 * L) == 0.0
        assert m.separation_cdf(0.0) == 0.5

    @pytest.mark.parametrize("momentum", [1e-8, 1e-10])
    def test_separation_cdf_at_small_wavenumber(self, momentum):
        # With k L far below 1 the marginal is (L - |d|)(a + b)^2, so
        # F(L / 2) = 7/8; written as (1 - cos kd) / k^2, the interference
        # term cancels to 0 and F read 0.8302 at p = 1e-8.
        m = PlaneWavePair(1.0, 0.2, momentum=momentum, box_length=1.0)
        assert m.separation_cdf(0.5) == pytest.approx(0.875, abs=1e-12)

    def test_density_integrates_to_one(self, mild):
        L = mild.box_length
        x = np.linspace(0.0, L, 1201)
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        vals = mild.density_values(X1, X2)
        total = np.trapezoid(np.trapezoid(vals, x, axis=1), x)
        assert total == pytest.approx(1.0, rel=1e-6)


class TestPsiAndDensity:
    def test_single_wave_at_origin(self):
        m = PlaneWavePair(a=1.0, b=0.0)
        val = m.psi_values(0.0, 0.0)
        assert complex(val) == pytest.approx(1.0 / math.sqrt(m.norm))

    def test_symmetric_node(self):
        m = PlaneWavePair(a=1.0, b=1.0)
        val = m.psi_values(x_at_theta(m, math.pi / 2), 0.0)
        assert abs(val) < 1e-15

    def test_value_against_direct_complex_arithmetic(self, lopsided):
        theta = math.pi / 4
        x1 = x_at_theta(lopsided, theta)
        expected = ((1.0 * cmath.exp(1j * theta) + 0.5 * cmath.exp(-1j * theta))
                    / (math.sqrt(lopsided.norm) * 1.5))
        assert complex(lopsided.psi_values(x1, 0.0)) == pytest.approx(expected, abs=1e-15)

    def test_density_is_modulus_squared(self, lopsided):
        rng = np.random.default_rng(5)
        x1, x2 = rng.uniform(-5, 5, size=50), rng.uniform(-5, 5, size=50)
        np.testing.assert_allclose(lopsided.density_values(x1, x2),
                                   np.abs(lopsided.psi_values(x1, x2)) ** 2, rtol=1e-12)

    def test_density_closed_form(self, lopsided):
        theta = math.pi / 3
        a, b = 1.0, 0.5
        expected = (a * a + b * b + 2 * a * b * math.cos(2 * theta)) / (lopsided.norm * (a + b) ** 2)
        assert lopsided.density_values(x_at_theta(lopsided, theta), 0.0) == \
            pytest.approx(expected, rel=1e-12)

    def test_flat_density_single_wave(self):
        m = PlaneWavePair(a=1.0, b=0.0)
        values = m.density_values(x_at_theta(m, [0.0, 1.0, 2.7]), 0.0)
        np.testing.assert_allclose(values, 1.0 / m.norm, rtol=1e-12)

    def test_density_depends_on_separation_only(self, mild):
        rng = np.random.default_rng(11)
        x1, x2, s_shift = rng.uniform(-4, 4, size=(3, 50))
        d0 = mild.density_values(x1, x2)
        np.testing.assert_allclose(mild.density_values(x1 + s_shift, x2 + s_shift), d0,
                                   rtol=1e-10)


class TestDensitySingleAngle:
    def test_equal_amplitudes_quarter_turn(self):
        m = PlaneWavePair(a=1.0, b=1.0)
        val = m.density_single_angle_values(x_at_theta(m, math.pi / 2), 0.0)
        assert val == pytest.approx(2.0 / (4.0 * m.norm), rel=1e-12)

    def test_single_wave_forms_agree(self):
        m = PlaneWavePair(a=1.0, b=0.0)
        thetas = np.linspace(0, 2 * math.pi, 101)
        deltas = thetas / m.momentum
        gap = np.abs(m.density_values(deltas, np.zeros_like(deltas))
                     - m.density_single_angle_values(deltas, np.zeros_like(deltas)))
        assert np.max(gap) < 1e-15

    def test_equal_amplitude_gap_attains_full_scale(self):
        # The two closed forms differ by 2ab (cos 2theta - cos theta) / (N (a+b)^2),
        # maximised at theta = pi where the difference is 2; for a = b = 1 the
        # largest gap is therefore exactly 1/N.
        m = PlaneWavePair(a=1.0, b=1.0)
        thetas = np.linspace(0, 2 * math.pi, 4097)
        deltas = thetas / m.momentum
        gap = np.abs(m.density_values(deltas, np.zeros_like(deltas))
                     - m.density_single_angle_values(deltas, np.zeros_like(deltas)))
        assert np.max(gap) == pytest.approx(1.0 / m.norm, rel=1e-9)


class TestPhase:
    def test_zero_at_origin(self, lopsided):
        assert lopsided.phase_values(0.0, 0.0) == 0.0

    def test_single_wave_phase_is_linear(self):
        m = PlaneWavePair(a=1.0, b=0.0)
        thetas = np.linspace(-9.0, 9.0, 61)
        np.testing.assert_allclose(m.phase_values(x_at_theta(m, thetas), 0.0), thetas,
                                   rtol=0, atol=1e-12)

    def test_branch_index_past_quarter_turn(self, lopsided):
        # S = arctan(c tan theta) + eta pi: the branch index eta
        # is n for theta in the cell (n - 1/2, n + 1/2) pi, or -n when c < 0.
        n = np.arange(-3, 4)
        thetas = np.concatenate([n * math.pi - math.pi / 4, n * math.pi + math.pi / 4])
        for m in (lopsided, PlaneWavePair(a=0.5, b=1.0)):
            S = m.phase_values(x_at_theta(m, thetas), 0.0)
            eta = (S - np.arctan(m.contrast * np.tan(thetas))) / math.pi
            np.testing.assert_allclose(eta, np.sign(m.contrast) * np.concatenate([n, n]),
                                       rtol=0, atol=1e-12)
        S = lopsided.phase_values(x_at_theta(lopsided, 3 * math.pi / 4), 0.0)
        assert S == pytest.approx(math.pi - math.atan(lopsided.contrast), abs=1e-15)

    @pytest.mark.parametrize("a,b", [(1.0, 0.5), (0.5, 1.0), (1.0, 0.2)])
    def test_continuity_along_theta_path(self, a, b):
        m = PlaneWavePair(a=a, b=b)
        thetas = np.arange(-3 * math.pi, 3 * math.pi, math.pi / 200)
        values = m.phase_values(x_at_theta(m, thetas), 0.0)
        assert np.max(np.abs(np.diff(values))) < math.pi / 2

    def test_matches_unwrapped_arg_of_psi(self, lopsided):
        thetas = np.arange(-2 * math.pi, 2 * math.pi, math.pi / 300)
        x1 = x_at_theta(lopsided, thetas)
        values = lopsided.phase_values(x1, 0.0)
        psis = lopsided.psi_values(x1, 0.0)
        reference = np.unwrap(np.angle(psis))
        offset = values[0] - reference[0]
        # Agreement up to one global multiple of 2 pi.
        assert offset / (2 * math.pi) == pytest.approx(round(offset / (2 * math.pi)), abs=1e-9)
        assert np.max(np.abs(values - reference - offset)) < 1e-9

    def test_node_rejected(self):
        m = PlaneWavePair(a=1.0, b=1.0)
        with pytest.raises(ModelDomainError):
            m.phase_values(x_at_theta(m, math.pi / 2), 0.0)
        # One node among the rows rejects the call.
        with pytest.raises(ModelDomainError):
            m.phase_values(x_at_theta(m, [0.3, math.pi / 2, 1.0]), 0.0)
        assert np.all(np.isfinite(m.phase_values(x_at_theta(m, [0.3, 1.0]), 0.0)))


class TestVelocities:
    def test_single_wave_exact(self):
        m = PlaneWavePair(a=1.0, b=0.0, momentum=1.3)
        rows = np.random.default_rng(3).uniform(-10, 10, size=(200, 2))
        v = m.rhs(0.0, rows)
        assert np.max(np.abs(v[:, 0] - m.momentum)) < 1e-12
        assert np.array_equal(v[:, 1], -v[:, 0])

    def test_equal_amplitudes_static(self):
        m = PlaneWavePair(a=1.0, b=1.0)
        rows = np.random.default_rng(4).uniform(-10, 10, size=(200, 2))
        rows = rows[np.abs(np.cos(m.momentum * (rows[:, 0] - rows[:, 1]))) >= 1e-6]
        assert np.all(m.rhs(0.0, rows) == 0.0)

    def test_removable_singularity_value(self, lopsided):
        v1, v2 = lopsided.rhs(0.0, np.array([x_at_theta(lopsided, math.pi / 2), 0.0]))
        assert abs(v1 - 3.0) < 1e-12
        assert v2 == -v1

    def test_oracle_near_singularity(self, lopsided):
        x1 = x_at_theta(lopsided, math.pi / 2 + np.array([1e-3, -1e-3, 2e-4]))
        points = np.column_stack([x1, np.zeros_like(x1)])
        oracle = velocity_from_psi(lopsided, points)
        assert np.max(np.abs(oracle - lopsided.rhs(0.0, points))) < 1e-6

    def test_oracle_agreement_random_states_and_params(self):
        rng = np.random.default_rng(12)
        for _ in range(12):
            a = rng.uniform(0.2, 2.0)
            b = rng.uniform(0.0, a * 0.95)
            m = PlaneWavePair(a=a, b=b, momentum=rng.uniform(0.5, 2.0))
            pts = rng.uniform(-4, 4, size=(80, 2))
            keep = m._density_shape(pts[:, 0] - pts[:, 1]) > 1e-3
            pts = pts[keep]
            v1 = m.velocity_of_separation(pts[:, 0] - pts[:, 1])
            oracle = velocity_from_psi(m, pts)
            assert np.max(np.abs(oracle[:, 0] - v1)) < 1e-6
            assert np.max(np.abs(oracle[:, 1] + v1)) < 1e-6

    def test_independent_finite_difference_phase_gradients(self, mild):
        # Both velocities recovered separately from d(phase)/dx1 and d(phase)/dx2.
        rows = np.random.default_rng(13).uniform(-3, 3, size=(40, 2))
        grad = phase_gradient(mild, rows)
        assert np.max(np.abs(grad - mild.rhs(0.0, rows))) < 1e-6

    def test_translation_invariance_exact(self, mild):
        # Dyadic coordinates keep (x1+s) - (x2+s) bitwise equal to x1 - x2.
        base = np.array([(0.25, -1.5), (3.125, 0.625), (-2.0, 0.5)])
        v = mild.rhs(0.0, base)
        for shift in (0.5, 4.0, -128.0):
            assert np.array_equal(mild.rhs(0.0, base + shift), v)

    def test_sum_is_zero_bitwise(self, mild):
        v = mild.rhs(0.0, np.random.default_rng(14).uniform(-5, 5, size=(100, 2)))
        assert np.all(v[:, 0] + v[:, 1] == 0.0)

    def test_node_rejected(self):
        m = PlaneWavePair(a=0.7, b=0.7)
        with pytest.raises(ModelDomainError):
            m.rhs(0.0, np.array([x_at_theta(m, math.pi / 2), 0.0]))
        # The row form marks the node with NaN instead of raising.
        v = m.batch_rhs(0.0, np.array([[x_at_theta(m, math.pi / 2), 0.0], [0.3, 0.0]]))
        assert np.isnan(v[0]).all() and np.array_equal(v[1], [0.0, 0.0])


class TestDensityShapeVelocity:
    """The velocity is c (p/m) over the density shape, which is
    cos^2 theta + c^2 sin^2 theta written with one cosine."""

    @given(ab=st.floats(0.05, 5.0).flatmap(
               lambda a: st.tuples(st.just(a), st.floats(0.0, a, exclude_max=True))),
           momentum=st.floats(0.5, 2.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_two_term_form(self, ab, momentum, seed):
        m = PlaneWavePair(a=ab[0], b=ab[1], momentum=momentum)
        rng = np.random.default_rng(seed)
        delta = np.concatenate([rng.uniform(-10.0, 10.0, 200),
                                math.pi / 2 + rng.uniform(-1e-3, 1e-3, 200)]) / m.momentum
        theta = m.momentum * delta
        c = m.contrast
        denom = np.cos(theta) ** 2 + (c * np.sin(theta)) ** 2
        reference = np.where(denom < NODE_DENSITY_FLOOR, np.nan, m.momentum * c / denom)
        v = m.velocity_of_separation(delta)
        assert np.array_equal(np.isnan(v), np.isnan(reference))
        ok = ~np.isnan(v)
        assert np.all(np.abs(v[ok] - reference[ok]) <= 1e-14 * np.abs(reference[ok]))

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.0, 1.0 - 1e-13), (1.0 - 1e-13, 1.0),
                                      (1.0, 0.5)])
    def test_nodes_match_masked_divide(self, a, b):
        # Around cos theta = 0 the shape crosses NODE_DENSITY_FLOOR (for
        # a = b it is cos^2 theta); the velocity is bitwise the masked divide,
        # NaN wherever the shape is below the floor or NaN.  RuntimeWarnings
        # are errors here.
        m = PlaneWavePair(a=a, b=b, momentum=1.3)
        offsets = np.geomspace(1e-16, 1e-9, 200)
        theta = np.concatenate([math.pi / 2 + offsets, math.pi / 2 - offsets,
                                [math.pi / 2, -math.pi / 2, 0.0, -0.0, np.nan, 1.0]])
        delta = theta / m.momentum
        shape = m._density_shape(delta)
        reference = np.divide(m.momentum * m.contrast, shape, out=np.full(shape.shape, np.nan),
                              where=shape >= NODE_DENSITY_FLOOR)
        v = m.velocity_of_separation(delta)
        assert np.array_equal(v, reference, equal_nan=True)
        assert np.array_equal(np.signbit(v), np.signbit(reference))
        if abs(a - b) < 1e-12:
            assert (shape < NODE_DENSITY_FLOOR).any() and (shape >= NODE_DENSITY_FLOOR).any()
        rows = np.column_stack([delta, np.zeros_like(delta)])
        assert np.array_equal(m.batch_rhs(0.0, rows)[:, 0], reference, equal_nan=True)
        assert np.array_equal(m.velocity_of_separation(delta[-1]), reference[-1])

    def test_one_cosine_per_row(self, mild, count_calls):
        calls = count_calls(np, "sin", "cos")
        mild.batch_rhs(0.0, np.random.default_rng(2).uniform(0.0, 5.0, size=(32, 2)))
        assert calls == {"sin": 0, "cos": 1}


class TestConservedQuantities:
    def test_beta_definition_zeroes_residual(self, mild):
        # beta is fixed from the first sample, so a lone sample has a zero
        # residual; an earlier sample on the same exact trajectory (from the
        # closed-form inverse flow) keeps it at zero.
        times = np.array([0.5, 1.7])
        states = np.array([[mild.inverse_flow(1.1, 1.2), 0.0], [0.8, -0.3]])
        lone = Trajectory(times[1:], states[1:], np.zeros((1, 2)))
        assert mild.residual_drift(lone) == 0.0
        assert mild.residual_drift(Trajectory(times, states, np.zeros((2, 2)))) < 1e-10

    def test_zero_separation_reference(self, mild):
        # A pair at x1 = x2 reaches it after no time: beta = 0.
        assert mild.zero_separation_times(0.0) == 0.0

    def test_zero_time_reached_by_the_flow(self, mild):
        # Integrating each pair over its zero-separation time, backward where
        # that is negative, brings it to x1 = x2.
        starts = np.array([[0.4, -0.1], [-0.3, 0.9], [2.0, 0.5], [1.1, 1.3]])
        times = mild.zero_separation_times(starts[:, 0] - starts[:, 1])
        assert np.any(times < 0.0) and np.any(times > 0.0)
        for start, t in zip(starts, times):
            end = integrate_ode(mild.batch_rhs, [start], 0.0, t).states[-1, 0]
            assert abs(end[0] - end[1]) < 1e-7

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
        vals = np.asarray(mild.constraint_lhs(deltas)) - 2 * mild.momentum * traj.times
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
            m.zero_separation_times(0.1)
        traj = integrate_ode(m.batch_rhs, [[0.1, 0.0]], 0.0, 1.0).member(0)
        with pytest.raises(DegenerateParametersError):
            m.residual_drift(traj)

    def test_gradient_of_phase_matches_analytic(self, lopsided):
        # The phase-gradient oracle reproduces the velocities v1, v2 (the
        # momenta, at m = 1) at the reference point.
        grad = phase_gradient(lopsided, [[0.3, 0.1]])[0]
        v1, v2 = lopsided.rhs(0.0, np.array([0.3, 0.1]))
        assert abs(grad[0] - v1) < 1e-6
        assert abs(grad[1] - v2) < 1e-6

    def test_inverse_flow_round_trip(self, mild):
        rng = np.random.default_rng(21)
        deltas0 = rng.uniform(-3, 3, size=40)
        elapsed = 2.0
        starts = np.column_stack([deltas0, np.zeros_like(deltas0)])
        flow = integrate_ode(mild.batch_rhs, starts, 0.0, elapsed, sample_times=[0, elapsed])
        final = flow.states[-1]
        pulled = mild.inverse_flow(final[:, 0] - final[:, 1], elapsed)
        assert np.max(np.abs(pulled - deltas0)) < 1e-7

    @staticmethod
    def per_element_inverse_flow(model, delta, elapsed):
        """inverse_flow's Newton iteration with the formulas written out,
        each separation frozen once its own residual is below 1e-12 (or is
        NaN): every element runs the iterations it would run alone."""
        d = np.asarray(delta, dtype=float)
        target = np.asarray(model.trajectory_invariant(d)) - 2.0 * model.momentum * elapsed
        lin, amp = model._relation_coefficients()
        w = 2.0 * model.momentum
        edge_a = (target - abs(amp)) / lin
        edge_b = (target + abs(amp)) / lin
        lo, hi = np.minimum(edge_a, edge_b), np.maximum(edge_a, edge_b)
        x = target / lin
        done = np.zeros(x.shape, bool)
        for _ in range(100):
            f = lin * x + amp * np.sin(w * x) - target
            done |= ~(np.abs(f) >= 1e-12)
            if done.all():
                break
            fp = lin + amp * w * np.cos(w * x)
            x = np.where(done, x, np.clip(x - f / fp, lo, hi))
        f = lin * x + amp * np.sin(w * x) - target
        for i in np.nonzero(np.abs(f) > 1e-10)[0]:
            x[i] = bracketed_root(lambda z: lin * z + amp * math.sin(w * z) - target[i],
                                  lo[i] - 1e-12, hi[i] + 1e-12)
        return x

    @pytest.mark.parametrize("a, b", [(1.0, 0.2), (1.0, 0.5), (0.3, 1.0)])
    def test_inverse_flow_reuses_buffers_bitwise(self, a, b):
        # inverse_flow fills one output buffer block by block; every element
        # of it is bitwise the per-element reference.
        model = PlaneWavePair(a=a, b=b)
        deltas = np.random.default_rng(5).uniform(-model.box_length, model.box_length,
                                                  100_000)
        pulled = model.inverse_flow(deltas, 3.0)
        reference = self.per_element_inverse_flow(model, deltas, 3.0)
        assert np.array_equal(pulled, reference)
        # The reference gives each element what it gives that element alone.
        for i in (0, 7, 8191, 8192, 99_999):
            assert self.per_element_inverse_flow(model, deltas[i:i + 1], 3.0)[0] == reference[i]
            assert model.inverse_flow(float(deltas[i]), 3.0) == reference[i]

    @staticmethod
    def same_bits(x, y):
        return np.array_equal(np.asarray(x, float).view(np.uint64),
                              np.asarray(y, float).view(np.uint64))

    @pytest.mark.parametrize("a, b", [(1.0, 0.2), (0.3, 1.0), (1.0, 0.0)])
    def test_inverse_flow_edge_inputs(self, a, b):
        # b = 0 makes the sine term vanish, a < b the linear coefficient
        # negative; signed zeros keep their sign as in one-element calls.
        model = PlaneWavePair(a=a, b=b)
        empty = model.inverse_flow(np.array([]), 1.0)
        assert empty.shape == (0,) and empty.dtype == float
        deltas = np.array([0.0, -0.0, 1e-300, -3.5, 19.9, -20.0])
        for t in (0.0, 1.0, -2.5):
            alone = [model.inverse_flow(float(d), t) for d in deltas]
            assert self.same_bits(model.inverse_flow(deltas, t), alone)

    def test_inverse_flow_nan_stays_alone(self, mild):
        # A NaN separation pulls back to NaN and leaves every other
        # separation's result as it is without it.
        deltas = np.random.default_rng(9).uniform(-20.0, 20.0, 20_000)
        clean = mild.inverse_flow(deltas, 3.0)
        holed = deltas.copy()
        holed[[3, 12_345]] = np.nan
        pulled = mild.inverse_flow(holed, 3.0)
        assert np.isnan(pulled[[3, 12_345]]).all()
        keep = ~np.isnan(holed)
        assert np.array_equal(pulled[keep], clean[keep])
        assert math.isnan(mild.inverse_flow(math.nan, 3.0))

    @settings(max_examples=60)
    @given(a=st.floats(0.0, 2.0), b=st.floats(0.0, 2.0), t=st.floats(-5.0, 5.0),
           rows=st.integers(1, 9), data=st.data(),
           deltas=st.lists(st.floats(-25.0, 25.0), max_size=40))
    def test_inverse_flow_is_batch_independent(self, a, b, t, rows, data, deltas):
        # In blocks of a few rows, so the batches cross block edges.
        assume(a != b)
        model = PlaneWavePair(a=a, b=b)
        deltas = np.array(deltas, dtype=float)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(planewave, "BLOCK_ROWS", rows)
            pulled = model.inverse_flow(deltas, t)
            order = np.array(data.draw(st.permutations(range(len(deltas)))), dtype=np.intp)
            permuted = model.inverse_flow(deltas[order], t)
        assert self.same_bits(pulled, [model.inverse_flow(float(d), t) for d in deltas])
        assert self.same_bits(permuted, pulled[order])

    def test_inverse_flow_static_model(self):
        m = PlaneWavePair(a=1.0, b=1.0)
        assert m.inverse_flow(0.7, 3.0) == 0.7

    def test_zero_time_single_wave_exact(self):
        m = PlaneWavePair(a=1.0, b=0.0)
        # The separation grows at 2p per unit time.
        assert m.zero_separation_times(1.5 - 0.25) == pytest.approx(
            -(1.5 - 0.25) / (2.0 * m.momentum), abs=1e-14)


def uniqueness(model):
    """The uniqueness claims of ``model`` by claim id."""
    return {c.claim_id: c for c in uniqueness_claims(model)}


class TestUniquenessAnalysis:
    def test_constraint_root_at_reference_time(self, mild):
        g = lambda d: float(mild.constraint_lhs(d))
        assert bracketed_root(g, -0.1, 0.1) == pytest.approx(0.0, abs=1e-10)

    def test_mild_amplitudes_unique_root(self, mild):
        claims = uniqueness(mild)
        assert claims["uniqueness_monotone_condition"].value is True
        assert claims["uniqueness_amplitude_ratio_condition"].value is True
        assert claims["uniqueness_conditions_agree"].value is True
        count = claims["separation_constraint_root_count"]
        assert count.value == 1 and count.status == "pass"
        assert claims["monotonicity_matches_condition"].value is True
        # The claims' scan, whose one root lies at the reference time.
        half = 4.0 * math.pi / mild.momentum
        roots, _ = scan_roots(mild.constraint_lhs, -half, half, UNIQUENESS_GRID)
        assert roots[0] == pytest.approx(0.0, abs=1e-9)

    def test_single_wave_trivially_monotone(self):
        m = PlaneWavePair(a=1.0, b=0.0)
        # With b = 0 the scanned expression reduces to delta / 2.
        assert float(m.constraint_lhs(0.8)) == pytest.approx(0.4, rel=1e-12)
        claims = uniqueness(m)
        assert claims["separation_constraint_root_count"].value == 1
        assert claims["monotonicity_matches_condition"].value is True

    def test_conditions_disagree_for_intermediate_amplitude(self):
        claims = uniqueness(PlaneWavePair(a=1.0, b=0.3))
        assert claims["uniqueness_monotone_condition"].value is False    # 4ab = 1.2 > 1.09
        assert claims["uniqueness_amplitude_ratio_condition"].value is True  # 0.3 < 1/3
        assert claims["uniqueness_conditions_agree"].value is False
        assert claims["monotonicity_matches_condition"].value is False
        count = claims["separation_constraint_root_count"]
        assert count.value == 1         # frozen from a grid >= 1e5 scan
        assert count.status == "measured" and count.tolerance is None

    def test_monotonicity_equivalence_random_params(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            a = rng.uniform(0.3, 2.0)
            b = rng.uniform(0.0, a * 0.99)
            claims = uniqueness(PlaneWavePair(a=a, b=b))
            assert (claims["monotonicity_matches_condition"].value
                    == claims["uniqueness_monotone_condition"].value)
            assert claims["monotonicity_matches_condition"].status == "pass"

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateParametersError):
            uniqueness_claims(PlaneWavePair(a=1.0, b=1.0))
