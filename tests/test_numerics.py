"""Kernel checks: gradients, integrators, and root finding."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from bohmpair.ensemble import sample_configurations
from bohmpair.errors import BracketError, ModelDomainError
from bohmpair.numerics import (IntegratorConfig, bracketed_root, central_gradient,
                               integrate_ode, scan_roots)
from bohmpair.planewave import PlaneWavePair
from bohmpair.spherical import SlitPair


class TestCentralGradient:
    def test_quadratic(self):
        grad = central_gradient(lambda x: x[0] ** 2, [3.0], h=1e-4)
        assert abs(grad[0] - 6.0) < 1e-7

    def test_constant_field(self):
        grad = central_gradient(lambda x: 4.25, [0.3, -1.0, 7.0])
        assert np.all(grad == 0.0)

    def test_second_order_convergence(self):
        f = lambda x: math.sin(x[0]) * math.exp(x[1])
        x = np.array([0.7, -0.4])
        exact = np.array([math.cos(0.7) * math.exp(-0.4),
                          math.sin(0.7) * math.exp(-0.4)])
        err_h = np.max(np.abs(central_gradient(f, x, h=1e-3) - exact))
        err_half = np.max(np.abs(central_gradient(f, x, h=5e-4) - exact))
        assert err_h / err_half == pytest.approx(4.0, rel=0.15)

    def test_stencil_failure_propagates(self):
        def f(x):
            if x[0] > 1.0:
                raise ModelDomainError("outside")
            return x[0]

        with pytest.raises(ModelDomainError):
            central_gradient(f, [1.0], h=1e-3)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            central_gradient(lambda x: x[0], [1.0], h=0.0)


class TestIntegrateOde:
    def test_constant_field_exact(self):
        traj = integrate_ode(lambda t, y: np.array([2.5]), [1.0], 0.0, 3.0,
                             sample_times=[0.0, 1.5, 3.0])
        assert traj.complete
        assert abs(traj.final_state[0] - (1.0 + 2.5 * 3.0)) < 1e-12
        assert np.array_equal(traj.times, [0.0, 1.5, 3.0])

    def test_exponential_within_tolerance(self):
        cfg = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12)
        traj = integrate_ode(lambda t, y: y, [1.0], 0.0, 1.0, cfg, sample_times=[0, 1])
        assert abs(traj.final_state[0] - math.e) / math.e < 10 * cfg.rel_tol

    def test_backward_integration(self):
        traj = integrate_ode(lambda t, y: y, [math.e], 1.0, 0.0, sample_times=[1.0, 0.0])
        assert abs(traj.final_state[0] - 1.0) < 1e-8
        assert traj.times[0] == 1.0 and traj.times[-1] == 0.0

    def test_round_trip(self):
        cfg = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12)
        rhs = lambda t, y: np.array([math.sin(t) + y[0] * 0.1])
        fwd = integrate_ode(rhs, [0.7], 0.0, 4.0, cfg, sample_times=[0, 4])
        back = integrate_ode(rhs, fwd.final_state, 4.0, 0.0, cfg, sample_times=[4, 0])
        assert abs(back.final_state[0] - 0.7) < 100 * cfg.rel_tol

    def test_rk4_fixed_step_converges(self):
        errs = []
        for step in (0.1, 0.05):
            cfg = IntegratorConfig(method="rk4", step=step)
            traj = integrate_ode(lambda t, y: y, [1.0], 0.0, 1.0, cfg, sample_times=[0, 1])
            errs.append(abs(traj.final_state[0] - math.e))
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.3)

    def test_max_steps_truncates(self):
        cfg = IntegratorConfig(method="rk4", step=1e-4, max_steps=50)
        traj = integrate_ode(lambda t, y: y, [1.0], 0.0, 1.0, cfg,
                             sample_times=np.linspace(0, 1, 11))
        assert not traj.complete
        assert traj.termination == "max_steps"
        assert traj.final_time < 1.0

    def test_domain_error_truncates(self):
        def rhs(t, y):
            if t > 0.5:
                raise ModelDomainError("field undefined")
            return np.array([1.0])

        traj = integrate_ode(rhs, [0.0], 0.0, 1.0, sample_times=np.linspace(0, 1, 11))
        assert not traj.complete
        assert traj.termination.startswith("domain_error")
        assert traj.final_time == pytest.approx(0.5, abs=0.101)
        assert np.isnan(traj.velocities[-1, 0]) or traj.final_time <= 0.5

    def test_zero_span(self):
        traj = integrate_ode(lambda t, y: y, [2.0], 1.0, 1.0)
        assert len(traj) == 1 and traj.final_state[0] == 2.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(method="euler")
        with pytest.raises(ValueError):
            IntegratorConfig(step=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(rel_tol=-1e-9)
        with pytest.raises(ValueError):
            IntegratorConfig(max_steps=0)


class TestRk45MatchesSolveIvp:
    """The adaptive stepper is solve_ivp's RK45 loop without the history."""

    @pytest.mark.parametrize("model, t_end", [(PlaneWavePair(a=1.0, b=0.2), 2.0),
                                              (SlitPair(wavenumber=1.0, slit_offset=0.5), 1.0)])
    def test_bitwise_final_state(self, model, t_end):
        cfg = IntegratorConfig()
        y0 = sample_configurations(model, 8, seed=5)[0].ravel()
        calls = {"ours": 0, "solve_ivp": 0}

        def counted(key):
            def rhs(t, y):
                calls[key] += 1
                return model.batch_rhs(t, y)
            return rhs

        traj = integrate_ode(counted("ours"), y0, 0.0, t_end, cfg, sample_times=[0.0, t_end])
        sol = solve_ivp(counted("solve_ivp"), (0.0, t_end), y0, method="RK45",
                        rtol=cfg.rel_tol, atol=cfg.abs_tol)
        assert traj.complete and sol.success
        assert np.array_equal(traj.final_state, sol.y[:, -1])
        # Sample velocities reuse the solver's own evaluations.
        assert calls["ours"] == calls["solve_ivp"]

    def test_failing_segment_truncates(self):
        # A jump of 1e10 in the field cannot meet the tolerance at any step
        # size the time spacing allows.
        rhs = lambda t, y: np.array([1e10 if t > 0.5 else 0.0])
        traj = integrate_ode(rhs, [0.0], 0.0, 1.0, sample_times=[0.0, 0.25, 1.0])
        sol = solve_ivp(rhs, (0.25, 1.0), [0.0], method="RK45", rtol=1e-9, atol=1e-11)
        assert not traj.complete and traj.final_time == 0.25
        assert traj.termination == f"integration_failure: {sol.message}"


def reevaluated_velocities(rhs, traj):
    """Sample velocities as integrate_ode used to fill them: the field
    evaluated once more at every kept sample, NaN where it is undefined."""
    out = np.full_like(traj.states, np.nan)
    for i, (t, y) in enumerate(zip(traj.times, traj.states)):
        try:
            out[i] = rhs(t, y)
        except ModelDomainError:
            pass
    return out


def rk4_reference(rhs, y0, times, step):
    """The former fixed-step loop: four fresh evaluations per step, restarted
    at every sample time.  Returns (states, rhs evaluations)."""
    calls = 0
    y = np.asarray(y0, dtype=float)
    states = [y]
    for t_from, t_to in zip(times[:-1], times[1:]):
        n = max(1, math.ceil(abs(t_to - t_from) / step))
        h = (t_to - t_from) / n
        for i in range(n):
            t = t_from + i * h
            k1 = np.asarray(rhs(t, y))
            k2 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k1))
            k3 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k2))
            k4 = np.asarray(rhs(t + h, y + h * k3))
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            calls += 4
        states.append(y)
    return np.array(states), calls


MODELS = [(PlaneWavePair(a=1.0, b=0.2), 2.0), (SlitPair(wavenumber=1.0, slit_offset=0.5), 1.0)]


class TestSampleVelocities:
    """Sample velocities reuse the steppers' own evaluations; both models'
    fields ignore t, so they equal a fresh evaluation at each sample."""

    @staticmethod
    def field_and_start(model):
        y0 = sample_configurations(model, 8, seed=5)[0].ravel()
        return (lambda t, y: model.batch_rhs(t, y)), y0

    @pytest.mark.parametrize("model, t_end", MODELS)
    @pytest.mark.parametrize("cfg", [IntegratorConfig(),
                                     IntegratorConfig(method="rk4", step=0.05),
                                     IntegratorConfig(max_steps=20),
                                     IntegratorConfig(method="rk4", step=0.05, max_steps=7)],
                             ids=["rk45", "rk4", "rk45-max-steps", "rk4-max-steps"])
    def test_bitwise_equal_to_reevaluation(self, model, t_end, cfg):
        rhs, y0 = self.field_and_start(model)
        traj = integrate_ode(rhs, y0, 0.0, t_end, cfg, sample_times=np.linspace(0, t_end, 11))
        assert traj.complete == (cfg.max_steps > 100) and len(traj) > 1
        assert np.array_equal(traj.velocities, reevaluated_velocities(rhs, traj))

    @pytest.mark.parametrize("model, t_end", MODELS)
    @pytest.mark.parametrize("method", ["rk45", "rk4"])
    def test_domain_truncated_trajectory(self, model, t_end, method):
        field, y0 = self.field_and_start(model)

        def rhs(t, y):  # undefined once any coordinate moved 0.2 from its start
            if np.max(np.abs(y - y0)) > 0.2:
                raise ModelDomainError("left the region")
            return field(t, y)

        cfg = IntegratorConfig(method=method, step=0.05)
        traj = integrate_ode(rhs, y0, 0.0, t_end, cfg, sample_times=np.linspace(0, t_end, 21))
        assert traj.termination.startswith("domain_error") and len(traj) > 1
        assert np.array_equal(traj.velocities, reevaluated_velocities(rhs, traj),
                              equal_nan=True)

    @pytest.mark.parametrize("model, t_end", MODELS)
    def test_rk4_states_and_evaluation_count(self, model, t_end):
        field, y0 = self.field_and_start(model)
        calls = [0]

        def rhs(t, y):
            calls[0] += 1
            return field(t, y)

        times = np.linspace(0.0, t_end, 11)
        traj = integrate_ode(rhs, y0, 0.0, t_end, IntegratorConfig(method="rk4", step=0.03),
                             sample_times=times)
        states, reference_calls = rk4_reference(field, y0, times, 0.03)
        assert np.array_equal(traj.states, states)
        # One evaluation to start, then four per step: each step's k1 is the
        # previous step's end evaluation, and the sample velocities come free.
        assert calls[0] == 1 + reference_calls


class TestRootFinding:
    def test_linear(self):
        assert bracketed_root(lambda x: x - 2.0, 0.0, 5.0) == pytest.approx(2.0, abs=1e-10)

    def test_sine_finds_pi(self):
        assert bracketed_root(math.sin, 3.0, 4.0) == pytest.approx(math.pi, abs=1e-10)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            bracketed_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_endpoint_zero(self):
        assert bracketed_root(lambda x: x, 0.0, 1.0) == 0.0


class TestScanRoots:
    def test_identity_single_root(self):
        report = scan_roots(lambda x: x, -1.0, 1.0, grid=100)
        assert report.root_count == 1
        assert report.roots[0] == pytest.approx(0.0, abs=1e-10)
        assert report.is_monotone_on_interval

    def test_polynomial_known_roots(self):
        g = lambda x: (x - 1.0) * (x + 2.0) * x
        report = scan_roots(g, -3.0, 3.0, grid=2000)
        assert report.root_count == 3
        for found, true in zip(report.roots, (-2.0, 0.0, 1.0)):
            assert found == pytest.approx(true, abs=1e-9)
        assert not report.is_monotone_on_interval

    def test_vectorised_callable(self):
        report = scan_roots(lambda x: np.sin(x), 0.5, 7.0, grid=5000)
        assert report.root_count == 2
        assert report.roots[0] == pytest.approx(math.pi, abs=1e-9)
        assert report.roots[1] == pytest.approx(2 * math.pi, abs=1e-9)

    def test_exact_grid_zero(self):
        report = scan_roots(lambda x: x, -1.0, 1.0, grid=101)  # 0.0 lands on the grid
        assert report.root_count == 1 and report.roots[0] == 0.0

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            scan_roots(lambda x: x, 0.0, 1.0, grid=1)

    def test_roots_sorted(self):
        report = scan_roots(lambda x: np.cos(x), 0.0, 20.0, grid=4000)
        assert list(report.roots) == sorted(report.roots)
        assert report.root_count == 6  # odd multiples of pi/2 below 20
