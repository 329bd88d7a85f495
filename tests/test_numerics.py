"""Kernel checks: gradients, integrators, and root finding."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from bohmpair.ensemble import sample_configurations
from bohmpair.errors import BracketError, ModelDomainError
from bohmpair.numerics import IntegratorConfig, bracketed_root, integrate_ode, scan_roots
from bohmpair.oracles import _stencil
from bohmpair.planewave import PlaneWavePair
from bohmpair.spherical import SlitPair


class TestStencil:
    """The one central-difference stencil, behind both oracles."""

    def test_second_order_convergence(self):
        # Near the origin the stencil steps by 1e-6; differencing g(p / s)
        # at p = s x steps x by 1e-6 / s, so doubling s halves the step.
        g = lambda x: np.sin(x[:, 0]) * np.exp(x[:, 1])
        x = np.array([[0.7, -0.4]])
        exact = np.array([math.cos(0.7) * math.exp(-0.4),
                          math.sin(0.7) * math.exp(-0.4)])
        errs = []
        for s in (1e-3, 2e-3):
            _, diffs, steps = _stencil(lambda p: g(p / s), s * x)
            errs.append(np.max(np.abs(s * diffs[0] / (2.0 * steps[0]) - exact)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)

    def test_stencil_failure_propagates(self):
        def f(p):
            if np.any(p[:, 0] > 1.0):
                raise ModelDomainError("outside")
            return p[:, 0]

        with pytest.raises(ModelDomainError):
            _stencil(f, [[1.0]])


class TestIntegrateOde:
    def test_constant_field_exact(self):
        traj = integrate_ode(lambda t, y: np.full_like(y, 2.5), [[1.0]], 0.0, 3.0,
                             sample_times=[0.0, 1.5, 3.0]).member(0)
        assert traj.complete
        assert abs(traj.final_state[0] - (1.0 + 2.5 * 3.0)) < 1e-12
        assert np.array_equal(traj.times, [0.0, 1.5, 3.0])

    def test_exponential_within_tolerance(self):
        cfg = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12)
        traj = integrate_ode(lambda t, y: y, [[1.0]], 0.0, 1.0, cfg, sample_times=[0, 1])
        assert abs(traj.states[-1, 0, 0] - math.e) / math.e < 10 * cfg.rel_tol

    def test_backward_integration(self):
        traj = integrate_ode(lambda t, y: y, [[math.e]], 1.0, 0.0, sample_times=[1.0, 0.0])
        assert abs(traj.states[-1, 0, 0] - 1.0) < 1e-8
        assert traj.times[0] == 1.0 and traj.times[-1] == 0.0

    def test_round_trip(self):
        cfg = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12)
        rhs = lambda t, y: np.sin(t)[:, None] + y * 0.1
        fwd = integrate_ode(rhs, [[0.7]], 0.0, 4.0, cfg, sample_times=[0, 4])
        back = integrate_ode(rhs, fwd.states[-1], 4.0, 0.0, cfg, sample_times=[4, 0])
        assert abs(back.states[-1, 0, 0] - 0.7) < 100 * cfg.rel_tol

    def test_max_steps_truncates(self):
        cfg = IntegratorConfig(max_steps=8)    # fewer attempts than the 10 sample gaps
        traj = integrate_ode(lambda t, y: y, [[1.0]], 0.0, 1.0, cfg,
                             sample_times=np.linspace(0, 1, 11)).member(0)
        assert not traj.complete
        assert traj.termination == "max_steps"
        assert traj.final_time == pytest.approx(0.2)

    def test_domain_error_truncates(self):
        def rhs(t, y):  # undefined past t = 0.5
            return np.where(t[:, None] > 0.5, np.nan, np.ones_like(y))

        traj = integrate_ode(rhs, [[0.0]], 0.0, 1.0,
                             sample_times=np.linspace(0, 1, 11)).member(0)
        assert not traj.complete
        assert traj.termination.startswith("domain_error")
        assert traj.final_time == pytest.approx(0.5, abs=0.101)
        assert np.isnan(traj.velocities[-1, 0]) or traj.final_time <= 0.5

    def test_default_samples_are_end_points(self):
        batch = integrate_ode(lambda t, y: y, [[1.0]], 1.0, 0.0)
        assert batch.times.tolist() == [1.0, 0.0] and batch.complete

    def test_zero_span(self):
        traj = integrate_ode(lambda t, y: y, [[2.0]], 1.0, 1.0).member(0)
        assert len(traj) == 1 and traj.final_state[0] == 2.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rel_tol=-1e-9)
        with pytest.raises(ValueError):
            IntegratorConfig(max_steps=0)


class TestRk45MatchesSolveIvp:
    """The adaptive stepper gives up where solve_ivp's RK45 does."""

    def test_failing_segment_truncates(self):
        # A jump of 1e10 in the field cannot meet the tolerance at any step
        # size the time spacing allows.
        rhs = lambda t, y: np.where(np.asarray(t)[..., None] > 0.5, 1e10, 0.0) * np.ones_like(y)
        traj = integrate_ode(rhs, [[0.0]], 0.0, 1.0, sample_times=[0.0, 0.25, 1.0]).member(0)
        sol = solve_ivp(rhs, (0.25, 1.0), [0.0], method="RK45", rtol=1e-9, atol=1e-11)
        assert not traj.complete and traj.final_time == 0.25
        assert traj.termination == f"integration_failure: {sol.message}"


MODEL_CASES = {"planewave": (PlaneWavePair(a=1.0, b=0.2), 1.0),
               "spherical": (SlitPair(wavenumber=1.0, slit_offset=0.5), 0.5)}


class TestPerMemberControl:
    """Each member is stepped on its own, whatever else is in the batch."""

    @settings(max_examples=32)
    @given(name=st.sampled_from(sorted(MODEL_CASES)), size=st.integers(2, 12),
           seed=st.integers(0, 2 ** 16), max_steps=st.sampled_from([1_000_000, 12]),
           fenced=st.booleans(), data=st.data())
    def test_member_alone_equals_member_in_batch(self, name, size, seed, max_steps,
                                                 fenced, data):
        model, t_end = MODEL_CASES[name]
        cfg = IntegratorConfig(max_steps=max_steps)
        y0 = sample_configurations(model, size, seed=seed)[0]
        limit = np.median(y0[:, 0]) + 0.2 if fenced else np.inf

        def field(t, y):  # undefined past x1 = limit, so some members stop there
            return np.where(y[:, :1] > limit, np.nan, model.batch_rhs(t, y))

        order = np.random.default_rng(seed).permutation(size)
        i = data.draw(st.integers(0, size - 1))
        times = np.linspace(0.0, t_end, 6)
        batch = integrate_ode(field, y0[order], 0.0, t_end, cfg, times)
        alone = integrate_ode(field, y0[i:i + 1], 0.0, t_end, cfg, times)
        j = int(np.flatnonzero(order == i)[0])
        assert np.array_equal(batch.states[:, j], alone.states[:, 0], equal_nan=True)
        assert np.array_equal(batch.velocities[:, j], alone.velocities[:, 0], equal_nan=True)
        assert batch.lengths[j] == alone.lengths[0]
        assert batch.terminations[j] == alone.terminations[0]

    @pytest.mark.parametrize("name", sorted(MODEL_CASES))
    def test_members_against_tight_reference(self, name):
        model, _ = MODEL_CASES[name]
        y0 = sample_configurations(model, 16, seed=11)[0]
        flow = integrate_ode(model.batch_rhs, y0, 0.0, 3.0, sample_times=[0.0, 3.0])
        assert flow.complete
        for row, end in zip(y0, flow.states[-1]):
            sol = solve_ivp(model.rhs, (0.0, 3.0), row, method="DOP853",
                            rtol=1e-13, atol=1e-15)
            assert np.max(np.abs(end - sol.y[:, -1])) < 1e-6

    def test_pullback_residual_every_member(self):
        model = PlaneWavePair(a=1.0, b=0.2)
        y0 = sample_configurations(model, 20_000, seed=42)[0]
        flow = integrate_ode(model.batch_rhs, y0, 0.0, 3.0, sample_times=[0.0, 3.0])
        assert flow.complete
        end = flow.states[-1]
        pulled = model.inverse_flow(end[:, 0] - end[:, 1], 3.0)
        assert np.max(np.abs(pulled - (y0[:, 0] - y0[:, 1]))) <= 1e-6

    def test_undefined_row_truncates_its_member_only(self):
        def rhs(t, y):  # undefined once a member passes x = 1
            return np.where(y > 1.0, np.nan, np.ones_like(y))

        flow = integrate_ode(rhs, [[0.0], [0.5]], 0.0, 1.0,
                             sample_times=np.linspace(0.0, 1.0, 11))
        assert flow.terminations[0] == "completed"
        assert flow.terminations[1].startswith("domain_error")
        assert flow.lengths.tolist() == [11, 6]
        assert np.all(np.isnan(flow.states[6:, 1]))


def reevaluated_velocities(rhs, traj):
    """Sample velocities as integrate_ode used to fill them: the field
    evaluated once more at every kept sample, NaN where it is undefined."""
    return np.array([rhs(np.array([t]), y[None])[0] for t, y in zip(traj.times, traj.states)])


MODELS = [(PlaneWavePair(a=1.0, b=0.2), 2.0), (SlitPair(wavenumber=1.0, slit_offset=0.5), 1.0)]


class TestSampleVelocities:
    """Sample velocities reuse the stepper's own evaluations; both models'
    fields ignore t, so they equal a fresh evaluation at each sample."""

    @staticmethod
    def field_and_start(model):
        """The field and one start: eight configurations as a single member."""
        y0 = sample_configurations(model, 8, seed=5)[0].reshape(1, -1)
        return (lambda t, y: model.batch_rhs(t, y)), y0

    @pytest.mark.parametrize("model, t_end", MODELS)
    @pytest.mark.parametrize("cfg", [IntegratorConfig(),
                                     # fewer attempts than the 10 sample gaps
                                     IntegratorConfig(max_steps=8)],
                             ids=["rk45", "rk45-max-steps"])
    def test_bitwise_equal_to_reevaluation(self, model, t_end, cfg):
        rhs, y0 = self.field_and_start(model)
        traj = integrate_ode(rhs, y0, 0.0, t_end, cfg,
                             sample_times=np.linspace(0, t_end, 11)).member(0)
        assert traj.complete == (cfg.max_steps > 100) and len(traj) > 1
        assert np.array_equal(traj.velocities, reevaluated_velocities(rhs, traj))

    @pytest.mark.parametrize("model, t_end", MODELS)
    def test_domain_truncated_trajectory(self, model, t_end):
        field, y0 = self.field_and_start(model)

        def rhs(t, y):  # undefined once any coordinate moved 0.2 from its start
            return np.where(np.max(np.abs(y - y0)) > 0.2, np.nan, field(t, y))

        traj = integrate_ode(rhs, y0, 0.0, t_end,
                             sample_times=np.linspace(0, t_end, 21)).member(0)
        assert traj.termination.startswith("domain_error") and len(traj) > 1
        assert np.array_equal(traj.velocities, reevaluated_velocities(rhs, traj),
                              equal_nan=True)

    @pytest.mark.parametrize("model, t_end", MODELS)
    def test_rk45_evaluation_count(self, model, t_end):
        field, y0 = self.field_and_start(model)
        calls = [0]

        def rhs(t, y):
            calls[0] += 1
            return field(t, y)

        times = np.linspace(0.0, t_end, 11)
        assert integrate_ode(rhs, y0, 0.0, t_end, sample_times=times).complete
        # One evaluation to start and one initial-step probe, then six per
        # step attempt (the last stage is the next step's first), and the
        # sample velocities come free: the attempts this count implies are
        # exactly those the member needs.
        attempts, extra = divmod(calls[0] - 2, 6)
        assert extra == 0
        assert integrate_ode(field, y0, 0.0, t_end, IntegratorConfig(max_steps=attempts),
                             times).complete
        short = integrate_ode(field, y0, 0.0, t_end, IntegratorConfig(max_steps=attempts - 1),
                              times)
        assert short.terminations == ("max_steps",)


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

    def test_stops_at_float_spacing(self):
        # The float spacing at 1e9 is ~1.2e-7, far above tol: the bisection
        # must stop at adjacent floats.  x - 1e9 is exact and a multiple of
        # 2^-23, so g is never exactly zero; it raises if called without end.
        calls = []

        def g(x):
            calls.append(x)
            if len(calls) > 200:
                raise RuntimeError("bisection did not stop")
            return (x - 1e9) - 0.1

        found = bracketed_root(g, 1e9 - 1.0, 1e9 + 1.0, tol=1e-10)
        assert abs(found - (1e9 + 0.1)) <= math.ulp(1e9)


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
