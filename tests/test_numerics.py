"""Kernel checks: gradients, integrators, and root finding."""

import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from bohmpair import numerics
from bohmpair.analyses import UNIQUENESS_GRID, trajectory_ensemble
from bohmpair.ensemble import sample_configurations
from bohmpair.errors import BracketError, ModelDomainError
from bohmpair.numerics import (_COMPLETED, _DOMAIN, _MAX_STEPS, IntegratorConfig, bracketed_root,
                               integrate_ode, scan_roots)
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
        assert abs(traj.states[-1, 0] - (1.0 + 2.5 * 3.0)) < 1e-12
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
        # The member needs 20 steps (growth is capped at 2x a step); 8 free
        # steps end between the samples at 0.3 and 0.4.
        cfg = IntegratorConfig(max_steps=8)
        traj = integrate_ode(lambda t, y: y, [[1.0]], 0.0, 1.0, cfg,
                             sample_times=np.linspace(0, 1, 11)).member(0)
        assert not traj.complete
        assert traj.termination == "max_steps"
        assert traj.times[-1] == pytest.approx(0.3)

    def test_domain_error_truncates(self):
        def rhs(t, y):  # undefined past t = 0.5
            return np.where(t[:, None] > 0.5, np.nan, np.ones_like(y))

        traj = integrate_ode(rhs, [[0.0]], 0.0, 1.0,
                             sample_times=np.linspace(0, 1, 11)).member(0)
        assert not traj.complete
        assert traj.termination.startswith("domain_error")
        assert traj.times[-1] == pytest.approx(0.5, abs=0.101)
        assert np.isnan(traj.velocities[-1, 0]) or traj.times[-1] <= 0.5

    def test_default_samples_are_end_points(self):
        batch = integrate_ode(lambda t, y: y, [[1.0]], 1.0, 0.0)
        assert batch.times.tolist() == [1.0, 0.0] and batch.complete

    def test_zero_span(self):
        traj = integrate_ode(lambda t, y: y, [[2.0]], 1.0, 1.0).member(0)
        assert len(traj) == 1 and traj.states[-1, 0] == 2.0

    def test_sample_times_within_rounding_merge_with_end_points(self):
        # Times up to 1e-12 past either end are taken as that end point, so
        # the grid stays monotone and nothing is sampled before t0.
        f = lambda t, y: np.zeros_like(y)
        for late_or_early in (1.0 + 5e-13, -5e-13):
            batch = integrate_ode(f, [[0.0]], 0.0, 1.0, sample_times=[late_or_early, 0.5])
            assert batch.times.tolist() == [0.0, 0.5, 1.0] and batch.complete
        with pytest.raises(ValueError):
            integrate_ode(f, [[0.0]], 0.0, 1.0, sample_times=[1.0 + 1e-9])
        with pytest.raises(ValueError):
            integrate_ode(f, [[0.0]], 0.0, 1.0, sample_times=[0.5, math.nan])

    @given(st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0]) | st.floats(allow_nan=False),
                    max_size=30))
    def test_sorted_unique_is_np_unique(self, values):
        x = np.array(values, dtype=float)
        assert numerics.sorted_unique(x).tobytes() == np.unique(x).tobytes()
        cuts = np.array([[5, 3], [3, 0], [9, 5]])
        assert numerics.sorted_unique(cuts).tobytes() == np.unique(cuts).tobytes()

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
        assert not traj.complete and traj.times[-1] == 0.25
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
        assert batch.codes[j] == alone.codes[0]

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
        def rhs(t, y):  # undefined once a member passes x = 1.05
            return np.where(y > 1.05, np.nan, np.ones_like(y))

        flow = integrate_ode(rhs, [[0.0], [0.5]], 0.0, 1.0,
                             sample_times=np.linspace(0.0, 1.0, 11))
        # The second member holds every sample the field is defined at,
        # up to t = 0.5, though its first attempt past x = 1.05 starts
        # before the sample at 0.4.
        assert flow.codes[0] == _COMPLETED
        assert flow.codes[1] == _DOMAIN
        assert flow.lengths.tolist() == [11, 6]
        assert np.all(np.isnan(flow.states[6:, 1]))
        assert not np.isnan(flow.states[:, 0]).any()


def reevaluated_velocities(rhs, traj):
    """Sample velocities as integrate_ode used to fill them: the field
    evaluated once more at every kept sample, NaN where it is undefined."""
    return np.array([rhs(np.array([t]), y[None])[0] for t, y in zip(traj.times, traj.states)])


MODELS = [(PlaneWavePair(a=1.0, b=0.2), 2.0), (SlitPair(wavenumber=1.0, slit_offset=0.5), 1.0)]


class TestSampleVelocities:
    """Sample velocities are the field at each sample state: the stepper's
    own evaluations at the end points, one call over the interpolated
    samples; both models' fields ignore t, so they equal a fresh evaluation
    at each sample."""

    @staticmethod
    def field_and_start(model):
        """The field and one start: eight configurations as a single member."""
        y0 = sample_configurations(model, 8, seed=5)[0].reshape(1, -1)
        return (lambda t, y: model.batch_rhs(t, y)), y0

    @pytest.mark.parametrize("model, t_end", MODELS)
    @pytest.mark.parametrize("share", [None, 0.75], ids=["rk45", "rk45-max-steps"])
    def test_bitwise_equal_to_reevaluation(self, model, t_end, share):
        # With ``share``, max_steps is that share of the attempts the member
        # needs, so it stops partway.
        rhs, y0 = self.field_and_start(model)
        times = np.linspace(0, t_end, 11)
        cfg = IntegratorConfig()
        if share is not None:
            work = integrate_ode(rhs, y0, 0.0, t_end, cfg, sample_times=times).work
            cfg = IntegratorConfig(
                max_steps=int(share * (work.accepted_steps + work.rejected_steps)))
        traj = integrate_ode(rhs, y0, 0.0, t_end, cfg, sample_times=times).member(0)
        assert traj.complete == (share is None) and len(traj) > 1
        assert np.array_equal(traj.velocities, reevaluated_velocities(rhs, traj))

    @pytest.mark.parametrize("model, t_end", MODELS)
    def test_domain_truncated_trajectory(self, model, t_end):
        field, y0 = self.field_and_start(model)

        def rhs(t, y):  # undefined once any coordinate moved 0.2 from its start
            return np.where(np.max(np.abs(y - y0), axis=1, keepdims=True) > 0.2,
                            np.nan, field(t, y))

        traj = integrate_ode(rhs, y0, 0.0, t_end,
                             sample_times=np.linspace(0, t_end, 21)).member(0)
        assert traj.termination.startswith("domain_error") and len(traj) > 1
        assert np.array_equal(traj.velocities, reevaluated_velocities(rhs, traj),
                              equal_nan=True)

    @staticmethod
    def counted_rows(field):
        """``field`` plus the list of the row counts it was called with."""
        rows = []

        def rhs(t, y):
            rows.append(len(y))
            return field(t, y)
        return rhs, rows

    @staticmethod
    def attempts_are_exact(field, y0, t_end, times, attempts):
        """True when ``attempts`` step attempts are exactly those the member
        needs: it completes with that cap and stops one short of it."""
        def run(cap):
            return integrate_ode(field, y0, 0.0, t_end, IntegratorConfig(max_steps=cap), times)
        return run(attempts).complete and run(attempts - 1).codes.tolist() == [_MAX_STEPS]

    @pytest.mark.parametrize("model, t_end", MODELS)
    def test_rk45_evaluation_count(self, model, t_end):
        field, y0 = self.field_and_start(model)
        rhs, rows = self.counted_rows(field)
        times = np.linspace(0.0, t_end, 11)
        flow = integrate_ode(rhs, y0, 0.0, t_end, sample_times=times)
        assert flow.complete
        # One evaluation to start and one initial-step probe, then six per
        # step attempt (the last stage is the next step's first), each on
        # the member's one row; one call on two rows, the bootstrap nodes,
        # per accepted step with an interior sample; and last one call on
        # the nine interior samples for their velocities.
        assert rows[-1] == 9
        assert set(rows[:-1]) == {1, 2}
        attempts, extra = divmod(rows.count(1) - 2, 6)
        assert extra == 0
        assert 0 < rows.count(2) <= flow.work.accepted_steps
        assert attempts == flow.work.accepted_steps + flow.work.rejected_steps
        assert flow.work.rhs_evals == sum(rows)
        assert self.attempts_are_exact(field, y0, t_end, times, attempts)

    @pytest.mark.parametrize("model, t_end", MODELS)
    def test_end_points_evaluation_count(self, model, t_end):
        # Without interior samples there is no dense-output work: two
        # evaluations to start, then six per step attempt (the ensemble
        # runs' cost).
        field, y0 = self.field_and_start(model)
        rhs, rows = self.counted_rows(field)
        flow = integrate_ode(rhs, y0, 0.0, t_end)
        assert flow.complete and set(rows) == {1}
        attempts, extra = divmod(len(rows) - 2, 6)
        assert extra == 0
        assert attempts == flow.work.accepted_steps + flow.work.rejected_steps
        assert self.attempts_are_exact(field, y0, t_end, None, attempts)
        # In a batch, each call evaluates the running members' rows.
        batch = sample_configurations(model, 64, seed=5)[0]
        rhs, rows = self.counted_rows(field)
        flow = integrate_ode(rhs, batch, 0.0, t_end)
        assert (len(rows) - 2) % 6 == 0 and flow.work.rhs_evals == sum(rows)


class TestDenseOutput:
    """Interior samples come from each accepted step's bootstrapped quintic."""

    @pytest.mark.parametrize("model, t_end", MODELS)
    def test_interpolated_samples_match_runs_ending_there(self, model, t_end):
        # A run ending at a sample time lands there by clipping its last
        # step.  The two differ by both runs' global errors, within ten
        # times the per-step error scale abs_tol + rel_tol |y| (the largest
        # ratio seen at seeds 5-7 is 1.3).
        cfg = IntegratorConfig()
        y0 = sample_configurations(model, 4, seed=5)[0]
        times = np.linspace(0.0, t_end, 11)
        flow = integrate_ode(model.batch_rhs, y0, 0.0, t_end, cfg, times)
        assert flow.complete
        for k, s in enumerate(times[1:-1], 1):
            ref = integrate_ode(model.batch_rhs, y0, 0.0, s, cfg).states[-1]
            scale = cfg.abs_tol + cfg.rel_tol * np.abs(ref)
            assert np.all(np.abs(flow.states[k] - ref) <= 10 * scale)

    def test_undefined_bootstrap_node_retries_landing(self):
        # The member's only two-row calls are the bootstrap nodes, all
        # undefined: each attempt over a sample is tried again landing on
        # that sample, so the member still holds every sample.
        def rhs(t, y):
            return np.full_like(y, np.nan) if len(y) == 2 else y

        times = np.linspace(0.0, 1.0, 11)
        flow = integrate_ode(rhs, [[1.0]], 0.0, 1.0, sample_times=times)
        assert flow.complete and flow.work.rejected_steps > 0
        assert np.allclose(flow.states[:, 0, 0], np.exp(times), rtol=1e-8)
        assert np.array_equal(flow.velocities, flow.states)

    def test_undefined_sample_state_truncates(self):
        # The field is undefined only at the interpolated sample t = 0.5, so
        # the final velocity call ends the member there.
        def rhs(t, y):
            y = np.array(y)
            return np.where(np.isin(t, [0.5])[:, None], np.nan, y)

        times = np.linspace(0.0, 1.0, 11)
        flow = integrate_ode(rhs, [[1.0]], 0.0, 1.0, sample_times=times)
        assert flow.codes.tolist() == [_DOMAIN]
        assert flow.lengths.tolist() == [5]
        assert np.all(np.isnan(flow.states[5:])) and np.all(np.isnan(flow.velocities[5:]))
        assert not np.isnan(flow.velocities[:5]).any()

    @settings(max_examples=20)
    @given(a=st.floats(0.1, 10.0), ratio=st.floats(0.0, 0.99), seed=st.integers(0, 2 ** 16))
    def test_separation_relation_at_every_dense_sample(self, a, ratio, seed):
        # A claims-sweep batch, integrated as the constraint analysis does
        # (rel_tol scaled by the amplitude contrast): the relation holds
        # within the 1e-6 of separation_relation_conserved at every sample,
        # b / a up to 0.99 included.
        model = PlaneWavePair(a=a, b=ratio * a)
        flow = trajectory_ensemble(model, 32, seed, 3.0, IntegratorConfig(), samples=201)
        assert flow.complete
        assert model.residual_drift(flow) <= 1e-6


class TestBlockSplit:
    """A batch split into member blocks, integrated in forked processes, is
    the batch integrated whole, bit for bit.  The split floor is lowered to
    four members per block so that small batches split."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(numerics, "MIN_BLOCK_ROWS", 4)
        self.monkeypatch = monkeypatch
        yield
        with pytest.raises(ChildProcessError):     # every child was reaped
            os.waitpid(-1, os.WNOHANG)

    def integrate(self, cpus, *args):
        self.monkeypatch.setattr(numerics, "_cpu_count", lambda: cpus)
        return integrate_ode(*args)

    @pytest.mark.parametrize("name", sorted(MODEL_CASES))
    def test_blocks_equal_whole_batch(self, name):
        model, t_end = MODEL_CASES[name]
        y0 = sample_configurations(model, 14, seed=3)[0]
        limit = np.median(y0[:, 0]) + 0.2

        def field(t, y):  # undefined past x1 = limit, so some members stop there
            return np.where(y[:, :1] > limit, np.nan, model.batch_rhs(t, y))

        args = (field, y0, 0.0, t_end, IntegratorConfig(), np.linspace(0.0, t_end, 21))
        whole = self.integrate(1, *args)
        assert whole.work.blocks == 1
        assert not whole.complete and np.any(whole.codes == _COMPLETED)
        for cpus in (2, 3):
            split = self.integrate(cpus, *args)
            for key in ("times", "states", "velocities", "lengths", "codes"):
                assert np.array_equal(getattr(split, key), getattr(whole, key),
                                      equal_nan=True), key
            assert split.work == replace(whole.work, blocks=cpus)

    @pytest.mark.parametrize("marked", [0, 11])
    def test_block_exception_is_raised(self, marked):
        # The marked row is in the first block (this process) or the last
        # (a child): either way the exception reaches the caller and every
        # child is reaped (checked by the fixture).
        y0 = np.zeros((12, 1))
        y0[marked] = 100.0

        def rhs(t, y):
            if np.any(y > 50.0):
                raise OverflowError("marked row")
            return np.ones_like(y)

        with pytest.raises(OverflowError, match="marked row"):
            self.integrate(3, rhs, y0, 0.0, 1.0)

    def test_lost_block_process_is_an_error(self):
        # A child that dies before sending its block ends the call with an
        # error, not with a batch missing that block's members.
        parent = os.getpid()
        y0 = np.zeros((12, 1))

        def rhs(t, y):
            if os.getpid() != parent:
                os._exit(3)
            return np.ones_like(y)

        with pytest.raises(RuntimeError, match="ended without a result"):
            self.integrate(3, rhs, y0, 0.0, 1.0)

    def test_partly_written_block_is_an_error(self):
        # Blocks of members 0-3, 4-7 and 8-11, in chunks of two members.  The
        # child of members 4-7 dies on its second chunk, after writing its
        # first chunk's members into the shared result: the call ends with
        # an error, not with a batch whose block is half filled.
        self.monkeypatch.setattr(numerics, "BLOCK_ROWS", 2)
        made = []
        shared = numerics._shared
        self.monkeypatch.setattr(numerics, "_shared",
                                 lambda *args: made.append(shared(*args)) or made[-1])
        y0 = 10.0 * np.arange(12.0)[:, None]

        def rhs(t, y):
            if 60.0 <= y.min() < 80.0:
                os._exit(0)
            return np.ones_like(y)

        with pytest.raises(RuntimeError, match="ended without a result"):
            self.integrate(3, rhs, y0, 0.0, 1.0)
        states = made[0]
        assert not np.isnan(states[:, 4:6]).any() and np.isnan(states[:, 6:8]).all()

    def test_one_cpu_or_no_fork_runs_here(self, monkeypatch):
        def no_fork():
            raise OSError("fork refused")

        monkeypatch.setattr(os, "fork", no_fork)
        rhs = lambda t, y: np.ones_like(y)
        y0 = np.zeros((12, 1))
        with pytest.raises(OSError, match="fork refused"):
            self.integrate(2, rhs, y0, 0.0, 1.0)
        assert self.integrate(1, rhs, y0, 0.0, 1.0).work.blocks == 1
        monkeypatch.delattr(os, "fork")
        assert self.integrate(2, rhs, y0, 0.0, 1.0).work.blocks == 1


class TestMemberChunks:
    """Each process integrates its block in chunks of ``BLOCK_ROWS``
    members written in place.  The reference is the batch integrated as one
    chunk in one process, as before chunking.  Members that stop early, for
    an undefined field or at ``max_steps``, sit on chunk and block
    boundaries; the split floor is lowered so that 70 members split."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(numerics, "MIN_BLOCK_ROWS", 4)
        self.monkeypatch = monkeypatch
        yield
        with pytest.raises(ChildProcessError):     # every child was reaped
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def field(t, y):
        # x moves at a cos(b x); a member with b < 0 is undefined past x = 1.2.
        x, a, b = y.T
        v = np.zeros_like(y)
        v[:, 0] = a * np.cos(b * x)
        v[(b < 0) & (x > 1.2)] = np.nan
        return v

    def integrate(self, rows, cpus, *args):
        self.monkeypatch.setattr(numerics, "BLOCK_ROWS", rows)
        self.monkeypatch.setattr(numerics, "_cpu_count", lambda: cpus)
        return integrate_ode(*args)

    def test_chunks_equal_one_chunk(self):
        # Member i completes, meets the undefined field or runs out of steps
        # (a stiff 40 cos(4 x)) as i % 3 is 0, 1 or 2.
        kind = np.arange(70) % 3
        rng = np.random.default_rng(4)
        y0 = np.column_stack([rng.uniform(0.0, 1.0, 70),
                              np.choose(kind, [1.0, 1.0, 40.0]) * rng.uniform(0.9, 1.1, 70),
                              np.choose(kind, [0.3, -0.4, 4.0])])
        args = (self.field, y0, 0.0, 1.0, IntegratorConfig(rel_tol=1e-6, max_steps=25),
                np.linspace(0.0, 1.0, 6))
        whole = self.integrate(10 ** 9, 1, *args)
        assert whole.work.blocks == 1
        assert whole.codes[[2, 3, 34, 35, 63, 64]].tolist() == [
            _MAX_STEPS, _COMPLETED, _DOMAIN, _MAX_STEPS, _COMPLETED, _DOMAIN]
        # Compact bookkeeping: int32 lengths and read-only int8 codes, which
        # name each member's termination (two stiff members, 7 and 46,
        # complete in time).
        assert whole.lengths.dtype == np.int32 and whole.codes.dtype == np.int8
        assert not whole.codes.flags.writeable
        expected = [(_COMPLETED, _DOMAIN, _MAX_STEPS)[k] for k in kind]
        expected[7] = expected[46] = _COMPLETED
        assert whole.codes.tolist() == expected
        assert ([whole.member(i).termination for i in range(70)]
                == [numerics._REASONS[c] for c in expected])
        for rows in (1, 3, 64, 10 ** 9):
            for cpus in (1, 2, 3):
                chunked = self.integrate(rows, cpus, *args)
                for key in ("times", "states", "velocities", "lengths", "codes"):
                    assert np.array_equal(getattr(chunked, key), getattr(whole, key),
                                          equal_nan=True), (rows, cpus, key)
                assert chunked.work == replace(whole.work, blocks=cpus)


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

        found = bracketed_root(g, 1e9 - 1.0, 1e9 + 1.0)
        assert abs(found - (1e9 + 0.1)) <= math.ulp(1e9)


class TestScanRoots:
    def test_identity_single_root(self):
        roots, monotone = scan_roots(lambda x: x, -1.0, 1.0, grid=100)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.0, abs=1e-10)
        assert monotone

    def test_polynomial_known_roots(self):
        g = lambda x: (x - 1.0) * (x + 2.0) * x
        roots, monotone = scan_roots(g, -3.0, 3.0, grid=2000)
        assert len(roots) == 3
        for found, true in zip(roots, (-2.0, 0.0, 1.0)):
            assert found == pytest.approx(true, abs=1e-9)
        assert not monotone

    def test_vectorised_callable(self):
        roots, _ = scan_roots(lambda x: np.sin(x), 0.5, 7.0, grid=5000)
        assert len(roots) == 2
        assert roots[0] == pytest.approx(math.pi, abs=1e-9)
        assert roots[1] == pytest.approx(2 * math.pi, abs=1e-9)

    def test_exact_grid_zero(self):
        roots, _ = scan_roots(lambda x: x, -1.0, 1.0, grid=101)  # 0.0 lands on the grid
        assert roots == (0.0,)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            scan_roots(lambda x: x, 0.0, 1.0, grid=1)

    def test_roots_sorted(self):
        roots, _ = scan_roots(lambda x: np.cos(x), 0.0, 20.0, grid=4000)
        assert list(roots) == sorted(roots)
        assert len(roots) == 6  # odd multiples of pi/2 below 20


def whole_array_scan(g, lo, hi, grid):
    """scan_roots as it was before it worked in blocks: ``g`` on one array
    over the whole grid."""
    xs = np.linspace(lo, hi, grid)
    vals = np.asarray(g(xs), dtype=float)
    roots = [float(xs[i]) for i in np.nonzero(vals == 0.0)[0]]
    products = vals[:-1] * vals[1:]
    for i in np.nonzero(products < 0)[0]:
        roots.append(bracketed_root(g, xs[i], xs[i + 1]))
    roots.sort()
    spacing = (hi - lo) / (grid - 1)
    deduped = []
    for r in roots:
        if not deduped or r - deduped[-1] > 0.5 * spacing:
            deduped.append(r)
    diffs = np.diff(vals)
    return tuple(deduped), not (np.any(diffs > 0) and np.any(diffs < 0))


class TestScanBlocks:
    """scan_roots in blocks of ``BLOCK_ROWS`` grid points gives the roots
    and the monotone flag of the whole-array scan, bit for bit."""

    # On the grid 0, 1, ..., 10: an exact zero at 4 and sign changes in
    # (7, 8) and (8, 9); a single dip at 5 in a rising sequence; zeros at
    # both ends.
    FUNCTIONS = {"zero_and_crossings": lambda x: (x - 4.0) * (x - 7.5) * (x - 8.5),
                 "one_dip": lambda x: np.where(x == 5.0, 3.0, x) - 0.5,
                 "zero_at_start": lambda x: x,
                 "zero_at_end": lambda x: x - 10.0}

    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("name", sorted(FUNCTIONS))
    def test_block_boundaries(self, monkeypatch, rows, name):
        g = self.FUNCTIONS[name]
        monkeypatch.setattr(numerics, "BLOCK_ROWS", rows)
        assert scan_roots(g, 0.0, 10.0, 11) == whole_array_scan(g, 0.0, 10.0, 11)

    @pytest.mark.parametrize("extra", [2 - numerics.BLOCK_ROWS, 0, 1, 2])
    def test_grid_sizes(self, extra):
        grid = numerics.BLOCK_ROWS + extra
        g = lambda x: np.sin(x) * np.cos(3.0 * x)
        assert scan_roots(g, 0.5, 40.0, grid) == whole_array_scan(g, 0.5, 40.0, grid)

    def test_exact_zero_on_block_boundary(self):
        rows = numerics.BLOCK_ROWS
        g = lambda x: (x - rows) * (x - 0.5)    # grid points are the integers 0..2 rows
        found = scan_roots(g, 0.0, 2.0 * rows, 2 * rows + 1)
        assert found == whole_array_scan(g, 0.0, 2.0 * rows, 2 * rows + 1)
        assert found[0][1] == float(rows)

    @pytest.mark.parametrize("a, b", [(1.0, 0.2), (1.0, 0.5), (0.3, 1.0)])
    def test_uniqueness_scan(self, a, b):
        model = PlaneWavePair(a=a, b=b)
        half = 4.0 * math.pi / model.momentum
        assert (scan_roots(model.constraint_lhs, -half, half, UNIQUENESS_GRID)
                == whole_array_scan(model.constraint_lhs, -half, half, UNIQUENESS_GRID))
