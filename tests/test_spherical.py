"""Two-source spherical-wave pair: geometry, phase, chain-rule velocities,
symmetries, and the decoupling-constraint manifold."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bohmpair.analyses import random_valid_states
from bohmpair.errors import ModelDomainError
from bohmpair.numerics import IntegratorConfig, integrate_ode
from bohmpair.oracles import _stencil, phase_gradient, velocity_from_psi
from bohmpair.spherical import SlitPair

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def model():
    return SlitPair(wavenumber=5.0, slit_offset=0.5)


def wrap_to_pi(x):
    return x - TWO_PI * np.round(x / TWO_PI)


def row(r1, r2):
    """Configuration row [r1, r2]."""
    return np.array([*r1, *r2], dtype=float)


def distances(model, y):
    return model.distances_of(y[..., :3], y[..., 3:])


def partials(model, y):
    """The four phase partials d(phase)/d(r1A, r1B, r2A, r2B) at row ``y``."""
    dist = distances(model, y)
    return model._distance_derivatives(*dist, model._phase_terms(*dist))


def psi(model, y, t=0.0):
    return complex(model.psi_values(y[:3], y[3:], t))


def phase(model, y, t=0.0):
    return float(model.phase_values(y[:3], y[3:], t))


def node_state(model):
    """Configuration where the two wavefunction terms cancel exactly.

    Put particle 1 on the axis below source B so r1A - r1B = 2 d, then choose
    particle 2's source distances so the term moduli match (r1A r2B = r1B r2A)
    and the term phases oppose (k (alpha - beta) = pi).
    """
    k, d = model.wavenumber, model.slit_offset
    r1 = (0.0, -1.5, 0.0)               # r1A = 2, r1B = 1 for d = 0.5
    r1a, r1b = 2.0, 1.0
    r2b = 1.0 - math.pi / k             # from k((r1a + r2b) - (r1b + r2a)) = pi
    r2a = (r1a / r1b) * r2b             # modulus matching
    y2 = -(r2a * r2a - r2b * r2b) / (4.0 * d)
    x2 = math.sqrt(r2a * r2a - (y2 - d) ** 2)
    return row(r1, (x2, y2, 0.0))


class TestParamsAndGeometry:
    def test_validation(self):
        with pytest.raises(ValueError):
            SlitPair(wavenumber=0.0, slit_offset=0.5)
        with pytest.raises(ValueError):
            SlitPair(wavenumber=1.0, slit_offset=-0.5)
        with pytest.raises(ValueError):
            SlitPair(wavenumber=1.0, slit_offset=0.5, box_length=0.0)

    def test_defaults(self, model):
        assert model.box_length == pytest.approx(40.0 / 5.0)
        assert model.energy == pytest.approx(1.0 ** 2 * 5.0 ** 2 / 1.0)

    def test_distances_match_manual(self, model):
        r1a, r1b, r2a, r2b = distances(model, row((1.0, 0.3, -0.2), (0.4, -1.0, 0.7)))
        assert r1a == pytest.approx(math.sqrt(1.0 + (0.3 - 0.5) ** 2 + 0.04))
        assert r1b == pytest.approx(math.sqrt(1.0 + (0.3 + 0.5) ** 2 + 0.04))
        assert r2a == pytest.approx(math.sqrt(0.16 + (-1.0 - 0.5) ** 2 + 0.49))
        assert r2b == pytest.approx(math.sqrt(0.16 + (-1.0 + 0.5) ** 2 + 0.49))

    @staticmethod
    def assert_rejected(model, y):
        for quantity in (psi, phase, lambda model, y: model.rhs(0.0, y)):
            with pytest.raises(ModelDomainError):
                quantity(model, y)
        assert np.isnan(model.batch_rhs(0.0, y)).all()

    def test_half_space_enforced(self, model):
        self.assert_rejected(model, row((-0.5, 0.0, 0.0), (1.0, 0.0, 0.0)))

    def test_source_point_excluded(self, model):
        self.assert_rejected(model, row((0.0, 0.5, 1e-9), (1.0, 0.0, 0.0)))


class TestPsi:
    def test_on_axis_state_single_effective_term(self, model):
        # All four source distances equal: the superposition collapses to
        # twice one spherical term.
        s = row((1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
        r = math.sqrt(1.0 + 0.25)
        expected = 2.0 * cmath.exp(2j * model.wavenumber * r) / (r * r) / math.sqrt(model.norm)
        assert psi(model, s) == pytest.approx(expected, rel=1e-12)

    def test_mirror_state_terms_equal(self, model):
        s = row((0.8, 0.4, 0.1), (0.8, -0.4, 0.1))
        r1a, r1b, r2a, r2b = distances(model, s)
        assert r1a == r2b and r1b == r2a
        term1 = cmath.exp(1j * model.wavenumber * (r1a + r2b)) / (r1a * r2b)
        term2 = cmath.exp(1j * model.wavenumber * (r1b + r2a)) / (r1b * r2a)
        expected = (term1 + term2) / math.sqrt(model.norm)
        assert psi(model, s) == pytest.approx(expected, rel=1e-12)

    def test_clock_factor(self, model):
        s = row((1.0, 0.2, 0.0), (0.7, -0.9, 0.3))
        rot = cmath.exp(-1j * model.energy * 0.8 / model.hbar)
        assert psi(model, s, 0.8) == pytest.approx(psi(model, s, 0.0) * rot, rel=1e-12)

    def test_node_configuration_detected(self, model):
        s = node_state(model)
        assert model.node_measure_of(*distances(model, s)) < 1e-12
        with pytest.raises(ModelDomainError):
            model.rhs(0.0, s)
        with pytest.raises(ModelDomainError):
            phase(model, s)
        # One node among the rows rejects the call; the row field marks it NaN.
        rows = np.stack([row((1.0, 0.3, 0.0), (1.2, -0.8, 0.4)), s])
        with pytest.raises(ModelDomainError):
            model.phase_values(rows[:, :3], rows[:, 3:], 0.0)
        assert np.isnan(model.batch_rhs(0.0, rows)).tolist() == [[False] * 6, [True] * 6]

    def test_generic_state_not_flagged(self, model):
        s = row((1.0, 0.3, 0.0), (1.2, -0.8, 0.4))
        assert model.node_measure_of(*distances(model, s)) > 1e-3

    def test_norm_estimate_reproducible(self):
        a = SlitPair(wavenumber=5.0, slit_offset=0.5)
        b = SlitPair(wavenumber=5.0, slit_offset=0.5)
        assert a.norm == b.norm
        assert a.norm_standard_error > 0.0


class TestPhase:
    def test_on_axis_phase_value(self, model):
        s = row((1.3, 0.0, 0.0), (0.7, 0.0, 0.0))
        r1a, r1b, r2a, r2b = distances(model, s)
        expected = model.hbar * model.wavenumber * (r1a + r2b) - model.energy * 0.6
        got = phase(model, s, 0.6)
        assert wrap_to_pi((got - expected) / model.hbar) == pytest.approx(0.0, abs=1e-9)

    def test_time_dependence(self, model):
        s = row((1.0, 0.4, -0.3), (0.9, -0.2, 0.5))
        assert phase(model, s, 1.3) - phase(model, s, 0.0) == pytest.approx(
            -model.energy * 1.3, abs=1e-12)

    def test_matches_arg_psi(self, model):
        states = random_valid_states(model, 200, seed=77)
        r1, r2 = states[:, :3], states[:, 3:]
        diff = (model.phase_values(r1, r2, 0.35)
                - model.hbar * np.angle(model.psi_values(r1, r2, 0.35)))
        assert np.max(np.abs(wrap_to_pi(diff / model.hbar))) < 1e-9

    def test_phase_parts_match_bracket(self, model):
        r1a, r1b, r2a, r2b = distances(model, row((1.1, 0.2, 0.4), (0.5, -0.7, -0.3)))
        *_, nval, dval = model._phase_terms(r1a, r1b, r2a, r2b)
        val = (r1a * r2b * r1b * r2a) * model._bracket(r1a, r1b, r2a, r2b)
        assert nval == pytest.approx(val.imag, rel=1e-12)
        assert dval == pytest.approx(val.real, rel=1e-12)


class TestDistanceDerivatives:
    def test_matches_finite_differences_in_distance_space(self, model):
        rng = np.random.default_rng(9)
        for _ in range(150):
            r = rng.uniform(0.5, 3.0, size=4)
            terms = model._phase_terms(*r)
            *_, nval, dval = terms
            if math.hypot(nval, dval) < 1e-3:
                continue
            grads = model._distance_derivatives(*r, terms)
            _, diffs, steps = _stencil(lambda q: model.phase_from_distances(*q.T), [r])
            fd = diffs[0] / (2.0 * steps[0])   # steps of 1e-6 at these distances
            # phase_from_distances returns principal values; steps are far
            # below the wrap scale at these states, so no unwrap is needed
            # away from the +-pi seam.
            if np.max(np.abs(fd)) > 100:
                continue
            assert np.max(np.abs(np.asarray(grads) - fd)) < 1e-6

    def test_exchange_symmetry_exact(self, model):
        r1a, r1b, r2a, r2b = distances(model, row((1.2, 0.4, 0.1), (0.6, -0.9, -0.5)))
        g = model._distance_derivatives(r1a, r1b, r2a, r2b,
                                        model._phase_terms(r1a, r1b, r2a, r2b))
        swapped = model._distance_derivatives(r2a, r2b, r1a, r1b,
                                              model._phase_terms(r2a, r2b, r1a, r1b))
        assert swapped == (g[2], g[3], g[0], g[1])

    def test_mirror_state_pairing(self, model):
        g1a, g1b, g2a, g2b = partials(model, row((0.9, 0.35, 0.2), (0.9, -0.35, 0.2)))
        assert g1a == g2b and g1b == g2a

    def test_single_term_limit(self, model):
        # Zeroing the exchanged term's amplitude in the core partial leaves a
        # pure spherical wave, whose phase gradient is exactly hbar*k.
        k = model.wavenumber
        r1a, r1b, r2a, r2b = 1.3, 0.9, 1.7, 0.6
        rr = r1b * r2a
        alpha, beta = r1a + r2b, r1b + r2a
        nval = rr * math.sin(k * alpha)
        dval = rr * math.cos(k * alpha)
        g1a = model._partial(k, model.hbar, nval, dval, rr, 0.0, math.sin(k * alpha),
                             math.cos(k * alpha), math.sin(k * beta), math.cos(k * beta))
        assert g1a == pytest.approx(model.hbar * k, abs=1e-12)

    def test_single_term_near_source_approach(self, model):
        # Physically, parking each particle near its own source suppresses the
        # exchanged term; the gradient approaches hbar*k linearly in the
        # source distance.
        eps = 1e-4
        s = row((eps, model.slit_offset, 0.0), (eps, -model.slit_offset, 0.0))
        g1a, g1b, g2a, g2b = partials(model, s)
        assert g1a == pytest.approx(model.hbar * model.wavenumber, rel=1e-3)
        assert g2b == pytest.approx(model.hbar * model.wavenumber, rel=1e-3)


class TestVelocities:
    def test_oracle_agreement(self, model):
        states = random_valid_states(model, 400, seed=19)
        analytic = model.rhs(0.0, states)
        oracle = velocity_from_psi(model, states, t=0.0)
        assert np.max(np.abs(analytic - oracle)) < 1e-6

    def test_chain_rule_gradient_matches_phase_differences(self, model):
        states = random_valid_states(model, 400, seed=23)
        analytic = model.mass * model.rhs(0.0, states)
        fd = phase_gradient(model, states, t=0.0)
        assert np.max(np.abs(analytic - fd)) < 1e-6

    def test_exchange_symmetry_exact(self, model):
        rng = np.random.default_rng(29)
        rows = np.array([row(rng.uniform([0.1, -2, -2], [3, 2, 2]),
                             rng.uniform([0.1, -2, -2], [3, 2, 2])) for _ in range(25)])
        v = model.rhs(0.0, rows)
        assert np.array_equal(model.rhs(0.0, np.roll(rows, 3, axis=1)), np.roll(v, 3, axis=1))

    def test_reflection_symmetry_exact(self, model):
        flip = np.array([1.0, -1.0, 1.0] * 2)
        rng = np.random.default_rng(37)
        rows = np.array([row(rng.uniform([0.1, -2, -2], [3, 2, 2]),
                             rng.uniform([0.1, -2, -2], [3, 2, 2])) for _ in range(25)])
        assert np.array_equal(model.rhs(0.0, rows * flip), model.rhs(0.0, rows) * flip)

    def test_mirror_map_commutes_exactly(self, model):
        # The mirror map reflects both y coordinates and interchanges the
        # particles; the field commutes with it bitwise.
        flip = np.array([1.0, -1.0, 1.0] * 2)
        s = row((1.4, 0.8, -0.6), (0.5, -1.1, 0.9))
        v = model.rhs(0.0, s)
        assert np.array_equal(model.rhs(0.0, np.roll(s, 3) * flip), np.roll(v, 3) * flip)

    def test_on_axis_y_velocities_vanish(self, model):
        v = model.rhs(0.0, row((1.3, 0.0, 0.0), (0.8, 0.0, 0.0)))
        assert v[1] == 0.0 and v[4] == 0.0
        assert v[1] == -v[4]


KERNEL_CASES = dict(k=st.floats(0.5, 5.0), d=st.floats(0.1, 2.0),
                    seed=st.integers(0, 2 ** 32 - 1))


class TestOnePassKernel:
    """The field takes its trigonometry from one :meth:`_phase_terms` pass,
    shared by the partials and the node check."""

    @given(**KERNEL_CASES)
    def test_symmetries_bitwise(self, k, d, seed):
        model = SlitPair(wavenumber=k, slit_offset=d)
        states = random_valid_states(model, 64, seed)
        v = model.batch_rhs(0.0, states)
        assert np.array_equal(model.batch_rhs(0.0, np.roll(states, 3, axis=1)),
                              np.roll(v, 3, axis=1))
        flip = np.array([1.0, -1.0, 1.0] * 2)
        assert np.array_equal(model.batch_rhs(0.0, states * flip), v * flip)

    @given(**KERNEL_CASES)
    def test_node_measure_matches_bracket(self, k, d, seed):
        model = SlitPair(wavenumber=k, slit_offset=d)
        states = random_valid_states(model, 64, seed)
        r1a, r1b, r2a, r2b = dist = model.distances_of(states[:, :3], states[:, 3:])
        reference = np.abs(model._bracket(*dist)) * (r1a * r2b + r1b * r2a) / 2.0
        assert np.max(np.abs(model.node_measure_of(*dist) / reference - 1.0)) < 1e-12

    @given(**KERNEL_CASES)
    def test_density_matches_bracket(self, k, d, seed):
        model = SlitPair(wavenumber=k, slit_offset=d)
        states = random_valid_states(model, 64, seed)
        reference = np.abs(model._bracket(*model.distances_of(states[:, :3],
                                                               states[:, 3:]))) ** 2
        assert np.max(np.abs(model.density_batch(states) / reference - 1.0)) < 1e-12
        # A point on a source (and within slit_exclusion of one) scores zero.
        at_source = np.array([[0.0, d, 0.0, 1.0, 0.3, 0.2], [0.0, -d, 1e-7, 1.0, 0.3, 0.2]])
        assert np.array_equal(model.density_batch(at_source), [0.0, 0.0])

    def test_one_pass_per_call(self, model, count_calls, monkeypatch):
        states = random_valid_states(model, 32, seed=5)
        count_calls(SlitPair, "_phase_terms")
        calls = count_calls(np, "sin", "cos")
        monkeypatch.setattr(SlitPair, "_bracket", None)   # no complex exponential
        model.batch_rhs(0.0, states)
        assert calls == {"_phase_terms": 1, "sin": 2, "cos": 2}


class TestConstraintManifold:
    def test_mirror_state_zero_deviation(self, model):
        dev = model.max_constraint_deviations(row((1.0, 0.3, 0.2), (1.0, -0.3, 0.2)))
        assert dev.mirror == 0.0
        assert dev.axial > 0.0  # the literal reading demands y2 = 0 as well

    def test_generic_state_reports_without_error(self, model):
        dev = model.max_constraint_deviations(row((1.0, 0.7, 0.0), (2.0, 0.4, -0.5)))
        assert dev.mirror > 0.0 and dev.axial > 0.0

    def test_flow_preserves_mirror_manifold(self, model):
        start = row((1.0, 0.3, 0.0), (1.0, -0.3, 0.0))
        traj = integrate_ode(model.batch_rhs, [start], 0.0, 2.0,
                             sample_times=np.linspace(0.0, 2.0, 101)).member(0)
        assert traj.complete
        dev = model.max_constraint_deviations(traj.states)
        assert dev.mirror < 1e-6

    def test_off_axis_start_breaks_literal_reading(self, model):
        start = row((1.0, 0.3, 0.0), (1.0, -0.3, 0.0))
        traj = integrate_ode(model.batch_rhs, [start], 0.0, 1.0,
                             sample_times=np.linspace(0.0, 1.0, 51)).member(0)
        dev = model.max_constraint_deviations(traj.states)
        assert dev.axial > 1e-2
