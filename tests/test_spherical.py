"""Two-source spherical-wave pair: geometry, phase, chain-rule velocities,
symmetries, and the decoupling-constraint manifold."""

import cmath
import math

import numpy as np
import pytest

from bohmpair.analyses import random_valid_states
from bohmpair.errors import ModelDomainError
from bohmpair.numerics import IntegratorConfig, central_gradient, integrate_ode
from bohmpair.oracles import phase_gradient, velocity_from_psi
from bohmpair.spherical import PairState3D, SlitPair

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def model():
    return SlitPair(wavenumber=5.0, slit_offset=0.5)


def wrap_to_pi(x):
    return x - TWO_PI * np.round(x / TWO_PI)


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
    return PairState3D(r1=r1, r2=(x2, y2, 0.0))


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
        s = PairState3D(r1=(1.0, 0.3, -0.2), r2=(0.4, -1.0, 0.7))
        r1a, r1b, r2a, r2b = model.distances(s)
        assert r1a == pytest.approx(math.sqrt(1.0 + (0.3 - 0.5) ** 2 + 0.04))
        assert r1b == pytest.approx(math.sqrt(1.0 + (0.3 + 0.5) ** 2 + 0.04))
        assert r2a == pytest.approx(math.sqrt(0.16 + (-1.0 - 0.5) ** 2 + 0.49))
        assert r2b == pytest.approx(math.sqrt(0.16 + (-1.0 + 0.5) ** 2 + 0.49))

    def test_half_space_enforced(self, model):
        with pytest.raises(ModelDomainError):
            model.psi(PairState3D(r1=(-0.5, 0.0, 0.0), r2=(1.0, 0.0, 0.0)))

    def test_source_point_excluded(self, model):
        with pytest.raises(ModelDomainError):
            model.psi(PairState3D(r1=(0.0, 0.5, 1e-9), r2=(1.0, 0.0, 0.0)))


class TestPsi:
    def test_on_axis_state_single_effective_term(self, model):
        # All four source distances equal: the superposition collapses to
        # twice one spherical term.
        s = PairState3D(r1=(1.0, 0.0, 0.0), r2=(1.0, 0.0, 0.0))
        r = math.sqrt(1.0 + 0.25)
        expected = 2.0 * cmath.exp(2j * model.wavenumber * r) / (r * r) / math.sqrt(model.norm)
        assert model.psi(s) == pytest.approx(expected, rel=1e-12)

    def test_mirror_state_terms_equal(self, model):
        s = PairState3D(r1=(0.8, 0.4, 0.1), r2=(0.8, -0.4, 0.1))
        r1a, r1b, r2a, r2b = model.distances(s)
        assert r1a == r2b and r1b == r2a
        term1 = cmath.exp(1j * model.wavenumber * (r1a + r2b)) / (r1a * r2b)
        term2 = cmath.exp(1j * model.wavenumber * (r1b + r2a)) / (r1b * r2a)
        expected = (term1 + term2) / math.sqrt(model.norm)
        assert model.psi(s) == pytest.approx(expected, rel=1e-12)

    def test_clock_factor(self, model):
        s0 = PairState3D(r1=(1.0, 0.2, 0.0), r2=(0.7, -0.9, 0.3), t=0.0)
        s1 = PairState3D(r1=s0.r1, r2=s0.r2, t=0.8)
        rot = cmath.exp(-1j * model.energy * 0.8 / model.hbar)
        assert model.psi(s1) == pytest.approx(model.psi(s0) * rot, rel=1e-12)

    def test_node_configuration_detected(self, model):
        s = node_state(model)
        assert model.node_measure(s) < 1e-12
        with pytest.raises(ModelDomainError):
            model.velocities(s)
        with pytest.raises(ModelDomainError):
            model.phase(s)

    def test_generic_state_not_flagged(self, model):
        s = PairState3D(r1=(1.0, 0.3, 0.0), r2=(1.2, -0.8, 0.4))
        assert model.node_measure(s) > 1e-3

    def test_norm_estimate_reproducible(self):
        a = SlitPair(wavenumber=5.0, slit_offset=0.5)
        b = SlitPair(wavenumber=5.0, slit_offset=0.5)
        assert a.norm == b.norm
        assert a.norm_standard_error > 0.0


class TestPhase:
    def test_on_axis_phase_value(self, model):
        s = PairState3D(r1=(1.3, 0.0, 0.0), r2=(0.7, 0.0, 0.0), t=0.6)
        r1a, r1b, r2a, r2b = model.distances(s)
        expected = model.hbar * model.wavenumber * (r1a + r2b) - model.energy * 0.6
        got = model.phase(s)
        assert wrap_to_pi((got - expected) / model.hbar) == pytest.approx(0.0, abs=1e-9)

    def test_time_dependence(self, model):
        s0 = PairState3D(r1=(1.0, 0.4, -0.3), r2=(0.9, -0.2, 0.5), t=0.0)
        s1 = PairState3D(r1=s0.r1, r2=s0.r2, t=1.3)
        assert model.phase(s1) - model.phase(s0) == pytest.approx(
            -model.energy * 1.3, abs=1e-12)

    def test_matches_arg_psi(self, model):
        states = random_valid_states(model, 200, seed=77)
        for row in states:
            s = model.state_from_vector(row, t=0.35)
            diff = model.phase(s) - model.hbar * cmath.phase(model.psi(s))
            assert wrap_to_pi(diff / model.hbar) == pytest.approx(0.0, abs=1e-9)

    def test_phase_parts_match_bracket(self, model):
        s = PairState3D(r1=(1.1, 0.2, 0.4), r2=(0.5, -0.7, -0.3))
        parts = model.phase_parts(s)
        r1a, r1b, r2a, r2b = model.distances(s)
        val = (r1a * r2b * r1b * r2a) * model._bracket(r1a, r1b, r2a, r2b)
        assert parts.Nval == pytest.approx(val.imag, rel=1e-12)
        assert parts.Dval == pytest.approx(val.real, rel=1e-12)


class TestDistanceDerivatives:
    def test_matches_finite_differences_in_distance_space(self, model):
        rng = np.random.default_rng(9)
        for _ in range(150):
            r = rng.uniform(0.5, 3.0, size=4)
            *_, nval, dval = model._phase_terms(*r)
            if math.hypot(nval, dval) < 1e-3:
                continue
            grads = model._distance_derivatives(*r)
            fd = central_gradient(lambda q: model.phase_from_distances(*q), r, h=1e-6)
            # phase_from_distances returns principal values; steps are far
            # below the wrap scale at these states, so no unwrap is needed
            # away from the +-pi seam.
            if np.max(np.abs(fd)) > 100:
                continue
            assert np.max(np.abs(np.asarray(grads) - fd)) < 1e-6

    def test_exchange_symmetry_exact(self, model):
        s = PairState3D(r1=(1.2, 0.4, 0.1), r2=(0.6, -0.9, -0.5))
        r1a, r1b, r2a, r2b = model.distances(s)
        g = model._distance_derivatives(r1a, r1b, r2a, r2b)
        swapped = model._distance_derivatives(r2a, r2b, r1a, r1b)
        assert swapped == (g[2], g[3], g[0], g[1])

    def test_mirror_state_pairing(self, model):
        s = PairState3D(r1=(0.9, 0.35, 0.2), r2=(0.9, -0.35, 0.2))
        g1a, g1b, g2a, g2b = model.distance_derivatives(s)
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
        g1a = model._partial(k, model.hbar, nval, dval, rr, 0.0, alpha, beta)
        assert g1a == pytest.approx(model.hbar * k, abs=1e-12)

    def test_single_term_near_source_approach(self, model):
        # Physically, parking each particle near its own source suppresses the
        # exchanged term; the gradient approaches hbar*k linearly in the
        # source distance.
        eps = 1e-4
        s = PairState3D(r1=(eps, model.slit_offset, 0.0),
                        r2=(eps, -model.slit_offset, 0.0))
        g1a, g1b, g2a, g2b = model.distance_derivatives(s)
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
        for _ in range(25):
            r1 = rng.uniform([0.1, -2, -2], [3, 2, 2])
            r2 = rng.uniform([0.1, -2, -2], [3, 2, 2])
            v1, v2 = model.velocities(PairState3D(r1=tuple(r1), r2=tuple(r2)))
            w1, w2 = model.velocities(PairState3D(r1=tuple(r2), r2=tuple(r1)))
            assert np.array_equal(v1, w2) and np.array_equal(v2, w1)

    def test_reflection_symmetry_exact(self, model):
        flip = np.array([1.0, -1.0, 1.0])
        rng = np.random.default_rng(37)
        for _ in range(25):
            r1 = rng.uniform([0.1, -2, -2], [3, 2, 2])
            r2 = rng.uniform([0.1, -2, -2], [3, 2, 2])
            v1, v2 = model.velocities(PairState3D(r1=tuple(r1), r2=tuple(r2)))
            u1, u2 = model.velocities(PairState3D(r1=tuple(r1 * flip), r2=tuple(r2 * flip)))
            assert np.array_equal(u1, v1 * flip) and np.array_equal(u2, v2 * flip)

    def test_mirror_map_commutes_exactly(self, model):
        s = PairState3D(r1=(1.4, 0.8, -0.6), r2=(0.5, -1.1, 0.9))
        v1, v2 = model.velocities(s)
        m1, m2 = model.velocities(model.mirror_state(s))
        flip = np.array([1.0, -1.0, 1.0])
        assert np.array_equal(m1, v2 * flip)
        assert np.array_equal(m2, v1 * flip)

    def test_on_axis_y_velocities_vanish(self, model):
        s = PairState3D(r1=(1.3, 0.0, 0.0), r2=(0.8, 0.0, 0.0))
        v1, v2 = model.velocities(s)
        assert v1[1] == 0.0 and v2[1] == 0.0
        assert v1[1] == -v2[1]


class TestConstraintManifold:
    def test_mirror_state_zero_deviation(self, model):
        s = PairState3D(r1=(1.0, 0.3, 0.2), r2=(1.0, -0.3, 0.2))
        dev = model.constraint_deviations(s)
        assert dev.mirror == 0.0
        assert dev.axial > 0.0  # the literal reading demands y2 = 0 as well

    def test_generic_state_reports_without_error(self, model):
        dev = model.constraint_deviations(
            PairState3D(r1=(1.0, 0.7, 0.0), r2=(2.0, 0.4, -0.5)))
        assert dev.mirror > 0.0 and dev.axial > 0.0

    def test_flow_preserves_mirror_manifold(self, model):
        start = PairState3D(r1=(1.0, 0.3, 0.0), r2=(1.0, -0.3, 0.0))
        traj = integrate_ode(model.batch_rhs, [model.state_vector(start)], 0.0, 2.0,
                             sample_times=np.linspace(0.0, 2.0, 101)).member(0)
        assert traj.complete
        dev = model.max_constraint_deviations(traj)
        assert dev.mirror < 1e-6

    def test_off_axis_start_breaks_literal_reading(self, model):
        start = PairState3D(r1=(1.0, 0.3, 0.0), r2=(1.0, -0.3, 0.0))
        traj = integrate_ode(model.batch_rhs, [model.state_vector(start)], 0.0, 1.0,
                             sample_times=np.linspace(0.0, 1.0, 51)).member(0)
        dev = model.max_constraint_deviations(traj)
        assert dev.axial > 1e-2
