"""Two-source spherical-wave pair: geometry, phase, chain-rule velocities,
symmetries, and the decoupling-constraint manifold."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohmpair.analyses import MAX_EMPTY_ROUNDS, random_valid_states
from bohmpair.errors import ConfigurationError
from bohmpair.numerics import IntegratorConfig, integrate_ode
from bohmpair.oracles import _stencil, phase_gradient, velocity_from_psi
from bohmpair.prng import PhiloxStream
from bohmpair.spherical import NODE_THRESHOLD, SlitPair, _gauss_legendre

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


def psi(model, y):
    return complex(model.psi_values(y[:3], y[3:]))


def phase(model, y):
    return float(model.phase_values(y[:3], y[3:]))


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

    def test_distances_match_manual(self, model):
        r1a, r1b, r2a, r2b = distances(model, row((1.0, 0.3, -0.2), (0.4, -1.0, 0.7)))
        assert r1a == pytest.approx(math.sqrt(1.0 + (0.3 - 0.5) ** 2 + 0.04))
        assert r1b == pytest.approx(math.sqrt(1.0 + (0.3 + 0.5) ** 2 + 0.04))
        assert r2a == pytest.approx(math.sqrt(0.16 + (-1.0 - 0.5) ** 2 + 0.49))
        assert r2b == pytest.approx(math.sqrt(0.16 + (-1.0 + 0.5) ** 2 + 0.49))

    @staticmethod
    def assert_rejected(model, y):
        # NaN alone and as one row of several, beside a row that is defined.
        assert cmath.isnan(psi(model, y)) and math.isnan(phase(model, y))
        assert np.isnan(model.batch_rhs(0.0, y)).all()
        rows = np.stack([row((1.0, 0.3, 0.0), (1.2, -0.8, 0.4)), y])
        for values in (model.psi_values(rows[:, :3], rows[:, 3:]),
                       model.phase_values(rows[:, :3], rows[:, 3:])):
            assert np.isnan(values).tolist() == [False, True]
        assert np.isnan(model.batch_rhs(0.0, rows)).tolist() == [[False] * 6, [True] * 6]

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

    def test_node_configuration_detected(self, model):
        s = node_state(model)
        assert model.node_measure_of(*distances(model, s)) < 1e-12
        assert np.isnan(model.batch_rhs(0.0, s)).all() and math.isnan(phase(model, s))
        # A node among the rows is NaN in the field and the phase, and only
        # there; the wavefunction is defined (near zero) at it.
        rows = np.stack([row((1.0, 0.3, 0.0), (1.2, -0.8, 0.4)), s])
        assert np.isnan(model.phase_values(rows[:, :3], rows[:, 3:])).tolist() == [False, True]
        assert np.isnan(model.batch_rhs(0.0, rows)).tolist() == [[False] * 6, [True] * 6]
        assert abs(psi(model, s)) < 1e-12 * abs(psi(model, rows[0]))

    def test_generic_state_not_flagged(self, model):
        s = row((1.0, 0.3, 0.0), (1.2, -0.8, 0.4))
        assert model.node_measure_of(*distances(model, s)) > 1e-3

    def test_norm_estimate_reproducible(self):
        a = SlitPair(wavenumber=5.0, slit_offset=0.5)
        b = SlitPair(wavenumber=5.0, slit_offset=0.5)
        assert a.norm == b.norm
        error = a.computed_norm()["error_bound"]
        assert 0.0 <= error <= 1e-10 * a.norm
        assert b.computed_norm() == {"value": a.norm, "error_bound": error}


# (k, d) of the benchmark's spherical sweep.
SWEEP_POINTS = [(1.0, 0.5), (2.0, 0.5), (1.0, 1.0)]


class TestNorm:
    """The norm N = 2 (J^2 + I^2) as fluxes through the box's faces (see
    SlitPair._norm_estimate)."""

    @staticmethod
    def fields(model, r):
        """F_J and F_I at points r of shape (m, 3), each of shape (m, 3),
        one component at a time from SlitPair._norm_fields."""
        d = model.slit_offset
        ra, rb = (np.linalg.norm(r - (0.0, s, 0.0), axis=1) for s in (d, -d))
        offsets = (0.0, d, 0.0)
        parts = [model._norm_fields(ra, rb, r[:, j] - offsets[j], r[:, j] + offsets[j])
                 for j in range(3)]
        return [np.stack([part[f] for part in parts], axis=1) for f in (0, 1)]

    @pytest.mark.parametrize("k, d", [(1.0, 0.5), (5.0, 2.0), (10.0, 1.9)])
    def test_field_divergences_are_the_integrands(self, k, d):
        model = SlitPair(wavenumber=k, slit_offset=d)
        box = np.array(model.sampling_box()[:3])
        r = np.random.default_rng(11).uniform(box[:, 0], box[:, 1], size=(400, 3))
        ra, rb = (np.linalg.norm(r - (0.0, s, 0.0), axis=1) for s in (d, -d))
        away = np.minimum(ra, rb) > 1e-2 * model.box_length
        r, ra, rb = r[away], ra[away], rb[away]
        # Central differences on the scale of the distance to the sources
        # and of the wavelength.
        h = 1e-4 * np.minimum(np.minimum(ra, rb), 1.0 / k)
        div_j = div_i = 0.0
        for j in range(3):
            step = np.zeros_like(r)
            step[:, j] = h
            (fj_hi, fi_hi), (fj_lo, fi_lo) = (self.fields(model, r + step),
                                              self.fields(model, r - step))
            div_j = div_j + (fj_hi[:, j] - fj_lo[:, j]) / (2.0 * h)
            div_i = div_i + (fi_hi[:, j] - fi_lo[:, j]) / (2.0 * h)
        assert np.max(np.abs(div_j * ra * ra - 1.0)) < 1e-7
        assert np.max(np.abs(div_i * ra * rb - np.cos(k * (ra - rb)))) < 1e-7

    @pytest.mark.parametrize("k, d", SWEEP_POINTS + [(5.0, 2.0)])
    def test_j_symmetric_and_sine_flux_vanishes(self, k, d):
        # J about B, and S: the flux of sin(k (rA - rB)) (r_A/rA + r_B/rB) /
        # (rA + rB + 2d), whose divergence is sin(k (rA - rB)) / (rA rB).
        model = SlitPair(wavenumber=k, slit_offset=d)

        def fields(ra, rb, ha, hb):
            sine = np.sin(k * (ra - rb)) * (ha / ra + hb / rb) / (ra + rb + 2.0 * d)
            return ha / (ra * ra), hb / (rb * rb), sine

        ja, jb, sine = model._box_flux(fields, 32)
        assert abs(ja - jb) <= 1e-12 * ja
        assert abs(sine) < 1e-12 * ja

    @pytest.mark.parametrize("k, d", SWEEP_POINTS + [
        (5.0, 2.0), (0.5, 0.1), (10.0, 1.9),
        (1.0, 0.49 * 40.0),   # each source 0.01 L from its nearer face y = +-L/2
        (1e3, 0.5),           # sources outside the box, 0.04 wide
    ])
    def test_refinement_converges(self, k, d):
        model = SlitPair(wavenumber=k, slit_offset=d)
        value, error = model._norm_estimate
        assert 0.0 <= error <= 1e-10 * value
        # A fixed order-128 rule, at least as fine as the one any of these
        # points stops at, agrees too.
        j, i = model._box_flux(model._norm_fields, 128)
        assert abs(2.0 * (j * j + i * i) - value) <= 1e-10 * value

    def test_matches_volume_rule(self):
        # A graded 3-D Gauss-Legendre rule on dyadic shells about each
        # source, with a Duffy rule at the corner, gave 115249.47274.
        assert SlitPair(wavenumber=1.0, slit_offset=0.5).norm == pytest.approx(115249.47274,
                                                                              rel=1e-10)

    @settings(max_examples=20)
    @given(k=st.floats(0.5, 5.0), d=st.floats(0.1, 2.0))
    def test_norm_positive_and_converged(self, k, d):
        value, error = SlitPair(wavenumber=k, slit_offset=d)._norm_estimate
        assert value > 0.0
        assert error <= 1e-10 * value

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 32, 64, 128])
    def test_gauss_legendre_nodes(self, n):
        x, w = _gauss_legendre(n)
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        order = np.argsort(x)
        assert np.max(np.abs(x[order] - ref_x)) <= 2e-16
        assert np.max(np.abs(w[order] - ref_w)) <= 1e-14


class TestPhase:
    def test_on_axis_phase_value(self, model):
        s = row((1.3, 0.0, 0.0), (0.7, 0.0, 0.0))
        r1a, r1b, r2a, r2b = distances(model, s)
        expected = model.wavenumber * (r1a + r2b)
        got = phase(model, s)
        assert wrap_to_pi(got - expected) == pytest.approx(0.0, abs=1e-9)

    def test_matches_arg_psi(self, model):
        states = random_valid_states(model, 200, seed=77)
        r1, r2 = states[:, :3], states[:, 3:]
        diff = model.phase_values(r1, r2) - np.angle(model.psi_values(r1, r2))
        assert np.max(np.abs(wrap_to_pi(diff))) < 1e-9

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

            def phase(q):   # atan2(N, D), the phase S(x)
                *_, n, d = model._phase_terms(*q.T)
                return np.arctan2(n, d)

            _, diffs, steps = _stencil(phase, [r])
            fd = diffs[0] / (2.0 * steps[0])   # steps of 1e-6 at these distances
            # The phase takes principal values; steps are far below the wrap
            # scale at these states, so no unwrap is needed away from the
            # +-pi seam.
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
        # pure spherical wave, whose phase gradient is exactly k.
        k = model.wavenumber
        r1a, r1b, r2a, r2b = 1.3, 0.9, 1.7, 0.6
        rr = r1b * r2a
        alpha, beta = r1a + r2b, r1b + r2a
        nval = rr * math.sin(k * alpha)
        dval = rr * math.cos(k * alpha)
        g1a = model._partial(k, nval, dval, rr, 0.0, math.sin(k * alpha),
                             math.cos(k * alpha), math.sin(k * beta), math.cos(k * beta))
        assert g1a == pytest.approx(k, abs=1e-12)

    def test_single_term_near_source_approach(self, model):
        # Physically, parking each particle near its own source suppresses the
        # exchanged term; the gradient approaches k linearly in the
        # source distance.
        eps = 1e-4
        s = row((eps, model.slit_offset, 0.0), (eps, -model.slit_offset, 0.0))
        g1a, g1b, g2a, g2b = partials(model, s)
        assert g1a == pytest.approx(model.wavenumber, rel=1e-3)
        assert g2b == pytest.approx(model.wavenumber, rel=1e-3)


class TestVelocities:
    def test_oracle_agreement(self, model):
        states = random_valid_states(model, 400, seed=19)
        analytic = model.batch_rhs(0.0, states)
        oracle = velocity_from_psi(model, states)
        assert np.max(np.abs(analytic - oracle)) < 1e-6

    def test_chain_rule_gradient_matches_phase_differences(self, model):
        states = random_valid_states(model, 400, seed=23)
        analytic = model.batch_rhs(0.0, states)
        fd = phase_gradient(model, states)
        assert np.max(np.abs(analytic - fd)) < 1e-6

    def test_exchange_symmetry_exact(self, model):
        rng = np.random.default_rng(29)
        rows = np.array([row(rng.uniform([0.1, -2, -2], [3, 2, 2]),
                             rng.uniform([0.1, -2, -2], [3, 2, 2])) for _ in range(25)])
        v = model.batch_rhs(0.0, rows)
        assert np.array_equal(model.batch_rhs(0.0, np.roll(rows, 3, axis=1)),
                              np.roll(v, 3, axis=1))

    def test_reflection_symmetry_exact(self, model):
        flip = np.array([1.0, -1.0, 1.0] * 2)
        rng = np.random.default_rng(37)
        rows = np.array([row(rng.uniform([0.1, -2, -2], [3, 2, 2]),
                             rng.uniform([0.1, -2, -2], [3, 2, 2])) for _ in range(25)])
        assert np.array_equal(model.batch_rhs(0.0, rows * flip), model.batch_rhs(0.0, rows) * flip)

    def test_mirror_map_commutes_exactly(self, model):
        # The mirror map reflects both y coordinates and interchanges the
        # particles; the field commutes with it bitwise.
        flip = np.array([1.0, -1.0, 1.0] * 2)
        s = row((1.4, 0.8, -0.6), (0.5, -1.1, 0.9))
        v = model.batch_rhs(0.0, s)
        assert np.array_equal(model.batch_rhs(0.0, np.roll(s, 3) * flip), np.roll(v, 3) * flip)

    def test_on_axis_y_velocities_vanish(self, model):
        v = model.batch_rhs(0.0, row((1.3, 0.0, 0.0), (0.8, 0.0, 0.0)))
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
    def test_state_symmetries_bitwise(self, k, d, seed):
        # Exchanging the particles, reflecting both y coordinates, or both
        # (the mirror map) leaves the density, node measure and phase
        # unchanged, and the field commutes with the mirror map.
        model = SlitPair(wavenumber=k, slit_offset=d)
        states = random_valid_states(model, 64, seed)
        flip = np.array([1.0, -1.0, 1.0] * 2)
        exchange = np.roll(states, 3, axis=1)

        def scalars(rows):
            dist = model.distances_of(rows[:, :3], rows[:, 3:])
            return (model.density_batch(rows), model.node_measure_of(*dist),
                    model.phase_values(rows[:, :3], rows[:, 3:]))

        reference = scalars(states)
        for image in (exchange, states * flip, exchange * flip):
            assert all(np.array_equal(a, b) for a, b in zip(scalars(image), reference))
        assert np.array_equal(model.batch_rhs(0.0, exchange * flip),
                              np.roll(model.batch_rhs(0.0, states), 3, axis=1) * flip)

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
        # A point on a source (and within SLIT_EXCLUSION of one) scores zero.
        at_source = np.array([[0.0, d, 0.0, 1.0, 0.3, 0.2], [0.0, -d, 1e-7, 1.0, 0.3, 0.2]])
        assert np.array_equal(model.density_batch(at_source), [0.0, 0.0])

    def test_one_pass_per_call(self, model, count_calls, monkeypatch):
        states = random_valid_states(model, 32, seed=5)
        count_calls(SlitPair, "_phase_terms")
        calls = count_calls(np, "sin", "cos")
        monkeypatch.setattr(SlitPair, "_bracket", None)   # no complex exponential
        model.batch_rhs(0.0, states)
        assert calls == {"_phase_terms": 1, "sin": 2, "cos": 2}


def test_random_valid_states_gives_up(monkeypatch, count_calls):
    # A box with no state fit for the stencils is refused after
    # MAX_EMPTY_ROUNDS rounds, not searched forever.
    model = SlitPair(wavenumber=1.0, slit_offset=0.5)
    monkeypatch.setattr(SlitPair, "node_measure_of", lambda self, *dist: np.zeros_like(dist[0]))
    calls = count_calls(SlitPair, "distances_of")
    with pytest.raises(ConfigurationError, match="^box_length: "):
        random_valid_states(model, 1, seed=0)
    assert calls["distances_of"] == MAX_EMPTY_ROUNDS


class TestConstraintManifold:
    def test_mirror_state_zero_deviation(self, model):
        mirror, axial = model.max_constraint_deviations(row((1.0, 0.3, 0.2), (1.0, -0.3, 0.2)))
        assert mirror == 0.0
        assert axial > 0.0  # the literal reading demands y2 = 0 as well

    def test_generic_state_reports_without_error(self, model):
        mirror, axial = model.max_constraint_deviations(row((1.0, 0.7, 0.0), (2.0, 0.4, -0.5)))
        assert mirror > 0.0 and axial > 0.0

    def test_flow_preserves_mirror_manifold(self, model):
        start = row((1.0, 0.3, 0.0), (1.0, -0.3, 0.0))
        traj = integrate_ode(model.batch_rhs, [start], 0.0, 2.0,
                             sample_times=np.linspace(0.0, 2.0, 101)).member(0)
        assert traj.complete
        mirror, _ = model.max_constraint_deviations(traj.states)
        assert mirror < 1e-6

    def test_off_axis_start_breaks_literal_reading(self, model):
        start = row((1.0, 0.3, 0.0), (1.0, -0.3, 0.0))
        traj = integrate_ode(model.batch_rhs, [start], 0.0, 1.0,
                             sample_times=np.linspace(0.0, 1.0, 51)).member(0)
        _, axial = model.max_constraint_deviations(traj.states)
        assert axial > 1e-2


class TestColumnKernels:
    """The spherical kernels work on coordinate columns; these row-wise forms
    of the same formulas, which numpy loops three elements at a time, must
    give the same bits, sign of zero and NaN rows included."""

    @staticmethod
    def sources(model):
        """The sources A = (0, d, 0) and B = (0, -d, 0)."""
        d = model.slit_offset
        return np.array([0.0, d, 0.0]), np.array([0.0, -d, 0.0])

    @classmethod
    def row_distances(cls, model, r1, r2):
        norm = lambda v: np.sqrt(np.sum(v * v, axis=-1))
        r1, r2 = np.asarray(r1, dtype=float), np.asarray(r2, dtype=float)
        a, b = cls.sources(model)
        return norm(r1 - a), norm(r1 - b), norm(r2 - a), norm(r2 - b)

    @classmethod
    def row_batch_rhs(cls, model, y):
        y = np.asarray(y, dtype=float)
        pts = y.reshape(-1, 6)
        r1, r2 = pts[:, :3], pts[:, 3:]
        distances = r1a, r1b, r2a, r2b = cls.row_distances(model, r1, r2)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = model._phase_terms(*distances)
            defined = (model._supported(r1, r2, distances)
                       & (model._node_measure(terms) >= NODE_THRESHOLD))
            g1a, g1b, g2a, g2b = model._distance_derivatives(*distances, terms)
            u = lambda r, src, d: (r - src) / d[..., None]
            a, b = cls.sources(model)
            v1 = g1a[..., None] * u(r1, a, r1a) + g1b[..., None] * u(r1, b, r1b)
            v2 = g2a[..., None] * u(r2, a, r2a) + g2b[..., None] * u(r2, b, r2b)
        out = np.concatenate([v1, v2], axis=1)
        out[~defined] = np.nan
        return out.reshape(y.shape)

    @classmethod
    def row_density_batch(cls, model, pts):
        r1, r2 = pts[:, :3], pts[:, 3:]
        distances = cls.row_distances(model, r1, r2)
        with np.errstate(divide="ignore", invalid="ignore"):
            q, rr, *_, nval, dval = model._phase_terms(*distances)
            density = (nval * nval + dval * dval) / (q * rr) ** 2
        return np.where(model._supported(r1, r2, distances), density, 0.0)

    @classmethod
    def row_proposal_weight(cls, model, pts):
        r1a, r1b, r2a, r2b = cls.row_distances(model, pts[:, :3], pts[:, 3:])
        return 1.0 / (r1a * r2b) ** 2 + 1.0 / (r1b * r2a) ** 2

    @classmethod
    def row_propose(cls, model, rng, m):
        draws = rng.uniform(size=(m, 7))
        pts = np.empty((m, 6))
        for j in (0, 3):
            c, phi, r = draws[:, 1 + j:4 + j].T
            s = np.sqrt(1.0 - c * c)
            r = model._proposal_radius * r
            phi = 2.0 * math.pi * phi
            pts[:, j] = r * c
            pts[:, j + 1] = r * s * np.cos(phi)
            pts[:, j + 2] = r * s * np.sin(phi)
        d = np.where(draws[:, 0] < 0.5, model.slit_offset, -model.slit_offset)
        pts[:, 1] += d
        pts[:, 4] -= d
        box = np.asarray(model.sampling_box())
        pts = pts[np.all((pts >= box[:, 0]) & (pts <= box[:, 1]), axis=1)]
        return pts, cls.row_proposal_weight(model, pts)

    @staticmethod
    def assert_same_bits(got, want):
        for a, b in zip(got, want, strict=True):
            assert np.shape(a) == np.shape(b)
            assert np.array_equal(a, b, equal_nan=True)
            assert np.array_equal(np.signbit(a), np.signbit(b))

    @staticmethod
    def rows(model, seed, m=400):
        """Rows over the box and a margin around it, with rows at both
        sources, on the x = 0 planes, with x < 0 and with NaN entries."""
        d = model.slit_offset
        rng = np.random.default_rng(seed)
        L = model.box_length
        pts = rng.uniform([-0.1 * L, -L, -L] * 2, [L, L, L] * 2, size=(m, 6))
        pts[::7, 0] = -0.0
        pts[1::7, 3] = 0.0
        special = np.array([[0.0, d, 0.0, 0.0, -d, 0.0],
                            [0.0, -d, 0.0, 0.0, d, 0.0],
                            [-0.0, d, -0.0, 1.0, -d, 1e-7],
                            [-0.5, 0.3, 0.2, 1.0, -0.4, 0.1],
                            [1.0, 0.3, -0.2, -1e-13, 0.0, -0.0],
                            [np.nan] * 6,
                            [1.0, np.nan, 0.2, 0.5, -0.3, 0.1],
                            [1.0, 0.3, 0.2, 0.5, -0.3, np.nan]])
        return np.concatenate([special, pts, random_valid_states(model, 64, seed)])

    @pytest.mark.parametrize("k, d", [(5.0, 0.5), (1.3, 2.0), (20.0, 0.05)])
    def test_row_kernels(self, k, d):
        model = SlitPair(wavenumber=k, slit_offset=d)
        for seed in (1, 2):
            rows = self.rows(model, seed)
            for pts in (rows, np.asfortranarray(rows), rows[:1], rows[[5]]):
                with np.errstate(divide="ignore", invalid="ignore"):
                    self.assert_same_bits(
                        (model.batch_rhs(0.0, pts), model.density_batch(pts),
                         model.proposal_weight(pts),
                         *model.distances_of(pts[:, :3], pts[:, 3:])),
                        (self.row_batch_rhs(model, pts), self.row_density_batch(model, pts),
                         self.row_proposal_weight(model, pts),
                         *self.row_distances(model, pts[:, :3], pts[:, 3:])))
            flat = rows[:16].ravel()
            self.assert_same_bits([model.batch_rhs(0.0, flat), model.batch_rhs(0.0, rows[20])],
                                  [self.row_batch_rhs(model, flat),
                                   self.row_batch_rhs(model, rows[20])])

    @pytest.mark.parametrize("shape", [(3,), (1, 3), (4, 5, 3)])
    def test_position_shapes(self, model, shape):
        rng = np.random.default_rng(3)
        r1, r2 = rng.uniform(-2.0, 2.0, size=(2, *shape))
        got = model.distances_of(r1, r2)
        self.assert_same_bits(got, self.row_distances(model, r1, r2))
        # A single position gives scalars, as the row form does.
        assert all(np.ndim(r) == len(shape) - 1 for r in got)

    @pytest.mark.parametrize("k, d, m", [(5.0, 0.5, 3000), (1.3, 2.0, 1), (20.0, 0.05, 700),
                                         (0.7, 8.0, 2000)])
    def test_propose(self, k, d, m):
        model = SlitPair(wavenumber=k, slit_offset=d)
        for seed in (4, 5):
            got = model.propose(np.random.Generator(np.random.Philox(seed)), m)
            want = self.row_propose(model, np.random.Generator(np.random.Philox(seed)), m)
            self.assert_same_bits(got, want)
            self.assert_same_bits(model.propose(PhiloxStream(seed), m), got)
