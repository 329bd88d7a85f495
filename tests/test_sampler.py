"""The proposal-based rejection sampler, checked against the uniform-box
sampler it replaces (kept here as the reference) and against properties of
the exact mixture envelope; and the spherical norm, checked against an
importance-sampled integral from the same proposal."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohmpair.ensemble import (KS_COEFF_99, build_ensemble, ensemble_metadata,
                               ks_two_sample, sample_configurations)
from bohmpair.planewave import PlaneWavePair
from bohmpair.spherical import SLIT_EXCLUSION, SlitPair


# -- the uniform-box sampler with a probed envelope, as it was ----------------------

def probe_bound(model, probe_points=20_000, safety=1.5, seed=1):
    """The former spherical envelope: 1.5 x the largest density a seeded
    uniform probe of the box finds."""
    rng = np.random.Generator(np.random.Philox(seed))
    box = np.array(model.sampling_box())
    pts = rng.uniform(box[:, 0], box[:, 1], size=(probe_points, model.dimension))
    return safety * float(np.max(model.density_batch(pts)))


def uniform_box_sampler(model, n, seed, bound):
    """The former sampling loop: uniform proposals over the box, kept when
    u * bound < density.  Returns (points, acceptance rate)."""
    box = np.asarray(model.sampling_box(), dtype=float)
    dim = len(box)
    rng = np.random.Generator(np.random.Philox(seed))
    accepted = []
    got = proposed = 0
    chunk = max(4096, min(n, 1 << 18))
    while got < n:
        pts = rng.uniform(box[:, 0], box[:, 1], size=(chunk, dim))
        u = rng.uniform(size=chunk)
        kept = pts[u * bound < model.density_batch(pts)]
        proposed += chunk
        accepted.append(kept)
        got += len(kept)
    return np.concatenate(accepted, axis=0)[:n], got / proposed


# -- plane-wave: the same draws in the same order ------------------------------------

@pytest.mark.parametrize("a, b, n, seed", [(1.0, 0.2, 5000, 3), (1.0, 1.0, 6000, 4),
                                           (1.0, 0.0, 300, 5), (0.3, 1.0, 20_000, 6)])
def test_planewave_bitwise_equal_to_uniform_loop(a, b, n, seed):
    model = PlaneWavePair(a=a, b=b)
    pts, report = sample_configurations(model, n, seed)
    ref, rate = uniform_box_sampler(model, n, seed, model.density_bound())
    assert np.array_equal(pts, ref)
    assert pts.flags.owndata      # n rows of its own, not a view of a larger buffer
    assert report.acceptance_rate == rate
    assert report.proposal == "uniform_box"
    # The density reaches its bound exactly; rounding there is no violation.
    assert report.envelope_violations == 0


# -- spherical: the mixture envelope is exact ----------------------------------------

def near_source_points(model, rng, count, radius=1e-4):
    """Configurations with one particle within ``radius`` (but outside the
    exclusion ball) of a source, in every particle/source combination; the
    other particle is uniform over the box."""
    box = np.asarray(model.sampling_box())
    pts = rng.uniform(box[:, 0], box[:, 1], size=(4 * count, 6))
    direction = rng.normal(size=(4 * count, 3))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    direction[:, 0] = np.abs(direction[:, 0])
    r = rng.uniform(2 * SLIT_EXCLUSION, radius, size=4 * count)[:, None]
    a, b = np.array([0.0, model.slit_offset, 0.0]), np.array([0.0, -model.slit_offset, 0.0])
    for i, (col, source) in enumerate([(0, a), (0, b), (3, a), (3, b)]):
        rows = slice(i * count, (i + 1) * count)
        pts[rows, col:col + 3] = source + r[rows] * direction[rows]
    return pts


@settings(max_examples=40)
@given(k=st.floats(0.5, 5.0), d=st.floats(0.1, 2.0), seed=st.integers(0, 2 ** 32 - 1))
def test_spherical_envelope_holds(k, d, seed):
    model = SlitPair(wavenumber=k, slit_offset=d)
    rng = np.random.Generator(np.random.Philox(seed))
    pts, weight = model.propose(rng, 2000)
    near = near_source_points(model, rng, 250)
    bound = model.density_bound()
    for points, w in ((pts, weight), (near, model.proposal_weight(near))):
        assert np.all(model.density_batch(points) <= bound * w * (1 + 1e-12))
    box = np.asarray(model.sampling_box())
    assert np.all((pts >= box[:, 0]) & (pts <= box[:, 1]))
    assert np.array_equal(weight, model.proposal_weight(pts))


@pytest.fixture(scope="module")
def sphere_samples():
    """Old and new samples at (k, d) = (1, 0.5), with the old probed bound."""
    model = SlitPair(wavenumber=1.0, slit_offset=0.5)
    bound = probe_bound(model)
    old, _ = uniform_box_sampler(model, 4000, seed=5, bound=bound)
    new, report = sample_configurations(model, 20_000, seed=6)
    return model, bound, old, new, report


def test_spherical_samplers_agree_where_old_was_exact(sphere_samples):
    # Below the probed bound the old sampler accepted with probability f/M,
    # so there both samples follow the density restricted to that region.
    model, bound, old, new, _ = sphere_samples
    old = old[model.density_batch(old) < bound]
    new = new[model.density_batch(new) < bound]
    crit = KS_COEFF_99 * math.sqrt((len(old) + len(new)) / (len(old) * len(new)))
    # x1 and y1: the y marginal also checks that both pairings are drawn.
    for axis in (0, 1):
        assert ks_two_sample(old[:, axis], new[:, axis]) < crit


def test_spherical_sampler_reaches_clipped_mass(sphere_samples):
    # Mass the old envelope clipped: the mean over exact samples of
    # (f - M)_+ / f, about 4.7 % at (k, d) = (1, 0.5).
    model, bound, _, new, report = sphere_samples
    f = model.density_batch(new)
    clipped = float(np.mean(np.clip(1.0 - bound / f, 0.0, None)))
    assert 0.02 < clipped < 0.08
    assert report.envelope_violations == 0
    assert report.proposal == "source_mixture"
    assert report.acceptance_rate > 0.1


def test_sampler_report_in_metadata():
    model = SlitPair(wavenumber=1.0, slit_offset=0.5)
    meta = ensemble_metadata(build_ensemble(model, 200, seed=2))
    sampler = meta["sampler"]
    assert sampler["proposal"] == "source_mixture"
    assert sampler["envelope_violations"] == 0
    assert sampler["accepted"] >= 200
    assert sampler["acceptance_rate"] == meta["acceptance_rate"]
    assert sampler["accepted"] / sampler["draws"] == meta["acceptance_rate"]
    # Sampling never needs (or forces) the norm.
    assert model.computed_norm() is None


# -- importance sampling from the proposal, and the spherical norm -------------------

def proposal_scale(model):
    """2 (2 pi R)^2: the proposal's weight u^2 + v^2 over its density q on
    the box (the mixture of two products of 1/(2 pi R r^2) densities)."""
    return 2.0 * (2.0 * math.pi * model._proposal_radius) ** 2


def importance_estimate(model, integrand, draws, seed):
    """Importance-sampled box integral of ``integrand`` from ``draws``
    draws of the proposal: the mean of 1_box integrand / q, with out-of-box
    draws adding 0; returns (value, standard error)."""
    rng = np.random.Generator(np.random.Philox(seed))
    pts, weight = model.propose(rng, draws)
    values = np.zeros(draws)
    values[:len(pts)] = proposal_scale(model) * integrand(pts) / weight
    return values.mean(), values.std() / math.sqrt(draws)


def test_proposal_density_integrates_to_box_volume():
    # E_q[1_box / q] is the box volume when q is the proposal's density.
    model = SlitPair(wavenumber=1.0, slit_offset=0.5)
    value, se = importance_estimate(model, lambda pts: np.ones(len(pts)), 200_000, seed=9)
    volume = model.box_length ** 6
    assert abs(value - volume) < 4.0 * se
    assert se / volume < 0.01


@pytest.mark.parametrize("k, d", [(1.0, 0.5), (2.0, 0.5), (1.0, 1.0)])
def test_norm_matches_large_reference(k, d):
    # The face rule's norm against an independent importance-sampled
    # integral of the density (the density/weight ratio is bounded, so the
    # estimate has finite variance; its relative error is about 0.3 %).
    model = SlitPair(wavenumber=k, slit_offset=d)
    value = model.norm
    norm = model.computed_norm()
    assert norm == {"value": value, "error_bound": norm["error_bound"]}
    assert norm["error_bound"] <= 1e-10 * value
    reference, se = importance_estimate(model, model.density_batch, 200_000, seed=12345)
    assert se / reference < 0.005
    assert abs(value - reference) < 4.0 * se
