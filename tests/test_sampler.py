"""The proposal-based rejection sampler and the importance-sampled spherical
norm, checked against the uniform-box sampler they replace (kept here as the
reference) and against properties of the exact mixture envelope."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bohmpair.spherical as spherical
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


# -- spherical norm by importance sampling -------------------------------------------

def test_proposal_density_integrates_to_box_volume():
    # E_q[1_box / q] is the box volume when q is the proposal's density.
    model = SlitPair(wavenumber=1.0, slit_offset=0.5)
    rng = np.random.Generator(np.random.Philox(9))
    n = 200_000
    pts, weight = model.propose(rng, n)
    values = np.zeros(n)
    values[:len(pts)] = model._proposal_scale / weight
    volume = model.box_length ** 6
    se = values.std() / math.sqrt(n)
    assert abs(values.mean() - volume) < 4.0 * se
    assert se / volume < 0.01


@pytest.mark.parametrize("k, d", [(1.0, 0.5), (2.0, 0.5), (1.0, 1.0)])
def test_norm_matches_large_reference(k, d, monkeypatch):
    model = SlitPair(wavenumber=k, slit_offset=d)
    value = model.norm
    norm = model.computed_norm()
    assert norm == {"value": value, "standard_error": norm["standard_error"],
                    "samples": 200_000}
    assert norm["standard_error"] / value < 0.005
    # A 20x larger estimate from an independent seed.
    monkeypatch.setattr(spherical, "NORM_SAMPLES", 4_000_000)
    monkeypatch.setattr(spherical, "NORM_SEED", 12345)
    reference = SlitPair(wavenumber=k, slit_offset=d)
    reference_value = reference.norm
    se = math.hypot(norm["standard_error"], reference.computed_norm()["standard_error"])
    assert abs(value - reference_value) < 4.0 * se


def one_shot_norm(model):
    """The norm estimate as it was before it worked in blocks: each
    50,000-draw chunk proposed and evaluated in one call."""
    rng = np.random.Generator(np.random.Philox(spherical.NORM_SEED))
    total = total_sq = 0.0
    n = 0
    while n < spherical.NORM_SAMPLES:
        m = min(50_000, spherical.NORM_SAMPLES - n)
        pts, weight = model.propose(rng, m)
        ratio = model.density_batch(pts) / weight
        total += float(np.sum(ratio))
        total_sq += float(np.sum(ratio * ratio))
        n += m
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    return model._proposal_scale * mean, model._proposal_scale * math.sqrt(var / n)


@pytest.mark.parametrize("k, d, rows", [(1.0, 0.5, spherical.BLOCK_ROWS), (2.0, 0.5, 3001),
                                        (1.0, 1.0, spherical.BLOCK_ROWS)])
def test_norm_blocks_equal_one_shot(k, d, rows, monkeypatch):
    # Blocks of draws read the stream in order, and each chunk is still
    # summed by one np.sum, so the value and its standard error are equal,
    # also for blocks that do not divide a chunk.
    monkeypatch.setattr(spherical, "BLOCK_ROWS", rows)
    model = SlitPair(wavenumber=k, slit_offset=d)
    assert model._norm_estimate == one_shot_norm(model)
