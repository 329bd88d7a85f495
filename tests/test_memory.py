"""Ceilings on the traced peak memory of the large array passes.

numpy allocates its buffers through the traced allocator, so tracemalloc's
peak covers them.  The result arrays of ``numerics.integrate_ode`` are the
exception: they live in an anonymous shared mapping (``mmap``), which
tracemalloc does not see, so the integration ceilings bound only the work
done on top of the result.  Each pass runs once before it is measured, so
allocations made only on first use do not count.  The ceilings were set
against the passes before they worked in blocks of ``numerics.BLOCK_ROWS``
rows, or for the integration before its result left the traced heap: the
traced peaks are in MiB, with numpy 2.4 on x86-64.
"""

import tracemalloc

import numpy as np
import pytest

from bohmpair import numerics
from bohmpair.analyses import uniqueness_claims
from bohmpair.ensemble import ks_statistic, sample_configurations
from bohmpair.planewave import PlaneWavePair
from bohmpair.spherical import SlitPair


def traced_peak_mib(fn) -> float:
    """Peak traced memory, in MiB, of one call of ``fn``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_norm_estimate():
    # 9.27 MiB in 50,000-draw chunks; 1.6 MiB in blocks of 8,192 draws.
    SlitPair(wavenumber=2.0, slit_offset=0.5)._norm_estimate
    assert traced_peak_mib(lambda: SlitPair(wavenumber=1.0, slit_offset=0.5)._norm_estimate) < 3.0


def test_uniqueness_scan():
    # 3.15 MiB over one 100,000-point grid array; 0.44 MiB in blocks.
    model = PlaneWavePair(a=1.0, b=0.5)
    uniqueness_claims(model)
    assert traced_peak_mib(lambda: uniqueness_claims(model)) < 1.0


def test_integration_in_one_process(monkeypatch):
    # 20,000 plane-wave members: 6.09 MiB in one chunk; 3.4 MiB in chunks of
    # 8,192 members with the result's arrays traced; 1.88 MiB without them,
    # nearly all of it one chunk's stages and step state.  One chunk of the
    # whole batch reads 4.57 MiB without the result.
    monkeypatch.setattr(numerics, "_cpu_count", lambda: 1)
    model = PlaneWavePair(a=1.0, b=0.2)
    y0 = sample_configurations(model, 20_000, seed=3)[0]
    numerics.integrate_ode(model.batch_rhs, y0[:64], 0.0, 3.0)
    peak = traced_peak_mib(lambda: numerics.integrate_ode(model.batch_rhs, y0, 0.0, 3.0))
    assert peak < 2.5


@pytest.fixture(scope="module")
def separations():
    model = PlaneWavePair(a=1.0, b=0.2)
    return model, np.random.default_rng(5).uniform(-model.box_length, model.box_length,
                                                   100_000)


def test_inverse_flow(separations):
    # 1e5 separations: 6.96 MiB pulled back whole; 1.82 MiB in blocks, of
    # which the result is 0.76 MiB.
    model, deltas = separations
    model.inverse_flow(deltas[:64], 3.0)
    assert traced_peak_mib(lambda: model.inverse_flow(deltas, 3.0)) < 2.5


def test_ks_statistic(separations):
    # 1e5 samples: 6.10 MiB in one pass; 1.33 MiB in blocks, of which the
    # sorted copy is 0.76 MiB.
    model, deltas = separations
    ks_statistic(deltas[:64], model.separation_cdf)
    assert traced_peak_mib(lambda: ks_statistic(deltas, model.separation_cdf)) < 2.5


def test_split_integration_parent(monkeypatch):
    # 20,000 plane-wave members in two blocks, each integrated in chunks of
    # 2,048 members.  With the result's arrays (1.53 MiB) traced the parent's
    # peak was 2.00 MiB; the child now writes its block into the untraced
    # shared result and sends only its work, so the peak is one chunk's
    # work, 0.48 MiB.  Receiving a pickled copy of the child's block
    # (0.76 MiB) instead made it 0.78 MiB.
    monkeypatch.setattr(numerics, "MIN_BLOCK_ROWS", 4)
    monkeypatch.setattr(numerics, "BLOCK_ROWS", 2048)
    model = PlaneWavePair(a=1.0, b=0.2)
    y0 = sample_configurations(model, 20_000, seed=3)[0]
    numerics.integrate_ode(model.batch_rhs, y0[:64], 0.0, 0.1)
    batches = {}

    def integrate(cpus):
        monkeypatch.setattr(numerics, "_cpu_count", lambda: cpus)
        batches[cpus] = numerics.integrate_ode(model.batch_rhs, y0, 0.0, 0.1)

    assert traced_peak_mib(lambda: integrate(2)) < 0.65
    integrate(1)
    assert batches[2].work.blocks == 2
    for key in ("states", "velocities", "lengths"):
        assert np.array_equal(getattr(batches[2], key), getattr(batches[1], key)), key
