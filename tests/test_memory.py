"""Ceilings on the traced peak memory of the large array passes.

numpy allocates its buffers through the traced allocator, so tracemalloc's
peak covers them.  Each pass runs once before it is measured, so allocations
made only on first use do not count.  The ceilings were set against the
passes before they worked in blocks of ``numerics.BLOCK_ROWS`` rows: the
traced peaks are in MiB, with numpy 2.4 on x86-64.
"""

import tracemalloc

import pytest

from bohmpair import numerics
from bohmpair.analyses import uniqueness_claims
from bohmpair.ensemble import sample_configurations
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
    # 20,000 plane-wave members: 6.09 MiB in one chunk; 3.4 MiB in chunks:
    # the result's sample arrays (1.2 MiB) and one 8,192-member chunk's
    # stages and step state (2.0 MiB).
    monkeypatch.setattr(numerics, "_cpu_count", lambda: 1)
    model = PlaneWavePair(a=1.0, b=0.2)
    y0 = sample_configurations(model, 20_000, seed=3)[0]
    numerics.integrate_ode(model.batch_rhs, y0[:64], 0.0, 3.0)
    peak = traced_peak_mib(lambda: numerics.integrate_ode(model.batch_rhs, y0, 0.0, 3.0))
    assert peak < 0.6 * 6.09
