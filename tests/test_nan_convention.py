"""NaN is the one marker of an undefined value: the wavefunction, the phase
and the guidance field of both models are NaN exactly where they are
undefined, and each element is bitwise that of a call on it alone, whatever
else shares the batch."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bohmpair.planewave import PlaneWavePair
from bohmpair.spherical import SLIT_EXCLUSION, SlitPair

EXAMPLES = 40


def assert_convention(values, alone, undefined):
    """``values`` (one per row, along the first axis) are NaN on the rows in
    ``undefined`` only, and each row is bitwise ``alone(i)``, which must
    keep the shape of a single element (a scalar, not a 0-d array)."""
    values = np.asarray(values)
    assert np.isnan(values.reshape(len(values), -1)).any(axis=1).tolist() == undefined
    assert np.isnan(values.reshape(len(values), -1)).all(axis=1).tolist() == undefined
    for i, value in enumerate(values):
        one = alone(i)
        assert np.shape(one) == value.shape
        assert not isinstance(one, np.ndarray) or one.ndim    # scalars in, scalars out
        assert np.asarray(one).tobytes() == value.tobytes()


@settings(max_examples=EXAMPLES)
@given(a=st.floats(0.1, 2.0), equal=st.booleans(), momentum=st.floats(0.5, 2.0),
       nodes=st.lists(st.booleans(), min_size=1, max_size=8),
       seed=st.integers(0, 2 ** 32 - 1))
def test_planewave_nan_at_nodes_row_by_row(a, equal, momentum, nodes, seed):
    # With a = b the separations theta = pi/2 + j pi are nodes; with b = a/2
    # the same separations are regular and nothing is undefined.
    model = PlaneWavePair(a=a, b=a if equal else 0.5 * a, momentum=momentum)
    rng = np.random.default_rng(seed)
    n = len(nodes)
    turns = rng.integers(-3, 4, n) * math.pi
    theta = np.where(nodes, 0.5 * math.pi, rng.uniform(-0.45, 0.45, n) * math.pi) + turns
    x2 = rng.uniform(-5.0, 5.0, n)
    x1 = x2 + theta / momentum
    rows = np.column_stack([x1, x2])
    undefined = [equal and node for node in nodes]

    assert_convention(model.psi_values(x1, x2), lambda i: model.psi_values(x1[i], x2[i]),
                      [False] * n)
    assert_convention(model.phase_values(x1, x2),
                      lambda i: model.phase_values(x1[i], x2[i]), undefined)
    assert_convention(model.batch_rhs(0.0, rows), lambda i: model.batch_rhs(0.0, rows[i]),
                      undefined)


def node_row(model: SlitPair, rng) -> np.ndarray:
    """A configuration where the two terms of the wavefunction cancel.

    Particle 1 sits on the y axis below source B, at distance s from it, so
    r1A - r1B = 2d; particle 2's distances r2B = s (1 - 1 / rho), with
    rho = 2dk / pi, and r2A = (r1A / r1B) r2B match the terms' moduli and
    make their phases differ by pi.  They are a point's distances from the
    sources, r2A + r2B >= 2d, when rho > 1 and s >= d / (rho - 1).
    Particle 2 is turned about the y axis, which moves no source
    distance."""
    k, d = model.wavenumber, model.slit_offset
    rho = 2.0 * d * k / math.pi
    s = 1.1 * d / (rho - 1.0) + rng.uniform(0.0, 2.0)
    r1a, r1b = 2.0 * d + s, s
    r2b = s * (1.0 - 1.0 / rho)
    r2a = r1a / r1b * r2b
    y2 = -(r2a * r2a - r2b * r2b) / (4.0 * d)
    x2 = math.sqrt(r2a * r2a - (y2 - d) ** 2)
    turn = rng.uniform(-0.5, 0.5) * math.pi
    return np.array([0.0, -d - s, 0.0, x2 * math.cos(turn), y2, x2 * math.sin(turn)])


def spherical_row(model: SlitPair, kind: str, rng) -> np.ndarray:
    """A configuration of ``kind``: inside the support ("valid"), with a
    particle in the x < 0 half-space ("outside") or within
    ``SLIT_EXCLUSION`` of a source ("source"), or at a node ("node"); the
    particles are exchanged at random."""
    if kind == "node":
        y = node_row(model, rng)
    else:
        y = np.concatenate([rng.uniform([0.05, -2.0, -2.0], [3.0, 2.0, 2.0])
                            for _ in range(2)])
        if kind == "outside":
            y[0] = -rng.uniform(1e-9, 3.0)
        elif kind == "source":
            u = rng.normal(size=3)
            u[0] = abs(u[0])
            eps = rng.choice([0.0, rng.uniform(0.0, 0.9 * SLIT_EXCLUSION)])
            source = np.array([0.0, rng.choice([-1.0, 1.0]) * model.slit_offset, 0.0])
            y[:3] = source + eps * u / np.linalg.norm(u)
    return np.roll(y, 3) if rng.random() < 0.5 else y


@settings(max_examples=EXAMPLES)
@given(d=st.floats(0.3, 2.0), rho=st.floats(1.5, 4.0),
       kinds=st.lists(st.sampled_from(["valid", "outside", "source", "node"]),
                      min_size=1, max_size=8),
       seed=st.integers(0, 2 ** 32 - 1))
def test_spherical_nan_off_support_and_at_nodes_row_by_row(d, rho, kinds, seed):
    model = SlitPair(wavenumber=rho * math.pi / (2.0 * d), slit_offset=d)
    rng = np.random.default_rng(seed)
    rows = np.array([spherical_row(model, kind, rng) for kind in kinds])
    r1, r2 = rows[:, :3], rows[:, 3:]
    off_support = [kind in ("outside", "source") for kind in kinds]
    undefined = [kind != "valid" for kind in kinds]

    # The wavefunction is zero, not undefined, at a node.
    assert_convention(model.psi_values(r1, r2), lambda i: model.psi_values(r1[i], r2[i]),
                      off_support)
    assert_convention(model.phase_values(r1, r2),
                      lambda i: model.phase_values(r1[i], r2[i]), undefined)
    assert_convention(model.batch_rhs(0.0, rows), lambda i: model.batch_rhs(0.0, rows[i]),
                      undefined)
