"""Independent cross-checks for the analytic guidance formulas.

Everything here differentiates the wavefunction or the phase numerically and
never touches the models' closed-form velocity expressions, so agreement is
a genuine two-route check rather than a tautology.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import stencil_steps

TWO_PI = 2.0 * math.pi


def _stencil(f, points):
    """Central differences of ``f`` over an (n, dim) array of configurations:
    returns the points, f(x + h_i e_i) - f(x - h_i e_i) for each coordinate
    i, and the steps h from :func:`stencil_steps`, the last two (n, dim)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    steps = stencil_steps(pts)
    diffs = []
    for i in range(pts.shape[1]):
        shift = np.zeros_like(pts)
        shift[:, i] = steps[:, i]
        diffs.append(f(pts + shift) - f(pts - shift))
    return pts, np.column_stack(diffs), steps


def velocity_from_psi(model, points: np.ndarray, t=0.0) -> np.ndarray:
    """(hbar/m) Im(grad psi / psi) by central differences of the wavefunction.

    ``points`` is an (n, dim) array of flat configurations; returns (n, dim)
    velocities.  The model only needs ``psi_values`` plus the geometry of its
    configuration vector.
    """
    pts, diffs, steps = _stencil(lambda p: _psi_flat(model, p, t), points)
    grad = diffs / (2.0 * steps)
    return (model.hbar / model.mass) * np.imag(grad / _psi_flat(model, pts, t)[:, None])


def _psi_flat(model, pts: np.ndarray, t):
    half = pts.shape[1] // 2
    if half == 1:
        return model.psi_values(pts[:, 0], pts[:, 1], t)
    return model.psi_values(pts[:, :half], pts[:, half:], t)


def phase_gradient(model, points: np.ndarray, t=0.0) -> np.ndarray:
    """Central differences of the phase with wrap handling.

    The phase is defined modulo 2 pi hbar, so each difference is reduced to
    the nearest equivalent before dividing; for small steps the true
    difference is far below the wrap scale and the reduction is exact.
    """
    _, diffs, steps = _stencil(lambda p: _phase_flat(model, p, t), points)
    wrap = TWO_PI * model.hbar
    diffs -= wrap * np.round(diffs / wrap)
    return diffs / (2.0 * steps)


def _phase_flat(model, pts: np.ndarray, t):
    half = pts.shape[1] // 2
    if half == 1:
        states = [model.state_from_vector(row, t) for row in pts]
        return np.array([model.phase(s).S for s in states])
    r1a, r1b, r2a, r2b = model.distances_of(pts[:, :3], pts[:, 3:])
    return model.phase_from_distances(r1a, r1b, r2a, r2b, t=t)
