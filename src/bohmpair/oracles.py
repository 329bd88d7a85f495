"""Independent cross-checks for the analytic guidance formulas.

Everything here differentiates the wavefunction or the phase numerically and
never touches the models' closed-form velocity expressions, so agreement is
a genuine two-route check rather than a tautology.  The models are in
natural units (hbar = m = 1), so the paper's (hbar/m) Im(grad psi / psi) is
Im(grad psi / psi) here and the phase wraps at 2 pi.  Both states are energy
eigenstates, psi = phi(x) e^{-iEt}, so the models return phi and S(x): the
factor e^{-iEt} cancels from grad psi / psi and from phase differences.
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


def velocity_from_psi(model, points: np.ndarray) -> np.ndarray:
    """Im(grad psi / psi) by central differences of the wavefunction.

    ``points`` is an (n, dim) array of flat configurations; returns (n, dim)
    velocities.  The model only needs ``psi_values`` of the two particles'
    coordinates.
    """
    pts, diffs, steps = _stencil(lambda p: model.psi_values(*_particles(p)), points)
    grad = diffs / (2.0 * steps)
    psi = model.psi_values(*_particles(pts))
    return np.imag(grad / psi[:, None])


def _particles(pts: np.ndarray):
    """The two particles' coordinates in (n, dim) configuration rows: two
    columns for a one-dimensional model, two (n, 3) blocks otherwise."""
    half = pts.shape[1] // 2
    if half == 1:
        return pts[:, 0], pts[:, 1]
    return pts[:, :half], pts[:, half:]


def phase_gradient(model, points: np.ndarray) -> np.ndarray:
    """Central differences of the phase with wrap handling.

    The phase is defined modulo 2 pi, so each difference is reduced to
    the nearest equivalent before dividing; for small steps the true
    difference is far below the wrap scale and the reduction is exact.
    """
    _, diffs, steps = _stencil(lambda p: model.phase_values(*_particles(p)), points)
    diffs -= TWO_PI * np.round(diffs / TWO_PI)
    return diffs / (2.0 * steps)
