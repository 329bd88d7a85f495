"""Two particles in one dimension entangled through counter-propagating
relative plane waves.

The wavefunction is a superposition of e^{+i theta} and e^{-i theta} with
real amplitudes ``a`` and ``b``, where theta = p (x1 - x2), box-normalized
on [0, L]^2.  It is an energy eigenstate, psi = phi(x) e^{-iEt} with E = p^2,
so the model returns phi and its phase S(x) and takes no time.  The guidance
field depends on the separation x1 - x2 only, the centre of mass is frozen,
and the separation obeys a closed conserved relation that doubles as an
exactness oracle for the integrator.

Units are natural, hbar = m = 1: the paper's formulas are these with p -> p/hbar
and t -> hbar t / m, and its velocities are hbar / m times these.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DegenerateParametersError, ModelDomainError
from .numerics import BLOCK_ROWS, bracketed_root, require_defined
from .prng import PhiloxStream

# PlaneWavePair._density_shape (|psi|^2 relative to its maximum) below this
# is treated as a node of the wavefunction.
NODE_DENSITY_FLOOR = 1e-24


@dataclass(frozen=True)
class PlaneWavePair:
    """Model parameters plus every closed-form quantity derived from them.

    Instances are immutable; all evaluations are pure functions of the state,
    so a single model object may be shared freely across threads.  A box
    whose area L^2, the order of the norm, or a momentum whose squared
    wavenumber (2p)^2 is not a normal positive float is a
    :class:`ConfigurationError`.
    """

    a: float
    b: float
    momentum: float = 1.0
    box_length: float | None = None

    dimension = 2
    tag = "planewave"
    proposal = "uniform_box"

    def __post_init__(self) -> None:
        if not (0 <= self.a < math.inf and 0 <= self.b < math.inf):
            raise ValueError("amplitudes a and b must be finite and nonnegative")
        if self.a == 0 and self.b == 0:
            raise ValueError("amplitudes a and b must not both vanish")
        if self.momentum <= 0:
            raise ValueError("momentum must be positive")
        if self.box_length is None:
            object.__setattr__(self, "box_length", 20.0 / self.momentum)
        elif self.box_length <= 0:
            raise ValueError("box_length must be positive")
        area = self.box_length * self.box_length
        if not sys.float_info.min <= area <= sys.float_info.max:
            raise ConfigurationError(f"box_length: {self.box_length:.3g} puts the box area "
                                     f"L^2 = {area:.3g} outside the normal float range")
        k2 = (2.0 * self.momentum) * (2.0 * self.momentum)
        if not k2 >= sys.float_info.min:    # separation_cdf divides by it, the norm by p
            raise ConfigurationError(f"momentum: {self.momentum:.3g} puts the squared "
                                     f"wavenumber (2p)^2 = {k2:.3g} below the normal float range")

    # -- derived parameters -------------------------------------------------

    @cached_property
    def _amplitudes(self) -> tuple[float, float]:
        """(a / m, b / m) with m = max(a, b).  Every quantity depends on the
        amplitudes through their ratio only, so the formulas below read these,
        which neither overflow nor underflow at any scale of a and b."""
        m = max(self.a, self.b)
        return self.a / m, self.b / m

    @property
    def contrast(self) -> float:
        """(a - b) / (a + b), the amplitude contrast in [-1, 1]."""
        a, b = self._amplitudes
        return (a - b) / (a + b)

    @cached_property
    def norm(self) -> float:
        """Normalization constant: integral of the unnormalized density over
        the box [0, L]^2, so the density integrates to one.

        In closed form, with s = 1 / p,
        ((a^2 + b^2) L^2 + 2ab s^2 sin^2(L / s)) / (a + b)^2;
        both terms are nonnegative, so nothing cancels."""
        L, s = self.box_length, 1.0 / self.momentum
        a, b = self._amplitudes
        return ((a * a + b * b) * L * L + 2 * a * b * (s * math.sin(L / s)) ** 2) / (a + b) ** 2

    def _density_shape(self, delta):
        """Unnormalized |psi|^2 as a function of the separation:
        (a^2 + b^2 + 2ab cos 2 theta) / (a + b)^2, written as
        ((a - b)^2 + 4ab cos^2 theta) / (a + b)^2, whose terms are never
        negative, so it keeps its relative accuracy near the nodes even
        when b is close to a."""
        th = self.momentum * np.asarray(delta, dtype=float)
        a, b = self._amplitudes
        return ((a - b) ** 2 + 4 * a * b * np.cos(th) ** 2) / (a + b) ** 2

    # -- wavefunction, density, phase ---------------------------------------

    def psi_values(self, x1, x2):
        """Spatial wavefunction phi on arrays of positions (broadcasting)."""
        th = self.momentum * (np.asarray(x1) - np.asarray(x2))
        a, b = self._amplitudes
        bracket = a * np.exp(1j * th) + b * np.exp(-1j * th)
        return bracket / (math.sqrt(self.norm) * (a + b))

    def density_values(self, x1, x2):
        """|psi|^2, the density shape over the norm; a function of x1 - x2
        only."""
        return self._density_shape(np.asarray(x1) - np.asarray(x2)) / self.norm

    def density_single_angle_values(self, x1, x2):
        """Variant of the density with cos(theta) in place of cos(2 theta)
        in the interference term; retained verbatim so the two closed forms
        can be compared (see the density-discrepancy analysis)."""
        th = self.momentum * (np.asarray(x1) - np.asarray(x2))
        a, b = self._amplitudes
        return (a * a + b * b + 2 * a * b * np.cos(th)) / (self.norm * (a + b) ** 2)

    def phase_values(self, x1, x2):
        """Continuous phase S of phi on arrays of positions (broadcasting).

        S = arctan(c tan theta) + eta pi, with the integer
        eta chosen so S is continuous in theta across branch cells: the
        arctangent is evaluated inside the cell of theta, as atan2 of
        c sin and cos of theta - n pi, and eta = n (or -n when c < 0).
        Raises :class:`ModelDomainError` at a node (a = b with cos theta = 0).
        """
        th = self.momentum * (np.asarray(x1, dtype=float) - np.asarray(x2))
        c = self.contrast
        if c == 0.0 and np.any(np.abs(np.cos(th)) < 1e-12):
            raise ModelDomainError("phase undefined at a node of the wavefunction")
        n = np.floor(th / math.pi + 0.5)
        th_cell = th - n * math.pi
        eta = n if c >= 0 else -n
        return np.arctan2(c * np.sin(th_cell), np.cos(th_cell)) + eta * math.pi

    # -- guidance velocities -------------------------------------------------

    def velocity_of_separation(self, delta):
        """Velocity of particle 1 as a function of x1 - x2 (vectorised), NaN
        at a node.

        c p divided by the density shape, which equals
        cos^2 theta + c^2 sin^2 theta: finite at cos theta = 0, where the
        tangent-based expression has a removable singularity.  Particle 2
        moves with the opposite velocity.
        """
        shape = self._density_shape(delta)
        # Divide everywhere, then mark the nodes (NaN shapes included): a
        # masked np.divide(where=...) took 1.6 times as long.
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.divide(self.momentum * self.contrast, shape, out=np.empty(shape.shape))
        v[~(shape >= NODE_DENSITY_FLOOR)] = np.nan
        return v

    def rhs(self, t, y):
        """Field for the integrator at one flat configuration [x1, x2] (or at
        rows of them); raises :class:`ModelDomainError` at a node."""
        return require_defined(self.batch_rhs(t, y),
                               "velocity undefined at a node of the wavefunction")

    def batch_rhs(self, t, y):
        """Field on configuration rows: y is (m, 2), or (m * 2,) flattened
        C-order, and the result has its shape, with NaN rows at nodes."""
        y = np.asarray(y, dtype=float)
        pairs = y.reshape(-1, 2)
        out = np.empty_like(pairs)
        out[:, 0] = self.velocity_of_separation(pairs[:, 0] - pairs[:, 1])
        np.negative(out[:, 0], out=out[:, 1])
        return out.reshape(y.shape)

    # -- conserved quantities ------------------------------------------------

    def _require_nondegenerate(self) -> None:
        if self.a == self.b:
            raise DegenerateParametersError(
                "the separation relation divides by a^2 - b^2; it requires a != b")

    def _relation_coefficients(self) -> tuple[float, float]:
        """(lin, amp): the coefficients of delta and of sin(2 p delta)
        in the conserved separation relation."""
        self._require_nondegenerate()
        a, b = self._amplitudes
        return ((a * a + b * b) / (a * a - b * b),
                (1.0 / self.momentum) * a * b / (a * a - b * b))

    def _relation(self, delta, linear_scale: float):
        lin, amp = self._relation_coefficients()
        d = np.asarray(delta, dtype=float)
        return linear_scale * lin * d + amp * np.sin(2.0 * self.momentum * d)

    def trajectory_invariant(self, delta):
        """Left-hand side of the conserved separation relation.

        Integrating d(x1 - x2)/dt = 2 v1 in closed form gives
        ((a^2+b^2)/(a^2-b^2)) * delta + (1/p)(ab/(a^2-b^2)) sin(2 p delta)
        = 2 p t + beta, so this expression minus 2 p t is constant along any
        exact trajectory.
        """
        return self._relation(delta, 1.0)

    def constraint_lhs(self, delta):
        """Separation-constraint expression scanned by the uniqueness
        claims: identical to :meth:`trajectory_invariant` except that the
        linear coefficient is halved.  This is the variant whose slope is
        positive everywhere exactly when 4ab < a^2 + b^2; only the unhalved
        form is conserved by the flow (the claims report measures both).
        """
        return self._relation(delta, 0.5)

    def residual_drift(self, trajectory) -> float:
        """Max |residual| over the samples of a trajectory, or of every member
        of a trajectory batch (NaN samples past a truncation skipped), with
        beta fixed from each initial sample."""
        return self._relation_drift(trajectory, self.trajectory_invariant)

    def _relation_drift(self, trajectory, relation) -> float:
        """:meth:`residual_drift` of ``relation`` (the conserved
        :meth:`trajectory_invariant` or the printed :meth:`constraint_lhs`)."""
        states = trajectory.states
        times = np.reshape(trajectory.times, (-1,) + (1,) * (states.ndim - 2))
        values = relation(states[..., 0] - states[..., 1]) - 2.0 * self.momentum * times
        return float(np.nanmax(np.abs(values - values[0])))

    def cm_drift(self, trajectory) -> float:
        """Max |(x1 + x2) - (x1 + x2)_initial| over the samples of a
        trajectory, or of every member of a trajectory batch.

        The centre of mass is exactly frozen by the flow (v1 + v2 = 0), so
        this stays below integration tolerance.
        """
        sums = trajectory.states[..., 0] + trajectory.states[..., 1]
        return float(np.nanmax(np.abs(sums - sums[0])))

    def zero_separation_times(self, delta):
        """Time elapsed from separation(s) ``delta`` until the trajectory
        reaches x1 = x2 (vectorised; negative when it did so earlier).

        Follows from the conserved relation; depends on the separation only,
        not on the centre of mass.
        """
        return -np.asarray(self.trajectory_invariant(delta)) / (2.0 * self.momentum)

    def inverse_flow(self, delta, elapsed: float):
        """Separation(s) a time ``elapsed`` earlier on the same trajectory.

        Solves the conserved relation for the earlier separation; the
        left-hand side is strictly monotone for a != b, so the solution is
        unique.  Newton from target / lin, clipped to the bracket the
        relation puts the root in, with a bisection fallback.  Each
        separation iterates until its own residual is below 1e-12 (or is
        NaN), so its result is bitwise that of a one-element call, whatever
        else the batch holds.  The separations are solved ``BLOCK_ROWS`` at
        a time, so only the result spans a large batch.  With a == b the field
        vanishes and the flow is the identity.
        """
        if self.a == self.b:
            return (np.asarray(delta, dtype=float).copy() if np.ndim(delta)
                    else float(delta))
        d = np.asarray(delta, dtype=float)
        x = np.empty(d.shape)
        flat_d, flat_x = d.reshape(-1), x.reshape(-1)
        for start in range(0, flat_d.size, BLOCK_ROWS):
            stop = start + BLOCK_ROWS
            flat_x[start:stop] = self._inverse_flow_block(flat_d[start:stop], elapsed)
        return x if np.ndim(delta) else float(x)

    def _inverse_flow_block(self, d: np.ndarray, elapsed: float) -> np.ndarray:
        """:meth:`inverse_flow` of the one-dimensional array ``d``."""
        target = self.trajectory_invariant(d) - 2.0 * self.momentum * elapsed
        lin, amp = self._relation_coefficients()
        w = 2.0 * self.momentum
        edge_a = (target - abs(amp)) / lin
        edge_b = (target + abs(amp)) / lin
        lo = np.minimum(edge_a, edge_b)   # lin < 0 when a < b
        hi = np.maximum(edge_a, edge_b)
        del edge_a, edge_b     # before the iterations (peak memory)
        x = target / lin
        # The separations still iterating: their indices, iterates, targets
        # and brackets.
        run, xr, tr, lr, hr = np.arange(len(x)), x, target, lo, hi
        for _ in range(100):
            f = lin * xr + amp * np.sin(w * xr) - tr
            go = np.abs(f) >= 1e-12     # False for NaN: it stops at once
            if not go.all():
                x[run[~go]] = xr[~go]
                run, xr, f, tr, lr, hr = (v[go] for v in (run, xr, f, tr, lr, hr))
                if not run.size:
                    break
            fp = lin + amp * w * np.cos(w * xr)
            xr = np.clip(xr - f / fp, lr, hr)
        x[run] = xr
        f = lin * x + amp * np.sin(w * x) - target
        for i in np.nonzero(np.abs(f) > 1e-10)[0]:
            # rare: fall back to bisection on the rigorous bracket
            x[i] = bracketed_root(lambda z: lin * z + amp * math.sin(w * z) - target[i],
                                  lo[i] - 1e-12, hi[i] + 1e-12)
        return x

    # -- ensemble support ----------------------------------------------------

    def sampling_box(self) -> list[tuple[float, float]]:
        """Per-coordinate bounds of the normalization box."""
        return [(0.0, self.box_length)] * 2

    def propose(self, rng: PhiloxStream, m: int):
        """``m`` draws uniform over the box, each of weight 1."""
        box = np.asarray(self.sampling_box(), dtype=float)
        return rng.uniform(box[:, 0], box[:, 1], size=(m, len(box))), 1.0

    def density_bound(self) -> float:
        """Exact upper bound of the density over the box (attained where the
        interference term is maximal); the envelope of the uniform proposal."""
        return 1.0 / self.norm

    def density_batch(self, points: np.ndarray) -> np.ndarray:
        """Density at an (n, 2) array of configurations."""
        return self.density_values(points[:, 0], points[:, 1])

    def separation_cdf(self, delta):
        """Exact CDF of the separation x1 - x2 under |psi|^2 on the box
        (vectorised): 0 below -L, 1 above L.

        The separation marginal is (L - |d|) (c0 + c1 cos kd) with k = 2p,
        c0 = a^2 + b^2 and c1 = 2ab; its integral from 0 to d >= 0 is
        G(d) = c0 (L d - d^2/2) + c1 ((L - d) sin(kd)/k + (1 - cos kd)/k^2),
        and the marginal is even, so F(d) = 1/2 + sign(d) G(|d|) / (2 G(L)).
        The last term is computed as 2 sin^2(kd/2)/k^2, since 1 - cos kd
        cancels to 0 once kd falls below about 1e-8.
        """
        a, b = self._amplitudes
        L, k = self.box_length, 2.0 * self.momentum
        c0, c1 = a * a + b * b, 2.0 * a * b

        def g(d):
            return c0 * (L * d - 0.5 * d * d) + c1 * ((L - d) * np.sin(k * d) / k
                                                      + 2.0 * (np.sin(0.5 * k * d) / k) ** 2)

        d = np.clip(np.asarray(delta, dtype=float), -L, L)
        return 0.5 + np.sign(d) * g(np.abs(d)) / (2.0 * g(L))
