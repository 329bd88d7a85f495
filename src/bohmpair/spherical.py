"""Two particles guided by a superposition of spherical waves emitted from a
pair of point sources on the y axis.

Source A sits at (0, +d, 0) and source B at (0, -d, 0); the wavefunction
superposes "particle 1 from A, particle 2 from B" with the exchanged
assignment, each term e^{ik(r + r')} / (r r'), restricted to the x >= 0
half-space.  It is an energy eigenstate, psi = phi(x) e^{-iEt} with E = k^2,
so the model returns phi and its phase S(x) and takes no time.  The state is
symmetric under particle interchange and under reflecting both y
coordinates, which shows up as exact symmetries of the guidance field.
Configurations where the cross-pair distances match (r1A = r2B and
r1B = r2A) decouple the two velocity equations, and the flow preserves that
manifold.

Units are natural, hbar = m = 1: the paper's formulas are these with
t -> hbar t / m, and its velocities are hbar / m times these.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import ConfigurationError
from .prng import PhiloxStream

# Configurations closer than this to a source lie outside the support.
SLIT_EXCLUSION = 1e-6
# Scale-aware node measure (SlitPair.node_measure_of) below which the phase
# and the field are undefined.
NODE_THRESHOLD = 1e-12
# Gauss-Legendre nodes per panel of the norm's first face rule.  Each
# refinement doubles them until two successive norms agree to NORM_RTOL
# relative, or the order reaches NORM_MAX_ORDER.
NORM_ORDER = 8
NORM_MAX_ORDER = 256
NORM_RTOL = 1e-12
# Largest source distance R whose R^8, a bound on the squared distance
# product (r1A r2B r1B r2A)^2 in the density, is a finite float.
MAX_SOURCE_DISTANCE = sys.float_info.max ** 0.125


def _source_distances(r: np.ndarray, d: float):
    """Distances from positions r of shape (..., 3) to the sources (0, d, 0)
    and (0, -d, 0).

    Works per coordinate column: numpy runs its inner loop over the last
    axis, so the row form sqrt(sum((r - source)^2, axis=-1)) loops three
    elements at a time and took about ten times as long.  The columns give
    the same bits, summed in the same order, (x^2 + (y -+ d)^2) + z^2 (y + d
    is y - (-d) exactly).  Each distance's squares are summed in place in its
    own array, so no offset outlives its square: arrays held across a large
    call, such as a sampler round, raise its peak RSS (see propose).  A
    single position gives scalars.
    """
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    xx, zz = x * x, z * z
    distances = []
    for offset in (np.asarray(y - d), np.asarray(y + d)):
        offset *= offset
        offset += xx
        offset += zz
        distances.append(np.sqrt(offset, out=offset)[()])
    return distances


def nearest_source(r1a, r1b, r2a, r2b):
    """Distance from each configuration to the nearest source, over both
    particles (elementwise over the four source distances)."""
    return np.minimum(np.minimum(r1a, r1b), np.minimum(r2a, r2b))


@cache
def _gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on P_n, evaluated by the three-term recurrence, from the
    estimates cos(pi (i + 3/4) / (n + 1/2)); the nodes and weights are then
    made exactly symmetric.  This keeps numpy.linalg, whose eigenvalue
    route (np.polynomial.legendre.leggauss) loads LAPACK workspace into the
    process, out of the package.
    """
    def legendre(x):
        """P_n(x) and P_n'(x)."""
        p_prev, p = np.ones(n), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        return p, n * (x * p - p_prev) / (x * x - 1.0)

    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(100):
        p, dp = legendre(x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    dp = legendre(x)[1]
    weights = 2.0 / ((1.0 - x * x) * dp * dp)
    rule = 0.5 * (x - x[::-1]), 0.5 * (weights + weights[::-1])
    for a in rule:   # cached, so shared by every caller
        a.flags.writeable = False
    return rule


def _panel_breaks(lo: float, hi: float, feet) -> np.ndarray:
    """Panel ends on [lo, hi], graded toward each foot (c, h): a source's
    nearest point c on [lo, hi] and its distance h from the face.

    The face fields near a foot vary on the scale of its distance from the
    source, so panels end at c and at c +- h 4^j inside the interval: each
    panel is at most h wide, or three times its distance from the foot.
    h is floored at 1e-13 of the interval: a source nearer the face than
    that sends a flux below 3e-13 L through the disc of that radius about
    its foot, about 1e-12 of J (a source that near a face has J > L / 4).
    """
    breaks = {lo, hi}
    for c, h in feet:
        breaks.add(c)
        step = max(h, 1e-13 * (hi - lo))
        while step < hi - lo:
            breaks.update(p for p in (c - step, c + step) if lo < p < hi)
            step *= 4.0
    return np.array(sorted(breaks))


def _panel_rule(breaks: np.ndarray, order: int):
    """Nodes and weights of the ``order``-point Gauss-Legendre rule on each
    panel between successive ``breaks``, panel by panel."""
    x, w = _gauss_legendre(order)
    lo, hi = breaks[:-1, None], breaks[1:, None]
    half = 0.5 * (hi - lo)
    return (0.5 * (lo + hi) + half * x).ravel(), (half * w).ravel()


@dataclass(frozen=True)
class SlitPair:
    """Model parameters for the two-source spherical-wave pair.

    ``slit_offset`` is the source half-separation d.  The phase and the
    field are NaN off the support (:meth:`_supported`) and at nodes (node
    measure below ``NODE_THRESHOLD``), the wavefunction off the support.
    The normalization over the finite box is computed the first time it
    is needed, from five face integrals of one particle's box (see
    ``_norm_estimate``), with a quadrature error bound.  A box reaching
    farther than ``MAX_SOURCE_DISTANCE`` from a source is a
    :class:`ConfigurationError`: its density overflows.
    """

    wavenumber: float
    slit_offset: float
    box_length: float | None = None

    dimension = 6
    tag = "spherical"
    proposal = "source_mixture"

    def __post_init__(self) -> None:
        for name in ("wavenumber", "slit_offset"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.box_length is None:
            object.__setattr__(self, "box_length", 40.0 / self.wavenumber)
        elif self.box_length <= 0:
            raise ValueError("box_length must be positive")
        # R >= L; testing L first keeps the squares inside R in float range.
        if not (self.box_length <= MAX_SOURCE_DISTANCE
                and self._proposal_radius <= MAX_SOURCE_DISTANCE):
            raise ConfigurationError(
                f"box_length: {self.box_length:.3g} puts a box corner farther than "
                f"{MAX_SOURCE_DISTANCE:.3g} from a source, where the density's squared "
                "distance product overflows")

    # -- geometry ------------------------------------------------------------

    def distances_of(self, r1: np.ndarray, r2: np.ndarray):
        """Source distances (r1A, r1B, r2A, r2B) for position arrays of shape
        (..., 3); vectorised."""
        d = self.slit_offset
        r1a, r1b = _source_distances(np.asarray(r1, dtype=float), d)
        r2a, r2b = _source_distances(np.asarray(r2, dtype=float), d)
        return r1a, r1b, r2a, r2b

    def _supported(self, r1, r2, distances):
        """Where configurations lie in the model's support: the x >= 0
        half-space, at least ``SLIT_EXCLUSION`` from both sources."""
        return ((np.asarray(r1)[..., 0] >= -1e-12) & (np.asarray(r2)[..., 0] >= -1e-12)
                & (nearest_source(*distances) >= SLIT_EXCLUSION))

    def _defined(self, r1, r2, distances, terms):
        """Where the phase and the field are defined: in the support and off
        the nodes (node measure at least ``NODE_THRESHOLD``), given the
        :meth:`_phase_terms` of the ``distances``."""
        return self._supported(r1, r2, distances) & (self._node_measure(terms) >= NODE_THRESHOLD)

    # -- wavefunction and phase ----------------------------------------------

    def _bracket(self, r1a, r1b, r2a, r2b):
        """Spatial part of the wavefunction before normalization."""
        k = self.wavenumber
        return (np.exp(1j * k * (r1a + r2b)) / (r1a * r2b)
                + np.exp(1j * k * (r1b + r2a)) / (r1b * r2a))

    def psi_values(self, r1, r2):
        """Spatial wavefunction phi on arrays of positions of shape (..., 3),
        NaN outside the support (:meth:`_supported`; zero at a node)."""
        distances = self.distances_of(r1, r2)
        with np.errstate(divide="ignore", invalid="ignore"):    # at a source
            psi = self._bracket(*distances) / math.sqrt(self.norm)
        return np.where(self._supported(r1, r2, distances), psi, np.nan)[()]

    def node_measure_of(self, r1a, r1b, r2a, r2b):
        """Scale-aware modulus |bracket| (r1A r2B + r1B r2A) / 2 as a function
        of the four source distances (vectorised); the raw modulus decays with
        distance, so nodes are flagged relative to the local single-term
        scale."""
        return self._node_measure(self._phase_terms(r1a, r1b, r2a, r2b))

    @staticmethod
    def _node_measure(terms):
        """:meth:`node_measure_of` from :meth:`_phase_terms`: q rr bracket is
        D + i N, so |bracket| (q + rr) / 2 is hypot(N, D) (q + rr) / (2 q rr)."""
        q, rr, *_, nval, dval = terms
        return np.hypot(nval, dval) * (q + rr) / (2.0 * q * rr)

    def _phase_terms(self, r1a, r1b, r2a, r2b):
        """Distance products q = r1A r2B and rr = r1B r2A; sin and cos of
        k alpha and k beta, with phase arguments alpha = r1A + r2B and
        beta = r1B + r2A; and the phase numerator N and denominator D built
        from them.  The field evaluates no other sine or cosine."""
        k = self.wavenumber
        q = r1a * r2b
        rr = r1b * r2a
        k_alpha = k * (r1a + r2b)
        k_beta = k * (r1b + r2a)
        sin_a, cos_a = np.sin(k_alpha), np.cos(k_alpha)
        sin_b, cos_b = np.sin(k_beta), np.cos(k_beta)
        nval = rr * sin_a + q * sin_b
        dval = rr * cos_a + q * cos_b
        return q, rr, sin_a, cos_a, sin_b, cos_b, nval, dval

    def phase_values(self, r1, r2):
        """Phase of phi on arrays of positions of shape (..., 3): atan2(N, D)
        (see :meth:`_phase_terms`), so it is defined wherever the
        wavefunction is nonzero, including where D alone vanishes.  Values
        are principal per call, to be unwrapped by continuity along sampled
        paths.  NaN where :meth:`batch_rhs` is NaN: outside the support and
        at a node (node measure below ``NODE_THRESHOLD``)."""
        distances = self.distances_of(r1, r2)
        with np.errstate(divide="ignore", invalid="ignore"):    # at a source
            terms = self._phase_terms(*distances)
            defined = self._defined(r1, r2, distances, terms)
        *_, nval, dval = terms
        return np.where(defined, np.arctan2(nval, dval), np.nan)[()]

    # -- phase derivatives and velocities --------------------------------------

    @staticmethod
    def _partial(k, nval, dval, cross, partner, sin_own, cos_own, sin_other, cos_other):
        """d(phase)/d(distance) for one of the four source distances.

        ``cross`` is the product of the two distances in the *other* term,
        ``partner`` the distance sharing this term, and ``sin_own``,
        ``cos_own``, ``sin_other``, ``cos_other`` the sines and cosines of k
        times the phase arguments of the two terms, from
        :meth:`_phase_terms`.  Written once so that the exchange and
        reflection symmetries of the model are exact in floating point
        (every partial is this function under an argument permutation).
        """
        pn = k * cross * cos_own + partner * sin_other
        pd = -k * cross * sin_own + partner * cos_other
        return (pn * dval - nval * pd) / (nval * nval + dval * dval)

    def _distance_derivatives(self, r1a, r1b, r2a, r2b, terms):
        """The four phase partials, given the :meth:`_phase_terms` of these
        distances."""
        k = self.wavenumber
        q, rr, sin_a, cos_a, sin_b, cos_b, nval, dval = terms
        g1a = self._partial(k, nval, dval, rr, r2b, sin_a, cos_a, sin_b, cos_b)
        g1b = self._partial(k, nval, dval, q, r2a, sin_b, cos_b, sin_a, cos_a)
        g2a = self._partial(k, nval, dval, q, r1b, sin_b, cos_b, sin_a, cos_a)
        g2b = self._partial(k, nval, dval, rr, r1a, sin_a, cos_a, sin_b, cos_b)
        return g1a, g1b, g2a, g2b

    def batch_rhs(self, t, y):
        """Field on configuration rows: y is (m, 6), or (m * 6,) flattened
        C-order, and the result has its shape, with NaN rows outside the
        support and at nodes (node measure below ``NODE_THRESHOLD``)."""
        y = np.asarray(y, dtype=float)
        pts = y.reshape(-1, 6)
        r1, r2 = pts[:, :3], pts[:, 3:]
        distances = r1a, r1b, r2a, r2b = self.distances_of(r1, r2)
        # Rows outside the domain (NaN rows included) may divide by zero;
        # they are masked below.
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = self._phase_terms(*distances)
            defined = self._defined(r1, r2, distances, terms)
            g1a, g1b, g2a, g2b = self._distance_derivatives(*distances, terms)
            # v = gA ((r - A) / rA) + gB ((r - B) / rB), one coordinate
            # column at a time (see _source_distances).  The sources differ
            # only in y; x - 0 and z - 0 are x and z exactly.
            d = self.slit_offset
            out = np.empty_like(pts)
            for j, ga, gb, da, db in ((0, g1a, g1b, r1a, r1b), (3, g2a, g2b, r2a, r2b)):
                px, py, pz = pts[:, j], pts[:, j + 1], pts[:, j + 2]
                for c, off_a, off_b in ((0, px, px), (1, py - d, py + d), (2, pz, pz)):
                    va = off_a / da
                    va *= ga
                    vb = off_b / db
                    vb *= gb
                    np.add(va, vb, out=out[:, j + c])
        out[~defined] = np.nan
        return out.reshape(y.shape)

    rhs = batch_rhs     # a name the benchmark's tracer wraps (bench/tracer.py METHODS)

    # -- decoupling constraint -------------------------------------------------

    def max_constraint_deviations(self, states) -> tuple[float, float]:
        """Worst-case deviations (mirror, axial) from the two readings of the
        decoupling constraint over configuration rows of shape (..., 6), such
        as the samples of a trajectory.

        mirror: max(|r1A - r2B|, |r1B - r2A|), the mirrored pairing under
        which the velocity equations separate.  axial: max(|r1A - r2B|,
        |r2A - r2B|), the alternative pairing that additionally forces
        particle 2 onto the y = 0 plane.
        """
        pts = np.asarray(states, dtype=float).reshape(-1, 2, 3)
        r1a, r1b, r2a, r2b = self.distances_of(pts[:, 0], pts[:, 1])
        mirror = np.maximum(np.abs(r1a - r2b), np.abs(r1b - r2a))
        axial = np.maximum(np.abs(r1a - r2b), np.abs(r2a - r2b))
        return float(np.max(mirror)), float(np.max(axial))

    # -- normalization and ensemble support -------------------------------------

    @cached_property
    def _norm_estimate(self) -> tuple[float, float]:
        """The box integral N of the unnormalized density and a bound on its
        quadrature error; returns (value, error).

        Expanding |bracket|^2 factorises N into one-particle box integrals:
        N = 2 (J^2 + I^2), with J = int 1/rA^2 d^3r (= int 1/rB^2 d^3r by
        the box's y -> -y symmetry) and I + iS = int e^{ik(rA - rB)} /
        (rA rB) d^3r, where the same symmetry makes S vanish.  J and I are
        the outward fluxes through the box of the fields of
        :meth:`_norm_fields`, which do not cross the x = 0 face and carry no
        flux out of the sources, so :meth:`_box_flux` sums them over the
        other five faces.  The Gauss-Legendre order per panel starts at
        ``NORM_ORDER`` and doubles until two successive values of N agree to
        ``NORM_RTOL`` relative (or the order reaches ``NORM_MAX_ORDER``);
        the last value is returned with the last difference as its error.

        The support leaves out the configurations with a particle within
        eps = ``SLIT_EXCLUSION`` of a source, which this N includes.  Each of
        the four (particle, source) pairs cuts a half ball out of that
        particle's box, which holds 2 pi eps J + O(eps^2) of N (the half
        ball's integral of 1/r^2 times the other particle's J), so N
        overstates the support's integral by about 8 pi eps J, at most
        4 pi eps / J relative: 7e-8 at (k, d) = (1, 0.5), where J = 183.
        Sources outside the box cut nothing out.
        """
        previous = None
        order = NORM_ORDER
        while True:
            j, i = self._box_flux(self._norm_fields, order)
            value = 2.0 * (j * j + i * i)
            if previous is not None:
                error = abs(value - previous)
                if error <= NORM_RTOL * value or order >= NORM_MAX_ORDER:
                    return float(value), float(error)
            previous = value
            order *= 2

    def _norm_fields(self, ra, rb, ha, hb):
        """Components along a unit vector n of F_J = (r - A) / rA^2 and
        F_I = cos(k (rA - rB)) (r_A/rA + r_B/rB) / (rA + rB + 2d), with
        r_A = r - A and r_B = r - B, from the source distances and the
        components ha, hb of r_A and r_B along n.

        div F_J = 1/rA^2.  With sigma = (rA + rB) / 2d and tau = (rA - rB)
        / 2d, F_I = cos(2kd tau) grad(sigma) / (sigma + 1), and prolate
        spheroidal coordinates about the sources give div F_I =
        cos(k (rA - rB)) / (rA rB).  Both have no normal component on
        x = 0 (ha = hb = 0 there), and their sizes, 1/rA and at most 1/2d,
        let no flux out of a vanishing ball about a source.
        """
        k, d = self.wavenumber, self.slit_offset
        return ha / (ra * ra), np.cos(k * (ra - rb)) * (ha / ra + hb / rb) / (ra + rb + 2.0 * d)

    def _box_flux(self, fields, order: int) -> np.ndarray:
        """Outward fluxes through the faces x = L, y = +-L/2 and z = +-L/2
        of the box of one particle, for fields whose normal components
        ``fields(ra, rb, ha, hb)`` gives (see :meth:`_norm_fields`; ha and
        hb are a face's signed heights above A and B along its outward
        normal).

        Each face is a tensor product of ``order``-point Gauss-Legendre
        panels along its two axes, graded toward each source's nearest
        point on the face (:func:`_panel_breaks`), and is evaluated one row
        of panels at a time.
        """
        L, d = self.box_length, self.slit_offset
        box = self.sampling_box()[:3]
        sources = ((0.0, d, 0.0), (0.0, -d, 0.0))
        total = 0.0
        for axis, plane in ((0, L), (1, 0.5 * L), (1, -0.5 * L), (2, 0.5 * L), (2, -0.5 * L)):
            sign = math.copysign(1.0, plane)
            across = [j for j in range(3) if j != axis]
            feet = []
            for s in sources:
                foot = [min(max(s[j], box[j][0]), box[j][1]) for j in across]
                height = math.hypot(plane - s[axis], *(s[j] - f for j, f in zip(across, foot)))
                feet.append((foot, height))
            (u, wu), (v, wv) = (
                _panel_rule(_panel_breaks(*box[j], [(f[t], h) for f, h in feet]), order)
                for t, j in enumerate(across))
            ha, hb = (sign * (plane - s[axis]) for s in sources)
            r = np.empty((order, len(v), 3))
            r[..., axis] = plane
            r[..., across[1]] = v
            for start in range(0, len(u), order):
                r[..., across[0]] = u[start:start + order, None]
                ra, rb = _source_distances(r, d)
                weight = wu[start:start + order, None] * wv
                total += np.array([np.sum(f * weight) for f in fields(ra, rb, ha, hb)])
        return total

    @property
    def norm(self) -> float:
        return self._norm_estimate[0]

    def computed_norm(self) -> dict | None:
        """The norm and the bound on its quadrature error if this instance
        has computed the norm already, else None (never forces it)."""
        if "_norm_estimate" not in vars(self):
            return None
        value, error = self._norm_estimate
        return {"value": value, "error_bound": error}

    def sampling_box(self) -> list[tuple[float, float]]:
        """Per-coordinate bounds: x in [0, L], y and z in [-L/2, L/2] for
        each particle."""
        L = self.box_length
        per_particle = [(0.0, L), (-L / 2.0, L / 2.0), (-L / 2.0, L / 2.0)]
        return per_particle * 2

    def density_batch(self, points: np.ndarray) -> np.ndarray:
        """Unnormalized density |bracket|^2 = (N^2 + D^2) / (q rr)^2 (see
        :meth:`_phase_terms`) at an (n, 6) array of configurations; points
        outside the support (:meth:`_supported`) score zero.  Used by the
        rejection sampler, where the normalization constant cancels."""
        pts = np.asarray(points, dtype=float)
        r1, r2 = pts[:, :3], pts[:, 3:]
        distances = self.distances_of(r1, r2)
        ok = self._supported(r1, r2, distances)
        # A point at a source divides by zero; it is zeroed below.
        with np.errstate(divide="ignore", invalid="ignore"):
            q, rr, *_, nval, dval = self._phase_terms(*distances)
            # Free the eight arrays no longer read before the density's
            # temporaries are made: on a large call, such as a sampler
            # round, held arrays raise its peak RSS (see _source_distances
            # and propose).
            del distances, _
            density = (nval * nval + dval * dval) / (q * rr) ** 2
        return np.where(ok, density, 0.0)

    @cached_property
    def _proposal_radius(self) -> float:
        """R: the largest distance from a source to a corner of the box
        (the same for both sources, by the y -> -y symmetry)."""
        L = self.box_length
        return math.sqrt(L * L + (0.5 * L + self.slit_offset) ** 2 + 0.25 * L * L)

    def propose(self, rng: PhiloxStream, m: int):
        """``m`` draws from the source mixture g ~ u^2 + v^2, with
        u = 1/(r1A r2B) and v = 1/(r1B r2A).

        A draw picks one pairing with probability 1/2 (particle 1 about A and
        particle 2 about B, or the exchange) and places each particle about
        its source with density 1/(2 pi R r^2): a uniform direction in the
        x >= 0 hemisphere and a radius uniform on [0, R], where R reaches
        every corner of the box.  Returns the draws inside the box, shape
        (k, 6), and their weights u^2 + v^2; draws outside the box are
        dropped (they count as rejections).
        """
        draws = rng.uniform(size=(m, 7))
        pts = np.empty((m, 6))
        for j in (0, 3):   # x cosine, azimuth and radius of each particle
            c, phi, r = draws[:, 1 + j:4 + j].T
            s = np.sqrt(1.0 - c * c)
            r = self._proposal_radius * r
            phi = 2.0 * math.pi * phi
            pts[:, j] = r * c
            pts[:, j + 1] = r * s * np.cos(phi)
            pts[:, j + 2] = r * s * np.sin(phi)
        # Particle 1 about A = (0, d, 0) and 2 about B, or the exchange.
        d = np.where(draws[:, 0] < 0.5, self.slit_offset, -self.slit_offset)
        pts[:, 1] += d
        pts[:, 4] -= d
        in_box = np.ones(m, dtype=bool)
        # Per coordinate column, as in _source_distances.  No view of the
        # unfiltered draws may outlive this loop: it would hold all the
        # draws (2.3 MiB for 50,000) through proposal_weight and raise the
        # peak RSS.
        for j, (lo, hi) in enumerate(self.sampling_box()):
            in_box &= pts[:, j] >= lo
            in_box &= pts[:, j] <= hi
        pts = pts[in_box]
        return pts, self.proposal_weight(pts)

    def proposal_weight(self, points: np.ndarray) -> np.ndarray:
        """u^2 + v^2 at an (n, 6) array of configurations: the density of
        :meth:`propose` on the box, up to the factor 1 / (2 (2 pi R)^2)."""
        pts = np.asarray(points, dtype=float)
        r1a, r1b, r2a, r2b = self.distances_of(pts[:, :3], pts[:, 3:])
        return 1.0 / (r1a * r2b) ** 2 + 1.0 / (r1b * r2a) ** 2

    def density_bound(self) -> float:
        """Envelope of :meth:`density_batch` relative to the proposal
        weight: |u e^{ik alpha} + v e^{ik beta}|^2 <= (u + v)^2
        <= 2 (u^2 + v^2), so the density never exceeds 2 x weight."""
        return 2.0
