"""Density transport along characteristics.

The density is never discretized on its own: it is read off the analytic
initial profile as rho(x, t) = rho0(Phi(0; x, t)), where Phi is the backward
characteristic map of the (solenoidal) advecting velocity.  Every sample is
a value of rho0, so it stays inside [inf rho0, sup rho0] with no tolerance at
all, vacuum included.

Two ways compute the feet Phi(0; x, t) on the M x M grid:

* `carried_densities` walks a trajectory forward through increasing times
  t_1 < t_2 < ... and carries the periodic displacement D_j = Phi(0; x, t_j)
  - x on the grid.  One RK4 backward step from t_j to t_{j-1} (sub-stepped to
  at most `dtau`) takes the grid points x to points y, and
  D_j = y + D_{j-1}(y) - x, with D_{j-1}(y) the trigonometric interpolant of
  D_{j-1}.  A whole trajectory costs one step per interval, linear in the
  number of times (semi-Lagrangian advection: Staniforth & Cote 1991;
  characteristic-Galerkin: Pironneau 1982).
* `backtrack` integrates dPhi/dtau = v(Phi, tau) from tau = t all the way
  down to tau = 0.  `density_at` uses it for a single time off the walked
  grid (snapshots, momentum probes), and it is the exact oracle for the
  carried map.

Both share one RK4 step, so the carried map differs from exact feet only by
the interpolation.  At the end of every carried walk a few grid nodes are
integrated back exactly through the walked times, with the walk's own RK4
steps; a carried foot further than DRIFT_LIMIT from its exact foot raises
TransportDriftError, because the grid then under-resolves the displacement.

A trajectory is anything with `field_at(t)`, the velocity at time t as a
function of points; each RK4 step takes the field of each of its three
times once.  A carried sweep hands its densities to the Picard assembly and
to the ledger walk as stacked blocks, and raises a drift error only after
the block of every earlier density has been handed on.

Constant sources skip the characteristics altogether.  Feet are reported
without modular reduction, which is harmless because every initial density
is 2pi-periodic.  The grid points come from `fields.grid_points`; the norms
of the transported density (W^{1,gamma}, ||grad rho||_gamma, ||d_t rho||_gamma)
are taken with the `fields` norm functions in the pipeline's ledger walk.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .basis import BasisSet
from .fields import grid_points

# Largest distance allowed between a carried foot and its exact backtrack.
# The carried map matches the exact feet to ~1e-14 on resolved flows.
DRIFT_LIMIT = 1e-10


class DivergenceError(RuntimeError):
    """The coefficient trajectory left the finite range (blow-up or NaN)."""

    def __init__(self, t: float, message: str | None = None):
        super().__init__(message or f"non-finite coefficients at t={t:g}")
        self.t = t


class TransportDriftError(DivergenceError):
    """The carried back-to-label map left the exact feet: the M x M grid
    under-resolves the displacement."""

    def __init__(self, t: float, drift: float):
        super().__init__(
            t,
            f"carried characteristic feet drift {drift:.3e} from the exact "
            f"backtrack at t={t:g} (limit {DRIFT_LIMIT:g}); the grid "
            "under-resolves the displacement",
        )
        self.drift = drift


@dataclass(frozen=True)
class DensitySource:
    """Initial density: an analytic 2pi-periodic value function.

    `lower` and `upper` are the exact range bounds over the torus.
    `constant` marks sources whose value does not depend on position, which
    lets density evaluation skip the characteristic solve entirely.
    """

    value: Callable[[np.ndarray], np.ndarray]
    lower: float
    upper: float
    constant: bool = False


def constant_density(c: float = 1.0) -> DensitySource:
    def value(points):
        return np.full(np.asarray(points).shape[:-1], float(c))

    return DensitySource(value, float(c), float(c), constant=True)


def bump_density() -> DensitySource:
    """Strictly positive analytic profile 2 + sin x sin y, range [1, 3]."""

    def value(points):
        p = np.asarray(points)
        return 2.0 + np.sin(p[..., 0]) * np.sin(p[..., 1])

    return DensitySource(value, 1.0, 3.0)


def vacuum_well_density() -> DensitySource:
    """Nonnegative profile vanishing on a neighborhood of (pi, pi).

    rho0 = c * max(0, q - 1/2)^2 with q = (1 - cos(x - pi))/2 +
    (1 - cos(y - pi))/2.  The square keeps the gradient continuous across the
    vacuum boundary; c = 2/3 normalizes the peak value (at the origin) to 1.5.
    """
    c = 2.0 / 3.0

    def _q(p):
        return 0.5 * (1.0 - np.cos(p[..., 0] - np.pi)) + 0.5 * (
            1.0 - np.cos(p[..., 1] - np.pi)
        )

    def value(points):
        p = np.asarray(points)
        return c * np.maximum(0.0, _q(p) - 0.5) ** 2

    return DensitySource(value, 0.0, 1.5)


DENSITY_CATALOG = {
    "constant": constant_density,
    "bump": bump_density,
    "vacuum-well": vacuum_well_density,
}


def shift_density(source: DensitySource, shift: float) -> DensitySource:
    """Additive constant shift."""
    base_value = source.value
    return replace(
        source,
        value=lambda points: base_value(points) + shift,
        lower=source.lower + shift,
        upper=source.upper + shift,
    )


def lift_floor(source: DensitySource, n: int) -> DensitySource:
    """Additive vacuum floor: rho0 + 1/n."""
    if n < 1:
        raise ValueError("floor parameter n must be a positive integer")
    return shift_density(source, 1.0 / n)


class VelocityHistory:
    """Time-sampled coefficient trajectory with cubic Hermite dense output.

    Stores the node times, coefficients, and coefficient time-derivatives
    produced by the integrator.  Between nodes both the coefficients and the
    induced velocity field are evaluated from the Hermite interpolant, which
    matches the integrator's own order of accuracy.
    """

    def __init__(self, basis: BasisSet, times, coeffs, derivs):
        self.basis = basis
        self.times = np.asarray(times, dtype=float)
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.derivs = np.asarray(derivs, dtype=float)
        if self.coeffs.shape != (len(self.times), basis.size):
            raise ValueError("coefficient array shape does not match times/basis")
        if self.derivs.shape != self.coeffs.shape:
            raise ValueError("derivative array shape does not match coefficients")
        if len(self.times) < 2 or np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing with >= 2 nodes")

    @classmethod
    def constant(cls, basis: BasisSet, coeffs: np.ndarray, T: float) -> "VelocityHistory":
        c = np.asarray(coeffs, dtype=float)
        return cls(basis, [0.0, float(T)], np.stack([c, c]), np.zeros((2, basis.size)))

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    def coeffs_at(self, t: float) -> np.ndarray:
        """Hermite dense output at t in [t0, T]; a t outside by more than
        rounding (1e-12 max(1, |T|)) raises ValueError."""
        ts = self.times
        slack = 1e-12 * max(1.0, abs(ts[-1]))
        if not ts[0] - slack <= t <= ts[-1] + slack:
            raise ValueError(
                f"t={t!r} is outside the history's time range [{ts[0]:g}, {ts[-1]:g}]"
            )
        if t <= ts[0]:
            return self.coeffs[0].copy()
        if t >= ts[-1]:
            return self.coeffs[-1].copy()
        k = int(np.searchsorted(ts, t, side="right") - 1)
        h = ts[k + 1] - ts[k]
        s = (t - ts[k]) / h
        h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
        h10 = s * (1.0 - s) ** 2
        h01 = s * s * (3.0 - 2.0 * s)
        h11 = s * s * (s - 1.0)
        return (
            h00 * self.coeffs[k]
            + h10 * h * self.derivs[k]
            + h01 * self.coeffs[k + 1]
            + h11 * h * self.derivs[k + 1]
        )

    def field_at(self, t: float) -> Callable[[np.ndarray], np.ndarray]:
        """The velocity at time t as a function of points (..., 2): the
        dense output is computed once for every evaluation at t."""
        coeffs = self.coeffs_at(t)
        return lambda points: self.basis.velocity_at(points, coeffs)


def _integrate_back(history, pts: np.ndarray, t_from: float, t_to: float, dtau: float):
    """RK4 for dPhi/dtau = v(Phi, tau) from tau = t_from down to t_to, in
    equal steps of at most `dtau`; `history` is anything with `field_at(t)`,
    like a VelocityHistory.  Each time's field is taken once: k2 and
    k3 share the midpoint field, and a step's k4 field is the next step's
    k1 field."""
    steps = max(1, int(np.ceil((t_from - t_to) / dtau - 1e-12)))
    h = (t_from - t_to) / steps
    tau = t_from
    start = history.field_at(tau)
    for _ in range(steps):
        mid = history.field_at(tau - 0.5 * h)
        end = history.field_at(tau - h)
        k1 = start(pts)
        k2 = mid(pts - 0.5 * h * k1)
        k3 = mid(pts - 0.5 * h * k2)
        k4 = end(pts - h * k3)
        pts = pts - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        tau -= h
        start = end
    return pts


def backtrack(history, points: np.ndarray, t: float, dtau: float) -> np.ndarray:
    """Feet of the backward characteristics through `points` at time `t`.

    Integrates dPhi/dtau = v(Phi, tau) from tau = t to tau = 0 with RK4 using
    at most `dtau` per step.  Results are raw coordinates (no mod 2pi).
    """
    pts = np.asarray(points, dtype=float).copy()
    if t == 0.0:
        return pts
    if t < 0.0 or dtau <= 0.0:
        raise ValueError("need t >= 0 and dtau > 0")
    return _integrate_back(history, pts, t, 0.0, dtau)


def density_at(
    source: DensitySource, history, M: int, t: float, dtau: float
) -> np.ndarray:
    """Density (M, M) on the grid at time t: rho0 evaluated at the feet."""
    pts = grid_points(M)
    if source.constant:
        return source.value(pts)
    return source.value(backtrack(history, pts, t, dtau))


def carried_densities(
    source: DensitySource, history, M: int, times: Sequence[float], dtau: float, size: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Densities on the M x M grid at each of the increasing `times`, with the
    back-to-label map carried from one time to the next, in consecutive
    blocks: yields (lo, rho) with rho (S, M, M) the densities at times
    lo .. lo + S - 1, S at most `size`, each block filled in place.

    Each density costs one RK4 step back to the previous time (0 before the
    first), sub-stepped to at most `dtau`, plus one trigonometric
    interpolation, instead of a backtrack all the way to 0.  At the last
    time the carried feet at a few grid nodes are compared with their exact
    feet, integrated back through the same times; a difference above
    DRIFT_LIMIT raises TransportDriftError, after the block of every earlier
    density has been yielded, so that a caller's failure at an earlier time
    surfaces first.  Constant sources take `density_at` at each time.
    """
    if dtau <= 0.0 and not source.constant:
        raise ValueError("need dtau > 0")
    x = grid_points(M)
    disp = np.zeros_like(x)
    walked = [0.0]
    last = len(times) - 1
    for lo in range(0, len(times), size):
        block = np.empty((min(size, len(times) - lo), M, M))
        for s, t in enumerate(times[lo : lo + size]):
            if source.constant:
                block[s] = density_at(source, history, M, t, dtau)
                continue
            if t < walked[-1]:
                raise ValueError("need increasing times from t >= 0")
            if t > walked[-1]:
                y = _integrate_back(history, x, t, walked[-1], dtau)
                disp = y + trig_interpolate(disp, y) - x
                walked.append(t)
            feet = x + disp
            if lo + s == last:
                try:
                    _check_drift(history, feet, walked, dtau)
                except TransportDriftError:
                    if s:
                        yield lo, block[:s]
                    raise
            block[s] = source.value(feet)
        yield lo, block


def _check_drift(history, feet: np.ndarray, walked: list, dtau: float) -> None:
    """Compare carried feet at the last walked time with exact feet at eight
    grid nodes, one per eighth of the rows, on distinct columns.

    The exact feet are integrated back through the walked times in reverse,
    with the same RK4 steps as the walk, so the difference is the
    interpolation drift alone and not the gap between two time partitions.
    """
    M = feet.shape[0]
    rows = np.arange(8) * M // 8
    cols = (3 * rows) % M
    exact = grid_points(M)[rows, cols]
    for hi, lo in zip(walked[:0:-1], walked[-2::-1]):
        exact = _integrate_back(history, exact, hi, lo, dtau)
    drift = float(np.abs(feet[rows, cols] - exact).max())
    if not drift <= DRIFT_LIMIT:
        raise TransportDriftError(float(walked[-1]), drift)


# Points per block in trig_interpolate: keeps its complex tables at
# O(M * _BLOCK) memory instead of O(M^3), and in cache.
_BLOCK = 256


def _fourier_powers(z: np.ndarray, count: int) -> np.ndarray:
    """Rows z**0 .. z**(count-1) of the unit complex numbers z, by the
    doubling recurrence z**(n + k) = z**n * z**k."""
    table = np.empty((count, z.size), dtype=complex)
    table[0] = 1.0
    filled = 1
    while filled < count:
        step = min(filled, count - filled)
        np.multiply(table[:step], table[filled - 1] * z, out=table[filled : filled + step])
        filled += step
    return table


def trig_interpolate(values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Trigonometric interpolant of periodic grid samples at arbitrary points.

    `values` holds (M, M, C) real samples on the grid nodes (2pi a/M, 2pi b/M);
    `points` has shape (..., 2).  Returns (..., C).  For even M the Nyquist
    row and column are dropped, so the interpolant is real and reproduces
    every wavenumber |k| < M/2 in each direction exactly.
    """
    M, C = values.shape[0], values.shape[2]
    half = M // 2 + 1
    pts = np.asarray(points, dtype=float)
    flat = pts.reshape(-1, 2)
    coef = np.fft.rfft2(np.moveaxis(values, -1, 0)) / (M * M)  # [c, kx, ky >= 0]
    if M % 2 == 0:
        coef[:, M // 2] = 0.0
        coef[:, :, M // 2] = 0.0
    # A term ky > 0 also stands for its conjugate partner -ky: keep twice the
    # real part.  Shifting kx up by M//2 makes every x power nonnegative; the
    # factor exp(-i (M//2) x) undoes the shift.
    coef[:, :, 1:] *= 2.0
    coef = np.fft.fftshift(coef, axes=1).transpose(0, 2, 1).reshape(C * half, M)
    out = np.empty((flat.shape[0], C))
    for lo in range(0, flat.shape[0], _BLOCK):
        block = flat[lo : lo + _BLOCK]
        ex = _fourier_powers(np.exp(1j * block[:, 0]), M)
        ey = _fourier_powers(np.exp(1j * block[:, 1]), half)
        partial = (coef @ ex).reshape(C, half, -1)
        sums = np.einsum("ckp,kp->cp", partial, ey) * ex[M // 2].conj()
        out[lo : lo + _BLOCK] = sums.real.T
    return out.reshape(pts.shape[:-1] + (C,))


@dataclass
class TransportGrowthReport:
    passed: bool
    worst_margin: float
    worst_time: float


def transport_growth_check(times, w1gamma, gradv_inf, eps: float) -> TransportGrowthReport:
    """Check ||rho(t)||_{W^{1,gamma}} <= exp(int_0^t ||grad v||_inf) ||rho0||.

    The exponent integral is trapezoid on the sample grid; `eps` is the
    multiplicative tolerance absorbing finite-difference gradient error.
    Margin is bound/actual, so exact equality (zero velocity) reports 1.
    """
    times = np.asarray(times, dtype=float)
    w1 = np.asarray(w1gamma, dtype=float)
    gv = np.asarray(gradv_inf, dtype=float)
    exponents = np.concatenate(
        [[0.0], np.cumsum(0.5 * np.diff(times) * (gv[1:] + gv[:-1]))]
    )
    bounds = w1[0] * np.exp(exponents)
    with np.errstate(divide="ignore", invalid="ignore"):
        margins = np.where(w1 > 0, bounds / np.where(w1 > 0, w1, 1.0), np.inf)
    worst = int(np.argmin(margins))
    passed = bool(np.all(w1 <= bounds * (1.0 + eps)))
    return TransportGrowthReport(
        passed=passed,
        worst_margin=float(margins[worst]),
        worst_time=float(times[worst]),
    )
