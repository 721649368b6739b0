"""Density transport along characteristics.

The density is never discretized on its own: it is read off the analytic
initial profile as rho(x, t) = rho0(Phi(0; x, t)), where Phi is the backward
characteristic map of the (solenoidal) advecting velocity.  Every sample is
a value of rho0, so it stays inside [inf rho0, sup rho0] with no tolerance at
all, vacuum included.

Two ways compute the feet Phi(0; x, t) on the M x M grid:

* `carried_densities` carries the periodic displacement D = X - x of the
  back-to-label map X = Phi(0; x, t), which solves d_t X + (v . grad) X = 0
  (Constantin 2001, J. AMS 14), so d_t D = -(v . grad) D - v, forward
  through increasing node times t_1 < t_2 < ...  Each interval of the
  nodes is one label step, a single RK4 step in time on the grid nodes: v
  is sampled there and grad D is pseudo-spectral,
  `fields.spectral_gradient`, one real matrix product per axis with the
  1-D table of i k, each axis dropping only its own Nyquist mode (Canuto,
  Hussaini, Quarteroni & Zang, Spectral Methods, 2006).  That is O(M^3) per
  step, cheaper than an FFT pair up to M ~ 512, nothing off the grid, and
  linear in the times.  `_label_nodes`, the one label-step loop, streams
  (t, D, D') node by node: a pass takes one label step per time step, the
  ledger walk one per node interval.  A density wanted between two nodes
  (a Picard pass's stage midpoints) reads `_hermite`, the cubic Hermite
  interpolant of D through them with its rates, 4th order like the steps
  (RK4's dense output; Hairer, Norsett & Wanner, Solving ODEs I, II.6),
  the same interpolant as a VelocityHistory's dense output.  Decreasing
  nodes or times, a negative time or a time past the last node are
  refused before any block.
* `backtrack` integrates the characteristic ODE d_tau Phi = v(Phi, tau) at
  arbitrary points from tau = t down to tau = 0, in equal RK4 steps no
  longer than the step it is given: the only path with a step size of its
  own.  `density_at` uses it for a single time off the walk (snapshots,
  momentum probes between nodes, in steps of at most dt); it is also the
  exact oracle for the carried map.

The two are independent discretizations of one map, Eulerian on the grid
and Lagrangian per point.  At the last time of every sweep, or as soon as
the feet stop being finite, eight grid nodes are integrated back exactly
through the walked nodes, one RK4 step per node interval as the label
steps took them; a carried foot further than DRIFT_LIMIT from its exact
foot raises TransportDriftError: the grid under-resolves the displacement,
the label steps are too coarse for the flow, or an unstable time step has
blown the velocity up.

A trajectory is anything with `rows_at(times)`, its velocity rows at an
array of times, `velocity_at(points, row)` and `grid_velocity(rows, M)`,
the velocity of a row at points (..., 2) and of rows on the grid as
component planes (..., 2, M, M), [v_x, v_y], like a VelocityHistory.  A
VelocityHistory's row is its dense output weighed once into the factors
c_n MODE_NORM d_n (N, 2) of `BasisSet.weigh`, so that each evaluation is
one cosine table times the row, with no per-call weighing.  Every RK4
step, here and in the solver, is `rk4_step`; a step's end field starts the
next.  A backtrack and the drift guard carry their points with one
integrator, `_characteristics`, its rows from one `rows_at` call; the label
steps take one call per chunk of nodes, synthesizing each grid field as
its step comes, so a pass synthesizes the field of each of its stage times
once.  A sweep hands its densities on in stacked blocks; its drift error
follows the block of every earlier density.

A source whose exact bounds meet is constant and skips the characteristics
altogether; no other source does.  Feet are reported
without modular reduction, which is harmless because every initial density
is 2pi-periodic.  The grid points come from `fields.grid_points`; the norms
of the transported density (W^{1,gamma}, ||grad rho||_gamma, ||d_t rho||_gamma)
are taken in the pipeline's ledger walk, from one `fields.fd_gradient` per
block of nodes.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .basis import BasisSet
from .fields import grid_points, spectral_gradient

# Largest distance allowed between a carried foot and its exact backtrack.
# On resolved flows the label steps match the exact feet to ~1e-14; under a
# strong flow (u0 amplitudes 1.5, 1.0, 0.7, label steps of 0.01) to 3.8e-13.
# The guard compares the feet at a sweep's last time, a node in every pass
# and walk, and never the Hermite midpoint densities a Picard pass
# assembles from: on a 32-mode flow (N = 32, M = 48, dt = 0.01) those sit
# 7.5e-11 from a backtrack in steps of dt/16, against 1.4e-13 at the
# nodes, so a faster flow could pass midpoints further off than the limit
# with no error.
DRIFT_LIMIT = 1e-10


class DivergenceError(RuntimeError):
    """The coefficient trajectory left the finite range (blow-up or NaN)."""

    def __init__(self, t: float, message: str | None = None):
        super().__init__(message or f"non-finite coefficients at t={t:g}")
        self.t = t


class TransportDriftError(DivergenceError):
    """The carried back-to-label map left the exact feet: the grid
    under-resolves the displacement, or the velocity blew up, which a huge
    or non-finite `speed`, the largest |v| on the grid at the walked times,
    tells apart."""

    def __init__(self, t: float, drift: float, speed: float):
        super().__init__(
            t,
            f"carried characteristic feet drift {drift:.3e} from the exact "
            f"backtrack at t={t:g} (limit {DRIFT_LIMIT:g}); largest |v| on "
            f"the grid {speed:.3e}: either the grid under-resolves the "
            "displacement (raise M), or an unstable time step blew up the "
            "velocity (lower dt)",
        )
        self.drift = drift
        self.speed = speed


@dataclass(frozen=True)
class DensitySource:
    """Initial density: an analytic 2pi-periodic value function.

    `lower` and `upper` are the exact range bounds over the torus, so the
    source is `constant`, its value independent of position, exactly when
    they meet: density evaluation then skips the characteristic solve.
    """

    value: Callable[[np.ndarray], np.ndarray]
    lower: float
    upper: float

    @property
    def constant(self) -> bool:
        return self.lower == self.upper


def constant_density(c: float = 1.0) -> DensitySource:
    def value(points):
        return np.full(np.asarray(points).shape[:-1], float(c))

    return DensitySource(value, float(c), float(c))


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
    Since cos(x - pi) = -cos x, q - 1/2 = (1 + cos x + cos y)/2, evaluated
    in one buffer: a single point gives a 0-d array.
    """
    c = 2.0 / 3.0

    def value(points):
        p = np.asarray(points)
        r = np.empty(p.shape[:-1])
        np.cos(p[..., 0], out=r)
        r += np.cos(p[..., 1])
        r += 1.0
        np.maximum(r, 0.0, out=r)
        r *= r
        r *= 0.25 * c
        return r

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

    def rows_at(self, times) -> np.ndarray:
        """The velocity rows at a 1-d array of times, (S, N, 2), or at one
        time, (N, 2): the dense output of `coeffs_at` weighed once into the
        factors of `BasisSet.weigh`."""
        return self.basis.weigh(self.coeffs_at(times))

    def coeffs_at(self, t) -> np.ndarray:
        """Hermite dense output at one time t in [t0, T], shape (N,), or at a
        1-d array of times, shape (S, N).  Node times, and the ends overshot
        by rounding (1e-12 max(1, |T|)), give the node coefficients exactly;
        a time further out raises ValueError."""
        ts = self.times
        t = np.asarray(t, dtype=float)[()]  # one time stays a scalar
        slack = 1e-12 * max(1.0, abs(ts[-1]))
        inside = (ts[0] - slack <= t) & (t <= ts[-1] + slack)
        if not inside.all():
            raise ValueError(
                f"t={float(np.extract(~inside, t)[0])!r} is outside the "
                f"history's time range [{ts[0]:g}, {ts[-1]:g}]"
            )
        t = np.minimum(np.maximum(t, ts[0]), ts[-1])
        # k in [0, K - 2]: the last node closes the last interval.
        k = np.searchsorted(ts[1:-1], t, side="right")
        # Transposed, the node rows take the weights of their times along
        # the last axis: plain scalars for one time.
        c, d = self.coeffs.T, self.derivs.T
        return _hermite(t, ts[k], c[:, k], d[:, k], ts[k + 1], c[:, k + 1], d[:, k + 1]).T

    def velocity_at(self, points: np.ndarray, row: np.ndarray) -> np.ndarray:
        """The velocity of one row of `rows_at` at points (..., 2)."""
        return self.basis.weighted_at(points, row)

    def grid_velocity(self, rows: np.ndarray, M: int) -> np.ndarray:
        """The velocity component planes (..., 2, M, M) of a row or stack of
        rows of `rows_at` on the grid."""
        return self.basis.grid(M).planes(rows)


def _hermite(t, t0, y0, r0, t1, y1, r1):
    """The cubic Hermite interpolant at t of the values y0, y1 and rates
    r0, r1 at the times t0 < t1: h00 y0 + h10 h r0 + h01 y1 + h11 h r1 with
    h = t1 - t0 and the weights h.. of s = (t - t0) / h.  Products, not
    powers: a scalar power and an array square of the same s can differ in
    the last bit."""
    h = t1 - t0
    s = (t - t0) / h
    r2 = (1.0 - s) * (1.0 - s)
    return (
        (1.0 + 2.0 * s) * r2 * y0 + s * r2 * h * r0
        + s * s * (3.0 - 2.0 * s) * y1 + s * s * (s - 1.0) * h * r1
    )


def rk4_step(y, rate, h, start, mid, end):
    """One classical RK4 step of length h for d_t y = rate(y, v), with v
    given at the start, midpoint and end of the step: k2 and k3 share the
    midpoint.  Returns the new y and k1 = rate(y, start).  The sum
    k1 + 2 k2 + 2 k3 + k4 is built, in that order, in one buffer of its own:
    the rate's values, k1 among them, are read and never overwritten.

    y may be a stack of matrices and h an array broadcast against the
    rate's values: the solver steps the identity through a stack of
    operators, h (n, 1, 1), to get n steps' matrices at once."""
    k1 = rate(y, start)
    k = rate(y + 0.5 * h * k1, mid)
    acc = 2.0 * k
    acc += k1
    k = rate(y + 0.5 * h * k, mid)
    acc += 2.0 * k
    acc += rate(y + h * k, end)
    acc *= h / 6.0
    acc += y
    return acc, k1


def _rk4_times(taus) -> np.ndarray:
    """The field times of one RK4 step per interval of the times `taus`:
    tau_0, its midpoint, tau_1, ..., tau_n, 2n + 1 of them."""
    taus = np.asarray(taus, dtype=float)
    out = np.empty(2 * len(taus) - 1)
    out[0::2], out[1::2] = taus, taus[:-1] + 0.5 * np.diff(taus)
    return out


def _characteristics(history, points: np.ndarray, taus) -> np.ndarray:
    """`points` carried along d_tau y = v(y, tau) through the times `taus`,
    increasing or decreasing, one `rk4_step` per interval, with the velocity
    rows at the `_rk4_times` of `taus` from one `rows_at` call: the end row
    of a step starts the next."""
    rows = history.rows_at(_rk4_times(taus))
    for i, h in enumerate(np.diff(taus)):
        points, _ = rk4_step(points, history.velocity_at, h, *rows[2 * i : 2 * i + 3])
    return points


def _label_rate(disp: np.ndarray, v: np.ndarray) -> np.ndarray:
    """d_t D = -(v . grad) D - v on the grid, for D = [D_x, D_y] and
    v = [v_x, v_y], component planes (2, M, M), built in the buffer of
    d_x D from `fields.spectral_gradient`.  With its two stacked products
    it costs ~19 us at M = 32 and ~30 us at M = 40 against ~90 us for an
    fft2 pair of D_x + i D_y at M = 32 (one BLAS thread, 2-vCPU host,
    median of 15 rounds, best of 3 x 300 calls each); the two are about
    even at M = 512, the FFT cheaper above."""
    out, d_y = spectral_gradient(disp)
    out *= v[0]
    d_y *= v[1]
    out += d_y
    out += v
    return np.negative(out, out=out)


def backtrack(history, points: np.ndarray, t: float, dtau: float) -> np.ndarray:
    """Feet of the backward characteristics through `points` at time `t`.

    Integrates d_tau Phi = v(Phi, tau) from tau = t to tau = 0 with RK4 in
    equal steps of at most `dtau`, the only transport path with a step size
    of its own.  Results are raw coordinates (no mod 2pi).
    """
    pts = np.asarray(points, dtype=float).copy()
    if t == 0.0:
        return pts
    if t < 0.0 or dtau <= 0.0:
        raise ValueError("need t >= 0 and dtau > 0")
    steps = max(1, int(np.ceil(t / dtau - 1e-12)))
    return _characteristics(history, pts, np.linspace(t, 0.0, steps + 1))


def density_at(
    source: DensitySource, history, M: int, t: float, dtau: float
) -> np.ndarray:
    """Density (M, M) on the grid at time t: rho0 evaluated at the feet."""
    pts = grid_points(M)
    if source.constant:
        return source.value(pts)
    return source.value(backtrack(history, pts, t, dtau))


def carried_densities(
    source: DensitySource,
    history,
    M: int,
    nodes: Sequence[float],
    times: Sequence[float],
    size: int,
) -> Iterator[tuple[int, np.ndarray]]:
    """Densities on the M x M grid at each of the increasing `times`, in
    consecutive blocks: yields (lo, rho) with rho (S, M, M) the densities
    at times lo .. lo + S - 1, S at most `size`, each block filled in place.

    The back-to-label map is carried from t = 0 through the increasing
    `nodes`, one label step per interval, a single RK4 step (none at a
    repeated node), instead of a backtrack all the way to 0 per time.  A
    time at a node reads the map there; a time between two nodes reads the
    cubic Hermite interpolant of the displacement through them with its
    rates D' = -(v . grad) D - v, 4th order like the RK4 steps themselves
    (RK4's dense output); `source.value` runs once per time, in time order.
    Decreasing nodes or times, a negative one, or a time past the last node
    raise ValueError before any block, for every source.

    At the last time, or at the first time whose feet are not finite, the
    drift guard compares carried and exact feet; its TransportDriftError
    comes after the block of every earlier density has been yielded, so
    that a caller's failure at an earlier time surfaces first, and before
    any non-finite density is handed on.  Overflow and nan in a label step
    or in the guard raise no warning, since the guard names them; the
    errstate is never held across a yield, which would silence the caller.
    A constant source takes `density_at` once, at t = 0.
    """
    node_ts, time_ts = np.r_[0.0, nodes], np.r_[0.0, times]
    if not all(np.all(ts[:-1] <= ts[1:]) for ts in (node_ts, time_ts)):
        raise ValueError("need increasing nodes and times from t >= 0")
    if not time_ts[-1] <= node_ts[-1]:
        raise ValueError(f"t={time_ts[-1]:g} is past the last node {node_ts[-1]:g}")
    if source.constant:
        # A constant density takes no characteristics (no step size): rho0
        # once per sweep, copied into a fresh array per block.
        rho0 = density_at(source, history, M, 0.0, None)
        for lo in range(0, len(times), size):
            yield lo, np.repeat(rho0[None], len(times[lo : lo + size]), axis=0)
        return
    feet = _carried_feet(history, M, nodes, times, size)
    for lo in range(0, len(times), size):
        block = np.empty((len(times[lo : lo + size]), M, M))
        for s in range(len(block)):
            try:
                block[s] = source.value(next(feet))
            except TransportDriftError:
                if s:
                    yield lo, block[:s]
                raise
        yield lo, block


def _carried_feet(history, M: int, nodes, times, size: int) -> Iterator[np.ndarray]:
    """The carried feet (M, M, 2) at each of the increasing `times`, from
    the stream of `_label_nodes`: the node at or before a time and the next
    one, read at the node or through the Hermite interpolant between the
    two.  The drift guard walks back through the nodes before the time,
    and runs before the feet of the last time and before the first
    non-finite ones."""
    walked = sorted({0.0, *nodes})
    stream = _label_nodes(history, M, walked, size)
    node, after = next(stream), next(stream, None)
    for i, t in enumerate(times):
        while after is not None and after[0] <= t:
            node, after = after, next(stream, None)
        t0, disp, rate0 = node
        if t > t0:
            with np.errstate(over="ignore", invalid="ignore"):
                disp = _hermite(t, t0, disp, rate0, *after)
        feet = grid_points(M) + disp.transpose(1, 2, 0)
        if i == len(times) - 1 or not np.isfinite(feet).all():
            with np.errstate(over="ignore", invalid="ignore"):
                _check_drift(history, feet, walked[: bisect_left(walked, t)] + [t])
        yield feet


def _label_nodes(history, M: int, walked: list, size: int) -> Iterator[tuple]:
    """The one label-step loop: the displacement D carried from t = 0
    through the increasing distinct node times `walked`, walked[0] = 0, one
    `rk4_step` of `_label_rate` per interval.  Yields (t, D, D') per node
    once the step leaving it is taken, D' being that step's k1; the last
    node takes one more `_label_rate`.  The velocity rows of `size` nodes
    at a time come from one `rows_at` call, their grid fields are
    synthesized as their steps come, and a step's end field starts the
    next."""
    disp, start = np.zeros((2, M, M)), None  # D = [D_x, D_y]
    for lo in range(0, len(walked), size):
        taus = walked[max(lo - 1, 0) : lo + size]
        rows = history.rows_at(_rk4_times(taus))
        start = history.grid_velocity(rows[0], M) if start is None else start
        for i, (t0, t) in enumerate(zip(taus, taus[1:])):
            mid, end = (history.grid_velocity(row, M) for row in rows[2 * i + 1 : 2 * i + 3])
            with np.errstate(over="ignore", invalid="ignore"):
                step, k1 = rk4_step(disp, _label_rate, t - t0, start, mid, end)
            yield t0, disp, k1
            disp, start = step, end
    with np.errstate(over="ignore", invalid="ignore"):
        rate = _label_rate(disp, start)
    yield walked[-1], disp, rate


def _check_drift(history, feet: np.ndarray, walked: list) -> None:
    """Compare carried feet at the last of the `walked` times with exact
    feet at eight grid nodes, one per eighth of the rows, on distinct
    columns.  The exact feet follow the characteristic ODE back through
    the walked times, one RK4 step per interval, so that at a node, whose
    walked times are the nodes, they take the label steps' own RK4 steps,
    and the difference is the gap between the two discretizations, not
    between two time partitions."""
    M = feet.shape[0]
    rows = np.arange(8) * M // 8
    cols = (3 * rows) % M
    nodes = grid_points(M)[rows, cols]
    exact = _characteristics(history, nodes, walked[::-1])
    drift = float(np.abs(feet[rows, cols] - exact).max())
    if not drift <= DRIFT_LIMIT:
        v = history.grid_velocity(history.rows_at(walked), M)
        speed = float(np.hypot(v[..., 0, :, :], v[..., 1, :, :]).max())
        raise TransportDriftError(float(walked[-1]), drift, speed)
