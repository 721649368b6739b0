"""Closed-form oracles the tests compare torusflow against.

Velocity fields with explicit characteristics (anything with
`rows_at(times)`, `velocity_at(points, t)` and `grid_velocity(t, M)` can
be backtracked or carried like a VelocityHistory), the backtrack and the
carried sweep with one dense-output call per RK4 time, which the batched
ones of `transport` must reproduce, the linearized pass one RK4 step at a
time, which the solver's stacked step matrices must reproduce, a spectral
gradient for (M, M) grid fields with each axis's own Nyquist mode dropped,
the W^{1,gamma} norm of a density field from its own gradient, the carried
label rate through the FFT instead of the derivative matrix, the vacuum
well's density in the form of its definition, the one-stage Galerkin
assembly from vector mode tables that it builds itself with
`BasisSet.velocity_at` and `gradient_at` (per-point evaluation,
independent of the scalar grid tables that the solver assembles from), the
ledger walk one node at a time, which the block walk of
`pipeline.node_diagnostics` must reproduce, a scripted density source that
puts chosen densities through the real carried sweep, a density of narrow
support that fails the mass-matrix guard, and `load_snapshot`, the reader
of the files `fields.save_snapshot` writes.
"""

import itertools
import math

import numpy as np

from torusflow.basis import MODE_NORM
from torusflow.estimates import GAMMA, EstimateLedger
from torusflow.fields import fd_gradient, grid_points, lp_norm, quadrature_weight
from torusflow.solver import (
    _node_times,
    _stage_operators,
    build_state,
    ode_rhs,
    residual_diagnostics,
)
from torusflow.transport import (
    DensitySource,
    DivergenceError,
    VelocityHistory,
    _hermite,
    _label_rate,
    carried_densities,
    rk4_step,
)


class PointwiseVelocity:
    """A velocity given by `velocity_at(points, t)`: with `rows_at` and
    `grid_velocity` (component planes (2, M, M)) it has the trajectory
    interface that transport integrates, its rows the times themselves."""

    def rows_at(self, times) -> np.ndarray:
        return np.asarray(times, dtype=float)

    def grid_velocity(self, t, M: int) -> np.ndarray:
        if np.ndim(t):
            return np.stack([self.grid_velocity(s, M) for s in t])
        return self.velocity_at(grid_points(M), t).transpose(2, 0, 1)


class ConstantVelocity(PointwiseVelocity):
    """Spatially uniform steady velocity (not solenoidal-checked)."""

    def __init__(self, vector):
        self.vector = np.asarray(vector, dtype=float)

    def velocity_at(self, points: np.ndarray, t: float) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return np.broadcast_to(self.vector, pts.shape).copy()


class ShearVelocity(PointwiseVelocity):
    """v = (a sin y cos(omega t), 0) with explicit characteristics.

    Backward feet: Phi(0; (x, y), t) = (x - a sin y * S(t), y) where
    S(t) = int_0^t cos(omega s) ds (= t for omega = 0).
    """

    def __init__(self, amplitude: float = 1.0, omega: float = 0.0):
        self.amplitude = float(amplitude)
        self.omega = float(omega)

    def velocity_at(self, points: np.ndarray, t: float) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        mod = np.cos(self.omega * t) if self.omega else 1.0
        u = np.zeros_like(pts)
        u[..., 0] = self.amplitude * np.sin(pts[..., 1]) * mod
        return u

    def feet(self, points: np.ndarray, t: float) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if self.omega:
            S = np.sin(self.omega * t) / self.omega
        else:
            S = t
        out = pts.copy()
        out[..., 0] -= self.amplitude * np.sin(pts[..., 1]) * S
        return out


def backtrack_per_time(history, points: np.ndarray, t: float, dtau: float) -> np.ndarray:
    """`transport.backtrack` with one `rows_at` call per RK4 time."""
    y = np.asarray(points, dtype=float).copy()
    taus = np.linspace(t, 0.0, max(1, int(np.ceil(t / dtau - 1e-12))) + 1)
    for tau, tau_next in zip(taus[:-1], taus[1:]):
        h = tau_next - tau
        rows = [history.rows_at(s) for s in (tau, tau + 0.5 * h, tau_next)]
        y, _ = rk4_step(y, history.velocity_at, h, *rows)
    return y


def carried_densities_per_time(
    source: DensitySource, history, M: int, nodes, times
) -> np.ndarray:
    """The densities (len(times), M, M) of `transport.carried_densities`,
    with one `rows_at` and one `grid_velocity` call per RK4 time and no
    blocks: the label map at every node, a label step per node past the
    previous one and none at a repeated node, the rate at every node from
    its own `_label_rate` call, and a time between two nodes read off the
    Hermite interpolant through them."""

    def field(t):
        return history.grid_velocity(history.rows_at(t), M)

    walked, disps, fields = [0.0], [np.zeros((2, M, M))], [field(0.0)]
    for t in nodes:
        if t > walked[-1]:
            h = t - walked[-1]
            fields.append(field(t))
            mid = field(walked[-1] + 0.5 * h)
            disp, _ = rk4_step(disps[-1], _label_rate, h, fields[-2], mid, fields[-1])
            walked.append(t)
            disps.append(disp)
    rates = [_label_rate(d, v) for d, v in zip(disps, fields)]
    out = []
    for t in times:
        k = int(np.searchsorted(walked, t, side="right")) - 1
        disp = disps[k]
        if t > walked[k]:
            disp = _hermite(
                t, walked[k], disp, rates[k], walked[k + 1], disps[k + 1], rates[k + 1]
            )
        out.append(source.value(grid_points(M) + disp.transpose(1, 2, 0)))
    return np.array(out)


def solve_linearized_per_step(
    v_hist, source: DensitySource, u0_coeffs: np.ndarray, M: int, dt: float
) -> VelocityHistory:
    """`solver.solve_linearized` one RK4 step at a time: the pass's stage
    operators taken one by one from its blocks, one `rk4_step` with
    `ode_rhs` on the coefficient vector per step, whose k1 is the nodal
    rate, and a finiteness test per step."""
    times = _node_times(v_hist.times[-1], dt)
    blocks = _stage_operators(v_hist, source, M, times)
    ops = (op for block in blocks for op in block)
    coeffs = np.empty((len(times), len(u0_coeffs)))
    derivs = np.empty_like(coeffs)
    coeffs[0] = u0_coeffs
    start = next(ops)
    for k, h in enumerate(np.diff(times)):
        mid, end = next(ops), next(ops)
        coeffs[k + 1], derivs[k] = rk4_step(coeffs[k], ode_rhs, h, start, mid, end)
        if not np.isfinite(coeffs[k + 1]).all():
            raise DivergenceError(float(times[k + 1]))
        start = end
    derivs[-1] = ode_rhs(coeffs[-1], start)
    return VelocityHistory(v_hist.basis, times, coeffs, derivs)


def vacuum_well_value(points: np.ndarray) -> np.ndarray:
    """rho0 of `transport.vacuum_well_density` as defined: 2/3 max(0,
    q - 1/2)^2 with q = (1 - cos(x - pi))/2 + (1 - cos(y - pi))/2."""
    p = np.asarray(points)
    q = 0.5 * (1.0 - np.cos(p[..., 0] - np.pi)) + 0.5 * (1.0 - np.cos(p[..., 1] - np.pi))
    return 2.0 / 3.0 * np.maximum(0.0, q - 0.5) ** 2


def scripted_density(density) -> DensitySource:
    """A non-constant source whose j-th value call returns `density(j)`: a
    carried sweep evaluates it once per time, in time order, so its j-th
    time gets density(j) whatever the feet.  Its bounds [0, inf) hold any
    nonnegative script and do not meet, so the sweep walks its feet."""
    calls = itertools.count()
    return DensitySource(lambda feet: density(next(calls)), 0.0, math.inf)


def narrow_density(r: float = 0.2) -> DensitySource:
    """rho0 = max(0, 1 - |x|^2/r^2)^2 with |x| the periodic distance to the
    origin: vacuum outside a disc of radius r.  A 16 x 16 grid samples it at
    the origin alone, so there its quadrature mass matrix has rank at most 2
    and fails the eigenvalue guard for any N > 2."""

    def value(points):
        d = np.mod(np.asarray(points) + np.pi, 2.0 * np.pi) - np.pi
        return np.maximum(0.0, 1.0 - (d * d).sum(axis=-1) / r**2) ** 2

    return DensitySource(value, 0.0, 1.0)


def axis_derivatives(M: int) -> np.ndarray:
    """i k_x and i k_y on the fft2 spectrum of an M x M grid, (2, M, M): each
    derivative zero on its own axis's Nyquist wavenumber of an even M only,
    the per-axis rule D (x) I, I (x) D."""
    k = np.fft.fftfreq(M, d=1.0 / M)
    d = 1j * k * (np.abs(k) < M / 2)
    return np.stack(np.broadcast_arrays(d[:, None], d[None, :]))


def fft_gradient(scalar: np.ndarray) -> np.ndarray:
    """Gradient planes (2, M, M) of a scalar grid field (M, M) computed in
    trigonometric space with `axis_derivatives`."""
    if scalar.ndim != 2:
        raise ValueError("fft_gradient expects a scalar field")
    return np.real(np.fft.ifft2(axis_derivatives(scalar.shape[0]) * np.fft.fft2(scalar)))


def w1gamma_norm(rho: np.ndarray, gamma: float) -> float | np.ndarray:
    """Sobolev norm (||rho||_gamma^gamma + ||grad rho||_gamma^gamma)^(1/gamma)
    with the finite-difference gradient, one per field of a stack (..., M, M):
    the ledger's `w1gamma` column, from a gradient of its own."""
    g = fd_gradient(rho)
    mag = np.sqrt((g * g).sum(axis=-3))
    w = quadrature_weight(rho.shape[-1])
    total = w * (np.abs(rho) ** gamma).sum(axis=(-2, -1)) + w * (mag**gamma).sum(axis=(-2, -1))
    return total ** (1.0 / gamma)


def fft_label_rate(disp: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The label rate -(v . grad) D - v of `transport._label_rate`, with the
    displacement [D_x, D_y] (2, M, M) differentiated in trigonometric space:
    D_x + i D_y through one fft2 and one inverse with `axis_derivatives`;
    v = [v_x, v_y] (2, M, M) as well."""
    grad = np.fft.ifft2(axis_derivatives(disp.shape[-1]) * np.fft.fft2(disp[0] + 1j * disp[1]))
    vx, vy = v
    rate = -(vx * grad[0] + vy * grad[1]) - (vx + 1j * vy)
    return np.stack([rate.real, rate.imag])


def gradient_at(basis, points: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Velocity gradient of `basis` at arbitrary points (..., 2) -> (..., 2, 2),
    entry [..., i, alpha] = d_alpha u_i, from its own derivative trig table."""
    pts = np.asarray(points, dtype=float)
    phases = pts.reshape(-1, 2) @ basis.kvecs.T
    is_cos = np.array([m.parity == "cos" for m in basis.modes])
    dtrig = np.where(is_cos, -np.sin(phases), np.cos(phases))
    grad = np.einsum("pn,ni,na->pia", dtrig * coeffs, basis.dirs * MODE_NORM, basis.kvecs)
    return grad.reshape(pts.shape[:-1] + (2, 2))


def assemble_stage(rho: np.ndarray, v_grid, basis):
    """A and B at one stage from the vector tables: A_ij = h^2 sum rho w_i.w_j
    and B_ij = h^2 sum rho w_i.(v . grad) w_j, with `rho` (M, M) and `v_grid`
    component planes (2, M, M)."""
    grid = basis.grid(rho.shape[-1])
    N = basis.size
    unit = np.eye(N)
    W = basis.velocity_at(grid.points, unit)  # (N, M, M, 2)
    GW = np.stack([gradient_at(basis, grid.points, e) for e in unit])  # (N, M, M, 2, 2)
    rho_flat = np.repeat(rho.reshape(-1), 2)
    Wf = W.reshape(N, -1)
    a = grid.weight * ((Wf * rho_flat) @ Wf.T)
    a = 0.5 * (a + a.T)
    # conv[j] = (v . grad) w_j; entry b[i, j] pairs it against test mode w_i
    conv = np.einsum("kab,nabik->nabi", v_grid, GW)
    b = grid.weight * ((Wf * rho_flat) @ conv.reshape(N, -1).T)
    return a, b


def node_diagnostics_per_node(src, history, M: int) -> EstimateLedger:
    """The run's per-node table walked one node at a time: per node a
    `build_state` and `residual_diagnostics` on a stack of one, and every
    grid column reduced over that node's fields alone."""
    basis = history.basis
    lam = basis.lambdas
    w = basis.grid(M).weight
    times, f = history.times, history.coeffs
    led = EstimateLedger.allocate(len(times), M)
    fdot = np.empty_like(f)
    for k, (r,) in carried_densities(src, history, M, times, times, 1):
        state = build_state(basis, f[k : k + 1], r[None])
        u, ut = state.u[0], state.ut[0]
        du_dx, du_dy = (d[0] for d in state.grad_u)
        led.rho[k], fdot[k] = r, state.fdot[0]
        umag2 = (u * u).sum(axis=0)
        grad_rho = fd_gradient(r)
        led.sqrt_rho_u_l2[k] = math.sqrt(w * (r * umag2).sum())
        led.sqrt_rho_ut_l2[k] = math.sqrt(w * (r * (ut * ut).sum(axis=0)).sum())
        led.u_linf[k] = np.sqrt(umag2).max()
        led.grad_u_linf[k] = np.sqrt((du_dx * du_dx + du_dy * du_dy).sum(axis=0)).max()
        led.grad_rho_lgamma[k] = lp_norm(np.sqrt((grad_rho * grad_rho).sum(axis=0)), GAMMA)
        led.rho_t_lgamma[k] = lp_norm(-(u * grad_rho).sum(axis=0), GAMMA)
        led.mass[k] = w * r.sum()
        led.momentum_l2[k] = math.sqrt(w * (r * r * umag2).sum())
        led.w1gamma[k] = w1gamma_norm(r, GAMMA)
        resid = residual_diagnostics(state, basis)
        led.orthogonality_max[k] = resid.orthogonality_max[0]
        led.projection_rel[k] = resid.projection_rel[0]

    led.t[:] = times
    led.grad_u_l2[:] = np.sqrt((lam * f * f).sum(axis=1))
    led.hess_u_l2[:] = np.sqrt((lam * lam * f * f).sum(axis=1))
    led.grad_ut_l2[:] = np.sqrt((lam * fdot * fdot).sum(axis=1))
    led.rho_min[:], led.rho_max[:] = src.lower, src.upper
    led.t_weighted_h2[:] = times * (led.hess_u_l2**2 + led.sqrt_rho_ut_l2**2)
    led.grad_u_sq_dot[:] = 2.0 * (lam * f * fdot).sum(axis=1)
    return led


def load_snapshot(path) -> np.ndarray:
    """Read a `save_snapshot` file; a malformed header and any number of
    rows or of values per row other than the header's raise ValueError."""
    with open(path) as fh:
        header = fh.readline().split()
        try:
            meta = dict(part.split("=") for part in header)
            M, comps = int(meta["M"]), int(meta["components"])
        except (KeyError, ValueError) as exc:
            raise ValueError(f"malformed snapshot header {header}") from exc
        rows = [line.split() for line in fh if line.strip()]
    if M < 1 or comps not in (1, 2):
        raise ValueError(f"snapshot header needs M >= 1 and components 1 or 2, got {header}")
    if len(rows) != M * M or any(len(row) != comps for row in rows):
        raise ValueError(f"snapshot needs {M * M} rows of {comps} values after its header")
    values = np.swapaxes(np.array(rows, dtype=float).reshape(M, M, comps), 0, 1)
    return values[..., 0] if comps == 1 else values
