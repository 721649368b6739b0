"""Closed-form oracles the tests compare torusflow against.

Velocity fields with explicit characteristics (anything with
`velocity_at(points, t)` can be backtracked or carried like a
VelocityHistory), a spectral gradient for (M, M) grid fields, and the
one-stage Galerkin assembly from vector mode tables that it builds itself
with `BasisSet.velocity_at`/`gradient_at` (per-point evaluation, independent
of the scalar grid tables that the solver assembles from).
"""

import numpy as np


class ConstantVelocity:
    """Spatially uniform steady velocity (not solenoidal-checked)."""

    def __init__(self, vector):
        self.vector = np.asarray(vector, dtype=float)

    def velocity_at(self, points: np.ndarray, t: float) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return np.broadcast_to(self.vector, pts.shape).copy()


class ShearVelocity:
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


def spectral_gradient(scalar: np.ndarray) -> np.ndarray:
    """Gradient (M, M, 2) of a scalar grid field (M, M) computed in
    trigonometric space."""
    if scalar.ndim != 2:
        raise ValueError("spectral_gradient expects a scalar field")
    M = scalar.shape[0]
    k = np.fft.fftfreq(M, d=1.0 / M)
    kx, ky = k[:, None], k[None, :]
    f_hat = np.fft.fft2(scalar)
    if M % 2 == 0:
        f_hat[M // 2, :] = 0.0
        f_hat[:, M // 2] = 0.0
    gx = np.real(np.fft.ifft2(1j * kx * f_hat))
    gy = np.real(np.fft.ifft2(1j * ky * f_hat))
    return np.stack([gx, gy], axis=-1)


def assemble_stage(rho: np.ndarray, v_grid, basis, M: int):
    """A and B at one stage from the vector tables: A_ij = h^2 sum rho w_i.w_j
    and B_ij = h^2 sum rho w_i.(v . grad) w_j, with `rho` (M, M) and `v_grid`
    (M, M, 2) or None."""
    grid = basis.grid(M)
    N = basis.size
    unit = np.eye(N)
    W = basis.velocity_at(grid.points, unit)  # (N, M, M, 2)
    GW = np.stack([basis.gradient_at(grid.points, e) for e in unit])  # (N, M, M, 2, 2)
    rho_flat = np.repeat(rho.reshape(-1), 2)
    Wf = W.reshape(N, -1)
    a = grid.weight * ((Wf * rho_flat) @ Wf.T)
    a = 0.5 * (a + a.T)
    if v_grid is None:
        return a, np.zeros((N, N))
    # conv[j] = (v . grad) w_j; entry b[i, j] pairs it against test mode w_i
    conv = np.einsum("abk,nabik->nabi", v_grid, GW)
    b = grid.weight * ((Wf * rho_flat) @ conv.reshape(N, -1).T)
    return a, b
