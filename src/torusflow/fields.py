"""The grid, grid fields, their norms, pressure recovery, and snapshots.

Velocities live in the span of a BasisSet as coefficient vectors; scalar and
vector fields sampled on the uniform M x M grid are carried as GridField
objects.  Grid node [a, b] sits at x = (2pi a/M, 2pi b/M) and indexing is
periodic (index mod M); `grid_points` is the one construction of these nodes
that the basis tables, the transport and the tests all share.  All integrals
over the torus use the trapezoid rule with weight (2pi/M)^2, which is exact
for trigonometric polynomials whose wavenumbers stay below the grid Nyquist
limit.  The L^p norms of grid fields (`lp_norm`, `w1gamma_norm`, with the
density gradient from `fd_gradient`) are the ones the run ledger reports.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass
class GridField:
    """Samples on the uniform grid: shape (M, M) scalar or (M, M, 2) vector."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim not in (2, 3):
            raise ValueError("GridField expects (M, M) or (M, M, 2) samples")
        if self.values.shape[0] != self.values.shape[1]:
            raise ValueError("GridField grid must be square")
        if self.values.ndim == 3 and self.values.shape[2] != 2:
            raise ValueError("vector GridField needs exactly 2 components")

    @property
    def M(self) -> int:
        return self.values.shape[0]

    @property
    def components(self) -> int:
        return 1 if self.values.ndim == 2 else 2

    def quadrature_weight(self) -> float:
        return (2.0 * np.pi / self.M) ** 2


@functools.lru_cache(maxsize=None)
def grid_points(M: int) -> np.ndarray:
    """Grid nodes, shape (M, M, 2), entry [a, b] = (2pi a/M, 2pi b/M).

    Cached per M and read-only, since every caller shares the same array."""
    axis = 2.0 * np.pi * np.arange(M) / M
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    points = np.stack([X, Y], axis=-1)
    points.flags.writeable = False
    return points


def lp_norm(field: GridField, p: float) -> float:
    """L^p norm; vector fields use the pointwise Euclidean magnitude."""
    v = field.values
    mag = np.abs(v) if v.ndim == 2 else np.sqrt((v * v).sum(axis=-1))
    return float((field.quadrature_weight() * (mag**p).sum()) ** (1.0 / p))


def fd_gradient(rho: GridField) -> np.ndarray:
    """Second-order centered periodic finite-difference gradient, (M, M, 2)."""
    v = rho.values
    h = 2.0 * np.pi / rho.M
    gx = (np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0)) / (2.0 * h)
    gy = (np.roll(v, -1, axis=1) - np.roll(v, 1, axis=1)) / (2.0 * h)
    return np.stack([gx, gy], axis=-1)


def w1gamma_norm(rho: GridField, gamma: float, grad: np.ndarray | None = None) -> float:
    """Sobolev norm (||rho||_gamma^gamma + ||grad rho||_gamma^gamma)^(1/gamma)
    with the finite-difference gradient; `grad` is `fd_gradient(rho)` when the
    caller already holds it."""
    g = fd_gradient(rho) if grad is None else grad
    mag = np.sqrt((g * g).sum(axis=-1))
    w = rho.quadrature_weight()
    total = w * (np.abs(rho.values) ** gamma).sum() + w * (mag**gamma).sum()
    return float(total ** (1.0 / gamma))


def leray_pressure(residual: GridField, mean_tol: float = 1e-8) -> GridField:
    """Pressure part of a Helmholtz decomposition: solve lap p = div g.

    The input must be a vector field with (numerically) zero mean per
    component; a nonzero mean admits no gradient representation and is
    rejected.  The solve runs in trigonometric space with the zero-mean gauge
    for p.  Nyquist rows are dropped for even M, which only matters for
    content at exactly the grid limit.
    """
    if residual.components != 2:
        raise ValueError("leray_pressure expects a vector field")
    M = residual.M
    scale = max(1.0, float(np.abs(residual.values).max()))
    means = residual.values.mean(axis=(0, 1))
    if np.abs(means).max() > mean_tol * scale:
        raise ValueError(
            f"input mean {means} is not zero; no gradient field matches it"
        )
    k = np.fft.fftfreq(M, d=1.0 / M)
    kx, ky = k[:, None], k[None, :]
    gx = np.fft.fft2(residual.values[..., 0])
    gy = np.fft.fft2(residual.values[..., 1])
    div_hat = 1j * (kx * gx + ky * gy)
    lap = -(kx * kx + ky * ky)
    lap[0, 0] = 1.0
    p_hat = div_hat / lap
    p_hat[0, 0] = 0.0
    if M % 2 == 0:
        p_hat[M // 2, :] = 0.0
        p_hat[:, M // 2] = 0.0
    return GridField(np.real(np.fft.ifft2(p_hat)))


def save_snapshot(field: GridField, path) -> None:
    """Write the snapshot format: header `M=<int> components=<1|2>`, then
    M^2 space-separated rows in (a, b) order with a varying fastest."""
    v = field.values
    M = field.M
    comps = field.components
    with open(path, "w") as fh:
        fh.write(f"M={M} components={comps}\n")
        for b in range(M):
            for a in range(M):
                if comps == 1:
                    fh.write(f"{float(v[a, b])!r}\n")
                else:
                    fh.write(f"{float(v[a, b, 0])!r} {float(v[a, b, 1])!r}\n")


def load_snapshot(path) -> GridField:
    with open(path) as fh:
        header = fh.readline().split()
        meta = dict(part.split("=") for part in header)
        M, comps = int(meta["M"]), int(meta["components"])
        shape = (M, M) if comps == 1 else (M, M, 2)
        values = np.empty(shape)
        for b in range(M):
            for a in range(M):
                row = fh.readline().split()
                if len(row) != comps:
                    raise ValueError(f"snapshot row has {len(row)} values, expected {comps}")
                if comps == 1:
                    values[a, b] = float(row[0])
                else:
                    values[a, b, 0] = float(row[0])
                    values[a, b, 1] = float(row[1])
    return GridField(values)
