"""The grid, grid fields, their norms, pressure recovery, and snapshots.

Velocities live in the span of a BasisSet as coefficient vectors; fields
sampled on the uniform M x M grid are plain arrays, (M, M) for a scalar and
(M, M, 2) for a vector.  Grid node [a, b] sits at x = (2pi a/M, 2pi b/M) and
indexing is periodic (index mod M); `grid_points` is the one construction of
these nodes that the basis tables, the transport and the tests all share.
All integrals over the torus use the trapezoid rule with weight
`quadrature_weight(M)` = (2pi/M)^2, which is exact for trigonometric
polynomials whose wavenumbers stay below the grid Nyquist limit.  The L^p
norms of grid fields (`lp_norm`, `w1gamma_norm`, with the density gradient
from `fd_gradient`) are the ones the run ledger reports.
"""

from __future__ import annotations

import functools

import numpy as np

LERAY_MEAN_TOL = 1e-8  # leray_pressure: largest mean, relative to the field scale


@functools.lru_cache(maxsize=None)
def grid_points(M: int) -> np.ndarray:
    """Grid nodes, shape (M, M, 2), entry [a, b] = (2pi a/M, 2pi b/M).

    Cached per M and read-only, since every caller shares the same array."""
    axis = 2.0 * np.pi * np.arange(M) / M
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    points = np.stack([X, Y], axis=-1)
    points.flags.writeable = False
    return points


def quadrature_weight(M: int) -> float:
    """Trapezoid weight h^2 = (2pi/M)^2 of one node of the M x M grid."""
    return (2.0 * np.pi / M) ** 2


def lp_norm(field: np.ndarray, p: float) -> float:
    """L^p norm of an (M, M) or (M, M, 2) field; vector fields use the
    pointwise Euclidean magnitude."""
    mag = np.abs(field) if field.ndim == 2 else np.sqrt((field * field).sum(axis=-1))
    return float((quadrature_weight(field.shape[0]) * (mag**p).sum()) ** (1.0 / p))


def fd_gradient(rho: np.ndarray) -> np.ndarray:
    """Second-order centered periodic finite-difference gradient, (M, M, 2)."""
    h = 2.0 * np.pi / rho.shape[0]
    gx = (np.roll(rho, -1, axis=0) - np.roll(rho, 1, axis=0)) / (2.0 * h)
    gy = (np.roll(rho, -1, axis=1) - np.roll(rho, 1, axis=1)) / (2.0 * h)
    return np.stack([gx, gy], axis=-1)


def w1gamma_norm(rho: np.ndarray, gamma: float, grad: np.ndarray | None = None) -> float:
    """Sobolev norm (||rho||_gamma^gamma + ||grad rho||_gamma^gamma)^(1/gamma)
    with the finite-difference gradient; `grad` is `fd_gradient(rho)` when the
    caller already holds it."""
    g = fd_gradient(rho) if grad is None else grad
    mag = np.sqrt((g * g).sum(axis=-1))
    w = quadrature_weight(rho.shape[0])
    total = w * (np.abs(rho) ** gamma).sum() + w * (mag**gamma).sum()
    return float(total ** (1.0 / gamma))


def leray_pressure(residual: np.ndarray) -> np.ndarray:
    """Pressure part of a Helmholtz decomposition: solve lap p = div g.

    The input must be an (M, M, 2) vector field with zero mean per component
    up to LERAY_MEAN_TOL; a nonzero mean admits no gradient representation
    and is rejected.  The solve runs in trigonometric space with the
    zero-mean gauge for p.  Nyquist rows are dropped for even M, which only
    matters for content at exactly the grid limit.
    """
    if residual.ndim != 3 or residual.shape[2] != 2:
        raise ValueError("leray_pressure expects a vector field")
    M = residual.shape[0]
    scale = max(1.0, float(np.abs(residual).max()))
    means = residual.mean(axis=(0, 1))
    if np.abs(means).max() > LERAY_MEAN_TOL * scale:
        raise ValueError(
            f"input mean {means} is not zero; no gradient field matches it"
        )
    k = np.fft.fftfreq(M, d=1.0 / M)
    kx, ky = k[:, None], k[None, :]
    gx = np.fft.fft2(residual[..., 0])
    gy = np.fft.fft2(residual[..., 1])
    div_hat = 1j * (kx * gx + ky * gy)
    lap = -(kx * kx + ky * ky)
    lap[0, 0] = 1.0
    p_hat = div_hat / lap
    p_hat[0, 0] = 0.0
    if M % 2 == 0:
        p_hat[M // 2, :] = 0.0
        p_hat[:, M // 2] = 0.0
    return np.real(np.fft.ifft2(p_hat))


def save_snapshot(field: np.ndarray, path) -> None:
    """Write the snapshot format: header `M=<int> components=<1|2>`, then
    M^2 space-separated rows in (a, b) order with a varying fastest."""
    M = field.shape[0]
    rows = np.swapaxes(field, 0, 1).reshape(M * M, -1)
    with open(path, "w") as fh:
        fh.write(f"M={M} components={rows.shape[1]}\n")
        for row in rows:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


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
