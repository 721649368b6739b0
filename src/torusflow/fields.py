"""The grid, grid fields, their norms and derivatives, pressure, snapshots.

Velocities live in the span of a BasisSet as coefficient vectors; fields
sampled on the uniform M x M grid are plain arrays, (M, M) for a scalar and
component planes (2, M, M), [f_x, f_y], for a vector, with any stack axes in
front; only arrays of points, `grid_points` among them, end in their 2
coordinates.  Grid node [a, b] sits at x = (2pi a/M, 2pi b/M) and
indexing is periodic (index mod M); `grid_points` is the one construction of
these nodes that the basis tables, the transport and the tests all share.
All integrals over the torus use the trapezoid rule with weight
`quadrature_weight(M)` = (2pi/M)^2, which is exact for trigonometric
polynomials whose wavenumbers stay below the grid Nyquist limit.
`spectral_gradient` differentiates each axis on its own, d_x = D (x) I and
d_y = I (x) D with the one real matrix D = `derivative_matrix(M)`, i k on
the 1-D spectrum (Trefethen 2000, ch. 3 and 7): each derivative drops only
its own axis's Nyquist mode of an even M.  It is the one spectral
derivative of a grid field, for the label step's displacement, the
velocity gradient and the pressure alike: `leray_pressure` takes the
divergence with D and inverts D's Laplacian D^2 (x) I + I (x) D^2 on the
rfft2 half-spectrum, so that `spectral_gradient` of the pressure is
exactly the gradient part of its input.
`lp_norm` and the density gradient `fd_gradient` are what the run ledger's
norms are taken with.  They and `leray_pressure` also take a stack of fields
along a leading axis and reduce each field of it, which is how the ledger
walk calls them on a block of nodes.  `lp_norm` takes scalar fields only, so
that its last two axes are always the grid; a vector field passes its
magnitude.  Snapshots are written at the grid points, a vector as (M, M, 2).
"""

from __future__ import annotations

import functools

import numpy as np

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


def lp_norm(field: np.ndarray, p: float) -> float | np.ndarray:
    """L^p norm of scalar grid fields (..., M, M), one per field of a stack;
    a vector field's norm is that of its pointwise magnitude."""
    mag = np.abs(field)
    return (quadrature_weight(mag.shape[-1]) * (mag**p).sum(axis=(-2, -1))) ** (1.0 / p)


def fd_gradient(rho: np.ndarray) -> np.ndarray:
    """Second-order centered periodic finite-difference gradient of scalar
    fields (..., M, M), as component planes (..., 2, M, M).  The periodic
    neighbours are gathered by index, cheaper than np.roll, whose per-call
    overhead dominates on the ledger walk's small blocks."""
    M = rho.shape[-1]
    h = 2.0 * np.pi / M
    up, down = np.arange(1, M + 1) % M, np.arange(-1, M - 1) % M
    grad = np.empty(rho.shape[:-2] + (2, M, M))
    np.subtract(rho[..., up, :], rho[..., down, :], out=grad[..., 0, :, :])
    np.subtract(rho[..., up], rho[..., down], out=grad[..., 1, :, :])
    grad /= 2.0 * h
    return grad


def _wavenumbers(M: int) -> np.ndarray:
    """The 1-D wavenumbers that D differentiates: those of the fft spectrum
    of M nodes, with an even M's Nyquist wavenumber -M/2 set to 0."""
    k = np.fft.fftfreq(M, 1.0 / M)
    k[np.abs(k) == M / 2] = 0.0
    return k


@functools.lru_cache(maxsize=None)
def derivative_matrix(M: int) -> np.ndarray:
    """The spectral derivative on M periodic nodes as a real matrix D,
    read-only: i k on the 1-D fft spectrum with the `_wavenumbers`, so that
    every |k| < M/2 is differentiated exactly and an even M's Nyquist mode
    is dropped."""
    D = np.fft.ifft(1j * _wavenumbers(M)[:, None] * np.fft.fft(np.eye(M), axis=0), axis=0).real
    D.flags.writeable = False
    return D


def spectral_gradient(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d_x f, d_y f) of grid fields (..., M, M), each (..., M, M), as
    D f and f D^T with D = `derivative_matrix`: each axis is differentiated
    on its own and drops only its own Nyquist mode (D (x) I, Trefethen 2000,
    ch. 3 and 7), and each derivative is a fresh contiguous array that a
    caller may overwrite."""
    D = derivative_matrix(f.shape[-1])
    return D @ f, f @ D.T


@functools.lru_cache(maxsize=None)
def _inverse_laplacian(M: int) -> np.ndarray:
    """-1/(k_x^2 + k_y^2) on the rfft2 half-spectrum of an M x M grid with
    the `_wavenumbers`, shape (M, M // 2 + 1), read-only: the inverse of D's
    Laplacian, 0 where that Laplacian is 0."""
    k = _wavenumbers(M)
    k2 = k[:, None] ** 2 + k[None, : M // 2 + 1] ** 2
    table = np.divide(-1.0, k2, out=np.zeros_like(k2), where=k2 != 0)
    table.flags.writeable = False
    return table


def leray_pressure(residual: np.ndarray) -> np.ndarray:
    """Pressure part of a Helmholtz decomposition: solve lap p = div g.

    The input is a vector field as component planes (2, M, M), or a stack of
    them (..., 2, M, M) solved field by field into (..., M, M).  div g =
    D g_x + g_y D^T takes the divergence with `derivative_matrix`, and one
    real FFT pair inverts D's Laplacian through `_inverse_laplacian`, in the
    zero-mean gauge for p.  A constant g, the torus's harmonic part, has no
    pressure.
    """
    if residual.ndim < 3 or residual.shape[-3] != 2:
        raise ValueError(f"leray_pressure expects planes (..., 2, M, M), not {residual.shape}")
    M = residual.shape[-1]
    D = derivative_matrix(M)
    div = D @ residual[..., 0, :, :]
    div += residual[..., 1, :, :] @ D.T
    p_hat = np.fft.rfft2(div)
    p_hat *= _inverse_laplacian(M)
    return np.fft.irfft2(p_hat, s=(M, M))


def save_snapshot(field: np.ndarray, path) -> None:
    """Write the snapshot format: header `M=<int> components=<1|2>`, then
    M^2 space-separated rows in (a, b) order with a varying fastest.  The
    field is a scalar (M, M) or a vector at the grid points (M, M, 2)."""
    M = field.shape[0]
    rows = np.swapaxes(field, 0, 1).reshape(M * M, -1)
    with open(path, "w") as fh:
        fh.write(f"M={M} components={rows.shape[1]}\n")
        for row in rows:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")
