"""Divergence-free trigonometric eigenbasis on the 2D torus [0, 2pi)^2.

Each basis field has the form

    w(x) = (-k2, k1)/|k| * trig(k.x) / (sqrt(2)*pi),   trig in {cos, sin},

with integer wavevector k = (k1, k2) != 0 drawn from the canonical half-space
k1 > 0, or (k1 = 0 and k2 > 0).  Every such field is 2pi-periodic, solenoidal
(the direction is orthogonal to k), unit-norm in L2, and an eigenfield of the
Stokes operator with eigenvalue lam = |k|^2 and vanishing eigenpressure.

Modes are enumerated by increasing eigenvalue; ties are broken by k1
descending, then k2 ascending, cosine before sine, which makes the enumeration
deterministic and keeps k=(1,0) cosine the first mode.

On the M x M grid (`BasisGrid`) the modes are scalar tables and every
synthesis or projection is a matrix product on them; `BasisSet.velocity_at`
evaluates at arbitrary points from its own trig table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import grid_points, quadrature_weight

# L2 normalization: integral of trig(k.x)^2 over the torus is 2*pi^2.
MODE_NORM = 1.0 / (np.sqrt(2.0) * np.pi)


@dataclass(frozen=True)
class BasisMode:
    """One divergence-free eigenmode: wavevector, parity, eigenvalue."""

    k: tuple[int, int]
    parity: str  # "cos" or "sin"
    lam: int

    @property
    def direction(self) -> np.ndarray:
        """Unit vector (-k2, k1)/|k|, orthogonal to k."""
        k1, k2 = self.k
        norm = np.sqrt(float(k1 * k1 + k2 * k2))
        return np.array([-k2 / norm, k1 / norm])


def _canonical(k1: int, k2: int) -> bool:
    return k1 > 0 or (k1 == 0 and k2 > 0)


def enumerate_modes(count: int) -> list[BasisMode]:
    """First `count` modes ordered by (lam, -k1, k2, cos-before-sin)."""
    if count < 1:
        raise ValueError("mode count must be >= 1")
    radius = 2
    while True:
        candidates = []
        for k1 in range(0, radius + 1):
            for k2 in range(-radius, radius + 1):
                if not _canonical(k1, k2):
                    continue
                lam = k1 * k1 + k2 * k2
                if lam > radius * radius:
                    continue
                for pidx, parity in enumerate(("cos", "sin")):
                    candidates.append((lam, -k1, k2, pidx, parity, (k1, k2)))
        if len(candidates) >= count:
            candidates.sort(key=lambda c: c[:4])
            # All modes with lam <= radius^2 are present, so the prefix is
            # complete as long as the count stays within that shell.
            if candidates[count - 1][0] <= radius * radius:
                return [
                    BasisMode(k=k, parity=parity, lam=lam)
                    for lam, _, _, _, parity, k in candidates[:count]
                ]
        radius *= 2


class BasisGrid:
    """Scalar tables of every basis mode on the uniform M x M grid.

    Grid nodes are x_ab = (2pi a/M, 2pi b/M), array index [a, b], flattened
    to a*M + b; `points` is the shared `fields.grid_points` array and
    `weight` the trapezoid quadrature weight (2pi/M)^2.

    Every mode factors as w_n = MODE_NORM d_n T_n(x), with gradient
    MODE_NORM (d_n x k_n) T'_n(x), so the grid holds only the scalar tables
    `trig` (T_n) and `dtrig` (T'_n), shape (N, M*M), the factors `vec` =
    MODE_NORM d_n (N, 2) and `grad_vec` = MODE_NORM d_n x k_n (N, 2, 2), and
    `gram` = h^2 MODE_NORM^2 (d_i . d_j) (N, N) for the Galerkin matrices.
    """

    def __init__(self, basis: "BasisSet", M: int):
        if M < 2 * basis.kmax + 1:
            raise ValueError(
                f"grid M={M} is below the alias-free minimum "
                f"{2 * basis.kmax + 1} for this basis"
            )
        self.M = int(M)
        self.weight = quadrature_weight(self.M)
        self.points = grid_points(self.M)
        X, Y = self.points[..., 0], self.points[..., 1]

        N = basis.size
        self.trig = np.empty((N, M * M))
        self.dtrig = np.empty((N, M * M))
        for n, mode in enumerate(basis.modes):
            k1, k2 = mode.k
            phase = k1 * X + k2 * Y
            if mode.parity == "cos":
                trig, trig_d = np.cos(phase), -np.sin(phase)
            else:
                trig, trig_d = np.sin(phase), np.cos(phase)
            self.trig[n] = trig.reshape(-1)
            self.dtrig[n] = trig_d.reshape(-1)
        self.vec = MODE_NORM * basis.dirs
        self.grad_vec = self.vec[:, :, None] * basis.kvecs[:, None, :]
        self.gram = self.weight * MODE_NORM**2 * (basis.dirs @ basis.dirs.T)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Velocity samples (M, M, 2) for the given coefficient vector."""
        u = self.trig.T @ (coeffs[:, None] * self.vec)
        return u.reshape(self.M, self.M, 2)

    def synthesize_gradient(self, coeffs: np.ndarray) -> np.ndarray:
        """Gradient samples (M, M, 2, 2), index [a, b, i, alpha]."""
        grad = self.dtrig.T @ (coeffs[:, None, None] * self.grad_vec).reshape(-1, 4)
        return grad.reshape(self.M, self.M, 2, 2)

    def project(self, values: np.ndarray) -> np.ndarray:
        """Quadrature inner products (values, w_n) for all modes of an
        (M, M, 2) vector field."""
        moments = self.trig @ values.reshape(-1, 2)
        return self.weight * (moments * self.vec).sum(axis=1)


class BasisSet:
    """Immutable collection of the first N basis modes.

    Safe to share between runs: all mutable state is the per-M grid cache,
    which only ever grows and whose entries are themselves immutable.
    """

    def __init__(self, count: int):
        self.modes = enumerate_modes(count)
        self.size = count
        self.lambdas = np.array([m.lam for m in self.modes], dtype=float)
        self.kvecs = np.array([m.k for m in self.modes], dtype=float)
        self.dirs = np.array([m.direction for m in self.modes])
        self.is_cos = np.array([m.parity == "cos" for m in self.modes])
        self.kmax = int(np.abs(self.kvecs).max())
        self._cos_idx = np.nonzero(self.is_cos)[0]
        self._sin_idx = np.nonzero(~self.is_cos)[0]
        self._grids: dict[int, BasisGrid] = {}

    def grid(self, M: int) -> BasisGrid:
        if M not in self._grids:
            self._grids[M] = BasisGrid(self, M)
        return self._grids[M]

    def _trig_table(self, points: np.ndarray) -> np.ndarray:
        """trig(k_n . x) for all modes at flat points (P, 2) -> (P, N)."""
        phases = points @ self.kvecs.T
        table = np.empty_like(phases)
        table[:, self._cos_idx] = np.cos(phases[:, self._cos_idx])
        table[:, self._sin_idx] = np.sin(phases[:, self._sin_idx])
        return table

    def velocity_at(self, points: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """Velocity samples at arbitrary points (..., 2) -> (..., 2).

        A stack of coefficient vectors (S, N) gives (S, ..., 2), one field
        per row, from a single trig table of the points."""
        pts = np.asarray(points, dtype=float)
        flat = pts.reshape(-1, 2)
        table = self._trig_table(flat)
        c = np.asarray(coeffs, dtype=float)
        u = (table * c[..., None, :]) @ (self.dirs * MODE_NORM)
        return u.reshape(c.shape[:-1] + pts.shape)

