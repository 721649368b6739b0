"""Divergence-free trigonometric eigenbasis on the 2D torus [0, 2pi)^2.

Each basis field has the form

    w(x) = (-k2, k1)/|k| * cos(k.x - s) / (sqrt(2)*pi),   s in {0, pi/2},

with integer wavevector k = (k1, k2) != 0 drawn from the canonical half-space
k1 > 0, or (k1 = 0 and k2 > 0), and shift s = 0 for a "cos" mode, pi/2 for a
"sin" mode.  Every such field is 2pi-periodic, solenoidal (the direction is
orthogonal to k), unit-norm in L2, and an eigenfield of the Stokes operator
with eigenvalue lam = |k|^2 and vanishing eigenpressure.

Modes are enumerated by increasing eigenvalue; ties are broken by k1
descending, then k2 ascending, cosine before sine, which makes the enumeration
deterministic and keeps k=(1,0) cosine the first mode.

`BasisSet.phases` is the one home of the rule: the phases k.x - s of every
mode at any points.  The tables on the M x M grid (`BasisGrid`) and the
off-grid values of `BasisSet.velocity_at` are cosines of those phases, and
every synthesis, evaluation or projection is a matrix product on them.
`BasisSet.vec` = MODE_NORM d_n is the one home of the mode directions: a
coefficient row c weighs into the factors c_n MODE_NORM d_n (N, 2)
(`BasisSet.weigh`), and a velocity is the cosine table times those factors,
at points (`BasisSet.weighted_at`) or on the grid as component planes
(`BasisGrid.planes`).
"""

from __future__ import annotations

import math
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


def enumerate_modes(count: int) -> list[BasisMode]:
    """First `count` modes ordered by (lam, -k1, k2, cos-before-sin).

    Every canonical k with lam <= r^2 carries two modes, and for
    r = isqrt(count) + 1 the disk holds at least `count` of them, so the
    sorted prefix lists every mode up to the count-th."""
    if count < 1:
        raise ValueError("mode count must be >= 1")
    r = math.isqrt(count) + 1
    # "cos" sorts before "sin", so the tuples sort in the stated order.
    keys = sorted(
        (k1 * k1 + k2 * k2, -k1, k2, parity)
        for k1 in range(r + 1)
        for k2 in range(-r, r + 1)
        if (k1 > 0 or (k1 == 0 and k2 > 0)) and k1 * k1 + k2 * k2 <= r * r
        for parity in ("cos", "sin")
    )
    return [
        BasisMode(k=(-neg_k1, k2), parity=parity, lam=lam)
        for lam, neg_k1, k2, parity in keys[:count]
    ]


class BasisGrid:
    """Scalar tables of every basis mode on the uniform M x M grid.

    Grid nodes are x_ab = (2pi a/M, 2pi b/M), array index [a, b], flattened
    to a*M + b; `points` is the shared `fields.grid_points` array and
    `weight` the trapezoid quadrature weight (2pi/M)^2.

    Every mode factors as w_n = MODE_NORM d_n T_n(x), with T_n the cosine
    of its `BasisSet.phases` and gradient MODE_NORM (d_n x k_n) T'_n(x),
    T'_n = -sin of the same phase, so the grid holds only the scalar tables
    `trig` (T_n), shape (N, M*M), and `dtrig` (T'_n), shape (M*M, N), the
    layout each one's products read, the factors `vec` = `BasisSet.vec`
    (N, 2) and `grad_vec` = MODE_NORM d_n x k_n (N, 2, 2), and `gram` =
    h^2 MODE_NORM^2 (d_i . d_j) (N, N) for the Galerkin matrices.
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
        phases = basis.phases(self.points.reshape(-1, 2))
        self.trig = np.cos(phases.T, order="C")
        self.dtrig = -np.sin(phases)
        self.vec = basis.vec
        self.grad_vec = self.vec[:, :, None] * basis.kvecs[:, None, :]
        self.gram = self.weight * MODE_NORM**2 * (basis.dirs @ basis.dirs.T)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Velocity samples (..., M, M, 2) for coefficient vectors (..., N):
        a stack (S, N) gives one field per row."""
        u = self.trig.T @ (coeffs[..., :, None] * self.vec)
        return u.reshape(coeffs.shape[:-1] + (self.M, self.M, 2))

    def synthesize_gradient(self, coeffs: np.ndarray) -> np.ndarray:
        """Gradient samples (..., M, M, 2, 2), index [..., a, b, i, alpha],
        for coefficient vectors (..., N)."""
        lead = coeffs.shape[:-1]
        factors = (coeffs[..., :, None, None] * self.grad_vec).reshape(lead + (-1, 4))
        return (self.dtrig @ factors).reshape(lead + (self.M, self.M, 2, 2))

    def planes(self, weights: np.ndarray) -> np.ndarray:
        """Velocity component planes (..., 2, M, M), [v_x, v_y], of weighted
        rows (..., N, 2) from `BasisSet.weigh`: the product `synthesize`
        takes, transposed so that its rows are the planes."""
        u = weights.swapaxes(-1, -2) @ self.trig
        return u.reshape(weights.shape[:-2] + (2, self.M, self.M))

    def project(self, values: np.ndarray) -> np.ndarray:
        """Quadrature inner products (values, w_n) for all modes of vector
        fields (..., M, M, 2); a stack of fields gives (..., N)."""
        moments = self.trig @ values.reshape(values.shape[:-3] + (-1, 2))
        return self.weight * (moments * self.vec).sum(axis=-1)


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
        self.shifts = np.array([0.0 if m.parity == "cos" else 0.5 * np.pi for m in self.modes])
        self.vec = MODE_NORM * self.dirs
        self.kmax = int(np.abs(self.kvecs).max())
        self._grids: dict[int, BasisGrid] = {}

    def grid(self, M: int) -> BasisGrid:
        if M not in self._grids:
            self._grids[M] = BasisGrid(self, M)
        return self._grids[M]

    def phases(self, points: np.ndarray) -> np.ndarray:
        """k_n . x - s_n for all modes at points (..., 2) -> (..., N): mode n
        is cos of its phase, its derivative along k_n -sin of it."""
        return points @ self.kvecs.T - self.shifts

    def velocity_at(self, points: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """Velocity samples at arbitrary points (..., 2) -> (..., 2).

        A stack of coefficient vectors (S, N) gives (S, ..., 2), one field
        per row, from the product `BasisGrid.synthesize` takes on the grid."""
        pts = np.asarray(points, dtype=float)
        return self.weighted_at(pts, self.weigh(np.asarray(coeffs, dtype=float)))

    def weigh(self, coeffs: np.ndarray) -> np.ndarray:
        """The factors c_n MODE_NORM d_n (..., N, 2) of coefficient rows
        (..., N): the velocity of a row is sum_n T_n(x) times its factors."""
        return coeffs[..., :, None] * self.vec

    def weighted_at(self, points: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """`velocity_at` for rows already weighed, (N, 2) or (S, N, 2): a
        caller that evaluates one row at many sets of points weighs it
        once."""
        u = np.cos(self.phases(points.reshape(-1, 2))) @ weights
        return u.reshape(weights.shape[:-2] + points.shape)
