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
every synthesis, evaluation or projection is a matrix product on them; a
velocity gradient on the grid is `fields.spectral_gradient` of the
synthesized velocity, exact for every basis wavenumber the grid admits.
`BasisSet.vec` = MODE_NORM d_n is the one home of the mode directions: a
coefficient row c weighs into the factors c_n MODE_NORM d_n (N, 2)
(`BasisSet.weigh`), and a velocity is the cosine table times those factors,
at points (`BasisSet.weighted_at`) or on the grid (`BasisGrid.planes`,
which every grid synthesis goes through).

One layout rule holds throughout: a vector field on the grid is a stack of
component planes, (..., 2, M, M) for a velocity [v_x, v_y], and its
gradient the pair (d_x u, d_y u) of such planes that
`fields.spectral_gradient` returns; an array of points, and a velocity at
points, ends in its 2 coordinates, (..., 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import grid_points, quadrature_weight, spectral_gradient

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
    of its `BasisSet.phases`, so the grid holds the scalar table `trig`
    (T_n), shape (N, M*M), and the factors `vec` = `BasisSet.vec` (N, 2).
    The velocity gradient is `fields.spectral_gradient` of the synthesized
    planes: M >= 2 kmax + 1 keeps every basis wavenumber below the grid's
    Nyquist limit, so it is the modal gradient up to round-off, with no
    table of its own.

    The Galerkin matrices read a pruned DFT instead (`moments`): the sums
    F_q = sum_x f(x) e^{-i q.x} at the wavevectors q = k_i +- k_j, from two
    per-axis tables, `dft_y` (M, 2 (2 kmax + 1)), the real and imaginary
    parts of e^{-i q2 y} for q2 = 0 .. 2 kmax, interleaved, and `dft_x`
    (2 (4 kmax + 1), M), cos(q1 x) then sin(q1 x) for q1 = -2 kmax ..
    2 kmax.  Every q = k_i +- k_j or its negative lies in that rectangle,
    and F_{-q} = conj F_q.  With phi_n = k_n.x - s_n,

        T_i T_j = (cos(phi_i + phi_j) + cos(phi_i - phi_j)) / 2,
        T_i T'_j = (sin(phi_i - phi_j) - sin(phi_i + phi_j)) / 2,

    and s_i +- s_j a multiple of pi/2, so each quadrature sum of f T_i T_j
    or f T_i T'_j is one signed real or imaginary part of F at each of
    k_i + k_j and k_i - k_j, the same sum at every grid point, aliasing
    included.  The moments of rho, rho v_x and rho v_y, flattened to one
    real row per stage, hold those parts; `a_cols` (2, N, N) and `b_cols`
    (4, N, N) are their columns, and `a_weights` and `b_weights` their signs
    times G_ij / 2, G_ij = h^2 MODE_NORM^2 (d_i . d_j): for A the sums at
    k_i + k_j and k_i - k_j in rho; for B the same two in rho v_x, then in
    rho v_y, times the component of k_j.
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
        self._weigh = basis.weigh
        self.vec = basis.vec

        reach = 2 * basis.kmax
        nodes = np.arange(self.M, dtype=float)
        turn = 2.0 * np.pi / self.M
        y = turn * np.remainder(np.outer(nodes, np.arange(reach + 1.0)), self.M)
        self.dft_y = np.stack([np.cos(y), -np.sin(y)], axis=-1).reshape(self.M, -1)
        x = turn * np.remainder(np.outer(np.arange(-reach, reach + 1.0), nodes), self.M)
        self.dft_x = np.concatenate([np.cos(x), np.sin(x)])

        half_gram = 0.5 * self.weight * MODE_NORM**2 * (basis.dirs @ basis.dirs.T)
        (cos_plus, sin_plus), (cos_minus, sin_minus) = (
            _pair_terms(basis, sign) for sign in (1.0, -1.0)
        )
        width = 2 * (2 * reach + 1) * (reach + 1)  # floats per field in a moment row
        self.a_cols = np.stack([cos_plus[0], cos_minus[0]]).astype(np.intp)
        self.a_weights = half_gram * np.stack([cos_plus[1], cos_minus[1]])
        sin_cols = np.stack([sin_plus[0], sin_minus[0]])
        sin_weights = half_gram * np.stack([-sin_plus[1], sin_minus[1]])
        self.b_cols = np.concatenate([sin_cols + width, sin_cols + 2 * width]).astype(np.intp)
        self.b_weights = np.concatenate([sin_weights * basis.kvecs[:, c] for c in (0, 1)])

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Velocity component planes (..., 2, M, M) of coefficient vectors
        (..., N): the `planes` of their `BasisSet.weigh` rows, so that a
        stack (S, N) gives one field per row."""
        return self.planes(self._weigh(coeffs))

    def synthesize_gradient(
        self, coeffs: np.ndarray
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """Velocity planes u (..., 2, M, M) of coefficient vectors (..., N)
        and their gradient, the pair (d_x u, d_y u) of planes (..., 2, M, M):
        `synthesize`, then `fields.spectral_gradient` of it, exact up to
        round-off since the alias guard keeps every basis wavenumber below
        the grid's Nyquist limit."""
        u = self.synthesize(coeffs)
        return u, spectral_gradient(u)

    def planes(self, weights: np.ndarray) -> np.ndarray:
        """Velocity component planes (..., 2, M, M), [v_x, v_y], of weighted
        rows (..., N, 2) from `BasisSet.weigh`: the one synthesis product,
        the transposed rows times the cosine table."""
        u = weights.swapaxes(-1, -2) @ self.trig
        return u.reshape(weights.shape[:-2] + (2, self.M, self.M))

    def moments(self, fields: np.ndarray) -> np.ndarray:
        """The pruned DFT F_q = sum_x f(x) e^{-i q.x} of real grid fields
        (..., M, M) at q = (q1, q2), q1 = -2 kmax .. 2 kmax, q2 = 0 ..
        2 kmax, as real and imaginary parts (..., 4 kmax + 1, 2 kmax + 1, 2):
        np.fft.fft2 at q mod M, from two per-axis products in real
        arithmetic, field by field, so that a field's moments do not depend
        on the stack it comes in."""
        lead, M = fields.shape[:-2], self.M
        # Per field: rows[a] = sum_b f e^{-i q2 y_b}, then cos(q1 x) and
        # sin(q1 x) times rows, so e^{-i q1 x} = cos - i sin combines them.
        rows = np.matmul(fields.reshape(-1, M, M), self.dft_y)
        both = np.matmul(self.dft_x, rows)
        both = both.reshape(len(rows), 2, len(self.dft_x) // 2, -1, 2)
        cos_x, sin_x = both[:, 0], both[:, 1]
        out = np.empty(cos_x.shape)
        np.add(cos_x[..., 0], sin_x[..., 1], out=out[..., 0])
        np.subtract(cos_x[..., 1], sin_x[..., 0], out=out[..., 1])
        return out.reshape(lead + out.shape[1:])

    def project(self, values: np.ndarray) -> np.ndarray:
        """Quadrature inner products (values, w_n) for all modes of vector
        fields given as component planes (..., 2, M, M); a stack of fields
        gives (..., N)."""
        moments = values.reshape(values.shape[:-2] + (-1,)) @ self.trig.T
        return self.weight * (moments * self.vec.T).sum(axis=-2)


def _pair_terms(basis: "BasisSet", sign: float):
    """Where the pruned DFT holds the sums of f cos and f sin of
    phi_i + sign phi_j = q.x - sigma, q = k_i + sign k_j, for every mode
    pair: ((cols, signs) of the cos sum, (cols, signs) of the sin sum), each
    (N, N), columns into the flat real view of `moments` as whole floats.

    With F_q = C_q - i S_q and sigma a multiple of pi/2, sum f cos =
    cos(sigma) C_q + sin(sigma) S_q and sum f sin = cos(sigma) S_q -
    sin(sigma) C_q, one term each.  A q outside the table's half-plane
    (q2 < 0, or q2 = 0 and q1 < 0) reads F_{-q} = conj F_q instead.  Float
    arithmetic throughout: every value is a small whole number or pi/2
    times one."""
    reach = 2 * basis.kmax
    q = basis.kvecs[:, None, :] + sign * basis.kvecs[None, :, :]
    sigma = basis.shifts[:, None] + sign * basis.shifts[None, :]
    conj = np.sign(q[..., 1] * (2 * reach + 1) + q[..., 0] + 0.5)  # S_q = -conj Im F
    real = 2 * ((conj * q[..., 0] + reach) * (reach + 1) + conj * q[..., 1])
    c, s = np.rint(np.cos(sigma)), np.rint(np.sin(sigma))
    cos_sum = (real + 1 - np.abs(c), c - conj * s)
    sin_sum = (real + 1 - np.abs(s), -s - conj * c)
    return cos_sum, sin_sum


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
        is cos of its phase."""
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
