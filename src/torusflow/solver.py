"""Galerkin solver for variable-density incompressible flow on the torus.

For a known advecting velocity history v and the transported density
rho = rho0 o Phi_v, the modal coefficients f of the unknown velocity satisfy

    A(t) f'(t) = -(B(t) + Lam) f(t),      f(0) = coefficients of u0,

where A_ij = (rho w_j, w_i) is the density-weighted mass matrix, B_ij =
(rho (v . grad) w_j, w_i), and Lam = diag(lam_i) collects the Stokes
eigenvalues.  A is positive definite at every finite N whenever rho is
positive on an open set, vacuum elsewhere included; the eigenvalue guard
checks this at every stage and is the one place that refuses a density.
Both matrices are assembled by trapezoid quadrature on the M x M grid for
every Runge-Kutta stage time, in blocks of stage times: with
w_n = MODE_NORM d_n T_n(x) and G_ij = h^2 MODE_NORM^2 (d_i . d_j),

    A_ij = G_ij sum_x rho T_i T_j,    B_ij = G_ij sum_x rho T_i T'_j (v . k_j).

Each product T_i T_j or T_i T'_j is half a sum of the cosines or sines of
(k_i +- k_j).x - (s_i +- s_j) (Orszag 1971, J. Atmos. Sci. 28; Canuto,
Hussaini, Quarteroni & Zang, Spectral Methods, 2006), so each quadrature
sum is two signed moments of rho (for B of rho v_x and rho v_y, contracted
with k_j) at the wavevectors k_i +- k_j: the same sums, aliasing included.
A stage costs a pruned DFT of three grid fields (`BasisGrid.moments`) and
two gathers, O(M^2 kmax + N^2) instead of O(N^2 M^2).  One call guards a
block's mass matrices (batched eigvalsh) and forms its RK4 operators
A^{-1}(B + Lam) (batched solve); the RK4 loop itself, `transport.rk4_step`
with `ode_rhs` as its rate, only does mat-vecs.  The nonlinear problem is
the fixed point v = u, reached by Picard iteration starting from the
constant-in-time initial velocity.

`build_state` gives the self-consistent states of a stack of node
coefficients and densities, one assembly block for all of them, with their
grid fields u, grad u and u_t synthesized once for every reader;
`residual_diagnostics` reduces the same stack.  The ledger walk calls both
on a block of nodes, the snapshot writer on a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .basis import BasisSet
from .fields import leray_pressure
from .transport import (
    DensitySource,
    DivergenceError,
    VelocityHistory,
    _rk4_times,
    carried_densities,
    rk4_step,
)


class PicardNonConvergenceError(RuntimeError):
    def __init__(self, deltas, tol: float):
        super().__init__(
            f"Picard iteration did not reach tol={tol:g}; deltas={list(deltas)}"
        )
        self.deltas = list(deltas)


class VacuumDegenerateError(RuntimeError):
    """A stage's mass matrix failed the eigenvalue guard: numerically
    singular (a density support too small for the basis) or not finite."""

    def __init__(self, min_eig: float, threshold: float):
        super().__init__(
            f"mass matrix min eigenvalue {min_eig:.3e} <= threshold {threshold:.3e}"
        )
        self.min_eig = min_eig
        self.threshold = threshold


# Grid points per block of stage times in `solve_linearized`: 50 stages at
# M = 16, 12 at M = 32, 8 at M = 40.  A block's widest temporaries are its
# grid fields, the (S, M, M, 2) velocity samples and the (S, M, M) density
# and flux planes that `assemble` transforms, so their size follows the
# block's grid points, not its stage count, like the ledger walk's
# WALK_POINTS; a larger block saves per-block calls.
STAGE_POINTS = 12_800


@dataclass
class GalerkinMatrices:
    """Matrices of a block of S stage times.

    `a` and `b` are (S, N, N); `min_eig` and `threshold` are the eigenvalue
    guard of each stage; `op` holds the RK4 operators A^{-1}(B + Lam) of the
    leading stages that pass the guard, so it is shorter than S when a stage
    fails.
    """

    a: np.ndarray
    b: np.ndarray
    min_eig: np.ndarray
    threshold: np.ndarray
    op: np.ndarray

    def operators(self, count: int) -> np.ndarray:
        """RK4 operators (count, N, N) of the first `count` stages; raises
        VacuumDegenerateError for the block's first failing stage if it is
        among them."""
        if count > len(self.op):
            first = len(self.op)
            raise VacuumDegenerateError(float(self.min_eig[first]), float(self.threshold[first]))
        return self.op[:count]


@dataclass(frozen=True)
class SolverState:
    """A stack of S self-consistent states: fdot solves A fdot = -(B + Lam) f
    at (f, rho) for each of them.  Every field has the stack axis first: f
    and fdot (S, N), the densities rho (S, M, M), and the grid fields u
    (S, M, M, 2), grad_u (S, M, M, 2, 2) and ut (S, M, M, 2) of f and
    fdot."""

    f: np.ndarray
    fdot: np.ndarray
    rho: np.ndarray
    u: np.ndarray
    grad_u: np.ndarray
    ut: np.ndarray


def assemble(rho: np.ndarray, v_grid: np.ndarray, basis: BasisSet, M: int) -> GalerkinMatrices:
    """Build A, B and the RK4 operators for a block of S stage times.

    `rho` holds densities (S, M, M), `v_grid` advecting-velocity samples
    (S, M, M, 2).  A and B are read off the moments of rho, rho v_x and
    rho v_y at k_i +- k_j, one gather each, with the signs and G_ij / 2 of
    the `BasisGrid` tables folded in.  A stage fails the guard when the
    smallest eigenvalue of its A is not above 1e-10 * trace(A)/N (or A is
    not finite); `GalerkinMatrices.operators` raises VacuumDegenerateError
    once that stage is asked for.
    """
    grid = basis.grid(M)
    N = basis.size
    S = rho.shape[0]
    # The moments of rho, rho v_x and rho v_y, one field at a time: with no
    # (S, 3, M, M) stack, glibc malloc does not trim the heap top and fault
    # it back in every block.
    flow = rho * v_grid[..., 0]
    moments = [grid.moments(rho), grid.moments(flow)]
    np.multiply(rho, v_grid[..., 1], out=flow)
    moments.append(grid.moments(flow))
    moments = np.stack(moments, axis=1).reshape(S, -1)
    a = _gather(moments, grid.a_cols, grid.a_weights)

    threshold = 1e-10 * np.trace(a, axis1=1, axis2=2) / N
    min_eig = np.full(S, np.nan)
    finite = np.isfinite(a).all(axis=(1, 2))
    min_eig[finite] = np.linalg.eigvalsh(a[finite])[:, 0]
    passed = min_eig > threshold
    usable = S if passed.all() else int(np.argmin(passed))

    b = _gather(moments, grid.b_cols, grid.b_weights)

    op = np.linalg.solve(a[:usable], b[:usable] + np.diag(basis.lambdas))
    return GalerkinMatrices(a=a, b=b, min_eig=min_eig, threshold=threshold, op=op)


def _gather(moments: np.ndarray, cols: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_t weights[t] * moments[:, cols[t]] (S, N, N) for flat moment rows
    (S, W) and term tables (T, N, N), summed in term order for every stage
    alike."""
    terms = moments[:, cols]
    terms *= weights
    return terms.sum(axis=1)


def ode_rhs(f: np.ndarray, op: np.ndarray) -> np.ndarray:
    """fdot = -A^{-1} (B + Lam) f for one stage's operator (N, N) and f
    (N,), or for stacks of operators (S, N, N) and columns f (S, N, 1)."""
    return -(op @ f)


def _node_times(T: float, dt: float) -> np.ndarray:
    steps = max(1, int(round(T / dt)))
    return np.linspace(0.0, T, steps + 1)


def _stage_operators(
    v_hist, source: DensitySource, basis: BasisSet, M: int, stage_times
) -> Iterator[np.ndarray]:
    """RK4 operators at the increasing `stage_times`, assembled in blocks of
    about STAGE_POINTS grid points from one carried density sweep.

    Failures surface in stage order: a block's VacuumDegenerateError when its
    stage is reached, and the sweep's TransportDriftError, raised at its last
    time or at its first non-finite displacement, after every earlier stage
    has been yielded."""
    points = basis.grid(M).points
    size = max(1, STAGE_POINTS // (M * M))
    for lo, rho in carried_densities(source, v_hist, M, stage_times, size):
        coeffs = v_hist.coeffs_at(stage_times[lo : lo + len(rho)])
        mats = assemble(rho, basis.velocity_at(points, coeffs), basis, M)
        # Drop the block's fields before its operators are used, so that the
        # sweep's next block reuses their memory instead of growing the heap.
        count = len(rho)
        del rho, coeffs
        yield from mats.op
        mats.operators(count)


def solve_linearized(
    v_hist,
    source: DensitySource,
    u0_coeffs: np.ndarray,
    basis: BasisSet,
    M: int,
    dt: float,
    T: float,
) -> VelocityHistory:
    """One linearized pass: advect the density along `v_hist`, then integrate
    the coefficient ODE with classical RK4 on operators assembled at every
    stage time t0, t0 + h/2, t1, ...; the densities there are streamed from
    one carried sweep.  Returns the full trajectory with nodal derivatives."""
    times = _node_times(T, dt)
    N = basis.size
    ops = _stage_operators(v_hist, source, basis, M, _rk4_times(times))

    coeffs = np.empty((len(times), N))
    derivs = np.empty((len(times), N))
    coeffs[0] = np.asarray(u0_coeffs, dtype=float)

    op_start = next(ops)
    for k in range(len(times) - 1):
        h = times[k + 1] - times[k]
        op_mid = next(ops)
        op_end = next(ops)
        coeffs[k + 1], derivs[k] = rk4_step(coeffs[k], ode_rhs, h, op_start, op_mid, op_end)
        if not np.all(np.isfinite(coeffs[k + 1])):
            raise DivergenceError(float(times[k + 1]))
        op_start = op_end

    derivs[-1] = ode_rhs(coeffs[-1], op_start)
    return VelocityHistory(basis, times, coeffs, derivs)


@dataclass
class PicardReport:
    iterations: int
    deltas: list
    factors: list
    tol: float


def picard_solve(
    source: DensitySource,
    u0_coeffs: np.ndarray,
    basis: BasisSet,
    M: int,
    dt: float,
    T: float,
    tol: float,
    max_iter: int,
    seed: str = "initial",
) -> tuple[VelocityHistory, PicardReport]:
    """Fixed-point iteration u^{m+1} = solve_linearized(u^m).

    The first advecting field is the initial velocity held constant in time
    (`seed="initial"`), or the zero field (`seed="zero"`).  Convergence is
    declared when sup over node times of the coefficient difference falls
    below `tol`; hitting `max_iter` first raises PicardNonConvergenceError
    carrying the contraction history.  Vacuum is solved as given; only the
    stage guard (VacuumDegenerateError) refuses a density.
    """
    u0 = np.asarray(u0_coeffs, dtype=float)
    if seed == "initial":
        v = VelocityHistory.constant(basis, u0, T)
    elif seed == "zero":
        v = VelocityHistory.constant(basis, np.zeros_like(u0), T)
    else:
        raise ValueError(f"unknown Picard seed {seed!r}")

    deltas: list[float] = []
    for _ in range(max_iter):
        u = solve_linearized(v, source, u0, basis, M, dt, T)
        # Dense output at a node returns the node's coefficients exactly.
        delta = float(np.max(np.linalg.norm(u.coeffs - v.coeffs_at(u.times), axis=1)))
        deltas.append(delta)
        v = u
        if delta <= tol:
            factors = [
                deltas[i] / deltas[i - 1]
                for i in range(1, len(deltas))
                if deltas[i - 1] > 0
            ]
            return u, PicardReport(
                iterations=len(deltas),
                deltas=deltas,
                factors=factors,
                tol=tol,
            )
    raise PicardNonConvergenceError(deltas, tol)


def build_state(basis: BasisSet, M: int, f: np.ndarray, rho: np.ndarray) -> SolverState:
    """Self-consistent states of a trajectory at a stack of times, from its
    coefficients f (S, N) and its densities rho (S, M, M) there: fdot is
    recomputed from fresh matrices, one assembly block for the stack, so
    each state satisfies the modal system at its time.  The velocity u is
    also the advecting field of the assembly.  A state that fails the
    eigenvalue guard raises VacuumDegenerateError for the first such
    state."""
    grid = basis.grid(M)
    u = grid.synthesize(f)
    mats = assemble(rho, u, basis, M)
    fdot = ode_rhs(f[:, :, None], mats.operators(len(f)))[:, :, 0]
    grad_u, ut = grid.synthesize_gradient(f), grid.synthesize(fdot)
    return SolverState(f=f, fdot=fdot, rho=rho, u=u, grad_u=grad_u, ut=ut)


@dataclass
class ResidualReport:
    """Modal residuals of the momentum balance at a stack of S states.

    The mode-i residual is |(rho udot, w_i) + lam_i f_i| with udot = d_t u +
    (u . grad) u recomputed on the grid; `orthogonality_max` (S,) is its
    maximum over modes (weak-form residual per mode) and `projection_rel`
    (S,) their Euclidean norm (the L2 distance between lap u and the modal
    projection of rho udot, since both fields lie in the basis span)
    relative to ||u||_2.  `pressure` (S, M, M) is the diagnostic pressure
    recovered from the Helmholtz decomposition of lap u - rho udot.
    """

    orthogonality_max: np.ndarray
    projection_rel: np.ndarray
    pressure: np.ndarray


def residual_diagnostics(state: SolverState, basis: BasisSet, M: int) -> ResidualReport:
    grid = basis.grid(M)
    udot = state.ut + np.einsum("sabk,sabik->sabi", state.u, state.grad_u)
    g = state.rho[..., None] * udot

    c = grid.project(g)
    lap_coeffs = -basis.lambdas * state.f
    resid_vec = c - lap_coeffs  # = (rho udot, w_i) + lam_i f_i
    fnorm = np.linalg.norm(state.f, axis=1)
    proj_l2 = np.linalg.norm(resid_vec, axis=1)

    lap_u = grid.synthesize(lap_coeffs)
    resid_field = lap_u - g
    resid_field = resid_field - resid_field.mean(axis=(1, 2), keepdims=True)
    pressure = leray_pressure(resid_field)

    return ResidualReport(
        orthogonality_max=np.abs(resid_vec).max(axis=1),
        projection_rel=proj_l2 / np.where(fnorm > 0, fnorm, 1.0),
        pressure=pressure,
    )
