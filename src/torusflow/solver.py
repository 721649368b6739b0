"""Galerkin solver for variable-density incompressible flow on the torus.

For a known advecting velocity history v and the transported density
rho = rho0 o Phi_v, the modal coefficients f of the unknown velocity satisfy

    A(t) f'(t) = -(B(t) + Lam) f(t),      f(0) = coefficients of u0,

where A_ij = (rho w_j, w_i) is the density-weighted mass matrix (symmetric
positive definite while the density stays away from zero), B_ij =
(rho (v . grad) w_j, w_i), and Lam = diag(lam_i) collects the Stokes
eigenvalues.  Both matrices are assembled by trapezoid quadrature on the
M x M grid at every Runge-Kutta stage time.  The nonlinear problem is the
fixed point v = u, reached by Picard iteration starting from the constant-in-
time initial velocity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .basis import BasisSet
from .fields import GridField, leray_pressure
from .transport import (
    DensitySource,
    DivergenceError,
    VelocityHistory,
    carried_densities,
    density_at,
)


class PicardNonConvergenceError(RuntimeError):
    def __init__(self, deltas, tol: float):
        super().__init__(
            f"Picard iteration did not reach tol={tol:g}; deltas={list(deltas)}"
        )
        self.deltas = list(deltas)


class VacuumDegenerateError(RuntimeError):
    """Mass matrix numerically singular (density too close to vacuum)."""

    def __init__(self, min_eig: float, threshold: float):
        super().__init__(
            f"mass matrix min eigenvalue {min_eig:.3e} <= threshold {threshold:.3e}"
        )
        self.min_eig = min_eig
        self.threshold = threshold


@dataclass
class GalerkinMatrices:
    a: np.ndarray
    b: np.ndarray
    lam: np.ndarray
    cho: tuple
    min_eig: float


@dataclass
class SolverState:
    """Self-consistent snapshot: fdot solves A fdot = -(B + Lam) f at (t, rho)."""

    t: float
    f: np.ndarray
    fdot: np.ndarray
    rho: GridField


def assemble(
    rho: GridField, v_grid: np.ndarray | None, basis: BasisSet, M: int
) -> GalerkinMatrices:
    """Build A, B, Lam at one time level.

    `v_grid` holds advecting-velocity samples (M, M, 2); None means zero
    advection (B = 0).  Raises VacuumDegenerateError when the smallest
    eigenvalue of A falls below 1e-10 * trace(A)/N.
    """
    grid = basis.grid(M)
    N = basis.size
    rho_flat = np.repeat(rho.values.reshape(-1), 2)
    Wf = grid.W.reshape(N, -1)
    a = grid.weight * ((Wf * rho_flat) @ Wf.T)
    a = 0.5 * (a + a.T)

    threshold = 1e-10 * np.trace(a) / N
    min_eig = float(np.linalg.eigvalsh(a)[0])
    if not np.isfinite(min_eig) or min_eig <= threshold:
        raise VacuumDegenerateError(min_eig, float(threshold))

    if v_grid is None:
        b = np.zeros((N, N))
    else:
        # conv[j] = (v . grad) w_j; entry b[i, j] pairs it against test mode w_i
        conv = np.einsum("abk,nabik->nabi", v_grid, grid.GW)
        b = grid.weight * ((Wf * rho_flat) @ conv.reshape(N, -1).T)

    return GalerkinMatrices(
        a=a,
        b=b,
        lam=basis.lambdas.copy(),
        cho=cho_factor(a, lower=True),
        min_eig=min_eig,
    )


def ode_rhs(f: np.ndarray, mats: GalerkinMatrices) -> np.ndarray:
    """fdot = -A^{-1} (B + Lam) f via the cached Cholesky factorization."""
    return cho_solve(mats.cho, -(mats.b @ f + mats.lam * f))


def _node_times(T: float, dt: float) -> np.ndarray:
    steps = max(1, int(round(T / dt)))
    return np.linspace(0.0, T, steps + 1)


def solve_linearized(
    v_hist,
    source: DensitySource,
    u0_coeffs: np.ndarray,
    basis: BasisSet,
    M: int,
    dt: float,
    T: float,
    dtau: float,
) -> VelocityHistory:
    """One linearized pass: advect the density along `v_hist`, then integrate
    the coefficient ODE with classical RK4, reassembling A and B at every
    stage time.  The densities at the stage times t0, t0 + h/2, t1, ... are
    streamed from one carried sweep.  Returns the full trajectory with nodal
    derivatives."""
    times = _node_times(T, dt)
    N = basis.size
    grid = basis.grid(M)
    stage_times = [times[0]]
    for k in range(len(times) - 1):
        stage_times += [times[k] + 0.5 * (times[k + 1] - times[k]), times[k + 1]]
    stages = zip(stage_times, carried_densities(source, v_hist, M, stage_times, dtau))
    flowing = bool(np.any(v_hist.coeffs != 0.0))

    def next_assembly() -> GalerkinMatrices:
        tau, rho = next(stages)
        v_grid = basis.velocity_at(grid.points, v_hist.coeffs_at(tau)) if flowing else None
        return assemble(rho, v_grid, basis, M)

    coeffs = np.empty((len(times), N))
    derivs = np.empty((len(times), N))
    coeffs[0] = np.asarray(u0_coeffs, dtype=float)

    mats_start = next_assembly()
    for k in range(len(times) - 1):
        h = times[k + 1] - times[k]
        f = coeffs[k]
        mats_mid = next_assembly()
        mats_end = next_assembly()

        k1 = ode_rhs(f, mats_start)
        k2 = ode_rhs(f + 0.5 * h * k1, mats_mid)
        k3 = ode_rhs(f + 0.5 * h * k2, mats_mid)
        k4 = ode_rhs(f + h * k3, mats_end)

        derivs[k] = k1
        coeffs[k + 1] = f + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(coeffs[k + 1])):
            raise DivergenceError(float(times[k + 1]))
        mats_start = mats_end

    derivs[-1] = ode_rhs(coeffs[-1], mats_start)
    return VelocityHistory(basis, times, coeffs, derivs)


@dataclass
class PicardReport:
    iterations: int
    deltas: list
    factors: list
    converged: bool
    tol: float


def picard_solve(
    source: DensitySource,
    u0_coeffs: np.ndarray,
    basis: BasisSet,
    M: int,
    dt: float,
    T: float,
    dtau: float,
    tol: float,
    max_iter: int,
    seed: str = "initial",
) -> tuple[VelocityHistory, PicardReport]:
    """Fixed-point iteration u^{m+1} = solve_linearized(u^m).

    The first advecting field is the initial velocity held constant in time
    (`seed="initial"`), or the zero field (`seed="zero"`).  Convergence is
    declared when sup over node times of the coefficient difference falls
    below `tol`; hitting `max_iter` first raises PicardNonConvergenceError
    carrying the contraction history.
    """
    if source.lower <= 0.0:
        # The mass matrix loses its uniform coercivity bound the moment the
        # density can vanish; demand a positive floor up front instead of
        # letting a near-singular factorization produce garbage.
        raise VacuumDegenerateError(source.lower, 0.0)
    u0 = np.asarray(u0_coeffs, dtype=float)
    if seed == "initial":
        v = VelocityHistory.constant(basis, u0, T)
    elif seed == "zero":
        v = VelocityHistory.constant(basis, np.zeros_like(u0), T)
    else:
        raise ValueError(f"unknown Picard seed {seed!r}")

    deltas: list[float] = []
    for _ in range(max_iter):
        u = solve_linearized(v, source, u0, basis, M, dt, T, dtau)
        prev = np.stack([v.coeffs_at(t) for t in u.times])
        delta = float(np.max(np.linalg.norm(u.coeffs - prev, axis=1)))
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
                converged=True,
                tol=tol,
            )
    raise PicardNonConvergenceError(deltas, tol)


def build_state(
    source: DensitySource,
    history: VelocityHistory,
    basis: BasisSet,
    M: int,
    dtau: float,
    t: float,
    rho: GridField | None = None,
) -> SolverState:
    """Self-consistent state along a (converged) trajectory: the density is
    transported by the trajectory itself and fdot is recomputed from fresh
    matrices, so the state satisfies the modal system at time t.  `rho` is
    that density when the caller already carries it along `history`;
    otherwise it is backtracked from t."""
    f = history.coeffs_at(t)
    if rho is None:
        rho = density_at(source, history, M, t, dtau)
    grid = basis.grid(M)
    v_grid = grid.synthesize(f)
    mats = assemble(rho, v_grid, basis, M)
    return SolverState(t=float(t), f=f, fdot=ode_rhs(f, mats), rho=rho)


@dataclass
class ResidualReport:
    """Modal residuals of the momentum balance at one state.

    The mode-i residual is |(rho udot, w_i) + lam_i f_i| with udot = d_t u +
    (u . grad) u recomputed on the grid; `orthogonality_max` is its maximum
    (weak-form residual per mode) and `projection_rel` their Euclidean norm
    (the L2 distance between lap u and the modal projection of rho udot,
    since both fields lie in the basis span) relative to ||u||_2.  `pressure`
    is the diagnostic pressure recovered from the Helmholtz decomposition of
    lap u - rho udot.
    """

    orthogonality_max: float
    projection_rel: float
    pressure: GridField


def residual_diagnostics(state: SolverState, basis: BasisSet, M: int) -> ResidualReport:
    grid = basis.grid(M)
    u = grid.synthesize(state.f)
    grad_u = grid.synthesize_gradient(state.f)
    ut = grid.synthesize(state.fdot)
    udot = ut + np.einsum("abk,abik->abi", u, grad_u)
    g = state.rho.values[..., None] * udot

    c = grid.project(g)
    lap_coeffs = -basis.lambdas * state.f
    resid_vec = c - lap_coeffs  # = (rho udot, w_i) + lam_i f_i
    fnorm = float(np.linalg.norm(state.f))
    proj_l2 = float(np.linalg.norm(resid_vec))

    lap_u = grid.synthesize(lap_coeffs)
    resid_field = lap_u - g
    resid_field = resid_field - resid_field.mean(axis=(0, 1))
    pressure = leray_pressure(GridField(resid_field))

    return ResidualReport(
        orthogonality_max=float(np.abs(resid_vec).max()),
        projection_rel=proj_l2 / fnorm if fnorm > 0 else proj_l2,
        pressure=pressure,
    )
