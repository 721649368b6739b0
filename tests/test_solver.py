"""Galerkin assembly, linearized solves, and the Picard fixed point."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import assemble_stage, narrow_density, scripted_density

from torusflow import solver, transport
from torusflow.basis import BasisSet
from torusflow.estimates import convergence_orders
from torusflow.solver import (
    DivergenceError,
    VacuumDegenerateError,
    assemble,
    build_state,
    ode_rhs,
    picard_solve,
    residual_diagnostics,
    solve_linearized,
)
from torusflow.transport import (
    TransportDriftError,
    VelocityHistory,
    bump_density,
    constant_density,
    density_at,
    lift_floor,
    vacuum_well_density,
)

RNG = np.random.default_rng(11)


def ones_density(M, S=1):
    return np.ones((S, M, M))


def still(M, S=1):
    """Zero advecting-velocity samples: B = 0."""
    return np.zeros((S, M, M, 2))


def bump_grid(M):
    from torusflow.fields import grid_points

    pts = grid_points(M)
    return (2.0 + np.sin(pts[..., 0]) * np.sin(pts[..., 1]))[None]


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_mass_matrix_identity_for_unit_density():
    basis = BasisSet(9)
    mats = assemble(ones_density(16, S=3), still(16, S=3), basis, 16)
    assert mats.a.shape == mats.b.shape == mats.op.shape == (3, 9, 9)
    np.testing.assert_allclose(mats.a, np.broadcast_to(np.eye(9), (3, 9, 9)), atol=1e-12)
    assert np.all(mats.b == 0.0)


def test_mass_matrix_scales_with_constant_density():
    basis = BasisSet(4)
    mats = assemble(np.full((1, 16, 16), 2.5), still(16), basis, 16)
    np.testing.assert_allclose(mats.a[0], 2.5 * np.eye(4), atol=1e-12)


def test_mass_matrix_coercivity():
    basis = BasisSet(9)
    mats = assemble(bump_grid(32), still(32), basis, 32)
    assert mats.min_eig[0] >= 1.0 - 1e-10  # density lower bound is 1
    np.testing.assert_allclose(mats.a[0], mats.a[0].T, atol=0)  # symmetric as gathered


def test_advection_matrix_skew_for_unit_density():
    # With rho constant and v solenoidal, (v.grad w_j, w_i) is antisymmetric.
    basis = BasisSet(9)
    grid = basis.grid(32)
    v = grid.synthesize(RNG.standard_normal(9))
    mats = assemble(ones_density(32), v[None], basis, 32)
    np.testing.assert_allclose(mats.b[0] + mats.b[0].T, np.zeros((9, 9)), atol=1e-12)


def test_assemble_rejects_zero_density():
    basis = BasisSet(4)
    mats = assemble(np.zeros((1, 16, 16)), still(16), basis, 16)
    assert len(mats.op) == 0
    with pytest.raises(VacuumDegenerateError):
        mats.operators(1)


def test_block_guard_reports_first_failing_stage():
    # Stages 0 and 1 pass; 2, 3 and 4 fail the guard with different
    # eigenvalues and thresholds: mass on one grid row only (A is singular,
    # threshold > 0), a NaN density and vacuum (threshold 0).  The error
    # reports stage 2, and only once stage 2 is reached.
    basis = BasisSet(4)
    M = 16
    rho = np.ones((6, M, M))
    rho[2] = 0.0
    rho[2, 0] = 1.0
    rho[3] = np.nan
    rho[4] = 0.0
    mats = assemble(rho, still(M, S=6), basis, M)
    assert len(mats.op) == 2
    np.testing.assert_array_equal(mats.operators(2), mats.op)
    first, threshold = mats.min_eig[2], mats.threshold[2]
    assert first <= threshold and threshold > 0.0 == mats.threshold[4]
    assert np.isnan(mats.min_eig[3])
    for count in (3, 4, 6):
        with pytest.raises(VacuumDegenerateError) as err:
            mats.operators(count)
        assert (err.value.min_eig, err.value.threshold) == (first, threshold)


@settings(max_examples=40, deadline=None)
@example(N=32, extra=3, S=3, near_vacuum=False, flowing=True, seed=32)
@example(N=32, extra=0, S=2, near_vacuum=True, flowing=True, seed=33)
@example(N=64, extra=5, S=2, near_vacuum=False, flowing=True, seed=64)
@example(N=64, extra=0, S=2, near_vacuum=True, flowing=True, seed=65)
@given(
    N=st.sampled_from([1, 4, 8, 13]),
    extra=st.integers(0, 6),
    S=st.integers(1, 4),
    near_vacuum=st.booleans(),
    flowing=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_assembly_matches_stage_oracle(N, extra, S, near_vacuum, flowing, seed):
    # Random densities, positive or with most of the grid at a 1e-6 floor,
    # and random velocity samples, which lie outside the basis span.  Each
    # stage of the block must equal the vector-table assembly to 1e-13 of
    # the bound 2 max(rho) (max|v| max|k| for B) that caps every entry.
    rng = np.random.default_rng(seed)
    basis = BasisSet(N)
    M = 2 * basis.kmax + 1 + extra
    rho = rng.uniform(0.5, 2.0, (S, M, M))
    if near_vacuum:
        rho = np.where(rng.random((S, M, M)) < 0.8, 1e-6, rho)
    v = rng.standard_normal((S, M, M, 2)) if flowing else still(M, S)
    mats = assemble(rho, v, basis, M)
    # The gather gives a symmetric A bit for bit; nothing averages it.
    np.testing.assert_array_equal(mats.a, mats.a.transpose(0, 2, 1))
    for s in range(S):
        a, b = assemble_stage(rho[s], v[s], basis, M)
        bound = 2.0 * rho[s].max()
        assert np.abs(mats.a[s] - a).max() <= 1e-13 * bound
        bound *= np.abs(v[s]).max() * np.abs(basis.kvecs).max()
        assert np.abs(mats.b[s] - b).max() <= 1e-13 * bound


def test_block_assembly_does_not_depend_on_the_block():
    # A stage's matrices and operator are bit for bit the same assembled
    # alone or in any block, so the ledger walk and the stage blocks give the
    # same numbers whatever their block size.
    basis = BasisSet(13)
    M = 21
    rho = RNG.uniform(0.5, 2.0, (5, M, M))
    v = RNG.standard_normal((5, M, M, 2))
    block = assemble(rho, v, basis, M)
    for s in range(5):
        for lo in (0, s):
            part = assemble(rho[lo : s + 1], v[lo : s + 1], basis, M)
            for name in ("a", "b", "op"):
                np.testing.assert_array_equal(getattr(part, name)[s - lo], getattr(block, name)[s])


def test_ode_rhs_stokes_and_zero():
    basis = BasisSet(9)
    (op,) = assemble(ones_density(16), still(16), basis, 16).operators(1)
    for i in range(9):
        e = np.zeros(9)
        e[i] = 1.0
        np.testing.assert_allclose(ode_rhs(e, op), -basis.lambdas[i] * e, atol=1e-12)
    assert np.all(ode_rhs(np.zeros(9), op) == 0.0)


def test_ode_rhs_back_substitution():
    basis = BasisSet(9)
    grid = basis.grid(32)
    v = grid.synthesize(RNG.standard_normal(9))
    mats = assemble(bump_grid(32), v[None], basis, 32)
    f = RNG.standard_normal(9)
    fdot = ode_rhs(f, mats.op[0])
    resid = mats.a[0] @ fdot + (mats.b[0] @ f + basis.lambdas * f)
    assert np.linalg.norm(resid) <= 1e-10 * max(1.0, np.linalg.norm(f))


# ---------------------------------------------------------------------------
# linearized solves
# ---------------------------------------------------------------------------


def test_stokes_decay_order():
    basis = BasisSet(4)
    zero = VelocityHistory.constant(basis, np.zeros(4), 0.5)
    u0 = np.zeros(4)
    u0[0] = 0.7
    errors = []
    for dt in (0.05, 0.025, 0.0125):
        hist = solve_linearized(zero, constant_density(), u0, basis, 16, dt, 0.5)
        exact = 0.7 * np.exp(-hist.times)
        errors.append(np.abs(hist.coeffs[:, 0] - exact).max())
    assert errors[-1] < 1e-8
    assert convergence_orders(errors).min() >= 3.9


def test_zero_data_stays_zero():
    basis = BasisSet(4)
    zero = VelocityHistory.constant(basis, np.zeros(4), 0.2)
    hist = solve_linearized(zero, bump_density(), np.zeros(4), basis, 16, 0.05, 0.2)
    assert np.all(hist.coeffs == 0.0)
    assert np.all(hist.derivs == 0.0)


def test_nodal_derivatives_match_ode():
    basis = BasisSet(4)
    zero = VelocityHistory.constant(basis, np.zeros(4), 0.2)
    u0 = np.zeros(4)
    u0[0] = 1.0
    hist = solve_linearized(zero, constant_density(), u0, basis, 16, 0.05, 0.2)
    # With identity mass matrix and no advection, fdot = -lam f at each node.
    np.testing.assert_allclose(
        hist.derivs, -basis.lambdas * hist.coeffs, atol=1e-12
    )


def degenerate_density(M, j):
    """Mass on grid row j % M only, scaled by j + 1: a singular mass matrix
    with a positive threshold that differs from stage to stage."""
    rho = np.zeros((M, M))
    rho[j % M] = j + 1.0
    return rho


@pytest.mark.parametrize(
    "degenerate, drift, u0_scale, expected",
    [
        ({10, 12}, False, 1.0, ("vacuum", 10)),  # first failing stage of a block
        ({19}, True, 1.0, ("vacuum", 19)),  # before the drift in the same block
        (set(), True, 1.0, ("drift", 20)),  # drift after every earlier step ran
        ({4}, False, np.nan, ("diverge", 2)),  # step 0 diverges before stage 4
    ],
)
def test_pass_reports_first_failure_in_stage_order(
    monkeypatch, degenerate, drift, u0_scale, expected
):
    # 10 steps, 21 stage times 0.005 apart, assembled in blocks of 8, 8 and
    # 5 (the block rule at 8 M^2 grid points) from the real carried sweep,
    # with scripted densities and, for a drift, a failing drift check at the
    # last stage.  Every failure must surface where a stage-by-stage pass
    # raises it: `expected` names the error and the stage it belongs to.
    basis = BasisSet(4)
    M = 16
    monkeypatch.setattr(solver, "STAGE_POINTS", 8 * M * M)
    source = scripted_density(
        lambda j: degenerate_density(M, j) if j in degenerate else np.ones((M, M))
    )
    if drift:

        def drifted(history, feet, walked):
            raise TransportDriftError(float(walked[-1]), 1.0, 0.0)

        monkeypatch.setattr(transport, "_check_drift", drifted)
    zero = VelocityHistory.constant(basis, np.zeros(4), 0.1)
    u0 = np.full(4, 0.1 * u0_scale)
    kind, stage = expected
    errors = {
        "vacuum": VacuumDegenerateError,
        "drift": TransportDriftError,
        "diverge": DivergenceError,
    }
    with pytest.raises(errors[kind]) as err:
        solve_linearized(zero, source, u0, basis, M, 0.01, 0.1)
    if kind == "vacuum":
        mats = assemble(degenerate_density(M, stage)[None], still(M), basis, M)
        assert (err.value.min_eig, err.value.threshold) == (mats.min_eig[0], mats.threshold[0])
    else:
        assert err.value.t == pytest.approx(0.005 * stage)


# ---------------------------------------------------------------------------
# Picard fixed point
# ---------------------------------------------------------------------------


def test_picard_single_mode_two_iterations():
    # A single mode does not advect itself, so the first linearized solve is
    # already the fixed point and the second pass certifies it.
    basis = BasisSet(4)
    u0 = np.zeros(4)
    u0[0] = 0.1
    hist, report = picard_solve(constant_density(), u0, basis, 16, 0.01, 0.1, 1e-10, 30)
    assert report.iterations == 2
    assert report.deltas[-1] <= 1e-12


def test_picard_zero_data_one_iteration():
    basis = BasisSet(4)
    hist, report = picard_solve(bump_density(), np.zeros(4), basis, 16, 0.05, 0.1, 1e-10, 30)
    assert report.iterations == 1
    assert np.all(hist.coeffs == 0.0)


def test_picard_zero_seed_matches_initial_seed():
    basis = BasisSet(8)
    u0 = np.zeros(8)
    u0[0], u0[2] = 0.3, 0.2
    kwargs = dict(tol=1e-12, max_iter=40)
    h1, _ = picard_solve(bump_density(), u0, basis, 32, 0.01, 0.05, seed="initial", **kwargs)
    h2, _ = picard_solve(bump_density(), u0, basis, 32, 0.01, 0.05, seed="zero", **kwargs)
    assert np.abs(h1.coeffs - h2.coeffs).max() <= 1e-10


def test_picard_contraction_improves_with_shorter_horizon():
    basis = BasisSet(8)
    u0 = np.zeros(8)
    u0[0], u0[2] = 0.4, 0.3

    def first_factor(T):
        _, report = picard_solve(bump_density(), u0, basis, 32, T / 10, T, 1e-12, 40)
        return report.factors[0]

    assert first_factor(0.05) < first_factor(0.2)


def test_picard_delta_reads_node_coefficients(monkeypatch):
    # Each delta reads the previous pass at the new node times with one
    # coeffs_at call; on the same node times that returns the node
    # coefficients, so the deltas equal the per-time dense-output ones
    # exactly.
    basis = BasisSet(4)
    rng = np.random.default_rng(7)
    times = np.linspace(0.0, 0.1, 6)
    passes = [
        VelocityHistory(
            basis, times, rng.standard_normal((6, 4)) * 10.0**-m, rng.standard_normal((6, 4))
        )
        for m in (0, 4, 13)
    ]
    for prev, later in zip(passes, passes[1:]):
        later.coeffs += prev.coeffs
    queue = iter(passes)
    monkeypatch.setattr(solver, "solve_linearized", lambda *args: next(queue))
    calls = []
    original = VelocityHistory.coeffs_at
    monkeypatch.setattr(
        VelocityHistory, "coeffs_at", lambda self, t: calls.append(t) or original(self, t)
    )
    u0 = np.full(4, 0.1)
    hist, report = picard_solve(constant_density(), u0, basis, 16, 0.02, 0.1, 1e-10, 5)
    assert hist is passes[-1] and report.iterations == 3
    assert len(calls) == report.iterations
    seed = VelocityHistory.constant(basis, u0, 0.1)
    expected = [
        np.max(np.linalg.norm(u.coeffs - np.stack([original(v, t) for t in times]), axis=1))
        for v, u in zip([seed] + passes[:-1], passes)
    ]
    assert report.deltas == expected


# One Picard solve on configs/two_mode.cfg, in a fresh interpreter with one
# BLAS thread; prints the minor page faults of the solve alone.
_FAULTS_SCRIPT = """
import resource
from torusflow.config import build_basis, build_source, build_u0, parse_config
from torusflow.solver import picard_solve

cfg = parse_config({config!r})
basis = build_basis(cfg)
args = (build_source(cfg), build_u0(cfg, basis), basis, cfg.M, cfg.dt, cfg.T,
        cfg.picard_tol, cfg.picard_max)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
picard_solve(*args)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.parametrize("config", ["two_mode", "vacuum"])
def test_picard_solve_keeps_its_heap(config):
    # Block temporaries that together pass glibc's trim threshold let malloc
    # trim the heap top and fault it back in every block.  With one BLAS
    # thread a solve takes ~800 minor faults on two_mode and ~300 on vacuum,
    # ~3,600 and ~9,400 when it trims every block (2-vCPU x86-64 host).
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.update({var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
    script = _FAULTS_SCRIPT.format(config=str(root / "configs" / f"{config}.cfg"))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 8_000


def test_picard_rejects_unknown_seed_and_narrow_support():
    basis = BasisSet(4)
    u0 = np.zeros(4)
    u0[0] = 0.1
    with pytest.raises(ValueError):
        picard_solve(constant_density(), u0, basis, 16, 0.05, 0.1, 1e-10, 30, seed="bogus")
    # The well, bare or floored, solves: its mass matrices pass the guard.
    for source in (vacuum_well_density(), lift_floor(vacuum_well_density(), 10)):
        picard_solve(source, u0, basis, 16, 0.05, 0.1, 1e-10, 30)
    # A support the grid sees at one node fails it, with the stage's numbers.
    with pytest.raises(VacuumDegenerateError) as err:
        picard_solve(narrow_density(), u0, basis, 16, 0.05, 0.1, 1e-10, 30)
    assert 0.0 < err.value.threshold and err.value.min_eig <= err.value.threshold


# ---------------------------------------------------------------------------
# residual diagnostics
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def converged_bump_run():
    basis = BasisSet(8)
    u0 = np.zeros(8)
    u0[0], u0[2] = 0.3, 0.2
    hist, report = picard_solve(bump_density(), u0, basis, 32, 0.005, 0.05, 1e-11, 40)
    return basis, hist


def bump_states(hist, basis, nodes):
    """build_state at the given node indices, densities backtracked."""
    rho = np.stack([density_at(bump_density(), hist, 32, tk, 0.005) for tk in hist.times[nodes]])
    return build_state(basis, 32, hist.coeffs[nodes], rho)


def test_orthogonality_and_projection_residuals(converged_bump_run):
    basis, hist = converged_bump_run
    state = bump_states(hist, basis, slice(None, None, max(1, len(hist.times) // 5)))
    resid = residual_diagnostics(state, basis, 32)
    assert resid.orthogonality_max.shape == resid.projection_rel.shape == (len(state.f),)
    assert resid.orthogonality_max.max() <= 1e-8
    assert resid.projection_rel.max() <= 1e-8


def test_residual_detects_wrong_derivative(converged_bump_run):
    basis, hist = converged_bump_run
    state = bump_states(hist, basis, [3])
    bad = state.fdot + 1e-3
    state = replace(state, fdot=bad, ut=basis.grid(32).synthesize(bad))
    resid = residual_diagnostics(state, basis, 32)
    assert resid.orthogonality_max[0] > 1e-6


def test_pressure_field_is_plausible(converged_bump_run):
    # The recovered pressure is the gradient part of lap u - rho u_dot; it
    # must be mean-zero and reproduce that field's divergence.
    basis, hist = converged_bump_run
    state = bump_states(hist, basis, [-1])
    resid = residual_diagnostics(state, basis, 32)
    assert resid.pressure.shape == (1, 32, 32)
    p = resid.pressure[0]
    assert abs(p.mean()) < 1e-12
