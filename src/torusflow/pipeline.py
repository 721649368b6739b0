"""Run orchestration: full solves, ledgers, inline checks, sweeps, studies.

A "run" is one Picard-converged trajectory plus a ledger of monitored norms
sampled at every node time and a list of named pass/fail checks.  Studies
(grid refinement, vacuum floors, uniqueness pairs, the exact single-mode
benchmark) compose runs and compare their ledgers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .basis import BasisSet
from .config import ConfigError, RunConfig, build_basis, build_source, build_u0
from .estimates import (
    GAMMA,
    EstimateLedger,
    GronwallInput,
    GronwallReport,
    RiccatiFit,
    convergence_orders,
    cumtrapz,
    energy_functional,
    energy_identity_check,
    existence_time,
    fit_gronwall_constants,
    gronwall_verify,
    h1_functional,
    momentum_continuity_report,
    riccati_fit,
    weighted_h2_stats,
    write_ndjson,
)
from .fields import fd_gradient, lp_norm, save_snapshot, w1gamma_norm
from .solver import (
    DivergenceError,
    PicardNonConvergenceError,
    PicardReport,
    VacuumDegenerateError,
    build_state,
    picard_solve,
    residual_diagnostics,
)
from .transport import (
    DENSITY_CATALOG,
    DensitySource,
    carried_densities,
    density_at,
    lift_floor,
    shift_density,
    transport_growth_check,
)

# Tolerances of the inline checks.
RESIDUAL_TOL = 1e-8  # galerkin_orthogonality, projection_identity
ENERGY_TOL = 1e-8  # energy_identity
INEQUALITY_TOL = 1e-6  # energy_inequality: relative overshoot of E(t)
MASS_TOL = 1e-6  # mass_conservation: relative mass deviation
TRANSPORT_EPS = 1e-2  # transport_growth: multiplicative slack


@dataclass
class NodeDiagnostics:
    """Per-node diagnostics along a trajectory; index k is history.times[k].

    `rho` holds the transported densities (K, M, M); `w1gamma` their
    W^{1,gamma} norms; `grad_u_sq_dot` the rate d/dt ||grad u||^2 =
    2 sum lam f fdot; `orthogonality_max` and `projection_rel` the modal
    residuals of `residual_diagnostics`."""

    rho: np.ndarray
    w1gamma: np.ndarray
    grad_u_sq_dot: np.ndarray
    orthogonality_max: np.ndarray
    projection_rel: np.ndarray


@dataclass
class RunResult:
    config: RunConfig
    basis: BasisSet
    source: DensitySource
    history: object
    picard: PicardReport
    ledger: EstimateLedger
    nodes: NodeDiagnostics
    riccati: RiccatiFit
    t0_estimate: float
    checks: list

    @property
    def times(self) -> np.ndarray:
        return self.history.times


def _check(name: str, passed: bool, margin: float, **details) -> dict:
    return {
        "check": name,
        "pass": bool(passed),
        "margin": float(margin),
        "details": details,
    }


def node_diagnostics(
    src: DensitySource, history, basis: BasisSet, M: int, dtau: float
) -> tuple[EstimateLedger, NodeDiagnostics]:
    """Walk a converged trajectory once: the norm ledger plus the per-node
    record the checks and studies read.

    The densities come from their own carried sweep along `history`, not
    from the last Picard pass, which advected the density by the previous
    iterate.  Each node is one self-consistent `build_state`, whose grid
    fields u, grad u and u_t the ledger and the residuals share."""
    lam = basis.lambdas
    w = basis.grid(M).weight
    times = history.times
    K = len(times)
    ledger = EstimateLedger()
    rho_nodes = np.empty((K, M, M))
    w1g, gdots, orth, projrel = np.empty(K), np.empty(K), np.empty(K), np.empty(K)

    densities = carried_densities(src, history, M, times, dtau)
    for k, (t, rho) in enumerate(zip(times, densities)):
        state = build_state(src, history, basis, M, dtau, t, rho=rho)
        f, fdot, u, gu, ut = state.f, state.fdot, state.u, state.grad_u, state.ut

        umag2 = (u * u).sum(axis=-1)
        utmag2 = (ut * ut).sum(axis=-1)
        gufro = np.sqrt((gu * gu).sum(axis=(-2, -1)))
        grad_rho = fd_gradient(rho)
        rho_t = -(u * grad_rho).sum(axis=-1)

        sqrt_rho_u = math.sqrt(w * (rho * umag2).sum())
        hess_u = math.sqrt((lam * lam * f * f).sum())
        sqrt_rho_ut = math.sqrt(w * (rho * utmag2).sum())
        ledger.append(
            t=t,
            sqrt_rho_u_l2=sqrt_rho_u,
            grad_u_l2=math.sqrt((lam * f * f).sum()),
            hess_u_l2=hess_u,
            sqrt_rho_ut_l2=sqrt_rho_ut,
            grad_ut_l2=math.sqrt((lam * fdot * fdot).sum()),
            u_linf=float(np.sqrt(umag2).max()),
            grad_u_linf=float(gufro.max()),
            grad_rho_lgamma=lp_norm(grad_rho, GAMMA),
            rho_t_lgamma=lp_norm(rho_t, GAMMA),
            rho_min=src.lower,
            rho_max=src.upper,
            mass=w * rho.sum(),
            momentum_l2=math.sqrt(w * (rho * rho * umag2).sum()),
            t_weighted_h2=t * (hess_u**2 + sqrt_rho_ut**2),
        )
        rho_nodes[k] = rho
        w1g[k] = w1gamma_norm(rho, GAMMA, grad_rho)
        gdots[k] = 2.0 * (lam * f * fdot).sum()
        resid = residual_diagnostics(state, basis, M)
        orth[k] = resid.orthogonality_max
        projrel[k] = resid.projection_rel

    return ledger, NodeDiagnostics(rho_nodes, w1g, gdots, orth, projrel)


def run_simulation(
    config: RunConfig, seed: str = "initial", source: DensitySource | None = None
) -> RunResult:
    """Picard-converge the flow, then walk the trajectory building the norm
    ledger and the inline verification checks."""
    basis = build_basis(config)
    src = source if source is not None else build_source(config)
    dtau = config.backtrack_step
    history, picard = picard_solve(
        src, build_u0(config, basis), basis, config.M, config.dt, config.T, dtau,
        config.picard_tol, config.picard_max, seed=seed
    )
    ledger, nodes = node_diagnostics(src, history, basis, config.M, dtau)

    times = history.times
    m1 = 1.0 + src.upper
    F = h1_functional(
        times,
        ledger.column("grad_u_l2"),
        ledger.column("sqrt_rho_ut_l2"),
        ledger.column("hess_u_l2"),
        m1=m1,
    )
    ric = riccati_fit(times, F, m1=m1) if len(times) >= 3 else RiccatiFit(0.0, m1, 1.0)
    t0_est = existence_time(ric.c1, ric.m1, float(ledger.column("grad_u_l2")[0]))

    return RunResult(
        config=config,
        basis=basis,
        source=src,
        history=history,
        picard=picard,
        ledger=ledger,
        nodes=nodes,
        riccati=ric,
        t0_estimate=t0_est,
        checks=_build_checks(src, picard, ledger, nodes, ric, t0_est),
    )


def _build_checks(src, picard, ledger, nodes, ric, t0_est) -> list[dict]:
    times = ledger.column("t")
    gdots = nodes.grad_u_sq_dot
    checks = []

    worst_orth = float(nodes.orthogonality_max.max())
    checks.append(
        _check(
            "galerkin_orthogonality",
            worst_orth <= RESIDUAL_TOL,
            RESIDUAL_TOL - worst_orth,
            worst=worst_orth,
            tol=RESIDUAL_TOL,
        )
    )
    worst_proj = float(nodes.projection_rel.max())
    checks.append(
        _check(
            "projection_identity",
            worst_proj <= RESIDUAL_TOL,
            RESIDUAL_TOL - worst_proj,
            worst_relative=worst_proj,
            tol=RESIDUAL_TOL,
        )
    )

    resid = energy_identity_check(
        times, ledger.column("sqrt_rho_u_l2"), ledger.column("grad_u_l2"), gdots
    )
    checks.append(
        _check(
            "energy_identity",
            resid <= ENERGY_TOL,
            ENERGY_TOL - resid,
            residual=resid,
            tol=ENERGY_TOL,
        )
    )

    E = energy_functional(
        times, ledger.column("sqrt_rho_u_l2"), ledger.column("grad_u_l2"), gdots
    )
    overshoot = float(E.max() / E[0] - 1.0) if E[0] > 0 else 0.0
    checks.append(
        _check(
            "energy_inequality",
            overshoot <= INEQUALITY_TOL,
            INEQUALITY_TOL - overshoot,
            overshoot=overshoot,
            tol=INEQUALITY_TOL,
        )
    )

    lo, hi = float(nodes.rho.min()), float(nodes.rho.max())
    col_lo, col_hi = ledger.column("rho_min"), ledger.column("rho_max")
    bounds_const = bool(np.all(col_lo == col_lo[0]) and np.all(col_hi == col_hi[0]))
    sample_margin = min(lo - src.lower, src.upper - hi)
    checks.append(
        _check(
            "max_principle",
            bounds_const and sample_margin >= 0.0,
            sample_margin,
            sample_min=lo,
            sample_max=hi,
            lower=src.lower,
            upper=src.upper,
            columns_constant=bounds_const,
        )
    )

    mass = ledger.column("mass")
    mass_dev = float(np.abs(mass - mass[0]).max() / abs(mass[0]))
    checks.append(
        _check(
            "mass_conservation",
            mass_dev <= MASS_TOL,
            MASS_TOL - mass_dev,
            relative_deviation=mass_dev,
            tol=MASS_TOL,
        )
    )

    growth = transport_growth_check(
        times, nodes.w1gamma, ledger.column("grad_u_linf"), eps=TRANSPORT_EPS
    )
    checks.append(
        _check(
            "transport_growth",
            growth.passed,
            growth.worst_margin - 1.0 / (1.0 + TRANSPORT_EPS),
            worst_margin=growth.worst_margin,
            worst_time=growth.worst_time,
            eps=TRANSPORT_EPS,
        )
    )

    checks.append(
        _check(
            "riccati_barrier",
            ric.satisfied_fraction >= 0.99,
            ric.satisfied_fraction - 0.99,
            c1=ric.c1,
            m1=ric.m1,
            satisfied_fraction=ric.satisfied_fraction,
            t0_estimate=t0_est,
        )
    )

    checks.append(
        _check(
            "picard_convergence",
            picard.converged,
            picard.tol - picard.deltas[-1],
            iterations=picard.iterations,
            deltas=picard.deltas,
            contraction_factors=picard.factors,
        )
    )
    return checks


# ---------------------------------------------------------------------------
# momentum continuity probes
# ---------------------------------------------------------------------------


def momentum_probes(result: RunResult, n_probes: int = 13) -> tuple[np.ndarray, np.ndarray]:
    """Norms ||(rho u)(t_j) - rho0 u0||_2 at probe times t_j = T 2^{-j}."""
    cfg = result.config
    grid = result.basis.grid(cfg.M)
    w = grid.weight
    T = result.history.t_final
    rho0 = result.nodes.rho[0]
    u0 = grid.synthesize(result.history.coeffs[0])
    mom0 = rho0[..., None] * u0

    probe_t, probe_n = [], []
    for j in range(n_probes):
        t = T * 2.0 ** (-j)
        f = result.history.coeffs_at(t)
        u = grid.synthesize(f)
        rho = density_at(result.source, result.history, cfg.M, t, cfg.backtrack_step)
        diff = rho[..., None] * u - mom0
        probe_t.append(t)
        probe_n.append(math.sqrt(w * (diff * diff).sum()))
    return np.array(probe_t), np.array(probe_n)


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------


@dataclass
class ConvergeStudy:
    results: list
    rows: list


def converge_study(config: RunConfig, n_values) -> ConvergeStudy:
    """Refinement in the number of modes at fixed grid and step."""
    ns = sorted(set(int(n) for n in n_values))
    if len(ns) < 3:
        raise ConfigError("converge needs at least three N values")
    if ns[0] < 1:
        raise ConfigError(f"mode counts must be >= 1, got N={ns[0]}")
    # Validate the finest basis against M before spending any time.
    build_basis(replace(config, N=ns[-1]))

    results = [run_simulation(replace(config, N=n)) for n in ns]
    rows = []
    diffs = []
    for small, big in zip(results[:-1], results[1:]):
        cs, cb = small.history.coeffs, big.history.coeffs
        pad = np.zeros_like(cb)
        pad[:, : cs.shape[1]] = cs
        d2 = ((pad - cb) ** 2).sum(axis=1)
        l2t = math.sqrt(cumtrapz(small.times, d2)[-1])
        diffs.append(l2t)
        rows.append(
            {
                "n_small": small.config.N,
                "n_big": big.config.N,
                "l2_time_diff": l2t,
                "sup_l2_diff": float(np.sqrt(d2).max()),
            }
        )
    for k in range(1, len(diffs)):
        rows[k]["rate_vs_previous"] = (
            diffs[k - 1] / diffs[k] if diffs[k] > 0 else math.inf
        )
    for res in results:
        sup_w, int_w = weighted_h2_stats(
            res.times,
            res.ledger.column("hess_u_l2"),
            res.ledger.column("sqrt_rho_ut_l2"),
            res.ledger.column("grad_ut_l2"),
        )
        rows.append(
            {
                "n_modes": res.config.N,
                "sup_t_weighted_h2": sup_w,
                "int_t_grad_ut_sq": int_w,
                "int_grad_u_linf": float(
                    cumtrapz(res.times, res.ledger.column("grad_u_linf"))[-1]
                ),
            }
        )
    return ConvergeStudy(results=results, rows=rows)


@dataclass
class VacuumSweep:
    """`probes[i]` holds the (times, norms) arrays of `momentum_probes` for
    `results[i]`, in probe order (t descending); `momentum[i]` is the report
    fitted on them."""

    results: list
    probes: list
    momentum: list
    rows: list
    sup_grad_variation: float


def vacuum_sweep(config: RunConfig, floors) -> VacuumSweep:
    """Run the same data over a sequence of vacuum floors 1/n."""
    base = DENSITY_CATALOG[config.density_kind]()
    if base.lower > 0.0:
        raise ConfigError(
            f"vacuum sweep needs a density vanishing somewhere; "
            f"{config.density_kind!r} has minimum {base.lower}",
            key="density.kind",
        )
    ns = sorted(set(int(n) for n in floors))
    if any(n < 1 for n in ns):
        raise ConfigError("floor values must be positive integers")

    results, probes, reports, rows = [], [], [], []
    sup_grads = []
    for n in ns:
        src = lift_floor(base, n)
        try:
            res = run_simulation(config, source=src)
        except (DivergenceError, PicardNonConvergenceError, VacuumDegenerateError) as exc:
            # A failing floor is recorded and the sweep moves on; triage
            # happens from the table, not from an aborted sweep.
            rows.append({"floor_n": n, "error": type(exc).__name__, "message": str(exc)})
            continue
        t, norms = momentum_probes(res)
        rep = momentum_continuity_report(t, norms)
        results.append(res)
        probes.append((t, norms))
        reports.append(rep)
        sup_grad = float((res.ledger.column("grad_u_l2") ** 2).max())
        sup_grads.append(sup_grad)
        rows.append(
            {
                "floor_n": n,
                "sup_grad_u_sq": sup_grad,
                "momentum_slope": rep.slope,
                "momentum_decay_ratio": rep.decay_ratio,
                "momentum_pass": rep.passed,
                "t0_estimate": res.t0_estimate,
                "completed_T": float(res.history.t_final),
            }
        )
    return VacuumSweep(
        results=results,
        probes=probes,
        momentum=reports,
        rows=rows,
        sup_grad_variation=_relative_spread(sup_grads),
    )


def _relative_spread(values: list) -> float:
    """(max - min) / min: 0 when all values agree (all zero included), inf
    above a zero minimum and for no values at all."""
    lo, hi = min(values, default=0.0), max(values, default=math.inf)
    if hi == lo:
        return 0.0
    return (hi - lo) / lo if lo > 0.0 else math.inf


@dataclass
class UniquenessStudy:
    seed_diff_max: dict
    seed_pass: bool
    gronwall: GronwallReport
    fitted_A: float
    fitted_C: float
    curves: dict
    perturb_pass: bool


def _difference_curves(ref: RunResult, other: RunResult) -> dict:
    """Difference norms between two runs sharing grid, basis, and times.

    f = ||rho_other - rho_ref||_{3/2}; g = ||sqrt(rho_other) (u_other -
    u_ref)||_2^2; G = ||grad(u_other - u_ref)||_2^2."""
    cfg = ref.config
    grid = ref.basis.grid(cfg.M)
    w = grid.weight
    lam = ref.basis.lambdas
    f_vals, g_vals, G_vals = [], [], []
    for k in range(len(ref.times)):
        dc = other.history.coeffs[k] - ref.history.coeffs[k]
        du = grid.synthesize(dc)
        drho = other.nodes.rho[k] - ref.nodes.rho[k]
        f_vals.append(lp_norm(drho, 1.5))
        g_vals.append(w * (other.nodes.rho[k] * (du * du).sum(axis=-1)).sum())
        G_vals.append((lam * dc * dc).sum())
    return {
        "t": ref.times.copy(),
        "f": np.array(f_vals),
        "g": np.array(g_vals),
        "G": np.array(G_vals),
    }


def uniqueness_study(config: RunConfig, delta: float = 1e-3) -> UniquenessStudy:
    """Two diagnostics: Picard-seed independence and a perturbation bound.

    Seed independence: the same data solved from the constant-in-time seed
    and from the zero seed must agree to a small multiple of picard_tol.
    Perturbation: shifting the initial density by `delta` produces difference
    curves that must stay below the Gronwall bound with fitted constants.
    """
    if not math.isfinite(delta):
        raise ConfigError(f"density shift delta must be finite, got {delta}")
    run_a = run_simulation(config, seed="initial")
    run_b = run_simulation(config, seed="zero")
    seed_curves = _difference_curves(run_a, run_b)
    seed_diff_max = {
        "rho_l32": float(seed_curves["f"].max()),
        "sqrt_rho_du_l2": float(np.sqrt(seed_curves["g"]).max()),
        "grad_du_l2": float(np.sqrt(seed_curves["G"]).max()),
    }
    seed_pass = all(v <= 10.0 * config.picard_tol for v in seed_diff_max.values())

    src_p = shift_density(build_source(config), delta)
    run_p = run_simulation(config, source=src_p)
    curves = _difference_curves(run_a, run_p)

    led = run_a.ledger
    grad_h1_sq = led.column("grad_u_l2") ** 2 + led.column("hess_u_l2") ** 2
    alpha_base = grad_h1_sq
    beta_base = led.column("grad_ut_l2") ** 2 + led.column("grad_u_l2") * grad_h1_sq**1.5

    A, C = fit_gronwall_constants(
        curves["t"], curves["f"], curves["g"], curves["G"], alpha_base, beta_base
    )
    inp = GronwallInput(
        t=curves["t"],
        f=curves["f"],
        g=curves["g"],
        G=curves["G"],
        alpha=C * alpha_base,
        beta=C * beta_base,
        A=A,
        g0=float(curves["g"][0]),
    )
    report = gronwall_verify(inp, rtol=1e-9, f0=float(curves["f"][0]))
    return UniquenessStudy(
        seed_diff_max=seed_diff_max,
        seed_pass=seed_pass,
        gronwall=report,
        fitted_A=A,
        fitted_C=C,
        curves=curves,
        perturb_pass=report.passed,
    )


@dataclass
class TaylorReport:
    dts: list
    errors: list
    orders: list
    passed: bool


def taylor_benchmark(
    config: RunConfig, dt_values=None, tol: float = 1e-6, order_floor: float = 3.9
) -> TaylorReport:
    """Exact single-mode decay benchmark: f(t) = a exp(-lam t).

    A single basis mode transports itself along its own streamlines without
    self-advection, so the modal amplitude obeys the pure decay ODE exactly
    and any deviation is integrator error."""
    if config.density_kind != "constant":
        raise ConfigError(
            "taylor benchmark needs density.kind = constant", key="density.kind"
        )
    if len(config.u0_modes) != 1:
        raise ConfigError("taylor benchmark needs exactly one u0 mode", key="u0.modes")
    spec = config.u0_modes[0]
    lam = spec.k1**2 + spec.k2**2
    a = spec.amplitude

    basis = build_basis(config)
    src = build_source(config)
    u0 = build_u0(config, basis)
    if not np.any(u0):
        raise ConfigError("the listed u0 mode is outside the basis", key="u0.modes")
    idx = int(np.nonzero(u0)[0][0])

    dts = list(dt_values) if dt_values is not None else [config.dt]
    bad = [dt for dt in dts if not (math.isfinite(dt) and dt > 0.0)]
    if bad:
        raise ConfigError(f"time steps must be positive and finite, got {bad}")
    errors = []
    for dt in dts:
        history, _ = picard_solve(
            src,
            u0,
            basis,
            config.M,
            dt,
            config.T,
            config.backtrack_step,
            config.picard_tol,
            config.picard_max,
        )
        exact = a * np.exp(-lam * history.times)
        err = float(np.abs(history.coeffs[:, idx] - exact).max() / abs(a))
        errors.append(err)
    orders = (
        list(convergence_orders(errors)) if len(errors) >= 2 and min(errors) > 0 else []
    )
    passed = errors[0] <= tol and all(o >= order_floor for o in orders)
    return TaylorReport(dts=dts, errors=errors, orders=orders, passed=passed)


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------


def write_run_outputs(result: RunResult, outdir) -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    result.ledger.write_ndjson(out / "ledger.ndjson")
    result.ledger.write_csv(out / "ledger.csv")
    write_ndjson(out / "checks.ndjson", result.checks)

    cfg = result.config
    for t in cfg.snapshots:
        state = build_state(
            result.source, result.history, result.basis, cfg.M, cfg.backtrack_step, t
        )
        tag = f"{t:.6f}"
        save_snapshot(state.u, out / f"u_t{tag}.dat")
        save_snapshot(state.rho, out / f"rho_t{tag}.dat")
        resid = residual_diagnostics(state, result.basis, cfg.M)
        save_snapshot(resid.pressure, out / f"p_t{tag}.dat")


def gronwall_check_file(path) -> tuple[GronwallInput, GronwallReport]:
    """Standalone verification from a JSON file with keys t, f, g, G, alpha,
    beta (equal-length arrays), A, g0."""
    with open(path) as fh:
        data = json.load(fh)
    try:
        inp = GronwallInput(
            t=data["t"],
            f=data["f"],
            g=data["g"],
            G=data["G"],
            alpha=data["alpha"],
            beta=data["beta"],
            A=float(data["A"]),
            g0=float(data["g0"]),
        )
    except KeyError as exc:
        raise ConfigError(f"gronwall input missing key {exc}") from exc
    return inp, gronwall_verify(inp)
