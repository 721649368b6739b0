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
from .fields import GridField, save_snapshot
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
    fd_gradient,
    lift_floor,
    shift_density,
    transport_growth_check,
)


@dataclass
class RunResult:
    config: RunConfig
    basis: BasisSet
    source: DensitySource
    u0: np.ndarray
    history: object
    picard: PicardReport
    ledger: EstimateLedger
    rho_grids: list
    w1gamma: np.ndarray
    grad_u_sq_dot: np.ndarray
    sample_min: np.ndarray
    sample_max: np.ndarray
    orthogonality_max: np.ndarray
    projection_rel: np.ndarray
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


def run_simulation(
    config: RunConfig,
    seed: str = "initial",
    source: DensitySource | None = None,
    residual_tol: float = 1e-8,
    energy_tol: float = 1e-8,
    inequality_tol: float = 1e-6,
    mass_tol: float = 1e-6,
    transport_eps: float = 1e-2,
) -> RunResult:
    """Picard-converge the flow, then walk the trajectory building the norm
    ledger and the inline verification checks."""
    basis = build_basis(config)
    src = source if source is not None else build_source(config)
    u0 = build_u0(config, basis)
    dtau = config.backtrack_step
    M = config.M

    history, picard = picard_solve(
        src,
        u0,
        basis,
        M,
        config.dt,
        config.T,
        dtau,
        config.picard_tol,
        config.picard_max,
        seed=seed,
    )

    grid = basis.grid(M)
    lam = basis.lambdas
    w = grid.weight
    ledger = EstimateLedger()
    rho_grids: list[GridField] = []
    w1g, gdots, smin, smax, orth, projrel = [], [], [], [], [], []

    # The ledger densities come from their own sweep along the converged
    # history, not from the last Picard pass, which advected the density by
    # the previous iterate.
    densities = carried_densities(src, history, M, history.times, dtau)
    for t, rho in zip(history.times, densities):
        state = build_state(src, history, basis, M, dtau, t, rho=rho)
        f, fdot, rho = state.f, state.fdot, state.rho
        u = grid.synthesize(f)
        gu = grid.synthesize_gradient(f)
        ut = grid.synthesize(fdot)

        umag2 = (u * u).sum(axis=-1)
        utmag2 = (ut * ut).sum(axis=-1)
        gufro = np.sqrt((gu * gu).sum(axis=(-2, -1)))
        rhov = rho.values

        grad_rho = fd_gradient(rho)
        grad_rho_mag = np.sqrt((grad_rho * grad_rho).sum(axis=-1))
        rho_t = -(u * grad_rho).sum(axis=-1)

        sqrt_rho_u = math.sqrt(w * (rhov * umag2).sum())
        grad_u = math.sqrt((lam * f * f).sum())
        hess_u = math.sqrt((lam * lam * f * f).sum())
        sqrt_rho_ut = math.sqrt(w * (rhov * utmag2).sum())
        grad_ut = math.sqrt((lam * fdot * fdot).sum())

        ledger.append(
            t=t,
            sqrt_rho_u_l2=sqrt_rho_u,
            grad_u_l2=grad_u,
            hess_u_l2=hess_u,
            sqrt_rho_ut_l2=sqrt_rho_ut,
            grad_ut_l2=grad_ut,
            u_linf=float(np.sqrt(umag2).max()),
            grad_u_linf=float(gufro.max()),
            grad_rho_lgamma=(w * (grad_rho_mag**GAMMA).sum()) ** (1.0 / GAMMA),
            rho_t_lgamma=(w * (np.abs(rho_t) ** GAMMA).sum()) ** (1.0 / GAMMA),
            rho_min=src.lower,
            rho_max=src.upper,
            mass=w * rhov.sum(),
            momentum_l2=math.sqrt(w * (rhov * rhov * umag2).sum()),
            t_weighted_h2=t * (hess_u**2 + sqrt_rho_ut**2),
        )
        rho_grids.append(rho)
        w1g.append(
            (w * (np.abs(rhov) ** GAMMA).sum() + w * (grad_rho_mag**GAMMA).sum())
            ** (1.0 / GAMMA)
        )
        gdots.append(2.0 * (lam * f * fdot).sum())
        smin.append(float(rhov.min()))
        smax.append(float(rhov.max()))

        resid = residual_diagnostics(state, basis, M)
        orth.append(resid.orthogonality_max)
        projrel.append(resid.projection_rel)

    times = history.times
    w1g = np.array(w1g)
    gdots = np.array(gdots)
    smin, smax = np.array(smin), np.array(smax)
    orth, projrel = np.array(orth), np.array(projrel)

    m1 = 1.0 + src.upper
    F = h1_functional(
        times,
        ledger.column("grad_u_l2"),
        ledger.column("sqrt_rho_ut_l2"),
        ledger.column("hess_u_l2"),
        m1=m1,
    )
    ric = riccati_fit(times, F, m1=m1) if len(times) >= 3 else RiccatiFit(0.0, m1, 1.0, float(F[0]))
    t0_est = existence_time(ric.c1, ric.m1, float(ledger.column("grad_u_l2")[0]))

    checks = _build_checks(
        config,
        src,
        picard,
        ledger,
        times,
        w1g,
        gdots,
        smin,
        smax,
        orth,
        projrel,
        ric,
        t0_est,
        residual_tol,
        energy_tol,
        inequality_tol,
        mass_tol,
        transport_eps,
    )

    return RunResult(
        config=config,
        basis=basis,
        source=src,
        u0=u0,
        history=history,
        picard=picard,
        ledger=ledger,
        rho_grids=rho_grids,
        w1gamma=w1g,
        grad_u_sq_dot=gdots,
        sample_min=smin,
        sample_max=smax,
        orthogonality_max=orth,
        projection_rel=projrel,
        riccati=ric,
        t0_estimate=t0_est,
        checks=checks,
    )


def _build_checks(
    config,
    src,
    picard,
    ledger,
    times,
    w1g,
    gdots,
    smin,
    smax,
    orth,
    projrel,
    ric,
    t0_est,
    residual_tol,
    energy_tol,
    inequality_tol,
    mass_tol,
    transport_eps,
) -> list[dict]:
    checks = []

    worst_orth = float(orth.max())
    checks.append(
        _check(
            "galerkin_orthogonality",
            worst_orth <= residual_tol,
            residual_tol - worst_orth,
            worst=worst_orth,
            tol=residual_tol,
        )
    )
    worst_proj = float(projrel.max())
    checks.append(
        _check(
            "projection_identity",
            worst_proj <= residual_tol,
            residual_tol - worst_proj,
            worst_relative=worst_proj,
            tol=residual_tol,
        )
    )

    resid = energy_identity_check(
        times, ledger.column("sqrt_rho_u_l2"), ledger.column("grad_u_l2"), gdots
    )
    checks.append(
        _check(
            "energy_identity",
            resid <= energy_tol,
            energy_tol - resid,
            residual=resid,
            tol=energy_tol,
        )
    )

    E = energy_functional(
        times, ledger.column("sqrt_rho_u_l2"), ledger.column("grad_u_l2"), gdots
    )
    overshoot = float(E.max() / E[0] - 1.0) if E[0] > 0 else 0.0
    checks.append(
        _check(
            "energy_inequality",
            overshoot <= inequality_tol,
            inequality_tol - overshoot,
            overshoot=overshoot,
            tol=inequality_tol,
        )
    )

    lo, hi = float(smin.min()), float(smax.max())
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
            mass_dev <= mass_tol,
            mass_tol - mass_dev,
            relative_deviation=mass_dev,
            tol=mass_tol,
        )
    )

    growth = transport_growth_check(
        times, w1g, ledger.column("grad_u_linf"), eps=transport_eps
    )
    checks.append(
        _check(
            "transport_growth",
            growth.passed,
            growth.worst_margin - 1.0 / (1.0 + transport_eps),
            worst_margin=growth.worst_margin,
            worst_time=growth.worst_time,
            eps=transport_eps,
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
            t0_estimate=t0_est if math.isfinite(t0_est) else "inf",
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
    rho0 = result.rho_grids[0].values
    u0 = grid.synthesize(result.history.coeffs[0])
    mom0 = rho0[..., None] * u0

    probe_t, probe_n = [], []
    for j in range(n_probes):
        t = T * 2.0 ** (-j)
        f = result.history.coeffs_at(t)
        u = grid.synthesize(f)
        rho = density_at(result.source, result.history, cfg.M, t, cfg.backtrack_step)
        diff = rho.values[..., None] * u - mom0
        probe_t.append(t)
        probe_n.append(math.sqrt(w * (diff * diff).sum()))
    return np.array(probe_t), np.array(probe_n)


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------


@dataclass
class ConvergeStudy:
    n_values: list
    results: list
    rows: list


def converge_study(config: RunConfig, n_values) -> ConvergeStudy:
    """Refinement in the number of modes at fixed grid and step."""
    ns = sorted(set(int(n) for n in n_values))
    if len(ns) < 3:
        raise ConfigError("converge needs at least three N values")
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
    return ConvergeStudy(n_values=ns, results=results, rows=rows)


@dataclass
class VacuumSweep:
    """`probes[i]` holds the (times, norms) arrays of `momentum_probes` for
    `results[i]`, in probe order (t descending); `momentum[i]` is the report
    fitted on them."""

    floors: list
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
                "t0_estimate": res.t0_estimate if math.isfinite(res.t0_estimate) else "inf",
                "completed_T": float(res.history.t_final),
            }
        )
    variation = (
        (max(sup_grads) - min(sup_grads)) / min(sup_grads) if sup_grads else math.inf
    )
    return VacuumSweep(
        floors=ns,
        results=results,
        probes=probes,
        momentum=reports,
        rows=rows,
        sup_grad_variation=float(variation),
    )


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
        drho = other.rho_grids[k].values - ref.rho_grids[k].values
        f_vals.append((w * (np.abs(drho) ** 1.5).sum()) ** (2.0 / 3.0))
        g_vals.append(w * (other.rho_grids[k].values * (du * du).sum(axis=-1)).sum())
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
        grid = result.basis.grid(cfg.M)
        tag = f"{t:.6f}"
        save_snapshot(GridField(grid.synthesize(state.f)), out / f"u_t{tag}.dat")
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
