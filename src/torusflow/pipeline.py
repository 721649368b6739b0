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
TAYLOR_TOL = 1e-6  # taylor benchmark: largest relative error at the first step
TAYLOR_ORDER_FLOOR = 3.9  # taylor benchmark: least observed halving order
MOMENTUM_PROBES = 13  # momentum_probes: probe times T 2^{-j}, j < 13


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


def _within(name: str, key: str, observed: float, tol: float) -> dict:
    """A check that `observed` stays at or below `tol`; details carry both,
    `observed` under `key`."""
    return _check(name, observed <= tol, tol - observed, **{key: observed, "tol": tol})


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
    sqrt_rho_u, grad_u = ledger.column("sqrt_rho_u_l2"), ledger.column("grad_u_l2")
    gdots = nodes.grad_u_sq_dot
    E = energy_functional(times, sqrt_rho_u, grad_u, gdots)
    mass = ledger.column("mass")

    lo, hi = float(nodes.rho.min()), float(nodes.rho.max())
    col_lo, col_hi = ledger.column("rho_min"), ledger.column("rho_max")
    bounds_const = bool(np.all(col_lo == col_lo[0]) and np.all(col_hi == col_hi[0]))
    sample_margin = min(lo - src.lower, src.upper - hi)

    growth = transport_growth_check(
        times, nodes.w1gamma, ledger.column("grad_u_linf"), eps=TRANSPORT_EPS
    )
    return [
        _within(
            "galerkin_orthogonality",
            "worst",
            float(nodes.orthogonality_max.max()),
            RESIDUAL_TOL,
        ),
        _within(
            "projection_identity",
            "worst_relative",
            float(nodes.projection_rel.max()),
            RESIDUAL_TOL,
        ),
        _within(
            "energy_identity",
            "residual",
            energy_identity_check(times, sqrt_rho_u, grad_u, gdots),
            ENERGY_TOL,
        ),
        _within(
            "energy_inequality",
            "overshoot",
            float(E.max() / E[0] - 1.0) if E[0] > 0 else 0.0,
            INEQUALITY_TOL,
        ),
        _check(
            "max_principle",
            bounds_const and sample_margin >= 0.0,
            sample_margin,
            sample_min=lo,
            sample_max=hi,
            lower=src.lower,
            upper=src.upper,
            columns_constant=bounds_const,
        ),
        _within(
            "mass_conservation",
            "relative_deviation",
            float(np.abs(mass - mass[0]).max() / abs(mass[0])),
            MASS_TOL,
        ),
        _check(
            "transport_growth",
            growth.passed,
            growth.worst_margin - 1.0 / (1.0 + TRANSPORT_EPS),
            worst_margin=growth.worst_margin,
            worst_time=growth.worst_time,
            eps=TRANSPORT_EPS,
        ),
        _check(
            "riccati_barrier",
            ric.satisfied_fraction >= 0.99,
            ric.satisfied_fraction - 0.99,
            c1=ric.c1,
            m1=ric.m1,
            satisfied_fraction=ric.satisfied_fraction,
            t0_estimate=t0_est,
        ),
        _check(
            "picard_convergence",
            picard.converged,
            picard.tol - picard.deltas[-1],
            iterations=picard.iterations,
            deltas=picard.deltas,
            contraction_factors=picard.factors,
        ),
    ]


# ---------------------------------------------------------------------------
# momentum continuity probes
# ---------------------------------------------------------------------------


def momentum_probes(result: RunResult) -> tuple[np.ndarray, np.ndarray]:
    """Norms ||(rho u)(t_j) - rho0 u0||_2 at t_j = T 2^{-j}, j < MOMENTUM_PROBES."""
    cfg = result.config
    grid = result.basis.grid(cfg.M)
    w = grid.weight
    T = result.history.t_final
    rho0 = result.nodes.rho[0]
    u0 = grid.synthesize(result.history.coeffs[0])
    mom0 = rho0[..., None] * u0

    probe_t, probe_n = [], []
    for j in range(MOMENTUM_PROBES):
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
class Study:
    """What a study writes: `files` maps each ndjson file name to its rows,
    `runs` each run subdirectory to the RunResult written there."""

    files: dict
    runs: dict


def converge_study(config: RunConfig, n_values) -> Study:
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
    return Study({"converge.ndjson": rows}, {f"N{r.config.N}": r for r in results})


def vacuum_sweep(config: RunConfig, floors) -> Study:
    """Run the same data over a sequence of vacuum floors 1/n.

    `vacuum.ndjson` holds one row per floor, then the cross-floor
    `sup_grad_variation`; each completed floor n adds its run `n<n>` and
    `momentum_n<n>.ndjson`, the momentum probes in probe order (t
    descending)."""
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

    rows, probes, runs, sup_grads = [], {}, {}, []
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
        runs[f"n{n}"] = res
        probes[f"momentum_n{n}.ndjson"] = [
            {"t": float(tj), "norm": float(nj)} for tj, nj in zip(t, norms)
        ]
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
    rows.append({"sup_grad_variation": _relative_spread(sup_grads)})
    return Study({"vacuum.ndjson": rows, **probes}, runs)


def _relative_spread(values: list) -> float:
    """(max - min) / min: 0 when all values agree (all zero included), inf
    above a zero minimum and for no values at all."""
    lo, hi = min(values, default=0.0), max(values, default=math.inf)
    if hi == lo:
        return 0.0
    return (hi - lo) / lo if lo > 0.0 else math.inf


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


def uniqueness_study(config: RunConfig, delta: float = 1e-3) -> Study:
    """Two diagnostics: Picard-seed independence and a perturbation bound.

    Seed independence: the same data solved from the constant-in-time seed
    and from the zero seed must agree to a small multiple of picard_tol.
    Perturbation: shifting the initial density by `delta` produces difference
    curves that must stay below the Gronwall bound with fitted constants.
    Writes the one-row summary `uniqueness.ndjson` and the perturbation's
    difference curves, one row per node, to `curves.ndjson`.
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

    A, C = fit_gronwall_constants(**curves, alpha_base=alpha_base, beta_base=beta_base)
    inp = GronwallInput(
        **curves, alpha=C * alpha_base, beta=C * beta_base, A=A, g0=float(curves["g"][0])
    )
    report = gronwall_verify(inp, f0=float(curves["f"][0]))
    summary = {
        "seed_diff_max": seed_diff_max,
        "seed_pass": seed_pass,
        "fitted_A": A,
        "fitted_C": C,
        "perturb_pass": report.passed,
        "gronwall_message": report.message,
        "gronwall_f_margin": report.f_margin,
        "gronwall_eta_margin": report.eta_margin,
    }
    curve_rows = [
        {"t": float(t), "f": float(f), "g": float(g), "G": float(G)}
        for t, f, g, G in zip(curves["t"], curves["f"], curves["g"], curves["G"])
    ]
    return Study({"uniqueness.ndjson": [summary], "curves.ndjson": curve_rows}, {})


def taylor_benchmark(config: RunConfig, dt_values=None) -> Study:
    """Exact single-mode decay benchmark: f(t) = a exp(-lam t).

    A single basis mode transports itself along its own streamlines without
    self-advection, so the modal amplitude obeys the pure decay ODE exactly
    and any deviation is integrator error.  `taylor.ndjson` holds one row
    per step, then the halving orders and the verdict: the first error at
    most TAYLOR_TOL and every order at least TAYLOR_ORDER_FLOOR."""
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
            src, u0, basis, config.M, dt, config.T, config.backtrack_step,
            config.picard_tol, config.picard_max
        )
        exact = a * np.exp(-lam * history.times)
        err = float(np.abs(history.coeffs[:, idx] - exact).max() / abs(a))
        errors.append(err)
    orders = (
        list(convergence_orders(errors)) if len(errors) >= 2 and min(errors) > 0 else []
    )
    passed = errors[0] <= TAYLOR_TOL and all(o >= TAYLOR_ORDER_FLOOR for o in orders)
    rows = [{"dt": float(dt), "max_rel_error": err} for dt, err in zip(dts, errors)]
    rows.append({"orders": [float(o) for o in orders], "pass": passed})
    return Study({"taylor.ndjson": rows}, {})


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


def write_study(study: Study, outdir) -> None:
    """Write each of a study's ndjson files and each of its runs under
    `outdir`."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    for name, rows in study.files.items():
        write_ndjson(out / name, rows)
    for subdir, result in study.runs.items():
        write_run_outputs(result, out / subdir)


def gronwall_check_file(path) -> tuple[GronwallInput, GronwallReport]:
    """Standalone verification from a JSON file with keys t, f, g, G, alpha,
    beta (equal-length arrays), A, g0.  An unreadable file, malformed JSON,
    a missing key or unequal lengths raise ConfigError."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read gronwall input: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"gronwall input is not valid JSON: {exc}") from exc
    try:
        arrays = {key: data[key] for key in ("t", "f", "g", "G", "alpha", "beta")}
        inp = GronwallInput(**arrays, A=float(data["A"]), g0=float(data["g0"]))
    except KeyError as exc:
        raise ConfigError(f"gronwall input missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad gronwall input: {exc}") from exc
    return inp, gronwall_verify(inp)
