"""Run orchestration: full solves, ledgers, inline checks, sweeps, studies.

A "run" is one Picard-converged trajectory, its ledger and a list of named
pass/fail checks.  The ledger is the run's one per-node table: every
quantity the checks and studies read at the node times, one float array per
column.  `node_diagnostics` fills it walking the trajectory in blocks of
nodes (WALK_POINTS grid points each), with stacked states, residuals and
norms: one code path whatever the block size.  Studies (grid refinement,
vacuum floors, uniqueness pairs, the exact single-mode benchmark) compose
runs and compare their ledgers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import (
    MAX_STEPS,
    ConfigError,
    RunConfig,
    build_basis,
    build_source,
    build_u0,
    snapshot_tag,
)
from .estimates import (
    GAMMA,
    EstimateLedger,
    GronwallInput,
    GronwallReport,
    convergence_orders,
    cumtrapz,
    energy_functional,
    existence_time,
    fit_gronwall_constants,
    gronwall_verify,
    h1_functional,
    momentum_continuity_report,
    riccati_fit,
    transport_growth_margins,
    weighted_grad_ut_integral,
    write_ndjson,
)
from .fields import fd_gradient, lp_norm, save_snapshot
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
    DensitySource,
    VelocityHistory,
    carried_densities,
    density_at,
    shift_density,
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

# Grid points per block of the ledger walk (node_diagnostics): 8 nodes at
# M = 16, 2 at M = 32, 1 at M = 40.  A block's temporaries grow with its
# grid points, not its node count.  Blocks of 3200 points (2 nodes at
# M = 40) left more of the heap resident after the walk and raised the
# peak resident memory of the M = 40 config.
WALK_POINTS = 2048


@dataclass
class RunResult:
    config: RunConfig
    source: DensitySource
    history: VelocityHistory
    picard: PicardReport
    ledger: EstimateLedger
    checks: list

    @property
    def t0_estimate(self) -> float:
        """The existence-time estimate of the `riccati_barrier` check."""
        riccati = next(c for c in self.checks if c["check"] == "riccati_barrier")
        return riccati["details"]["t0_estimate"]


def _check(name: str, margins, **details) -> dict:
    """A check record from its margins, bound minus observed: one per node,
    or one in all.  Its margin is the least of them; it passes iff that is
    at least 0."""
    margin = float(np.min(margins))
    return {"check": name, "pass": margin >= 0.0, "margin": margin, "details": details}


def _tolerance(name: str, observed, tol: float, key: str) -> dict:
    """A tolerance check: `observed` (one per node) at most `tol`, with the
    worst observation under `key`, then `tol`."""
    return _check(name, tol - observed, **{key: float(np.max(observed))}, tol=tol)


def node_diagnostics(src: DensitySource, history, M: int) -> EstimateLedger:
    """Walk a converged trajectory once into the run's per-node table, in
    the basis of `history`, on the M x M grid.

    The densities come from their own carried sweep along `history`, not
    from the last Picard pass, which advected the density by the previous
    iterate.  The walk goes in blocks of about WALK_POINTS grid points: each
    block of nodes is one `build_state` on the node coefficients and the
    stacked densities, whose grid fields u, grad u and u_t the grid columns
    and the residuals share, and every grid column is a whole-block
    reduction.  Failures surface in node order: a node failing the
    eigenvalue guard before the sweep's drift error.  The columns of the
    node coefficients f = history.coeffs and their rates fdot are
    whole-array expressions after the walk."""
    basis = history.basis
    lam = basis.lambdas
    w = basis.grid(M).weight
    times, f = history.times, history.coeffs
    led = EstimateLedger.allocate(len(times), M)
    fdot = np.empty_like(f)
    size = max(1, WALK_POINTS // (M * M))
    for lo, r in carried_densities(src, history, M, times, times, size):
        nodes = slice(lo, lo + len(r))
        state = build_state(basis, f[nodes], r)
        u, (du_dx, du_dy), ut = state.u, state.grad_u, state.ut
        led.rho[nodes], fdot[nodes] = r, state.fdot
        umag2 = (u * u).sum(axis=1)
        grad_rho = fd_gradient(r)
        # The gamma-power integral of |grad rho|, read by both of its norms.
        grad_pow = w * (np.sqrt((grad_rho * grad_rho).sum(axis=1)) ** GAMMA).sum(axis=(1, 2))
        led.sqrt_rho_u_l2[nodes] = np.sqrt(w * (r * umag2).sum(axis=(1, 2)))
        led.sqrt_rho_ut_l2[nodes] = np.sqrt(w * (r * (ut * ut).sum(axis=1)).sum(axis=(1, 2)))
        led.u_linf[nodes] = np.sqrt(umag2).max(axis=(1, 2))
        led.grad_u_linf[nodes] = np.sqrt((du_dx**2 + du_dy**2).sum(axis=1)).max(axis=(1, 2))
        led.grad_rho_lgamma[nodes] = grad_pow ** (1.0 / GAMMA)
        led.rho_t_lgamma[nodes] = lp_norm(-(u * grad_rho).sum(axis=1), GAMMA)
        led.mass[nodes] = w * r.sum(axis=(1, 2))
        led.momentum_l2[nodes] = np.sqrt(w * (r * r * umag2).sum(axis=(1, 2)))
        led.w1gamma[nodes] = (w * (np.abs(r) ** GAMMA).sum(axis=(1, 2)) + grad_pow) ** (1.0 / GAMMA)
        resid = residual_diagnostics(state, basis)
        led.orthogonality_max[nodes] = resid.orthogonality_max
        led.projection_rel[nodes] = resid.projection_rel

    led.t[:] = times
    led.grad_u_l2[:] = np.sqrt((lam * f * f).sum(axis=1))
    led.hess_u_l2[:] = np.sqrt((lam * lam * f * f).sum(axis=1))
    led.grad_ut_l2[:] = np.sqrt((lam * fdot * fdot).sum(axis=1))
    led.rho_min[:], led.rho_max[:] = src.lower, src.upper
    led.t_weighted_h2[:] = times * (led.hess_u_l2**2 + led.sqrt_rho_ut_l2**2)
    led.grad_u_sq_dot[:] = 2.0 * (lam * f * fdot).sum(axis=1)
    return led


def run_simulation(
    config: RunConfig, seed: np.ndarray | None = None, source: DensitySource | None = None
) -> RunResult:
    """Picard-converge the flow, then walk the trajectory building the norm
    ledger and the inline verification checks.

    The first advecting velocity holds the coefficients `seed` constant in
    time, those of u0 when it is None; the density is `source`, the
    config's when it is None."""
    basis = build_basis(config)
    src = source if source is not None else build_source(config)
    u0 = build_u0(config, basis)
    v = VelocityHistory.constant(basis, u0 if seed is None else seed, config.T)
    history, picard = picard_solve(
        v, src, u0, config.M, config.dt, config.picard_tol, config.picard_max
    )
    led = node_diagnostics(src, history, config.M)
    return RunResult(
        config=config,
        source=src,
        history=history,
        picard=picard,
        ledger=led,
        checks=_build_checks(src, led, picard, config.picard_tol),
    )


def _build_checks(src, led: EstimateLedger, picard: PicardReport, picard_tol: float) -> list[dict]:
    """The nine named checks of a run on the density `src`, from its ledger
    and its Picard report; `picard_tol` is the tolerance the solve was given."""
    m1 = 1.0 + src.upper
    F = h1_functional(led.t, led.grad_u_l2, led.sqrt_rho_ut_l2, led.hess_u_l2, m1=m1)
    c1, fraction = riccati_fit(led.t, F)
    E = energy_functional(led.t, led.sqrt_rho_u_l2, led.grad_u_l2, led.grad_u_sq_dot)
    residual = 0.5 * np.abs(E - E[0])
    overshoot = E / E[0] - 1.0 if E[0] > 0 else np.zeros_like(E)
    deviation = np.abs(led.mass - led.mass[0]) / abs(led.mass[0])
    lo, hi = led.rho.min(axis=(1, 2)), led.rho.max(axis=(1, 2))
    growth = transport_growth_margins(led.t, led.w1gamma, led.grad_u_linf)
    worst = int(np.argmin(growth))
    return [
        _tolerance("galerkin_orthogonality", led.orthogonality_max, RESIDUAL_TOL, "worst"),
        _tolerance("projection_identity", led.projection_rel, RESIDUAL_TOL, "worst_relative"),
        _tolerance("energy_identity", residual, ENERGY_TOL, "residual"),
        _tolerance("energy_inequality", overshoot, INEQUALITY_TOL, "overshoot"),
        _check(
            "max_principle",
            np.minimum(lo - src.lower, src.upper - hi),
            sample_min=float(lo.min()),
            sample_max=float(hi.max()),
            lower=src.lower,
            upper=src.upper,
            # True by construction: node_diagnostics fills both columns
            # with the source's bounds.
            columns_constant=all(bool(np.all(c == c[0])) for c in (led.rho_min, led.rho_max)),
        ),
        _tolerance("mass_conservation", deviation, MASS_TOL, "relative_deviation"),
        _check(
            "transport_growth",
            growth - 1.0 / (1.0 + TRANSPORT_EPS),
            worst_margin=float(growth[worst]),
            worst_time=float(led.t[worst]),
            eps=TRANSPORT_EPS,
        ),
        _check(
            "riccati_barrier",
            fraction - 0.99,
            c1=c1, m1=m1, satisfied_fraction=fraction,
            t0_estimate=existence_time(c1, m1, float(led.grad_u_l2[0])),
        ),
        _check(
            "picard_convergence",
            picard_tol - picard.deltas[-1],
            iterations=picard.iterations,
            deltas=picard.deltas,
            contraction_factors=picard.factors,
        ),
    ]


# ---------------------------------------------------------------------------
# momentum continuity probes
# ---------------------------------------------------------------------------


def momentum_probes(result: RunResult) -> tuple[np.ndarray, np.ndarray]:
    """Norms ||(rho u)(t_j) - rho0 u0||_2 at t_j = T 2^{-j}, j < MOMENTUM_PROBES.

    A probe at a node time reads the density the ledger walk carried there,
    as rho0 is read; any other probe backtracks its density to t = 0."""
    cfg = result.config
    grid = result.history.basis.grid(cfg.M)
    w = grid.weight
    times = result.history.times
    rho0 = result.ledger.rho[0]
    mom0 = rho0 * grid.synthesize(result.history.coeffs[0])

    carried = dict(zip(times.tolist(), result.ledger.rho))
    probe_t = times[-1] * 2.0 ** -np.arange(MOMENTUM_PROBES)
    probe_n = np.empty(MOMENTUM_PROBES)
    for j, f in enumerate(result.history.coeffs_at(probe_t)):
        u = grid.synthesize(f)
        rho = carried.get(probe_t[j])
        if rho is None:
            rho = density_at(result.source, result.history, cfg.M, probe_t[j], cfg.dt)
        diff = rho * u - mom0
        probe_n[j] = math.sqrt(w * (diff * diff).sum())
    return probe_t, probe_n


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------


@dataclass
class Study:
    """What a study writes: `files` maps each ndjson file name to its rows,
    `runs` each run subdirectory ("" for the output directory itself) to
    the RunResult written there."""

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
        l2t = math.sqrt(cumtrapz(small.ledger.t, d2)[-1])
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
        led = res.ledger
        rows.append(
            {
                "n_modes": res.config.N,
                "sup_t_weighted_h2": float(led.t_weighted_h2.max()),
                "int_t_grad_ut_sq": weighted_grad_ut_integral(led.t, led.grad_ut_l2),
                "int_grad_u_linf": float(cumtrapz(led.t, led.grad_u_linf)[-1]),
            }
        )
    return Study({"converge.ndjson": rows}, {f"N{r.config.N}": r for r in results})


def vacuum_sweep(config: RunConfig, floors) -> Study:
    """Run the same data over a sequence of vacuum floors 1/n.

    `vacuum.ndjson` holds one row per floor, then the cross-floor
    `sup_grad_variation`; each completed floor n adds its run `n<n>` and
    `momentum_n<n>.ndjson`, the momentum probes in probe order (t
    descending)."""
    base = build_source(config)
    if base.lower > 0.0:
        raise ConfigError(
            f"vacuum sweep needs a density vanishing somewhere; "
            f"{config.density_kind!r} has minimum {base.lower}",
            key="density.kind",
        )
    ns = sorted(set(int(n) for n in floors))
    if not ns:
        raise ConfigError("vacuum sweep needs at least one floor value")
    if any(n < 1 for n in ns):
        raise ConfigError("floor values must be positive integers")

    rows, probes, runs, sup_grads = [], {}, {}, []
    for n in ns:
        src = shift_density(base, 1.0 / n)
        try:
            res = run_simulation(config, source=src)
        except (DivergenceError, PicardNonConvergenceError, VacuumDegenerateError) as exc:
            # A failing floor is recorded and the sweep moves on; triage
            # happens from the table, not from an aborted sweep.
            rows.append({"floor_n": n, "error": type(exc).__name__, "message": str(exc)})
            continue
        t, norms = momentum_probes(res)
        slope, decay_ratio, passed = momentum_continuity_report(t, norms)
        runs[f"n{n}"] = res
        probes[f"momentum_n{n}.ndjson"] = [
            {"t": float(tj), "norm": float(nj)} for tj, nj in zip(t, norms)
        ]
        sup_grad = float((res.ledger.grad_u_l2 ** 2).max())
        sup_grads.append(sup_grad)
        rows.append(
            {
                "floor_n": n,
                "sup_grad_u_sq": sup_grad,
                "momentum_slope": slope,
                "momentum_decay_ratio": decay_ratio,
                "momentum_pass": passed,
                "t0_estimate": res.t0_estimate,
                "completed_T": float(res.history.times[-1]),
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
    """Difference norms between two runs sharing grid, basis, and times,
    one value per node.

    f = ||rho_other - rho_ref||_{3/2}; g = ||sqrt(rho_other) (u_other -
    u_ref)||_2^2; G = ||grad(u_other - u_ref)||_2^2."""
    grid = ref.history.basis.grid(ref.config.M)
    dc = other.history.coeffs - ref.history.coeffs
    du = grid.synthesize(dc)
    rho = other.ledger.rho
    return {
        "t": ref.ledger.t.copy(),
        "f": lp_norm(rho - ref.ledger.rho, 1.5),
        "g": grid.weight * (rho * (du * du).sum(axis=1)).sum(axis=(1, 2)),
        "G": (ref.history.basis.lambdas * dc * dc).sum(axis=1),
    }


def uniqueness_study(config: RunConfig, delta: float) -> Study:
    """Two diagnostics: Picard-seed independence and a perturbation bound.

    Seed independence: the same data solved from the initial velocity held
    constant in time and from the zero velocity must agree to a small
    multiple of picard_tol.
    Perturbation: shifting the initial density by `delta` produces difference
    curves that must stay below the Gronwall bound with fitted constants.
    A `delta` that makes the shifted density negative, or the cube of the
    shifted run's M1 = 1 + sup rho0 + delta non-finite (nan and inf
    included), is a ConfigError before any solve: M1^3, in the Riccati
    fit's F^3 with F linear in M1, is the highest power of the density
    bound the study takes.
    Writes the one-row summary `uniqueness.ndjson` and the perturbation's
    difference curves, one row per node, to `curves.ndjson`.
    """
    src = build_source(config)
    lower, m1 = src.lower + delta, 1.0 + src.upper + delta
    if not (lower >= 0.0 and m1 * m1 * m1 < math.inf):
        raise ConfigError(
            f"density shift delta={delta} needs inf rho0 + delta = {lower} >= 0 and a "
            f"finite cube of the shifted run's M1 = 1 + sup rho0 + delta = {m1}"
        )
    run_a = run_simulation(config)
    run_b = run_simulation(config, seed=np.zeros(config.N))
    seed_curves = _difference_curves(run_a, run_b)
    seed_diff_max = {
        "rho_l32": float(seed_curves["f"].max()),
        "sqrt_rho_du_l2": float(np.sqrt(seed_curves["g"]).max()),
        "grad_du_l2": float(np.sqrt(seed_curves["G"]).max()),
    }
    seed_pass = all(v <= 10.0 * config.picard_tol for v in seed_diff_max.values())

    run_p = run_simulation(config, source=shift_density(src, delta))
    curves = _difference_curves(run_a, run_p)

    led = run_a.ledger
    grad_h1_sq = led.grad_u_l2**2 + led.hess_u_l2**2
    alpha_base = grad_h1_sq
    beta_base = led.grad_ut_l2**2 + led.grad_u_l2 * grad_h1_sq**1.5

    A, C = fit_gronwall_constants(**curves, alpha_base=alpha_base, beta_base=beta_base)
    inp = GronwallInput(
        **curves, alpha=C * alpha_base, beta=C * beta_base, A=A, g0=float(curves["g"][0])
    )
    report = gronwall_verify(inp)
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
    src = build_source(config)
    if not src.constant:
        raise ConfigError(
            "taylor benchmark needs density.kind = constant", key="density.kind"
        )
    if len(config.u0_modes) != 1:
        raise ConfigError("taylor benchmark needs exactly one u0 mode", key="u0.modes")
    (a,) = config.u0_modes.values()
    if a == 0.0:
        # The error is relative to |a|.
        raise ConfigError("taylor benchmark needs a nonzero u0 amplitude", key="u0.modes")

    basis = build_basis(config)
    u0 = build_u0(config, basis)
    seed = VelocityHistory.constant(basis, u0, config.T)
    # u0's one nonzero coefficient is the listed mode's; outside the basis,
    # u0 is zero.
    if not u0.any():
        raise ConfigError("the listed u0 mode is outside the basis", key="u0.modes")
    (idx,) = np.flatnonzero(u0)
    lam = basis.lambdas[idx]

    dts = list(dt_values) if dt_values is not None else [config.dt]
    if not dts:
        raise ConfigError("taylor benchmark needs at least one time step")
    # A step longer than T would be cut to T while its row reports it, and
    # the node times of MAX_STEPS steps or more cannot be allocated.
    bad = [dt for dt in dts if not (0.0 < dt <= config.T and config.T / dt < MAX_STEPS)]
    if bad:
        raise ConfigError(f"time steps must lie in (0, T={config.T:g}] and above T/5e11, got {bad}")
    errors = []
    for dt in dts:
        history, _ = picard_solve(
            seed, src, u0, config.M, dt, config.picard_tol, config.picard_max
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
    write_ndjson(out / "checks.ndjson", result.checks)

    cfg = result.config
    for t in cfg.snapshots:
        f = result.history.coeffs_at(t)
        rho = density_at(result.source, result.history, cfg.M, t, cfg.dt)
        state = build_state(result.history.basis, f[None], rho[None])
        tag = snapshot_tag(t)
        save_snapshot(np.moveaxis(state.u[0], 0, -1), out / f"u_t{tag}.dat")
        save_snapshot(state.rho[0], out / f"rho_t{tag}.dat")
        resid = residual_diagnostics(state, result.history.basis)
        save_snapshot(resid.pressure[0], out / f"p_t{tag}.dat")


def write_study(study: Study, outdir) -> Path:
    """Write each of a study's ndjson files and each of its runs under
    `outdir` (a run under "" into `outdir` itself); returns the first file
    written: the first ndjson file, or the first run's ledger.  A write
    that fails is a ConfigError naming `outdir` and the OSError."""
    out = Path(outdir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, rows in study.files.items():
            write_ndjson(out / name, rows)
        for subdir, result in study.runs.items():
            write_run_outputs(result, out / subdir)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from exc
    if study.files:
        return out / next(iter(study.files))
    return out / next(iter(study.runs)) / "ledger.ndjson"


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
