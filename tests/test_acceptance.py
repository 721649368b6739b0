"""Desk-scale acceptance suite.

Every property the package promises is exercised end to end here, each test
emitting one verdict line directly on the terminal (bypassing capture) so a
full run reads as a checklist.  Tolerances are fixed; a red line means the
solver, not the test, needs attention.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from oracles import ShearVelocity, w1gamma_norm

from torusflow.config import parse_config
from torusflow.estimates import (
    GAMMA,
    GronwallInput,
    convergence_orders,
    existence_time,
    gronwall_bounds,
    gronwall_verify,
    transport_growth_margins,
)
from torusflow.fields import grid_points
from torusflow.pipeline import (
    converge_study,
    run_simulation,
    taylor_benchmark,
    uniqueness_study,
    vacuum_sweep,
)
from torusflow.transport import bump_density


@pytest.fixture
def verdict(capsys):
    """One pass/fail line per acceptance property, visible under capture."""

    def _verdict(ok: bool, label: str, detail: str) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _verdict


# The shipped configs, as CI and the benchmark run them.
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SINGLE_MODE = CONFIGS / "taylor.cfg"
TWO_MODE = CONFIGS / "two_mode.cfg"
VACUUM = CONFIGS / "vacuum.cfg"


@pytest.fixture(scope="module")
def single_mode_run():
    return run_simulation(parse_config(SINGLE_MODE))


@pytest.fixture(scope="module")
def two_mode_run():
    return run_simulation(parse_config(TWO_MODE))


@pytest.fixture(scope="module")
def vacuum_results():
    return vacuum_sweep(parse_config(VACUUM), [10, 100, 1000])


def exact_density_bounds_ok(result) -> bool:
    led = result.ledger
    lower, upper = result.source.lower, result.source.upper
    return (
        set(led.rho_min) == {lower}
        and set(led.rho_max) == {upper}
        and led.rho.min() >= lower
        and led.rho.max() <= upper
    )


def test_single_mode_decay_benchmark(single_mode_run, verdict):
    run = single_mode_run
    a, lam = 0.1, 1.0
    exact = a * np.exp(-lam * run.ledger.t)
    rel_err = float(np.abs(run.history.coeffs[:, 0] - exact).max() / a)

    study = taylor_benchmark(parse_config(SINGLE_MODE), dt_values=[0.04, 0.02, 0.01])
    order_rep = study.files["taylor.ndjson"][-1]
    ok = rel_err <= 1e-6 and order_rep["pass"] and min(order_rep["orders"]) >= 3.9
    verdict(
        ok,
        "single-mode decay benchmark",
        f"rel error {rel_err:.3e} <= 1e-6 at dt=1e-3, "
        f"halving orders {[f'{o:.2f}' for o in order_rep['orders']]} >= 3.9",
    )


def energy_residual(run):
    """The energy identity's residual as the run's check reports it."""
    check = next(c for c in run.checks if c["check"] == "energy_identity")
    return check["details"]["residual"]


def test_energy_identity_residual_and_order(single_mode_run, verdict):
    bench_resid = energy_residual(single_mode_run)

    base = replace(parse_config(TWO_MODE), T=0.2)
    resids = [energy_residual(run_simulation(replace(base, dt=dt))) for dt in (0.04, 0.02, 0.01)]
    orders = convergence_orders(resids)
    ok = bench_resid <= 1e-8 and min(orders) >= 3.5
    verdict(
        ok,
        "discrete energy identity",
        f"benchmark residual {bench_resid:.3e} <= 1e-8, "
        f"halving orders {[f'{o:.2f}' for o in orders]} >= 3.5",
    )


def test_galerkin_orthogonality_residuals(single_mode_run, two_mode_run, verdict):
    worst = max(
        float(single_mode_run.ledger.orthogonality_max.max()),
        float(two_mode_run.ledger.orthogonality_max.max()),
    )
    verdict(
        worst <= 1e-8,
        "mode-by-mode equation residual",
        f"max over runs, modes, and steps {worst:.3e} <= 1e-8",
    )


def test_projection_identity_residual(two_mode_run, verdict):
    worst = float(two_mode_run.ledger.projection_rel.max())
    verdict(
        worst <= 1e-8,
        "projected momentum balance",
        f"relative residual {worst:.3e} <= 1e-8 with variable density",
    )


def test_max_principle_and_mass_conservation(single_mode_run, two_mode_run, verdict):
    bounds_ok = exact_density_bounds_ok(single_mode_run) and exact_density_bounds_ok(
        two_mode_run
    )

    mass_cfg = replace(parse_config(TWO_MODE), T=0.1, dt=0.001)
    mass_run = run_simulation(mass_cfg)
    mass = mass_run.ledger.mass
    mass_rel = float(np.abs(mass - mass[0]).max() / mass[0])

    ok = bounds_ok and exact_density_bounds_ok(mass_run) and mass_rel <= 1e-6
    verdict(
        ok,
        "density max principle and mass",
        f"min/max columns exactly constant, samples inside bounds, "
        f"mass drift {mass_rel:.3e} <= 1e-6 at dt=1e-3",
    )


def test_transport_growth_bound_closed_form(verdict):
    shear = ShearVelocity(amplitude=0.7, omega=2.0)
    src = bump_density()
    pts = grid_points(64)
    times = np.linspace(0.0, 0.6, 13)
    w1 = np.array(
        [
            w1gamma_norm(src.value(shear.feet(pts, t)), GAMMA)
            for t in times
        ]
    )
    gradv_inf = np.abs(shear.amplitude * np.cos(shear.omega * times))
    margins = transport_growth_margins(times, w1, gradv_inf)
    worst = int(np.argmin(margins))
    verdict(
        margins[worst] >= 1.0 / (1.0 + 1e-3),
        "transport growth bound",
        f"worst margin {margins[worst]:.6f} at t={times[worst]:.3f} "
        f"(>= 1/(1+1e-3))",
    )


def test_gronwall_property_suite(verdict):
    t = np.linspace(0.0, 0.5, 26)
    z = np.zeros_like(t)

    # Zero initial data forces identically zero bounds.
    fb0, eta0 = gronwall_bounds(
        GronwallInput(t=t, f=z, g=z, G=z, alpha=np.ones_like(t), beta=z, A=2.0, g0=0.0), 0.0
    )
    zero_ok = not fb0.any() and not eta0.any()

    # alpha = beta = 0 gives the bare square-root envelope.
    fb, eta = gronwall_bounds(
        GronwallInput(t=t, f=z, g=z, G=z, alpha=z, beta=z, A=1.5, g0=4.0), 0.0
    )
    sqrt_ok = (
        np.abs(fb - 1.5 * 2.0 * np.sqrt(t)).max() <= 1e-10
        and np.abs(eta - 4.0).max() <= 1e-10
    )

    # Constant alpha reproduces the exponential factor.
    fb, eta = gronwall_bounds(
        GronwallInput(
            t=t, f=z, g=z, G=z, alpha=np.full_like(t, 3.0), beta=z, A=1.0, g0=1.0
        ),
        0.0,
    )
    exp_ok = (
        np.abs(eta - np.exp(3.0 * t)).max() <= 1e-10
        and np.abs(fb - np.sqrt(t) * np.exp(1.5 * t)).max() <= 1e-10
    )

    # A hypothesis-satisfying synthetic triple passes; a corrupted one fails.
    good = GronwallInput(
        t=t,
        f=t.copy(),
        g=4.0 - t,
        G=np.ones_like(t),
        alpha=z,
        beta=np.ones_like(t),
        A=1.5,
        g0=4.0,
    )
    pass_ok = gronwall_verify(good).passed
    bad = replace(good, f=10.0 * t)
    fail_ok = not gronwall_verify(bad).passed

    ok = zero_ok and sqrt_ok and exp_ok and pass_ok and fail_ok
    verdict(
        ok,
        "comparison-inequality utility",
        f"zero-data={zero_ok} sqrt-envelope={sqrt_ok} exp-factor={exp_ok} "
        f"synthetic pass={pass_ok} corrupted fails={fail_ok}",
    )


def test_existence_time_formula(verdict):
    hand = (
        existence_time(1.0, 1.0, 1.0) == 1.0 / 16.0
        and existence_time(2.0, 3.0, 1.0) == 1.0 / 288.0
        and existence_time(0.5, 2.0, 2.0) == 1.0 / 512.0
    )
    scaling = all(
        existence_time(c1, m1, 2.0 * g) == existence_time(c1, m1, g) / 16.0
        for c1, m1, g in ((1.0, 1.0, 1.0), (3.0, 2.0, 0.5), (0.25, 4.0, 2.0))
    )
    unbounded = math.isinf(existence_time(0.0, 1.0, 1.0))
    verdict(
        hand and scaling and unbounded,
        "existence-time formula",
        f"hand arithmetic exact={hand}, fourth-power scaling exact={scaling}, "
        f"zero slope gives inf={unbounded}",
    )


def test_vacuum_floor_sweep(vacuum_results, verdict):
    runs = list(vacuum_results.runs.values())
    *rows, spread = vacuum_results.files["vacuum.ndjson"]
    floors = [row for row in rows if "error" not in row]
    variation = spread["sup_grad_variation"]
    T = 0.2
    complete = len(runs) == 3 and all(
        abs(r.history.times[-1] - T) < 1e-12 and r.t0_estimate >= T for r in runs
    )
    bounds = all(exact_density_bounds_ok(r) for r in runs)
    uniform = variation <= 0.10
    momentum = all(row["momentum_pass"] for row in floors)
    slopes = [f"{row['momentum_slope']:.2f}" for row in floors]
    decays = [f"{row['momentum_decay_ratio']:.1e}" for row in floors]
    verdict(
        complete and bounds and uniform and momentum,
        "vacuum floor sweep",
        f"floors 10/100/1000 complete={complete}, sup|grad u|^2 variation "
        f"{variation:.2%} <= 10%, momentum slopes {slopes} "
        f">= 0.15 with decay ratios {decays} <= 1e-3",
    )


def test_uniqueness_diagnostics(verdict):
    cfg = parse_config(TWO_MODE)
    (summary,) = uniqueness_study(cfg, delta=1e-3).files["uniqueness.ndjson"]
    seed_worst = max(summary["seed_diff_max"].values())
    seed_ok = summary["seed_pass"] and seed_worst <= 10.0 * cfg.picard_tol
    verdict(
        seed_ok and summary["perturb_pass"],
        "uniqueness diagnostics",
        f"seed difference {seed_worst:.3e} <= {10.0 * cfg.picard_tol:.0e}, "
        f"delta=1e-3 perturbation under the fitted bound "
        f"(f margin {summary['gronwall_f_margin']:.3e}, "
        f"eta margin {summary['gronwall_eta_margin']:.3e})",
    )


def test_mode_refinement_monotonicity(verdict):
    rows = converge_study(parse_config(TWO_MODE), [8, 16, 32]).files["converge.ndjson"]
    diffs = [row["l2_time_diff"] for row in rows if "l2_time_diff" in row]
    monotone = all(d > 0 for d in diffs) and all(
        a > b for a, b in zip(diffs[:-1], diffs[1:])
    )
    composites = [row["sup_t_weighted_h2"] for row in rows if "n_modes" in row]
    ratio = max(composites) / min(composites)
    verdict(
        monotone and ratio <= 2.0,
        "mode-count refinement",
        f"L2-in-time gaps {[f'{d:.2e}' for d in diffs]} strictly decreasing, "
        f"t-weighted composites within x{ratio:.3f} (<= x2)",
    )
