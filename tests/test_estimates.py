"""Estimate monitors: quadrature, energy, Riccati, Gronwall, momentum."""

import json
import math

import numpy as np
import pytest

from torusflow.estimates import (
    LEDGER_FIELDS,
    EstimateLedger,
    GronwallInput,
    convergence_orders,
    cumtrapz,
    energy_functional,
    energy_identity_check,
    existence_time,
    fit_gronwall_constants,
    gronwall_bounds,
    gronwall_bounds_offset,
    gronwall_verify,
    h1_functional,
    hermite_cumtrapz,
    momentum_continuity_report,
    riccati_fit,
    weighted_h2_stats,
)


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------


def test_cumtrapz_matches_reference():
    t = np.linspace(0.0, 2.0, 41)
    g = np.exp(-t)
    ours = cumtrapz(t, g)
    assert ours[0] == 0.0
    assert abs(ours[-1] - np.trapezoid(g, t)) < 1e-15


def test_hermite_cumtrapz_exact_for_cubics():
    t = np.linspace(0.0, 1.0, 6)
    g = t**3 - 2.0 * t**2 + 0.5
    gdot = 3.0 * t**2 - 4.0 * t
    exact = t**4 / 4.0 - 2.0 * t**3 / 3.0 + 0.5 * t
    np.testing.assert_allclose(hermite_cumtrapz(t, g, gdot), exact, atol=1e-15)


def test_convergence_orders():
    np.testing.assert_allclose(convergence_orders([1.0, 1 / 16, 1 / 256]), [4.0, 4.0])
    with pytest.raises(ValueError):
        convergence_orders([1.0, 0.0])


# ---------------------------------------------------------------------------
# energy identity
# ---------------------------------------------------------------------------


def exact_decay_series(lam=1.0, a=0.5, dt=0.01, T=1.0):
    t = np.arange(0.0, T + dt / 2, dt)
    f = a * np.exp(-lam * t)
    q = f  # sqrt(rho) u norm with rho = 1: ||u||_2 = |f|
    grad = np.sqrt(lam) * f
    gdot = -2.0 * lam * lam * f * f  # d/dt (lam f^2)
    return t, q, grad, gdot


def test_energy_identity_exact_decay():
    t, q, grad, gdot = exact_decay_series()
    resid = energy_identity_check(t, q, grad, gdot)
    assert resid < 1e-10
    E = energy_functional(t, q, grad, gdot)
    assert np.abs(E / E[0] - 1.0).max() < 1e-9


def test_energy_identity_flags_corruption():
    t, q, grad, gdot = exact_decay_series()
    assert energy_identity_check(t, q, 1.01 * grad, gdot) > 1e-3


def test_hermite_correction_beats_plain_trapezoid():
    t, q, grad, gdot = exact_decay_series()
    assert energy_identity_check(t, q, grad, gdot) < 0.01 * energy_identity_check(
        t, q, grad, None
    )


# ---------------------------------------------------------------------------
# Riccati fit and existence time
# ---------------------------------------------------------------------------


def test_riccati_fit_synthetic_blowup():
    # F(t) = (1 - 2t)^(-1/2) solves F' = F^3 exactly, so C1 ~= 1.
    t = np.linspace(0.0, 0.3, 601)
    F = (1.0 - 2.0 * t) ** -0.5
    fit = riccati_fit(t, F)
    assert 1.0 <= fit.c1 <= 1.03
    assert fit.satisfied_fraction == 1.0


def test_riccati_fit_decay_gives_zero():
    t = np.linspace(0.0, 1.0, 101)
    fit = riccati_fit(t, np.exp(-t))
    assert fit.c1 == 0.0
    assert fit.satisfied_fraction == 1.0


def test_riccati_fit_zero_flow_is_explicit():
    # F = 0 with F' <= 0 is bounded by any C1; growth out of F = 0 by none.
    t = np.linspace(0.0, 1.0, 11)
    fit = riccati_fit(t, np.zeros_like(t))
    assert fit.c1 == 0.0
    assert fit.satisfied_fraction == 1.0
    F = np.zeros_like(t)
    F[-1] = 1.0
    assert math.isinf(riccati_fit(t, F).c1)


def test_existence_time_hand_arithmetic():
    assert existence_time(1.0, 1.0, 1.0) == 1.0 / 16.0
    assert existence_time(2.0, 3.0, 1.0) == 1.0 / 288.0
    assert existence_time(0.5, 2.0, 2.0) == 1.0 / (16.0 * 0.5 * 4.0 * 16.0)
    assert existence_time(0.0, 1.0, 1.0) == math.inf
    assert existence_time(1.0, 1.0, 0.0) == math.inf


def test_existence_time_quartic_homogeneity():
    # Scaling the initial gradient by s divides T0 by s^4, exactly in floats
    # for s = 2 (powers of two).
    base = existence_time(1.0, 1.0, 1.0)
    assert existence_time(1.0, 1.0, 2.0) == base / 16.0
    assert existence_time(1.0, 1.0, 4.0) == base / 256.0


def test_h1_functional_and_weighted_stats():
    t = np.array([0.0, 1.0, 2.0])
    F = h1_functional(t, [1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0], m1=2.0)
    # 2*M1*grad^2 = [4,0,0]; integrand M1*srut^2 = [0,2,2] -> cumtrapz [0,1,3].
    np.testing.assert_allclose(F, [4.0, 1.0, 3.0], atol=1e-15)

    sup, integ = weighted_h2_stats(t, [0.0, 1.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    assert sup == 4.0  # max of t*(h^2+s^2) = [0, 2, 4]
    assert integ == 2.0  # trapezoid of t*1 on [0,2]


# ---------------------------------------------------------------------------
# Gronwall lemma
# ---------------------------------------------------------------------------


def test_gronwall_zero_initial_data_forces_zero():
    t = np.linspace(0.0, 1.0, 11)
    z = np.zeros_like(t)
    inp = GronwallInput(t=t, f=z, g=z, G=z, alpha=np.ones_like(t), beta=np.ones_like(t), A=2.0, g0=0.0)
    f_bound, eta_bound = gronwall_bounds(inp)
    assert np.all(f_bound == 0.0)
    assert np.all(eta_bound == 0.0)
    report = gronwall_verify(inp)
    assert report.passed and report.message == "ok"


def test_gronwall_bounds_closed_forms():
    t = np.linspace(0.0, 1.0, 101)
    z = np.zeros_like(t)
    # alpha = beta = 0, A = 1, g0 = 1: f_bound = sqrt(t), eta_bound = 1.
    inp = GronwallInput(t=t, f=z, g=z, G=z, alpha=z, beta=z, A=1.0, g0=1.0)
    f_bound, eta_bound = gronwall_bounds(inp)
    np.testing.assert_allclose(f_bound, np.sqrt(t), atol=1e-15)
    np.testing.assert_allclose(eta_bound, np.ones_like(t), atol=1e-15)
    # alpha = 1, beta = 0: eta_bound = g0 e^t (trapezoid of a constant is exact).
    inp = GronwallInput(t=t, f=z, g=z, G=z, alpha=np.ones_like(t), beta=z, A=1.0, g0=2.0)
    _, eta_bound = gronwall_bounds(inp)
    np.testing.assert_allclose(eta_bound, 2.0 * np.exp(t), rtol=1e-12)


def test_gronwall_offset_reduces_to_exact_form():
    t = np.linspace(0.0, 1.0, 21)
    z = np.zeros_like(t)
    inp = GronwallInput(t=t, f=z, g=z, G=z, alpha=t, beta=t, A=1.5, g0=0.7)
    np.testing.assert_array_equal(
        gronwall_bounds_offset(inp, 0.0)[0], gronwall_bounds(inp)[0]
    )
    # With f0 > 0 the bound exceeds f0 everywhere and starts at f0.
    f_bound, eta_bound = gronwall_bounds_offset(inp, 0.3)
    assert f_bound[0] == 0.3
    assert np.all(f_bound >= 0.3)
    assert np.all(eta_bound >= inp.g0)


def test_gronwall_verify_synthetic_pass():
    # f = t, G = 1, g = g0 - t(1-t/4) chosen so g' + G <= alpha g + beta f^2
    # holds with alpha = 0, beta = 1, and f' = 1 <= A sqrt(G) with A = 1.5.
    t = np.linspace(0.0, 0.5, 51)
    f = t.copy()
    G = np.ones_like(t)
    g = 4.0 - t
    inp = GronwallInput(
        t=t, f=f, g=g, G=G, alpha=np.zeros_like(t), beta=np.ones_like(t), A=1.5, g0=4.0
    )
    report = gronwall_verify(inp, f0=0.0)
    assert report.hypotheses_ok, report.hypothesis_margin
    assert report.passed, (report.f_margin, report.eta_margin)


def test_gronwall_verify_flags_corrupted_trajectory():
    t = np.linspace(0.0, 0.5, 51)
    f = t.copy()
    G = np.ones_like(t)
    g = 4.0 - t
    inp = GronwallInput(
        t=t, f=10.0 * f, g=g, G=G, alpha=np.zeros_like(t), beta=np.ones_like(t),
        A=1.5, g0=4.0,
    )
    report = gronwall_verify(inp, f0=0.0)
    assert not report.passed
    assert report.message in ("hypotheses fail", "conclusion fails")


def test_gronwall_verify_conclusion_failure_is_distinguished():
    # Satisfy the hypotheses with generous A but hand gronwall_verify a g0
    # smaller than the true g(0): the bound curve is then too low and the
    # conclusion fails while the hypotheses hold.
    t = np.linspace(0.0, 0.5, 51)
    f = 0.1 * t
    G = np.ones_like(t)
    g = 4.0 - t
    inp = GronwallInput(
        t=t, f=f, g=g, G=G, alpha=np.zeros_like(t), beta=np.zeros_like(t),
        A=1.0, g0=0.01,
    )
    report = gronwall_verify(inp, f0=0.0)
    assert report.hypotheses_ok
    assert not report.conclusion_ok
    assert report.message == "conclusion fails"


def test_gronwall_input_validation():
    t = np.linspace(0.0, 1.0, 5)
    z = np.zeros_like(t)
    with pytest.raises(ValueError):
        GronwallInput(t=t, f=z[:-1], g=z, G=z, alpha=z, beta=z, A=1.0, g0=0.0)
    with pytest.raises(ValueError):
        GronwallInput(t=t, f=z, g=z, G=z - 1.0, alpha=z, beta=z, A=1.0, g0=0.0)
    with pytest.raises(ValueError):
        GronwallInput(t=t, f=z, g=z, G=z, alpha=z, beta=z, A=-1.0, g0=0.0)


def test_fit_gronwall_constants_recovers_ratios():
    t = np.linspace(0.0, 1.0, 101)
    G = np.ones_like(t)
    f = 2.0 * t  # df = 2 dt, int sqrt(G) = t, so A ratio = 2
    g = np.exp(3.0 * t)  # g' + G = 3 e^{3t} + 1 <= C g with alpha_base = 1
    alpha_base = np.ones_like(t)
    beta_base = np.zeros_like(t)
    A, C = fit_gronwall_constants(t, f, g, G, alpha_base, beta_base)
    assert 2.0 <= A <= 2.0 * 1.021
    assert C >= 3.0
    inp = GronwallInput(
        t=t, f=f, g=g, G=G, alpha=C * alpha_base, beta=C * beta_base, A=A,
        g0=float(g[0]),
    )
    assert gronwall_verify(inp, f0=0.0).hypotheses_ok


# ---------------------------------------------------------------------------
# momentum continuity
# ---------------------------------------------------------------------------


def probe_times(T=0.2, count=13):
    return np.array([T * 2.0 ** (-j) for j in range(count)])


def test_momentum_report_zero_data_passes():
    t = probe_times()
    report = momentum_continuity_report(t, np.zeros_like(t))
    assert report.passed
    assert report.slope is None


def test_momentum_report_linear_decay_passes():
    t = probe_times()
    report = momentum_continuity_report(t, 3.0 * t)
    assert report.passed
    assert abs(report.slope - 1.0) < 1e-12
    assert report.decay_ratio == 2.0 ** (-12)


def test_momentum_report_rejects_flat_or_negative():
    t = probe_times()
    flat = momentum_continuity_report(t, np.full_like(t, 0.5))
    assert not flat.passed
    bad = momentum_continuity_report(t, np.linspace(-0.1, 1.0, len(t)))
    assert not bad.passed
    bumpy = 3.0 * t
    bumpy[6] *= 10.0  # non-monotone spike
    assert not momentum_continuity_report(t, bumpy).passed


# ---------------------------------------------------------------------------
# ledger containers
# ---------------------------------------------------------------------------


def full_row(t=0.0):
    return {k: float(t) for k in LEDGER_FIELDS}


def test_ledger_round_trip(tmp_path):
    led = EstimateLedger()
    led.append(**full_row(0.0))
    led.append(**full_row(0.5))
    nd = tmp_path / "ledger.ndjson"
    cs = tmp_path / "ledger.csv"
    led.write_ndjson(nd)
    led.write_csv(cs)
    lines = nd.read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        row = json.loads(line)
        assert list(row) == LEDGER_FIELDS
    csv_lines = cs.read_text().splitlines()
    assert len(csv_lines) == 3  # header + 2 rows
    assert csv_lines[0] == ",".join(LEDGER_FIELDS)
    np.testing.assert_array_equal(led.column("t"), [0.0, 0.5])


def test_ledger_rejects_bad_rows():
    led = EstimateLedger()
    row = full_row()
    row.pop("mass")
    with pytest.raises(ValueError):
        led.append(**row)
    row = full_row()
    row["extra"] = 1.0
    with pytest.raises(ValueError):
        led.append(**row)
