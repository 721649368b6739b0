"""A priori estimate monitors: energy, Riccati, Gronwall, continuity.

Everything here is plain array math over time series sampled from a run.
Time integrals use the trapezoid rule on the sample grid; the energy identity
additionally accepts nodal derivatives of the integrand, turning trapezoid
into its Hermite-corrected variant (fourth order) so that the residual
reflects the integrator error rather than the quadrature error.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

GAMMA = 2.0  # Lebesgue exponent for all density-gradient monitors
RICCATI_SLACK = 0.01  # riccati_fit: relative slack on the fitted C1
GRONWALL_RTOL = 1e-9  # gronwall_verify: relative tolerance on every comparison
GRONWALL_ATOL = 1e-12  # gronwall_verify: absolute tolerance on every comparison
GRONWALL_FIT_SLACK = 0.02  # fit_gronwall_constants: relative slack on A and C
GRONWALL_FIT_FLOOR = 1e-14  # fit_gronwall_constants: skipped-interval threshold
MOMENTUM_SLOPE_FLOOR = 0.15  # momentum_continuity_report: least log-log slope
MOMENTUM_DECAY_TARGET = 1e-3  # momentum_continuity_report: largest decay ratio

LEDGER_FIELDS = [
    "t",
    "sqrt_rho_u_l2",
    "grad_u_l2",
    "hess_u_l2",
    "sqrt_rho_ut_l2",
    "grad_ut_l2",
    "u_linf",
    "grad_u_linf",
    "grad_rho_lgamma",
    "rho_t_lgamma",
    "rho_min",
    "rho_max",
    "mass",
    "momentum_l2",
    "t_weighted_h2",
]


class EstimateLedger:
    """Per-step rows of the monitored norms, in LEDGER_FIELDS order."""

    def __init__(self):
        self.rows: list[dict] = []

    def append(self, **values) -> None:
        missing = [k for k in LEDGER_FIELDS if k not in values]
        extra = [k for k in values if k not in LEDGER_FIELDS]
        if missing or extra:
            raise ValueError(f"ledger row mismatch: missing={missing} extra={extra}")
        self.rows.append({k: float(values[k]) for k in LEDGER_FIELDS})

    def column(self, name: str) -> np.ndarray:
        return np.array([row[name] for row in self.rows])

    def write_ndjson(self, path) -> None:
        write_ndjson(path, self.rows)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(LEDGER_FIELDS)
            for row in self.rows:
                writer.writerow([repr(row[k]) for k in LEDGER_FIELDS])


def _json_safe(value):
    """`value` with each non-finite float as the string "inf", "-inf" or "nan"
    (str(float) spells them so), since RFC 8259 JSON has no Infinity or NaN."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(float(value))
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def write_ndjson(path, rows: list[dict]) -> None:
    """One JSON object per line; non-finite floats are written as strings."""
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(_json_safe(row), allow_nan=False) + "\n")


def cumtrapz(t: np.ndarray, g: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    g = np.asarray(g, dtype=float)
    out = np.zeros_like(g)
    out[1:] = np.cumsum(0.5 * np.diff(t) * (g[1:] + g[:-1]))
    return out


def hermite_cumtrapz(t: np.ndarray, g: np.ndarray, gdot: np.ndarray) -> np.ndarray:
    """Trapezoid with endpoint-derivative correction, exact for cubics:
    int over [t_k, t_k+1] ~= h/2 (g_k + g_k+1) + h^2/12 (gdot_k - gdot_k+1)."""
    t = np.asarray(t, dtype=float)
    g = np.asarray(g, dtype=float)
    gdot = np.asarray(gdot, dtype=float)
    h = np.diff(t)
    pieces = 0.5 * h * (g[1:] + g[:-1]) + (h * h / 12.0) * (gdot[:-1] - gdot[1:])
    out = np.zeros_like(g)
    out[1:] = np.cumsum(pieces)
    return out


def convergence_orders(values) -> np.ndarray:
    """Observed orders log2(e_i / e_{i+1}) for errors at successively halved
    steps; callers choose min or mean."""
    v = np.asarray(values, dtype=float)
    if np.any(v <= 0):
        raise ValueError("convergence orders need strictly positive errors")
    return np.log2(v[:-1] / v[1:])


# ---------------------------------------------------------------------------
# energy identity and energy inequality
# ---------------------------------------------------------------------------


def _energy_terms(times, sqrt_rho_u_l2, grad_u_l2, grad_u_sq_dot):
    """Q = ||sqrt(rho) u||^2 and I = int_0^t ||grad u||^2 ds per prefix, the
    integral Hermite-corrected when the rate d/dt ||grad u||^2 is given."""
    Q = np.asarray(sqrt_rho_u_l2, dtype=float) ** 2
    g = np.asarray(grad_u_l2, dtype=float) ** 2
    if grad_u_sq_dot is None:
        return Q, cumtrapz(times, g)
    return Q, hermite_cumtrapz(times, g, grad_u_sq_dot)


def energy_identity_residuals(
    times, sqrt_rho_u_l2, grad_u_l2, grad_u_sq_dot=None
) -> np.ndarray:
    """Residual of 1/2 d/dt ||sqrt(rho) u||^2 + ||grad u||^2 = 0 in integral
    form, one value per prefix [0, t_k]."""
    Q, I = _energy_terms(times, sqrt_rho_u_l2, grad_u_l2, grad_u_sq_dot)
    return 0.5 * (Q - Q[0]) + I


def energy_identity_check(times, sqrt_rho_u_l2, grad_u_l2, grad_u_sq_dot=None) -> float:
    """Worst integral-form energy residual over all prefixes."""
    return float(np.abs(
        energy_identity_residuals(times, sqrt_rho_u_l2, grad_u_l2, grad_u_sq_dot)
    ).max())


def energy_functional(times, sqrt_rho_u_l2, grad_u_l2, grad_u_sq_dot=None) -> np.ndarray:
    """E(t) = ||sqrt(rho) u||^2(t) + 2 int_0^t ||grad u||^2 ds, which the
    continuous dynamics keeps exactly equal to its initial value."""
    Q, I = _energy_terms(times, sqrt_rho_u_l2, grad_u_l2, grad_u_sq_dot)
    return Q + 2.0 * I


# ---------------------------------------------------------------------------
# H1 Riccati bound and existence time
# ---------------------------------------------------------------------------


@dataclass
class RiccatiFit:
    c1: float
    m1: float
    satisfied_fraction: float


def h1_functional(times, grad_u_l2, sqrt_rho_ut_l2, hess_u_l2, m1: float = 1.0) -> np.ndarray:
    """F(t) = 2 M1 ||grad u||^2(t) + int_0^t (M1 ||sqrt(rho) d_t u||^2
    + 1/2 ||grad^2 u||^2) ds."""
    g1 = np.asarray(grad_u_l2, dtype=float) ** 2
    integrand = (
        m1 * np.asarray(sqrt_rho_ut_l2, dtype=float) ** 2
        + 0.5 * np.asarray(hess_u_l2, dtype=float) ** 2
    )
    return 2.0 * m1 * g1 + cumtrapz(times, integrand)


def riccati_fit(times, F, m1: float = 1.0) -> RiccatiFit:
    """Smallest C1 (with 1 percent slack) such that F' <= C1 F^3 at interior
    samples, derivatives by centered differences.  Monotone decay gives 0.

    Where F = 0 the ratio F'/F^3 is taken as 0 when F' <= 0 (any C1 bounds
    it) and as inf when F' > 0 (no finite C1 does)."""
    t = np.asarray(times, dtype=float)
    F = np.asarray(F, dtype=float)
    if len(t) < 3:
        raise ValueError("riccati_fit needs at least 3 samples")
    dF = (F[2:] - F[:-2]) / (t[2:] - t[:-2])
    F3 = F[1:-1] ** 3
    at_zero = np.where(dF > 0.0, math.inf, 0.0)
    ratios = np.divide(dF, F3, out=at_zero, where=F3 != 0.0)
    c1 = float(max(0.0, ratios.max()) * (1.0 + RICCATI_SLACK))
    if c1 > 0:
        satisfied = float(np.mean(ratios <= c1))
    else:
        satisfied = float(np.mean(dF <= 0.0))
    return RiccatiFit(c1=c1, m1=float(m1), satisfied_fraction=satisfied)


def existence_time(c1: float, m1: float, grad_u0_l2: float) -> float:
    """T0 = (16 C1 M1^2 ||grad u0||_2^4)^(-1); any zero factor gives inf."""
    denom = 16.0 * c1 * m1 * m1 * grad_u0_l2**4
    if denom == 0.0:
        return math.inf
    return 1.0 / denom


def weighted_h2_stats(times, hess_u_l2, sqrt_rho_ut_l2, grad_ut_l2) -> tuple[float, float]:
    """sup_t t (||grad^2 u||^2 + ||sqrt(rho) d_t u||^2) and the trapezoid
    integral of t ||grad d_t u||^2."""
    t = np.asarray(times, dtype=float)
    comp = t * (
        np.asarray(hess_u_l2, dtype=float) ** 2
        + np.asarray(sqrt_rho_ut_l2, dtype=float) ** 2
    )
    integ = cumtrapz(t, t * np.asarray(grad_ut_l2, dtype=float) ** 2)[-1]
    return float(comp.max()), float(integ)


# ---------------------------------------------------------------------------
# Gronwall lemma: bounds, verification, constant fitting
# ---------------------------------------------------------------------------


@dataclass
class GronwallInput:
    t: np.ndarray
    f: np.ndarray
    g: np.ndarray
    G: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    A: float
    g0: float

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        if self.t.ndim != 1 or self.t.size == 0:
            raise ValueError("t must be a non-empty 1-D array")
        for name in ("f", "g", "G", "alpha", "beta"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != self.t.shape:
                raise ValueError(f"{name} length does not match t")
            setattr(self, name, arr)
        if self.A < 0 or self.g0 < 0:
            raise ValueError("A and g0 must be nonnegative")
        if np.any(self.G < 0) or np.any(self.g < -1e-15):
            raise ValueError("g and G must be nonnegative")


def gronwall_bounds(inp: GronwallInput) -> tuple[np.ndarray, np.ndarray]:
    """Bound curves for f and for g + int G under the hypotheses
    f' <= A sqrt(G), g' + G <= alpha g + beta f^2, f(0) = 0:

        f(t)          <= A sqrt(g(0)) sqrt(t) exp(1/2 int (alpha + A^2 s beta))
        g(t) + int G  <= g(0) exp(int (alpha + A^2 s beta))
    """
    mu = inp.alpha + inp.A**2 * inp.t * inp.beta
    Mt = cumtrapz(inp.t, mu)
    eta_bound = inp.g0 * np.exp(Mt)
    f_bound = inp.A * np.sqrt(inp.g0) * np.sqrt(inp.t) * np.exp(0.5 * Mt)
    return f_bound, eta_bound


def gronwall_bounds_offset(
    inp: GronwallInput, f0: float
) -> tuple[np.ndarray, np.ndarray]:
    """Extension to f(0) = f0 >= 0 (same hypotheses otherwise):

        f(t) <= f0 + A sqrt(t) exp(M/2) sqrt(g(0) + 2 f0^2 int beta)
        g + int G <= exp(M) (g(0) + 2 f0^2 int beta),
        M(t) = int_0^t (alpha + 2 A^2 s beta) ds,

    obtained from (f0 + x)^2 <= 2 f0^2 + 2 x^2.  Reduces to the exact f0 = 0
    form when f0 = 0."""
    if f0 < 0:
        raise ValueError("f0 must be nonnegative")
    if f0 == 0.0:
        return gronwall_bounds(inp)
    mu = inp.alpha + 2.0 * inp.A**2 * inp.t * inp.beta
    Mt = cumtrapz(inp.t, mu)
    forcing = inp.g0 + 2.0 * f0 * f0 * cumtrapz(inp.t, inp.beta)
    eta_bound = np.exp(Mt) * forcing
    f_bound = f0 + inp.A * np.sqrt(inp.t) * np.exp(0.5 * Mt) * np.sqrt(forcing)
    return f_bound, eta_bound


@dataclass
class GronwallReport:
    hypotheses_ok: bool
    conclusion_ok: bool
    passed: bool
    hypothesis_margin: float
    f_margin: float
    eta_margin: float
    message: str


def gronwall_verify(inp: GronwallInput, f0: float | None = None) -> GronwallReport:
    """Check the hypotheses in integral form, then the conclusions pointwise.

    A hypothesis violation is reported as such (distinct from a conclusion
    failure).  Margins are signed (bound - observed), normalized by the local
    scale; negative means violated.  Every comparison allows GRONWALL_RTOL
    relative and GRONWALL_ATOL absolute slack.  `f0` defaults to f[0] and
    selects the exact bound (f0 = 0) or the offset extension."""
    rtol, atol = GRONWALL_RTOL, GRONWALL_ATOL
    t, f, g, G = inp.t, inp.f, inp.g, inp.G
    IG = cumtrapz(t, G)
    sqrtG_int = cumtrapz(t, np.sqrt(G))
    rhs2 = cumtrapz(t, inp.alpha * g + inp.beta * f * f)

    def margin(bound, observed):
        scale = np.maximum(np.maximum(np.abs(bound), np.abs(observed)), 1.0)
        return float(((bound - observed) / scale).min())

    # hypothesis 1: f(t) - f(0) <= A int sqrt(G)
    h1 = margin(f[0] + inp.A * sqrtG_int + rtol * np.abs(f) + atol, f)
    # hypothesis 2 per interval: dg + dIG <= d rhs2
    lhs = (g[1:] - g[:-1]) + np.diff(IG)
    rhs = np.diff(rhs2)
    scale2 = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
    h2 = float(((rhs + rtol * scale2 + atol - lhs) / scale2).min()) if len(lhs) else 0.0
    hyp_margin = min(h1, h2)
    hypotheses_ok = hyp_margin >= 0.0

    f0_eff = float(f[0]) if f0 is None else float(f0)
    if f0_eff <= atol:
        f_bound, eta_bound = gronwall_bounds(inp)
    else:
        f_bound, eta_bound = gronwall_bounds_offset(inp, f0_eff)

    eta = g + IG
    f_margin = margin(f_bound + rtol * np.maximum(np.abs(f_bound), 1.0) + atol, f)
    eta_margin = margin(eta_bound + rtol * np.maximum(np.abs(eta_bound), 1.0) + atol, eta)
    conclusion_ok = f_margin >= 0.0 and eta_margin >= 0.0

    if not hypotheses_ok:
        message = "hypotheses fail"
    elif not conclusion_ok:
        message = "conclusion fails"
    else:
        message = "ok"
    return GronwallReport(
        hypotheses_ok=hypotheses_ok,
        conclusion_ok=conclusion_ok,
        passed=hypotheses_ok and conclusion_ok,
        hypothesis_margin=hyp_margin,
        f_margin=f_margin,
        eta_margin=eta_margin,
        message=message,
    )


def fit_gronwall_constants(t, f, g, G, alpha_base, beta_base) -> tuple[float, float]:
    """Smallest A and C (plus GRONWALL_FIT_SLACK) making the hypotheses hold
    on the data:

        df/dt <= A sqrt(G),    dg/dt + G <= C (alpha_base g + beta_base f^2).

    Ratios are taken over intervals in integral form; intervals whose
    denominator falls below GRONWALL_FIT_FLOOR times the global scale are
    skipped (the hypothesis is vacuous there up to noise)."""
    slack, floor = GRONWALL_FIT_SLACK, GRONWALL_FIT_FLOOR
    t = np.asarray(t, dtype=float)
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    G = np.asarray(G, dtype=float)
    ab = np.asarray(alpha_base, dtype=float)
    bb = np.asarray(beta_base, dtype=float)

    df = np.diff(f)
    denA = np.diff(cumtrapz(t, np.sqrt(G)))
    maskA = denA > floor * max(denA.max(initial=0.0), 1e-300)
    A = float(max(0.0, (df[maskA] / denA[maskA]).max(initial=0.0)) * (1.0 + slack))

    num = np.diff(g) + np.diff(cumtrapz(t, G))
    denC = np.diff(cumtrapz(t, ab * g + bb * f * f))
    maskC = denC > floor * max(denC.max(initial=0.0), 1e-300)
    C = float(max(0.0, (num[maskC] / denC[maskC]).max(initial=0.0)) * (1.0 + slack))
    return A, C


# ---------------------------------------------------------------------------
# momentum continuity at t = 0
# ---------------------------------------------------------------------------


@dataclass
class MomentumReport:
    slope: float | None
    decay_ratio: float | None
    passed: bool


def momentum_continuity_report(times, norms) -> MomentumReport:
    """Fit log ||(rho u)(t) - rho0 u0||_2 against log t.

    Passes when the norm decreases (5 percent slack per probe against
    wiggle), reaches MOMENTUM_DECAY_TARGET times its value at the largest
    probe, and the least-squares slope is at least MOMENTUM_SLOPE_FLOOR.
    Identically zero data (exact continuity) passes with slope None."""
    t = np.asarray(times, dtype=float)
    n = np.asarray(norms, dtype=float)
    order = np.argsort(t)
    t, n = t[order], n[order]
    if np.all(n <= 1e-300):
        return MomentumReport(None, None, True)
    if np.any(n <= 0):
        return MomentumReport(None, None, False)
    slope = float(np.polyfit(np.log(t), np.log(n), 1)[0])
    decreasing = bool(np.all(n[:-1] <= n[1:] * 1.05))
    decay_ratio = float(n[0] / n[-1])
    passed = (
        decreasing
        and decay_ratio <= MOMENTUM_DECAY_TARGET
        and slope >= MOMENTUM_SLOPE_FLOOR
    )
    return MomentumReport(slope, decay_ratio, passed)
