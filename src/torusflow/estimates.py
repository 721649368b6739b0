"""A priori monitors: energy, Riccati, Gronwall, transport growth, continuity.

Everything here is plain array math over time series sampled from a run:
the columns of its EstimateLedger, the per-node table whose written columns
are the ledger file, `ledger.ndjson`.
Time integrals use the trapezoid rule on the sample grid, `cumtrapz`; the
energy identity takes nodal derivatives of its integrand as well, for the
Hermite-corrected variant (fourth order) `hermite_cumtrapz`, so that its
residual reflects the integrator error rather than the quadrature error.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from dataclasses import dataclass, fields

import numpy as np

GAMMA = 2.0  # Lebesgue exponent for all density-gradient monitors
RICCATI_SLACK = 0.01  # riccati_fit: relative slack on the fitted C1
GRONWALL_RTOL = 1e-9  # gronwall_verify: relative tolerance on every comparison
GRONWALL_ATOL = 1e-12  # gronwall_verify: absolute tolerance on every comparison
GRONWALL_FIT_SLACK = 0.02  # fit_gronwall_constants: relative slack on A and C
GRONWALL_FIT_FLOOR = 1e-14  # fit_gronwall_constants: skipped-interval threshold
MOMENTUM_SLOPE_FLOOR = 0.15  # momentum_continuity_report: least log-log slope
MOMENTUM_DECAY_TARGET = 1e-3  # momentum_continuity_report: largest decay ratio


@dataclass(eq=False)
class EstimateLedger:
    """One run's per-node table: each column a float array whose index k is
    node k, and the one list of its columns.  Every column but the IN_MEMORY
    ones is written, in field order (LEDGER_FIELDS); those stay in memory
    for the checks and studies: `rho` (K, M, M) the carried densities,
    `w1gamma` their W^{1,gamma} norms, `grad_u_sq_dot` the rate
    d/dt ||grad u||^2 = 2 sum lam f fdot, and `orthogonality_max`,
    `projection_rel` the modal residuals."""

    t: np.ndarray
    sqrt_rho_u_l2: np.ndarray
    grad_u_l2: np.ndarray
    hess_u_l2: np.ndarray
    sqrt_rho_ut_l2: np.ndarray
    grad_ut_l2: np.ndarray
    u_linf: np.ndarray
    grad_u_linf: np.ndarray
    grad_rho_lgamma: np.ndarray
    rho_t_lgamma: np.ndarray
    rho_min: np.ndarray
    rho_max: np.ndarray
    mass: np.ndarray
    momentum_l2: np.ndarray
    t_weighted_h2: np.ndarray
    rho: np.ndarray
    w1gamma: np.ndarray
    grad_u_sq_dot: np.ndarray
    orthogonality_max: np.ndarray
    projection_rel: np.ndarray

    IN_MEMORY = ("rho", "w1gamma", "grad_u_sq_dot", "orthogonality_max", "projection_rel")

    @classmethod
    def allocate(cls, K: int, M: int) -> EstimateLedger:
        """Every column of a walk over K nodes on an M x M grid, unfilled:
        the densities `rho` (K, M, M) first, then one (K,) array per column."""
        rho = np.empty((K, M, M))
        return cls(rho=rho, **{f.name: np.empty(K) for f in fields(cls) if f.name != "rho"})

    # The writer streams: Python floats are made one row at a time, since a
    # list of every row (501 on taylor) raised peak memory.
    def write_ndjson(self, path) -> None:
        rows = np.stack([getattr(self, k) for k in LEDGER_FIELDS], axis=1, dtype=float)
        write_ndjson(path, (dict(zip(LEDGER_FIELDS, row.tolist())) for row in rows))


LEDGER_FIELDS = [f.name for f in fields(EstimateLedger) if f.name not in EstimateLedger.IN_MEMORY]


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


def write_ndjson(path, rows: Iterable[dict]) -> None:
    """One JSON object per line; non-finite floats, where a row has one, as strings."""
    with open(path, "w") as fh:
        for row in rows:
            try:
                fh.write(json.dumps(row, allow_nan=False) + "\n")
            except ValueError:
                fh.write(json.dumps(_json_safe(row), allow_nan=False) + "\n")


def cumtrapz(t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Trapezoid integrals of g from t[0] to each t[k], 0 at t[0]."""
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


def energy_functional(times, sqrt_rho_u_l2, grad_u_l2, grad_u_sq_dot) -> np.ndarray:
    """E(t) = ||sqrt(rho) u||^2(t) + 2 int_0^t ||grad u||^2 ds, which the
    continuous dynamics keeps exactly equal to its initial value; the
    integral is Hermite-corrected with the rate d/dt ||grad u||^2.  The
    energy identity's residual over [0, t] is 1/2 |E(t) - E(0)|."""
    g = np.asarray(grad_u_l2, dtype=float) ** 2
    I = hermite_cumtrapz(times, g, grad_u_sq_dot)
    return np.asarray(sqrt_rho_u_l2, dtype=float) ** 2 + 2.0 * I


# ---------------------------------------------------------------------------
# H1 Riccati bound and existence time
# ---------------------------------------------------------------------------


def h1_functional(times, grad_u_l2, sqrt_rho_ut_l2, hess_u_l2, m1: float) -> np.ndarray:
    """F(t) = 2 M1 ||grad u||^2(t) + int_0^t (M1 ||sqrt(rho) d_t u||^2
    + 1/2 ||grad^2 u||^2) ds."""
    g1 = np.asarray(grad_u_l2, dtype=float) ** 2
    integrand = (
        m1 * np.asarray(sqrt_rho_ut_l2, dtype=float) ** 2
        + 0.5 * np.asarray(hess_u_l2, dtype=float) ** 2
    )
    return 2.0 * m1 * g1 + cumtrapz(times, integrand)


def riccati_fit(times, F) -> tuple[float, float]:
    """(C1, fraction): the smallest C1 (with 1 percent slack) such that
    F' <= C1 F^3 at interior samples, derivatives by centered differences,
    and the fraction of those samples where the bound holds.  Monotone decay
    gives C1 = 0; fewer than 3 samples have no interior and give (0, 1).

    Where F = 0 the ratio F'/F^3 is taken as 0 when F' <= 0 (any C1 bounds
    it) and as inf when F' > 0 (no finite C1 does)."""
    t = np.asarray(times, dtype=float)
    F = np.asarray(F, dtype=float)
    if len(t) < 3:
        return 0.0, 1.0
    dF = (F[2:] - F[:-2]) / (t[2:] - t[:-2])
    F3 = F[1:-1] ** 3
    at_zero = np.where(dF > 0.0, math.inf, 0.0)
    ratios = np.divide(dF, F3, out=at_zero, where=F3 != 0.0)
    c1 = float(max(0.0, ratios.max()) * (1.0 + RICCATI_SLACK))
    if c1 > 0:
        return c1, float(np.mean(ratios <= c1))
    return c1, float(np.mean(dF <= 0.0))


def existence_time(c1: float, m1: float, grad_u0_l2: float) -> float:
    """T0 = (16 C1 M1^2 ||grad u0||_2^4)^(-1); any zero factor gives inf."""
    denom = 16.0 * c1 * m1 * m1 * grad_u0_l2**4
    if denom == 0.0:
        return math.inf
    return 1.0 / denom


def weighted_grad_ut_integral(times, grad_ut_l2) -> float:
    """Trapezoid integral of t ||grad d_t u||^2; its companion sup_t t
    (||grad^2 u||^2 + ||sqrt(rho) d_t u||^2) is the ledger column
    `t_weighted_h2`."""
    t = np.asarray(times, dtype=float)
    return float(cumtrapz(t, t * np.asarray(grad_ut_l2, dtype=float) ** 2)[-1])


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
        values = (self.t, self.f, self.g, self.G, self.alpha, self.beta, self.A, self.g0)
        if not all(np.isfinite(v).all() for v in values):
            raise ValueError("t, f, g, G, alpha, beta, A and g0 must be finite")
        if self.t[0] != 0.0 or np.any(np.diff(self.t) <= 0):
            raise ValueError("t must start at 0 and increase strictly")
        if self.A < 0 or self.g0 < 0:
            raise ValueError("A and g0 must be nonnegative")
        if any(np.any(a < 0) for a in (self.f, self.G, self.beta)) or np.any(self.g < -1e-15):
            raise ValueError("f, g, G and beta must be nonnegative")


def gronwall_bounds(inp: GronwallInput, f0: float) -> tuple[np.ndarray, np.ndarray]:
    """Bound curves for f and for g + int G under the hypotheses
    f' <= A sqrt(G), g' + G <= alpha g + beta f^2 from t = 0 with f(0) = f0
    >= 0 and beta >= 0:

        f(t)         <= f0 + A sqrt(t forcing(t)) exp(M(t)/2)
        g(t) + int G <= forcing(t) exp(M(t))
        M(t) = int_0^t (alpha + c A^2 s beta) ds,  forcing = g(0) + 2 f0^2 int_0^t beta.

    At f0 = 0, c = 1 and the form is exact; above it c = 2, the extension
    obtained from (f0 + x)^2 <= 2 f0^2 + 2 x^2.  Each product is taken as
    exp(exponent + log factor): a zero factor gives 0 even under an
    overflowed exponent, and an overflow gives inf; both hold.
    """
    if f0 < 0:
        raise ValueError("f0 must be nonnegative")
    t, A = inp.t, inp.A

    def times_exp(factor, exponent):
        return np.exp(np.where(factor > 0.0, exponent, -np.inf) + np.log(factor))

    with np.errstate(divide="ignore", over="ignore"):
        M = cumtrapz(t, inp.alpha + (2.0 if f0 > 0 else 1.0) * (A * t) * (A * inp.beta))
        forcing = inp.g0 + 2.0 * f0 * f0 * cumtrapz(t, inp.beta)
        return f0 + times_exp(A * np.sqrt(t * forcing), 0.5 * M), times_exp(forcing, M)


@dataclass
class GronwallReport:
    """The signed margins of the hypotheses and of the two conclusions;
    each holds when its margin is at least 0."""

    hypothesis_margin: float
    f_margin: float
    eta_margin: float

    @property
    def hypotheses_ok(self) -> bool:
        return self.hypothesis_margin >= 0.0

    @property
    def conclusion_ok(self) -> bool:
        # Not min(...) >= 0: a nan margin fails whichever side it is on.
        return self.f_margin >= 0.0 and self.eta_margin >= 0.0

    @property
    def passed(self) -> bool:
        return self.hypotheses_ok and self.conclusion_ok

    @property
    def message(self) -> str:
        if not self.hypotheses_ok:
            return "hypotheses fail"
        return "ok" if self.conclusion_ok else "conclusion fails"


def gronwall_verify(inp: GronwallInput) -> GronwallReport:
    """Check the hypotheses in integral form, then the conclusions pointwise.

    A hypothesis violation is reported as such (distinct from a conclusion
    failure).  Margins are signed (bound - observed), normalized by the local
    scale; negative means violated.  Every comparison allows GRONWALL_RTOL
    relative and GRONWALL_ATOL absolute slack.  The bounds start from
    f0 = f[0], taken as 0 (the exact form) up to GRONWALL_ATOL."""
    rtol, atol = GRONWALL_RTOL, GRONWALL_ATOL
    t, f, g, G = inp.t, inp.f, inp.g, inp.G
    IG = cumtrapz(t, G)
    sqrtG_int = cumtrapz(t, np.sqrt(G))
    rhs2 = cumtrapz(t, inp.alpha * g + inp.beta * f * f)

    def margin(bound, observed):
        # An infinite bound holds: its margin is 1, the limit of
        # (bound - observed) / bound.
        held = np.isposinf(bound)
        scale = np.maximum(np.maximum(np.abs(bound), np.abs(observed)), 1.0)
        return float(np.where(held, 1.0, (np.where(held, 0.0, bound) - observed) / scale).min())

    # hypothesis 1: f(t) - f(0) <= A int sqrt(G)
    h1 = margin(f[0] + inp.A * sqrtG_int + rtol * np.abs(f) + atol, f)
    # hypothesis 2 per interval: dg + dIG <= d rhs2
    lhs = (g[1:] - g[:-1]) + np.diff(IG)
    rhs = np.diff(rhs2)
    scale2 = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
    h2 = float(((rhs + rtol * scale2 + atol - lhs) / scale2).min()) if len(lhs) else 0.0

    f_bound, eta_bound = gronwall_bounds(inp, float(f[0]) if f[0] > atol else 0.0)

    eta = g + IG
    return GronwallReport(
        hypothesis_margin=min(h1, h2),
        f_margin=margin(f_bound + rtol * np.maximum(np.abs(f_bound), 1.0) + atol, f),
        eta_margin=margin(eta_bound + rtol * np.maximum(np.abs(eta_bound), 1.0) + atol, eta),
    )


def fit_gronwall_constants(t, f, g, G, alpha_base, beta_base) -> tuple[float, float]:
    """Smallest A and C (plus GRONWALL_FIT_SLACK) making the hypotheses hold
    on the data:

        df/dt <= A sqrt(G),    dg/dt + G <= C (alpha_base g + beta_base f^2).

    Ratios are taken over intervals in integral form; intervals whose
    denominator falls below GRONWALL_FIT_FLOOR times the global scale are
    skipped (the hypothesis is vacuous there up to noise)."""
    slack, floor = GRONWALL_FIT_SLACK, GRONWALL_FIT_FLOOR
    t, f, g, G, ab, bb = (np.asarray(a, dtype=float) for a in (t, f, g, G, alpha_base, beta_base))

    def ratio(num, den):
        # The largest num/den over the intervals above the floor, at least 0.
        mask = den > floor * max(den.max(initial=0.0), 1e-300)
        return float(max(0.0, (num[mask] / den[mask]).max(initial=0.0)) * (1.0 + slack))

    A = ratio(np.diff(f), np.diff(cumtrapz(t, np.sqrt(G))))
    C = ratio(np.diff(g) + np.diff(cumtrapz(t, G)), np.diff(cumtrapz(t, ab * g + bb * f * f)))
    return A, C


# ---------------------------------------------------------------------------
# transport growth and momentum continuity at t = 0
# ---------------------------------------------------------------------------


def transport_growth_margins(times, w1gamma, gradv_inf) -> np.ndarray:
    """Per node, bound/actual for ||rho(t)||_{W^{1,gamma}} <= exp(int_0^t
    ||grad v||_inf) ||rho0||_{W^{1,gamma}}; inf where the norm is 0.

    The exponent integral is trapezoid on the sample grid.  Exact equality
    (zero velocity) gives 1."""
    w1 = np.asarray(w1gamma, dtype=float)
    bounds = w1[0] * np.exp(cumtrapz(times, gradv_inf))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(w1 > 0, bounds / np.where(w1 > 0, w1, 1.0), np.inf)


def momentum_continuity_report(times, norms) -> tuple[float | None, float | None, bool]:
    """Fit log ||(rho u)(t) - rho0 u0||_2 against log t; returns the slope,
    the decay ratio and the verdict.

    Passes when the norm decreases (5 percent slack per probe against
    wiggle), reaches MOMENTUM_DECAY_TARGET times its value at the largest
    probe, and the least-squares slope is at least MOMENTUM_SLOPE_FLOOR.
    Identically zero data (exact continuity) passes with slope None."""
    t = np.asarray(times, dtype=float)
    n = np.asarray(norms, dtype=float)
    order = np.argsort(t)
    t, n = t[order], n[order]
    if np.all(n <= 1e-300):
        return None, None, True
    if np.any(n <= 0):
        return None, None, False
    x, y = np.log(t), np.log(n)
    dx = x - x.mean()
    slope = float((dx * (y - y.mean())).sum() / (dx * dx).sum())
    decreasing = bool(np.all(n[:-1] <= n[1:] * 1.05))
    decay_ratio = float(n[0] / n[-1])
    passed = (
        decreasing
        and decay_ratio <= MOMENTUM_DECAY_TARGET
        and slope >= MOMENTUM_SLOPE_FLOOR
    )
    return slope, decay_ratio, passed
