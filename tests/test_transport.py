"""Characteristics transport tests against closed-form flows."""

import math
from dataclasses import fields

import numpy as np
import pytest
from oracles import (
    ConstantVelocity,
    ShearVelocity,
    backtrack_per_time,
    carried_densities_per_time,
    fft_label_rate,
    vacuum_well_value,
    w1gamma_norm,
)

from torusflow import transport
from torusflow.basis import MODE_NORM, BasisGrid, BasisSet
from torusflow.estimates import GAMMA, convergence_orders, transport_growth_margins
from torusflow.fields import fd_gradient, grid_points, lp_norm
from torusflow.pipeline import node_diagnostics
from torusflow.solver import STAGE_POINTS, DivergenceError, solve_linearized
from torusflow.transport import (
    DENSITY_CATALOG,
    DensitySource,
    TransportDriftError,
    VelocityHistory,
    backtrack,
    bump_density,
    carried_densities,
    constant_density,
    density_at,
    shift_density,
    vacuum_well_density,
)

RNG = np.random.default_rng(3)


# ---------------------------------------------------------------------------
# density sources
# ---------------------------------------------------------------------------


def test_density_catalog_values_and_bounds():
    pts = grid_points(32)
    const = constant_density()
    assert const.constant
    assert (const.lower, const.upper) == (1.0, 1.0)
    assert np.all(const.value(pts) == 1.0)

    bump = bump_density()
    assert (bump.lower, bump.upper) == (1.0, 3.0)
    v = bump.value(np.array([[np.pi / 2, np.pi / 2], [np.pi / 2, 3 * np.pi / 2]]))
    np.testing.assert_allclose(v, [3.0, 1.0], atol=1e-14)

    well = vacuum_well_density()
    assert well.lower == 0.0
    assert well.value(np.array([np.pi, np.pi])) == 0.0
    assert well.value(np.array([np.pi, np.pi])).shape == ()
    assert abs(well.value(np.array([0.0, 0.0])) - 1.5) < 1e-14
    assert set(DENSITY_CATALOG) == {"constant", "bump", "vacuum-well"}

    # Constancy is no field of its own: a source is constant exactly when its
    # exact bounds meet, and a sweep over it then reads no velocity at all,
    # while any other source walks the characteristics.
    assert [f.name for f in fields(DensitySource)] == ["value", "lower", "upper"]
    history = VelocityHistory.constant(BasisSet(4), np.full(4, 0.1), 0.1)
    rows_at, calls = history.rows_at, []
    history.rows_at = lambda times: calls.append(times) or rows_at(times)
    times = [0.0, 0.05, 0.1]
    for make in DENSITY_CATALOG.values():
        for source in (make(), shift_density(make(), 0.25)):
            assert source.constant == (source.lower == source.upper)
            assert source.constant == (make is constant_density)
            calls.clear()
            blocks = [rho for _, rho in carried_densities(source, history, 8, times, times, 2)]
            np.testing.assert_array_equal(blocks[0][0], source.value(grid_points(8)))
            assert sum(map(len, blocks)) == len(times)
            assert bool(calls) != source.constant


def test_vacuum_well_is_its_definition():
    # (1 + cos x + cos y)/2 is q - 1/2 with cos(x - pi) = -cos x: the same
    # values to rounding, on the grid, off it and on a stack of point sets,
    # and exactly 0 wherever q <= 1/2, the vacuum core around (pi, pi).
    well = vacuum_well_density()
    points = [grid_points(40), RNG.uniform(-7.0, 13.0, size=(3, 50, 2))]
    for pts in points:
        np.testing.assert_allclose(well.value(pts), vacuum_well_value(pts), rtol=0, atol=1e-15)
    core = np.pi + RNG.uniform(-1.0, 1.0, size=(200, 2))  # q <= 1 - cos 1 < 1/2
    assert np.all(well.value(core) == 0.0)
    assert np.all(well.value(grid_points(40)) >= 0.0)


def test_vacuum_floor_and_shift():
    bump = bump_density()
    # The vacuum sweep's floor 1/n is a shift by 1/n.
    lifted = shift_density(bump, 1.0 / 10)
    assert (lifted.lower, lifted.upper) == (1.1, 3.1)
    pts = grid_points(8)
    np.testing.assert_allclose(lifted.value(pts), bump.value(pts) + 0.1, atol=1e-15)

    shifted = shift_density(bump, -0.25)
    assert (shifted.lower, shifted.upper) == (0.75, 2.75)


def test_floor_distance_in_sobolev_norm():
    # The floor changes the density by the constant 1/n, so the W^{1,gamma}
    # distance is (1/n) (4 pi^2)^{1/gamma}: values differ by 1/n, gradients
    # are identical.
    pts = grid_points(32)
    base = bump_density().value(pts)
    for n in (10, 100):
        lifted = shift_density(bump_density(), 1.0 / n).value(pts)
        diff = lifted - base
        dist = w1gamma_norm(diff, GAMMA)
        assert abs(dist - (1.0 / n) * (4.0 * np.pi**2) ** (1.0 / GAMMA)) < 1e-12


# ---------------------------------------------------------------------------
# backward characteristics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("edge, side", [(0, -1.0), (-1, 1.0)])
def test_coeffs_at_rejects_times_outside_the_history(edge, side):
    # Overshoot at rounding level clamps to the end node; anything further
    # out is an error, not a silently clamped velocity.
    basis = BasisSet(4)
    rng = np.random.default_rng(5)
    history = VelocityHistory(
        basis, [0.0, 0.5, 1.0], rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    )
    end = history.times[edge]
    np.testing.assert_array_equal(history.coeffs_at(end + side * 5e-13), history.coeffs[edge])
    for t in (end + side * 1e-9, end + side, np.nan):
        with pytest.raises(ValueError, match="outside"):
            history.coeffs_at(t)


@pytest.mark.parametrize(
    "times, coeff_shape, deriv_shape, match",
    [
        ([0.0, 1.0], (2, 3), (2, 3), "coefficient array shape"),
        ([0.0, 0.5, 1.0], (2, 4), (2, 4), "coefficient array shape"),
        ([0.0, 1.0], (2, 4), (2, 3), "derivative array shape"),
        ([0.0, 1.0], (2, 4), (1, 4), "derivative array shape"),
        ([0.0], (1, 4), (1, 4), "strictly increasing"),
        ([0.0, 0.0], (2, 4), (2, 4), "strictly increasing"),
        ([0.0, 1.0, 0.5], (3, 4), (3, 4), "strictly increasing"),
    ],
    ids=["coeff-modes", "coeff-times", "deriv-modes", "deriv-times", "one-node",
         "repeated-time", "decreasing-time"],
)
def test_velocity_history_rejects_inconsistent_samples(times, coeff_shape, deriv_shape, match):
    with pytest.raises(ValueError, match=match):
        VelocityHistory(BasisSet(4), times, np.zeros(coeff_shape), np.zeros(deriv_shape))


def test_coeffs_at_takes_an_array_of_times():
    # An array of times gives, bit for bit, the cubic Hermite formula taken
    # one time at a time; node times and both ends give the node
    # coefficients exactly, and one time outside the range fails the call.
    basis = BasisSet(4)
    rng = np.random.default_rng(6)
    ts = np.array([0.0, 0.3, 0.5, 1.0])
    c, d = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
    history = VelocityHistory(basis, ts, c, d)

    def hermite(t):
        k = min(int(np.searchsorted(ts, t, side="right")) - 1, len(ts) - 2)
        h = ts[k + 1] - ts[k]
        s = (t - ts[k]) / h
        return (
            (1.0 + 2.0 * s) * (1.0 - s) ** 2 * c[k]
            + s * (1.0 - s) ** 2 * h * d[k]
            + s * s * (3.0 - 2.0 * s) * c[k + 1]
            + s * s * (s - 1.0) * h * d[k + 1]
        )

    times = np.array([0.0, 0.1, 0.3, 0.42, 0.5, 0.99, 1.0])
    stacked = history.coeffs_at(times)
    assert stacked.shape == (len(times), 4)
    np.testing.assert_array_equal(stacked, np.stack([hermite(t) for t in times]))
    np.testing.assert_array_equal(stacked, np.stack([history.coeffs_at(t) for t in times]))
    np.testing.assert_array_equal(history.coeffs_at(ts), c)
    with pytest.raises(ValueError, match="t=1.5 is outside"):
        history.coeffs_at(np.array([0.2, 1.5, 0.4]))


def test_coeffs_at_one_time_is_the_array_entry():
    # One time and an array of times take the same Hermite weights, bit for
    # bit: at this s a scalar power (1 - s) ** 2 and an array square differ
    # in the last bit.
    rng = np.random.default_rng(0)
    c, d = rng.standard_normal((2, 4)), rng.standard_normal((2, 4))
    history = VelocityHistory(BasisSet(4), [0.0, 1.0], c, d)
    t = 0.352941176470591
    np.testing.assert_array_equal(history.coeffs_at(t), history.coeffs_at([t])[0])


def test_rk4_step_is_simpson_on_a_cubic():
    # With rate(y, v) = v the step is Simpson's rule on v(t), exact for a
    # cubic; k1 is the rate at the start.
    def v(t):
        return np.array([1.0 + 2.0 * t - 3.0 * t**2 + 4.0 * t**3, -t**3])

    def integral(t):
        return np.array([t + t**2 - t**3 + t**4, -0.25 * t**4])

    t0, h = 0.3, 0.7
    y0 = np.array([0.5, -2.0])
    y, k1 = transport.rk4_step(y0, lambda y, vt: vt, h, v(t0), v(t0 + 0.5 * h), v(t0 + h))
    np.testing.assert_allclose(y, y0 + integral(t0 + h) - integral(t0), rtol=1e-14, atol=1e-15)
    np.testing.assert_array_equal(k1, v(t0))


def test_backtrack_zero_time_and_zero_field():
    basis = BasisSet(4)
    zero = VelocityHistory.constant(basis, np.zeros(4), 1.0)
    pts = RNG.uniform(0, 2 * np.pi, (50, 2))
    np.testing.assert_array_equal(backtrack(zero, pts, 0.0, 0.1), pts)
    np.testing.assert_allclose(backtrack(zero, pts, 0.7, 0.1), pts, atol=1e-15)


def test_backtrack_constant_field_exact():
    field = ConstantVelocity([0.3, -0.2])
    pts = RNG.uniform(0, 2 * np.pi, (50, 2))
    feet = backtrack(field, pts, 0.5, 0.05)
    expected = pts - 0.5 * np.array([0.3, -0.2])
    np.testing.assert_allclose(feet, expected, atol=1e-14)


def test_backtrack_steady_shear_exact():
    # For v = (a sin y, 0) the y coordinate is constant along paths, so RK4
    # sees an autonomous constant slope and integrates it exactly.
    shear = ShearVelocity(amplitude=0.8, omega=0.0)
    pts = RNG.uniform(0, 2 * np.pi, (60, 2))
    feet = backtrack(shear, pts, 0.4, 0.05)
    np.testing.assert_allclose(feet, shear.feet(pts, 0.4), atol=1e-13)


def test_backtrack_modulated_shear_accuracy_and_order():
    shear = ShearVelocity(amplitude=0.5, omega=3.0)
    pts = RNG.uniform(0, 2 * np.pi, (60, 2))
    exact = shear.feet(pts, 0.3)
    err = np.abs(backtrack(shear, pts, 0.3, 1e-3) - exact).max()
    assert err < 1e-11

    errors = [
        np.abs(backtrack(shear, pts, 0.3, dtau) - exact).max()
        for dtau in (0.03, 0.015, 0.0075)
    ]
    orders = convergence_orders(errors)
    assert orders.min() >= 3.9


def test_backtrack_validation():
    shear = ShearVelocity(1.0)
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError):
        backtrack(shear, pts, -0.1, 0.1)
    with pytest.raises(ValueError):
        backtrack(shear, pts, 0.1, 0.0)


# ---------------------------------------------------------------------------
# transported density
# ---------------------------------------------------------------------------


def test_density_translation_closed_form():
    # Uniform velocity (1,0) translates the bump: rho(x,y,t) = rho0(x-t, y).
    M, t = 48, 0.37
    rho = density_at(bump_density(), ConstantVelocity([1.0, 0.0]), M, t, 0.05)
    pts = grid_points(M)
    expected = 2.0 + np.sin(pts[..., 0] - t) * np.sin(pts[..., 1])
    np.testing.assert_allclose(rho, expected, atol=1e-13)


def test_density_constant_source_fast_path():
    rho = density_at(constant_density(), ShearVelocity(5.0), 16, 0.9, 0.1)
    assert np.all(rho == 1.0)


def test_max_principle_is_exact():
    # Samples are rho0 evaluated at feet, so the analytic bounds hold exactly.
    shear = ShearVelocity(amplitude=1.3, omega=2.0)
    for t in (0.1, 0.5, 1.0):
        rho = density_at(bump_density(), shear, 32, t, 0.02)
        assert rho.min() >= 1.0
        assert rho.max() <= 3.0


def test_mass_conserved_under_shear():
    shear = ShearVelocity(amplitude=0.5, omega=1.0)
    w = (2.0 * np.pi / 64) ** 2
    mass0 = w * density_at(bump_density(), shear, 64, 0.0, 0.01).sum()
    mass1 = w * density_at(bump_density(), shear, 64, 0.8, 0.01).sum()
    assert abs(mass1 - mass0) / mass0 < 1e-9


def test_fd_gradient_oracle_and_order():
    f0 = lambda pts: 2.0 + np.sin(pts[..., 0]) * np.sin(pts[..., 1])
    exact_norm = np.sqrt(2.0 * np.pi**2)
    errs = []
    for M in (64, 128):
        pts = grid_points(M)
        rho = f0(pts)
        errs.append(abs(lp_norm(np.linalg.norm(fd_gradient(rho), axis=0), GAMMA) - exact_norm))
        # Pointwise, with the periodic wrap: the exact gradient times sin(h)/h.
        x, y = pts[..., 0], pts[..., 1]
        exact = np.stack([np.cos(x) * np.sin(y), np.sin(x) * np.cos(y)])
        h = 2.0 * np.pi / M
        np.testing.assert_allclose(fd_gradient(rho), np.sin(h) / h * exact, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(fd_gradient(np.stack([rho, 2.0 * rho]))[1], fd_gradient(2.0 * rho))
    # The centered difference scales each component by sin(h)/h, so the
    # relative error is h^2/6 ~= 4e-4 at M=128.
    assert errs[1] < 5e-4 * exact_norm
    # Centered differences are second order: halving h quarters the error.
    assert 3.7 < errs[0] / errs[1] < 4.3


def test_w1gamma_norm_constant():
    rho = np.ones((32, 32))
    assert abs(w1gamma_norm(rho, 2.0) - 2.0 * np.pi) < 1e-12


def test_density_time_derivative_oracle():
    # d_t rho = -u . grad rho; with u = w_0 = cos(x) (0, 1) / (sqrt(2) pi)
    # and the bump density at t=0, d_t rho = -cos(x) sin(x) cos(y) /
    # (sqrt(2) pi), whose L2 norm is 1 / (2 sqrt(2)).
    basis = BasisSet(4)
    history = VelocityHistory.constant(basis, np.array([1.0, 0.0, 0.0, 0.0]), 0.01)
    ledger = node_diagnostics(bump_density(), history, 128)
    val = ledger.rho_t_lgamma[0]
    exact = 1.0 / (2.0 * np.sqrt(2.0))
    assert abs(val - exact) < 1e-3 * exact


# ---------------------------------------------------------------------------
# carried back-to-label map
# ---------------------------------------------------------------------------


def sweep(source, velocity, M, nodes, times, size=5):
    """A carried sweep's blocks through `nodes` stacked in time order; the
    blocks must be consecutive and all but the last of the full size."""
    blocks = list(carried_densities(source, velocity, M, nodes, times, size))
    assert [lo for lo, _ in blocks] == list(range(0, len(times), size))
    assert all(len(rho) == size for _, rho in blocks[:-1])
    return np.concatenate([rho for _, rho in blocks])


def carried_and_exact(source, velocity, M, times, dtau):
    """The densities at `times` carried through them and the oracle's,
    backtracked in steps of at most `dtau`."""
    exact = [density_at(source, velocity, M, t, dtau) for t in times]
    return sweep(source, velocity, M, times, times), np.array(exact)


def carried_feet(velocity, M, nodes, times):
    """The feet (len(times), M, M, 2) carried through `nodes`, read through
    the sweep's own density evaluations."""
    feet = []
    # Unequal bounds: a source whose bounds meet is constant and sees no feet.
    source = DensitySource(lambda p: feet.append(p) or np.zeros(p.shape[:-1]), 0.0, 1.0)
    sweep(source, velocity, M, nodes, times)
    return np.array(feet)


@pytest.mark.parametrize("M", [7, 8, 15])
def test_label_step_reproduces_resolved_modes(M):
    # The rate -(v . grad) D - v of a displacement of resolved modes in both
    # directions, against its closed form: for even M each axis drops its
    # own Nyquist mode, and every |k| < M/2 stays exact.
    # D and v are component planes (2, M, M).
    x, y = grid_points(M)[..., 0], grid_points(M)[..., 1]
    disp = np.stack([np.sin(2 * x + y) + np.cos(3 * y), np.cos(x - 2 * y) - 0.5])
    if M % 2 == 0:
        # Nyquist modes, flat on the nodes: kept, they would leak into D_y.
        disp[0] += np.cos(M / 2 * x) + np.cos(M / 2 * y)
    grad = np.empty((2, 2, M, M))
    grad[0, 0], grad[0, 1] = 2 * np.cos(2 * x + y), np.cos(2 * x + y) - 3 * np.sin(3 * y)
    grad[1, 0], grad[1, 1] = -np.sin(x - 2 * y), 2 * np.sin(x - 2 * y)
    v = np.stack([np.cos(y) + 0.3, np.sin(2 * x)])
    expected = -np.einsum("ijab,jab->iab", grad, v) - v
    rate = transport._label_rate(disp, v)
    np.testing.assert_allclose(rate, expected, rtol=0, atol=1e-13)
    np.testing.assert_allclose(fft_label_rate(disp, v), expected, rtol=0, atol=1e-13)
    # Carried along a steady shear, one resolved mode, the feet are the
    # closed-form ones: RK4 integrates a constant rate exactly.
    shear = ShearVelocity(amplitude=0.9)
    times = np.linspace(0.0, 0.6, 7)
    feet = carried_feet(shear, M, times, times)
    exact = np.array([shear.feet(grid_points(M), t) for t in times])
    assert np.abs(feet - exact).max() <= 1e-13


@pytest.mark.parametrize("M, omega, rk4_error", [(16, 0.0, 1e-13), (15, 2.0, 1e-9)])
def test_carried_density_matches_oracle_on_shear(M, omega, rk4_error):
    # The walk's intervals and the oracle's step are both 0.05/3, so the two
    # take the same RK4 steps, and the displacement (-a sin y S(t), 0) is one
    # resolved mode, so they agree to rounding.  Against the analytic feet
    # only the RK4 quadrature of cos(omega t) is left, exact for the steady
    # shear.
    shear = ShearVelocity(amplitude=0.9, omega=omega)
    times = np.linspace(0.0, 0.6, 37)
    carried, exact = carried_and_exact(bump_density(), shear, M, times, 0.05 / 3)
    assert np.abs(carried - exact).max() <= 1e-13
    analytic = bump_density().value(shear.feet(grid_points(M), times[-1]))
    assert np.abs(carried[-1] - analytic).max() <= rk4_error


def linearized_history(M, steps=24, T=0.12):
    basis = BasisSet(8)
    u0 = np.zeros(8)
    u0[[0, 2, 5]] = [0.3, 0.2, -0.15]
    seed = VelocityHistory.constant(basis, u0, T)
    dt = T / steps
    return solve_linearized(seed, bump_density(), u0, M, dt), dt


@pytest.mark.parametrize("M", [17, 16])
def test_carried_density_matches_oracle_on_velocity_history(M):
    history, dt = linearized_history(M)
    # Times dt/4 apart, finer than a pass's stages, walked and backtracked
    # in the same steps.
    times = np.arange(4 * len(history.times) - 3) * (0.25 * dt)
    carried, exact = carried_and_exact(vacuum_well_density(), history, M, times, dt / 4)
    assert np.abs(carried - exact).max() <= 1e-13
    # The ledger walk's node times, backtracked in steps of dt.
    carried, exact = carried_and_exact(bump_density(), history, M, history.times, dt)
    assert np.abs(carried - exact).max() <= 1e-13


def test_carried_density_constant_source_and_validation():
    times = [0.0, 0.3, 0.4]
    rhos = sweep(constant_density(2.0), ShearVelocity(5.0), 8, times, times, size=2)
    assert rhos.shape == (3, 8, 8) and np.all(rhos == 2.0)
    # Every source checks its nodes and times, the constant one included.
    for source in (bump_density(), constant_density(2.0)):
        for nodes, times in (([0.2, 0.1], [0.2, 0.1]), ([-0.1], [-0.1]), ([0.2, 0.1], [0.2, 0.1, -1.0])):
            with pytest.raises(ValueError, match="need increasing"):
                list(carried_densities(source, ShearVelocity(1.0), 8, nodes, times, 4))
        with pytest.raises(ValueError, match="past the last node"):
            list(carried_densities(source, ShearVelocity(1.0), 8, [0.1, 0.2], [0.1, 0.3], 4))


def test_drift_guard_fires_on_under_resolved_displacement():
    # The same strong flow carried by a linearized pass on a fine and a
    # coarse grid: at M=8 the displacement has harmonics the grid cannot
    # hold.  The pass carries the map node to node and the guard takes the
    # same RK4 steps, so at M=32 their gap is the grid's alone: 7.55e-11 at
    # dt = 0.025, which passes, and 1.24e-9 at dt = 0.05, where the label
    # steps of 0.05 are too coarse for this flow and the guard refuses the
    # pass, as it refuses `run`'s ledger walk at that dt.
    basis = BasisSet(4)
    u0 = np.array([2.0, 0.0, 0.0, 1.5])
    seed = VelocityHistory.constant(basis, u0, 1.0)
    solve_linearized(seed, bump_density(), u0, 32, 0.025)
    with pytest.raises(TransportDriftError) as err:
        solve_linearized(seed, bump_density(), u0, 32, 0.05)
    assert err.value.drift > 1e-10 and err.value.t == 1.0
    with pytest.raises(TransportDriftError) as err:
        solve_linearized(seed, bump_density(), u0, 8, 0.025)
    assert isinstance(err.value, DivergenceError)
    assert err.value.drift > 1e-10 and err.value.t == 1.0


# (basis size, M, dt, T, u0 modes and amplitudes or None for 0.3 |k|^-2.25,
# density, bound on the midpoint densities): the configs' two_mode and
# vacuum flows cut to 10 steps, a strong 3-mode flow and a flow of 32 modes.
CARRIED_FLOWS = {
    "two_mode": (8, 32, 0.0025, 0.025, ([0, 2], [0.3, 0.2]), bump_density, 5e-14),
    "vacuum": (8, 40, 0.0025, 0.025, ([0, 2], [0.3, 0.2]), vacuum_well_density, 3e-12),
    "strong": (8, 32, 0.01, 0.2, ([0, 3, 5], [1.5, 1.0, 0.7]), bump_density, 3e-11),
    "many-mode": (32, 48, 0.01, 0.05, None, bump_density, None),
}


@pytest.mark.parametrize("flow", list(CARRIED_FLOWS))
def test_carried_feet_match_backtrack(flow):
    # The label steps (Eulerian, on the grid) against the exact backtrack
    # (Lagrangian, per node) along a linearized pass.  At the nodes the
    # backtrack's step dt is the label step, so both take the same RK4
    # steps and differ only by the two discretizations, far below
    # DRIFT_LIMIT.  At the stage midpoints the densities come from the
    # Hermite interpolant of the displacement; against densities
    # backtracked in steps of dt/16 they differ by the interpolant's error,
    # dt^4/384 times the fourth time derivative of D: 7.1e-15 on two_mode,
    # 1.3e-12 on vacuum (whose near-vacuum pass moves fastest in time) and
    # 1.0e-11 on the strong flow at dt = 0.01, each bound about 3 times
    # that.  The many-mode flow reads 7.5e-11 there and is checked at its
    # nodes only (its dt/16 backtracks take 1.7 s).
    n, M, dt, T, modes, density, bound = CARRIED_FLOWS[flow]
    basis = BasisSet(n)
    if modes is None:
        u0 = 0.3 * basis.lambdas**-1.125  # 0.3 |k|^-2.25
    else:
        u0 = np.zeros(n)
        u0[modes[0]] = modes[1]
    seed = VelocityHistory.constant(basis, u0, T)
    history = solve_linearized(seed, density(), u0, M, dt)
    nodes = history.times
    feet = carried_feet(history, M, nodes, nodes)
    exact = np.array([backtrack(history, grid_points(M), t, dt) for t in nodes])
    assert np.abs(feet - exact).max() <= 1e-12
    if bound is not None:
        mids = nodes[:-1] + 0.5 * np.diff(nodes)
        carried = sweep(density(), history, M, nodes, mids)
        fine = np.array([density_at(density(), history, M, t, dt / 16) for t in mids])
        assert np.abs(carried - fine).max() <= bound


@pytest.mark.parametrize("flow", ["two_mode", "many-mode"])
def test_label_steps_match_the_fft_rate(flow, monkeypatch):
    # One carried sweep along a linearized pass with the derivative matrices
    # and one with the FFT pair they replaced: the same rule in other
    # arithmetic, so the feet agree to rounding at every stage time, node
    # or Hermite midpoint.
    if flow == "two_mode":
        basis, M, dt, T = BasisSet(8), 32, 0.0025, 0.15
        u0 = np.zeros(8)
        u0[[0, 2]] = [0.3, 0.2]  # 1,0,cos:0.3 and 0,1,cos:0.2
    else:
        basis, M, dt, T = BasisSet(32), 48, 0.01, 0.05
        u0 = 0.3 * basis.lambdas**-1.125
    seed = VelocityHistory.constant(basis, u0, T)
    history = solve_linearized(seed, bump_density(), u0, M, dt)
    times = np.arange(2 * len(history.times) - 1) * (0.5 * dt)
    feet = carried_feet(history, M, history.times, times)
    monkeypatch.setattr(transport, "_label_rate", fft_label_rate)
    assert np.abs(carried_feet(history, M, history.times, times) - feet).max() <= 1e-13


def two_mode_pass(M=32, dt=0.0025, T=0.15):
    """A linearized pass from the two_mode config's u0 (1,0,cos:0.3 and
    0,1,cos:0.2)."""
    basis = BasisSet(8)
    u0 = np.zeros(8)
    u0[[0, 2]] = [0.3, 0.2]
    seed = VelocityHistory.constant(basis, u0, T)
    return solve_linearized(seed, bump_density(), u0, M, dt)


def test_block_sweep_is_the_sweep_per_time():
    # One dense-output call per `size` nodes, grid fields synthesized as
    # their steps come: bit for bit the densities of one coeffs_at and one
    # grid_velocity call per RK4 time.  At a pass's own stage times through
    # its nodes in the solver's blocks, and at node times with repeats
    # through themselves in blocks of 3; the block size divides neither.
    history = two_mode_pass()
    times = history.times
    stage_times = np.empty(2 * len(times) - 1)
    stage_times[0::2] = times
    stage_times[1::2] = times[:-1] + 0.5 * np.diff(times)
    repeated = np.repeat(times[:10], [2, 1, 3, 1, 1, 2, 1, 1, 1, 3])
    for nodes, t, size in (
        (times, stage_times, STAGE_POINTS // 32**2),
        (repeated, repeated, 3),
    ):
        assert len(t) % size
        np.testing.assert_array_equal(
            sweep(bump_density(), history, 32, nodes, t, size),
            carried_densities_per_time(bump_density(), history, 32, nodes, t),
        )


def test_bad_times_raise_before_any_block():
    # Each bad input is refused before the first block, on a source that
    # takes characteristics and on a constant one, even where a full block
    # of good times comes first.
    shear = ShearVelocity(amplitude=0.9, omega=2.0)
    good = [0.0, 0.1, 0.2, 0.3]
    cases = (
        ([0.0, 0.1, 0.2, 0.3, 0.25, 0.4], good, "need increasing"),  # decreasing node
        (good, [0.0, 0.1, 0.2, 0.3, 0.25], "need increasing"),  # decreasing time
        (good, [-0.1, 0.0, 0.1, 0.2], "need increasing"),  # negative time
        (good, [0.0, 0.1, 0.2, 0.3, 0.4], "past the last node"),
    )
    for source in (bump_density(), constant_density(2.0)):
        for nodes, times, message in cases:
            blocks = []
            with pytest.raises(ValueError, match=message):
                for lo, _ in carried_densities(source, shear, 8, nodes, times, 3):
                    blocks.append(lo)
            assert blocks == []


@pytest.mark.parametrize("t, dtau", [(0.15, 0.0025), (0.1, 0.003), (0.0025, 0.01)])
def test_backtrack_is_the_backtrack_per_time(t, dtau):
    # The rows of every RK4 time from one coeffs_at call give the feet of
    # one call per time, bit for bit, on a pass and on an oracle flow.
    pts = grid_points(16)
    for flow in (two_mode_pass(), ShearVelocity(amplitude=0.9, omega=2.0)):
        np.testing.assert_array_equal(
            backtrack(flow, pts, t, dtau), backtrack_per_time(flow, pts, t, dtau)
        )


def test_drift_error_names_a_blown_up_velocity():
    # A huge velocity on a small grid makes the label step unstable: the
    # sweep stops at the first non-finite displacement, before any NaN
    # density is handed on, and the error reports the largest grid speed
    # next to both causes.  A speed whose square overflows (a = 1e200) is
    # still reported finite.  The sweep keeps its overflow to itself: under
    # the suite's error::RuntimeWarning filter it warns nothing.
    basis = BasisSet(4)
    times = np.linspace(0.0, 1.0, 101)
    for a in (1e6, 1e200):
        # Cellular flow v = a MODE_NORM (-cos y, cos x), fastest at the origin.
        history = VelocityHistory.constant(basis, np.array([a, 0.0, a, 0.0]), 1.0)
        blocks = []
        with pytest.raises(TransportDriftError) as err:
            for _, rho in carried_densities(bump_density(), history, 8, times, times, 4):
                blocks.append(rho.copy())
        assert err.value.t < 1.0 and all(np.isfinite(rho).all() for rho in blocks)
        assert sum(len(rho) for rho in blocks) == np.searchsorted(times, err.value.t)
        speed = np.sqrt(2.0) * a * MODE_NORM
        assert err.value.speed == pytest.approx(speed, rel=1e-14)
        message = str(err.value)
        assert f"{speed:.3e}" in message
        assert "under-resolves the displacement" in message and "unstable time step" in message


def test_linearized_pass_cost_is_linear_in_steps(monkeypatch):
    # Velocity evaluations off the grid (assembly, drift guard) and on it
    # (the sweep's label steps) both count.
    calls = {"n": 0}

    def counting(method):
        def counted(self, *args):
            calls["n"] += 1
            return method(self, *args)

        return counted

    # The drift guard evaluates weighed rows at its nodes and the sweep
    # synthesizes weighed rows as planes; assembly goes through velocity_at.
    for cls, name in (
        (BasisSet, "velocity_at"),
        (BasisSet, "weighted_at"),
        (BasisGrid, "synthesize"),
        (BasisGrid, "planes"),
    ):
        monkeypatch.setattr(cls, name, counting(getattr(cls, name)))
    # Each pass makes exactly one label step per time step: rk4_step on the
    # label rate K times, 4 rates each, plus the one extra rate at the last
    # node that its Hermite midpoint needs.
    label = {"steps": 0, "rates": 0}
    rk4_step, label_rate = transport.rk4_step, transport._label_rate

    def counted_step(y, rate, *args):
        label["steps"] += rate is counted_rate
        return rk4_step(y, rate, *args)

    def counted_rate(disp, v):
        label["rates"] += 1
        return label_rate(disp, v)

    monkeypatch.setattr(transport, "rk4_step", counted_step)
    monkeypatch.setattr(transport, "_label_rate", counted_rate)
    basis = BasisSet(8)
    u0 = np.zeros(8)
    u0[[0, 2]] = [0.3, 0.2]
    T, M = 0.15, 16
    seed = VelocityHistory.constant(basis, u0, T)
    counts, expected = [], []
    for steps in (30, 60, 120):
        calls["n"] = label["steps"] = label["rates"] = 0
        dt = T / steps
        solve_linearized(seed, bump_density(), u0, M, dt)
        counts.append(calls["n"])
        assert (label["steps"], label["rates"]) == (steps, 4 * steps + 1)
        # Per pass: the sweep's planes of one start field and a midpoint
        # and an end field per label step (2K + 1), the guard's 4 weighted
        # evaluations per RK4 step at its 8 nodes, K steps back through the
        # nodes (4K), and per assembly block of 50 stages at M = 16 one
        # velocity_at and the weighted_at inside it (2 ceil((2K + 1)/50)).
        blocks = math.ceil((2 * steps + 1) / (STAGE_POINTS // M**2))
        expected.append(2 * steps + 1 + 4 * steps + 2 * blocks)
    assert counts == expected == [185, 367, 731]
    ratios = [counts[1] / counts[0], counts[2] / counts[1]]
    assert max(ratios) <= 2.3, (counts, ratios)


# ---------------------------------------------------------------------------
# growth bound
# ---------------------------------------------------------------------------


def shear_transport_series(a=0.7, omega=2.0, M=64, T=0.6, steps=13):
    shear = ShearVelocity(amplitude=a, omega=omega)
    pts = grid_points(M)
    source = bump_density()
    times = np.linspace(0.0, T, steps)
    w1 = []
    gradv_inf = []
    for t in times:
        rho = source.value(shear.feet(pts, t))
        w1.append(w1gamma_norm(rho, GAMMA))
        # |grad v| = |a cos y cos(omega t)| peaks at |a cos(omega t)|.
        gradv_inf.append(abs(a * np.cos(omega * t)))
    return times, np.array(w1), np.array(gradv_inf)


def test_transport_growth_bound_on_shear():
    times, w1, gv = shear_transport_series()
    margins = transport_growth_margins(times, w1, gv)
    assert margins.min() >= 1.0 / (1.0 + 1e-3)


def test_transport_growth_catches_corruption():
    times, w1, gv = shear_transport_series()
    w1 = w1.copy()
    w1[5] *= np.exp(gv.max() * times[-1]) * 2.0  # clearly above any bound
    margins = transport_growth_margins(times, w1, gv)
    assert margins.min() < 1.0 / (1.0 + 1e-3)
    assert np.argmin(margins) == 5


def test_transport_growth_zero_velocity_margin_one():
    times = np.linspace(0.0, 1.0, 5)
    w1 = np.full(5, 2.0)
    margins = transport_growth_margins(times, w1, np.zeros(5))
    assert np.all(margins == 1.0)
