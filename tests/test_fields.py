"""Norm, pressure, and snapshot tests with closed-form oracles."""

import numpy as np
import pytest
from oracles import axis_derivatives, fft_gradient, load_snapshot, w1gamma_norm

from torusflow.basis import BasisSet
from torusflow.fields import (
    derivative_matrix,
    fd_gradient,
    grid_points,
    leray_pressure,
    lp_norm,
    save_snapshot,
    spectral_gradient,
)
from torusflow.pipeline import node_diagnostics
from torusflow.solver import build_state
from torusflow.transport import VelocityHistory, constant_density

RNG = np.random.default_rng(7)


def single_mode_ledger(count, index, M=16):
    """Ledger of the steady unit velocity w_index over unit density."""
    basis = BasisSet(count)
    e = np.zeros(count)
    e[index] = 1.0
    history = VelocityHistory.constant(basis, e, 0.1)
    ledger = node_diagnostics(constant_density(), history, M)
    return ledger


def test_parseval():
    basis = BasisSet(9)
    coeffs = RNG.standard_normal(9)
    grid_l2 = lp_norm(np.linalg.norm(basis.grid(16).synthesize(coeffs), axis=0), 2.0)
    assert abs(grid_l2 - np.linalg.norm(coeffs)) < 1e-12


def test_seminorms_single_modes():
    # Mode index 6 is k=(1,1) with lam=2; index 8 is k=(2,0) with lam=4.
    for index, lam in ((6, 2.0), (8, 4.0)):
        ledger = single_mode_ledger(9, index)
        np.testing.assert_allclose(ledger.grad_u_l2, np.sqrt(lam), atol=1e-12)
        np.testing.assert_allclose(ledger.hess_u_l2, lam, atol=1e-12)


def test_sup_norm_and_l6_closed_form():
    ledger = single_mode_ledger(4, 0)  # w = cos(x) (0,1) / (sqrt(2) pi)
    peak = 1.0 / (np.sqrt(2.0) * np.pi)
    assert np.abs(ledger.u_linf - peak).max() < 1e-15
    # |grad w| = |sin x| / (sqrt(2) pi), peaking at 1/(sqrt(2) pi) on the grid.
    assert np.abs(ledger.grad_u_linf - peak).max() < 1e-15
    # Constant density: no density gradient and no density rate.
    assert not ledger.grad_rho_lgamma.any()
    assert not ledger.rho_t_lgamma.any()
    # integral of cos^6 over a period is 2 pi * 5/16, so
    # ||w||_6^6 = (2 pi)(5 pi / 8) / (sqrt(2) pi)^6 = 5 / (32 pi^4).
    w = BasisSet(4).grid(16).synthesize(np.eye(4)[0])
    l6 = lp_norm(np.linalg.norm(w, axis=0), 6.0)
    assert abs(l6 - (5.0 / (32.0 * np.pi**4)) ** (1.0 / 6.0)) < 1e-12


def test_integrate_and_lp_norm():
    M = 32
    pts = grid_points(M)
    f = 2.0 + np.sin(pts[..., 0]) * np.sin(pts[..., 1])
    # f > 0, so its L^1 norm is its trapezoid integral.
    assert abs(lp_norm(f, 1.0) - 2.0 * 4.0 * np.pi**2) < 1e-10
    const = np.full((M, M), 3.0)
    assert abs(lp_norm(const, 2.0) - 3.0 * 2.0 * np.pi) < 1e-12


def test_grid_points_shared_and_read_only():
    pts = grid_points(12)
    assert pts.shape == (12, 12, 2)
    np.testing.assert_array_equal(pts[3, 5], [2.0 * np.pi * 3 / 12, 2.0 * np.pi * 5 / 12])
    assert grid_points(12) is pts
    assert BasisSet(4).grid(12).points is pts
    with pytest.raises(ValueError):
        pts[0, 0, 0] = 1.0


@pytest.mark.parametrize("M", [7, 8, 15, 16, 32, 64])
def test_derivative_matrices_are_the_spectral_table(M):
    # D f and f D^T are the 1-D spectral derivatives of a real field along
    # x and along y, each dropping only its own axis's Nyquist mode of an
    # even M: the mixed Nyquist terms below keep their other derivative.
    x, y = grid_points(M)[..., 0], grid_points(M)[..., 1]
    f = np.random.default_rng(M).standard_normal((M, M))
    if M % 2 == 0:
        f += 3.0 * np.cos(M / 2 * x) * (1.0 + np.sin(y)) + 2.0 * np.cos(M / 2 * y)
    D = derivative_matrix(M)
    assert not D.flags.writeable
    d_x, d_y = axis_derivatives(M)
    for got, axis, table in ((D @ f, 0, d_x[:, :1]), (f @ D.T, 1, d_y[:1])):
        expected = np.real(np.fft.ifft(table * np.fft.fft(f, axis=axis), axis=axis))
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("M", [8, 16])
def test_spectral_gradient_keeps_the_other_axis_nyquist(M):
    # f = cos(M/2 y) sin x: d_x f = cos(M/2 y) cos x, since the x-derivative
    # drops only the x-Nyquist mode, and d_y f = 0.  A 2-D mask that drops
    # every Nyquist row and column would give d_x f = 0 here.
    x, y = grid_points(M)[..., 0], grid_points(M)[..., 1]
    f = np.cos(M / 2 * y) * np.sin(x)
    expected = np.stack([np.cos(M / 2 * y) * np.cos(x), np.zeros((M, M))])
    np.testing.assert_allclose(np.stack(spectral_gradient(f)), expected, rtol=0, atol=1e-13)
    np.testing.assert_allclose(fft_gradient(f), expected, rtol=0, atol=1e-13)


def test_spectral_gradient_oracle():
    M = 32
    pts = grid_points(M)
    phi = np.cos(pts[..., 0] + 2.0 * pts[..., 1])
    g = fft_gradient(phi)
    s = np.sin(pts[..., 0] + 2.0 * pts[..., 1])
    np.testing.assert_allclose(g[0], -s, atol=1e-12)
    np.testing.assert_allclose(g[1], -2.0 * s, atol=1e-12)
    # `fields.spectral_gradient` is the same derivative from real matrices,
    # field by field over a stack, odd and even M.
    for M in (15, 16):
        f = np.random.default_rng(M).standard_normal((3, 2, M, M))
        d_x, d_y = spectral_gradient(f)
        assert d_x.shape == d_y.shape == f.shape
        for idx in np.ndindex(3, 2):
            np.testing.assert_allclose(d_x[idx], fft_gradient(f[idx])[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(d_y[idx], fft_gradient(f[idx])[1], rtol=0, atol=1e-12)


@pytest.mark.parametrize("M", [7, 8, 15, 32])
def test_leray_pressure_recovers_gradient(M):
    pts = grid_points(M)
    x, y = pts[..., 0], pts[..., 1]
    p_exact = np.cos(x) + np.sin(2.0 * y)
    g = np.stack([-np.sin(x), 2.0 * np.cos(2.0 * y)])
    if M % 2 == 0:
        # Nyquist content with a real, nonzero D-divergence on the nodes,
        # cos x cos(M/2 y) + cos(M/2 x) cos y: g is D's gradient of p_exact
        # minus that field, since D drops only its own axis's Nyquist mode.
        g[0] += np.sin(x) * np.cos(M / 2 * y)
        g[1] += np.cos(M / 2 * x) * np.sin(y)
        p_exact -= np.cos(x) * np.cos(M / 2 * y) + np.cos(M / 2 * x) * np.cos(y)
    p = leray_pressure(g)
    np.testing.assert_allclose(p, p_exact, atol=1e-12)


@pytest.mark.parametrize("M", [15, 16])
def test_leray_pressure_leaves_a_divergence_free_remainder(M):
    # Random g, Nyquist-laden on an even M: what the pressure's gradient
    # leaves of g has zero divergence, both taken with the one matrix D.
    g = np.random.default_rng(M).standard_normal((2, M, M))
    g -= g.mean(axis=(-2, -1), keepdims=True)
    remainder = g - np.stack(spectral_gradient(leray_pressure(g)))
    D = derivative_matrix(M)
    div = D @ remainder[0] + remainder[1] @ D.T
    assert np.abs(div).max() <= 1e-12 * np.abs(g).max()


def test_leray_pressure_solenoidal_input_gives_zero():
    basis = BasisSet(9)
    grid = basis.grid(32)
    u = grid.synthesize(RNG.standard_normal(9))
    p = leray_pressure(u)
    assert np.abs(p).max() < 1e-13


def test_leray_pressure_of_a_constant_is_zero():
    # A constant vector field is the torus's harmonic part: it has no
    # pressure, and adding one to g leaves g's pressure.  A scalar field is
    # not a vector field and is refused.
    M = 16
    c = np.array([1.0, -2.5])[:, None, None]
    tol = 1e-14 * np.abs(c).max()
    assert np.abs(leray_pressure(np.broadcast_to(c, (2, M, M)))).max() <= tol
    g = RNG.standard_normal((2, M, M))
    np.testing.assert_allclose(leray_pressure(g + c), leray_pressure(g), rtol=0, atol=tol)
    with pytest.raises(ValueError):
        leray_pressure(np.zeros((M, M)))  # scalar input


def test_stacked_fields_match_per_field_loops():
    # Every norm and the pressure solve take a leading stack axis and reduce
    # each field of it as a call on that field alone would.
    M = 16
    grid = BasisSet(9).grid(M)
    rho = 1.5 + 0.4 * grid.synthesize(RNG.standard_normal((3, 9)))[:, 0]
    u = grid.synthesize(RNG.standard_normal((3, 9)))
    speed = np.linalg.norm(u, axis=1)
    grad = fd_gradient(rho)
    pressure = leray_pressure(u + fd_gradient(rho))
    assert grad.shape == (3, 2, M, M) and pressure.shape == (3, M, M)
    for norm, per_field in (
        (lp_norm(rho, 3.0), [lp_norm(r, 3.0) for r in rho]),
        (lp_norm(speed, 1.5), [lp_norm(s, 1.5) for s in speed]),
        (w1gamma_norm(rho, 2.0), [w1gamma_norm(r, 2.0) for r in rho]),
    ):
        assert norm.shape == (3,)
        np.testing.assert_allclose(norm, per_field, rtol=1e-12, atol=0.0)
    for k in range(3):
        np.testing.assert_allclose(grad[k], fd_gradient(rho[k]), rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(
            pressure[k], leray_pressure(u[k] + fd_gradient(rho[k])), rtol=1e-12, atol=1e-15
        )
    # A constant added to one field of the stack changes no pressure.
    shifted = u + fd_gradient(rho)
    shifted[1, 0] += 1.0
    np.testing.assert_allclose(leray_pressure(shifted), pressure, rtol=0, atol=1e-14)


def test_grid_vector_fields_are_component_planes():
    # One layout for grid vector fields: component planes (..., 2, M, M),
    # gradients the pair (d_x u, d_y u) of them; point arrays end in 2.
    basis = BasisSet(9)
    M = 16
    grid = basis.grid(M)
    coeffs = RNG.standard_normal((3, 9))
    np.testing.assert_array_equal(grid.synthesize(coeffs), grid.planes(basis.weigh(coeffs)))
    assert grid.synthesize(coeffs).shape == (3, 2, M, M)
    assert [d.shape for d in grid.synthesize_gradient(coeffs)[1]] == [(3, 2, M, M)] * 2
    assert fd_gradient(np.ones((3, M, M))).shape == (3, 2, M, M)
    state = build_state(basis, coeffs, np.ones((3, M, M)))
    assert state.u.shape == state.ut.shape == (3, 2, M, M)
    assert [d.shape for d in state.grad_u] == [(3, 2, M, M)] * 2
    assert basis.velocity_at(grid_points(M), coeffs).shape == (3, M, M, 2)
    # A components-last stack is not a field of planes: refused, not solved.
    u = grid.synthesize(coeffs)
    assert leray_pressure(u).shape == (3, M, M)
    with pytest.raises(ValueError, match="planes"):
        leray_pressure(np.moveaxis(u, 1, -1))


def test_snapshot_round_trip(tmp_path):
    scalar = RNG.standard_normal((8, 8))
    path = tmp_path / "s.dat"
    save_snapshot(scalar, path)
    np.testing.assert_array_equal(load_snapshot(path), scalar)

    vector = RNG.standard_normal((8, 8, 2))
    path = tmp_path / "v.dat"
    save_snapshot(vector, path)
    np.testing.assert_array_equal(load_snapshot(path), vector)

    lines = path.read_text().splitlines()
    assert lines[0] == "M=8 components=2"
    assert len(lines) == 1 + 64


@pytest.mark.parametrize(
    "text",
    [
        "M=2 components=5\n" + "1 2 3 4 5\n" * 4,  # components outside {1, 2}
        "M=0 components=1\n",  # no grid
        "M=2 components=1\n" + "1.0\n" * 5,  # a row past M^2
        "M=2\n" + "1.0\n" * 4,  # header without components
        "M=2 components=1\n" + "1.0\n" * 3,  # a row short
    ],
)
def test_load_snapshot_rejects_malformed_files(tmp_path, text):
    path = tmp_path / "bad.dat"
    path.write_text(text)
    with pytest.raises(ValueError):
        load_snapshot(path)
