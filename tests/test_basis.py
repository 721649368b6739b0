"""Oracle tests for the divergence-free trigonometric eigenbasis."""

import itertools

import numpy as np
import pytest

from oracles import fft_gradient, gradient_at

from torusflow.basis import MODE_NORM, BasisSet, enumerate_modes
from torusflow.fields import derivative_matrix
RNG = np.random.default_rng(42)


def brute_force_eigenvalues(count):
    """Eigenvalue list computed independently: |k|^2 over the canonical
    half-space, two parities each, sorted ascending."""
    lams = []
    for k1, k2 in itertools.product(range(0, 9), range(-8, 9)):
        if k1 > 0 or (k1 == 0 and k2 > 0):
            lams.extend([k1 * k1 + k2 * k2] * 2)
    lams.sort()
    return lams[:count]


def test_first_mode_is_shear_cosine():
    (mode,) = enumerate_modes(1)
    assert mode.k == (1, 0)
    assert mode.parity == "cos"
    assert mode.lam == 1


def test_eigenvalue_sequence_n9():
    modes = enumerate_modes(9)
    assert [m.lam for m in modes] == [1, 1, 1, 1, 2, 2, 2, 2, 4]
    assert [m.lam for m in enumerate_modes(25)] == brute_force_eigenvalues(25)


def test_ordering_is_deterministic():
    modes = enumerate_modes(9)
    expected = [
        ((1, 0), "cos"),
        ((1, 0), "sin"),
        ((0, 1), "cos"),
        ((0, 1), "sin"),
        ((1, -1), "cos"),
        ((1, -1), "sin"),
        ((1, 1), "cos"),
        ((1, 1), "sin"),
        ((2, 0), "cos"),
    ]
    assert [(m.k, m.parity) for m in modes] == expected
    # A longer enumeration starts with the same prefix (nesting).
    assert enumerate_modes(25)[:9] == modes


def test_listing_matches_a_wide_search():
    # Every mode with |k| <= 30 (lam up to 900), sorted by the stated order:
    # the first 400 all have lam < 150, so each prefix is complete.
    wide = sorted(
        (k1 * k1 + k2 * k2, -k1, k2, p, (k1, k2), parity)
        for k1, k2 in itertools.product(range(0, 31), range(-30, 31))
        if k1 > 0 or (k1 == 0 and k2 > 0)
        for p, parity in enumerate(("cos", "sin"))
    )
    for count in range(1, 401):
        listed = [(m.lam, m.k, m.parity) for m in enumerate_modes(count)]
        assert listed == [(lam, k, parity) for lam, _, _, _, k, parity in wide[:count]]


def test_canonical_halfspace():
    for m in enumerate_modes(40):
        k1, k2 = m.k
        assert k1 > 0 or (k1 == 0 and k2 > 0)


def test_evaluate_oracle_values():
    basis = BasisSet(9)

    def unit(n):
        e = np.zeros(9)
        e[n] = 1.0
        return e

    # k=(1,0) cosine at the origin: direction (0,1), cos(0)=1.
    v = basis.velocity_at(np.array([0.0, 0.0]), unit(0))
    np.testing.assert_allclose(v, [0.0, 1.0 / (np.sqrt(2.0) * np.pi)], atol=1e-15)
    # k=(1,1) cosine at (pi/2, pi/2): phase pi, direction (-1,1)/sqrt(2).
    n_11 = next(
        n for n, m in enumerate(basis.modes) if m.k == (1, 1) and m.parity == "cos"
    )
    v = basis.velocity_at(np.array([np.pi / 2, np.pi / 2]), unit(n_11))
    np.testing.assert_allclose(
        v, [1.0 / (2.0 * np.pi), -1.0 / (2.0 * np.pi)], atol=1e-15
    )
    # Sine modes at raw, unreduced coordinates, as backtrack feet are.
    norm = 1.0 / (np.sqrt(2.0) * np.pi)
    cases = [
        # k=(1,0): phase -7pi/2, sin = 1, direction (0,1).
        ((1, 0), [-3.5 * np.pi, 3.9 * np.pi], [0.0, norm]),
        # k=(0,1): phase -23pi/6, sin = 1/2, direction (-1,0).
        ((0, 1), [4.0 * np.pi, -23.0 * np.pi / 6.0], [-0.5 * norm, 0.0]),
        # k=(1,1): phase -19pi/4, sin = -1/sqrt(2), direction (-1,1)/sqrt(2).
        ((1, 1), [-13.0 * np.pi / 4.0, -1.5 * np.pi], [0.5 * norm, -0.5 * norm]),
        # k=(1,-1): phase -22pi/3, sin = sqrt(3)/2, direction (1,1)/sqrt(2).
        ((1, -1), [-11.0 * np.pi / 3.0, 11.0 * np.pi / 3.0], [np.sqrt(6.0) / 4.0 * norm] * 2),
    ]
    for k, x, expected in cases:
        n = next(n for n, m in enumerate(basis.modes) if m.k == k and m.parity == "sin")
        np.testing.assert_allclose(basis.velocity_at(np.array(x), unit(n)), expected, atol=1e-13)


def test_directions_are_unit_and_orthogonal_to_k():
    for m in enumerate_modes(20):
        d = m.direction
        assert abs(np.linalg.norm(d) - 1.0) < 1e-14
        assert abs(d @ np.array(m.k, dtype=float)) < 1e-14


def test_gram_matrix_orthonormal():
    basis = BasisSet(9)
    grid = basis.grid(16)
    Wf = np.stack([grid.synthesize(e).reshape(-1) for e in np.eye(basis.size)])
    gram = grid.weight * (Wf @ Wf.T)
    np.testing.assert_allclose(gram, np.eye(9), atol=1e-12)


def test_grid_divergence_spectrally_zero():
    basis = BasisSet(9)
    grid = basis.grid(16)
    coeffs = RNG.standard_normal(9)
    u = grid.synthesize(coeffs)
    dux = fft_gradient(u[0])[0]
    duy = fft_gradient(u[1])[1]
    assert np.abs(dux + duy).max() < 1e-12


def test_projection_round_trip():
    basis = BasisSet(9)
    coeffs = RNG.standard_normal(9)
    grid = basis.grid(16)
    recovered = grid.project(grid.synthesize(coeffs))
    np.testing.assert_allclose(recovered, coeffs, atol=1e-12)


def test_bessel_inequality_out_of_span():
    basis = BasisSet(9)  # kmax = 2, so k=(3,0) content projects away
    grid = basis.grid(16)

    def u(points):
        x = points[..., 0]
        extra = np.stack([np.zeros_like(x), np.cos(3.0 * x)])
        return 0.7 * grid.synthesize(np.eye(9)[0]) + 0.3 * MODE_NORM * extra

    coeffs = grid.project(u(grid.points))
    assert abs(coeffs[0] - 0.7) < 1e-12
    assert np.abs(coeffs[1:]).max() < 1e-13
    full_l2_sq = grid.weight * (u(grid.points) ** 2).sum()
    assert np.linalg.norm(coeffs) ** 2 <= full_l2_sq + 1e-12


def test_gradient_fields_project_to_zero():
    grid = BasisSet(9).grid(16)

    def grad_phi(points):
        s = np.sin(points[..., 0] + points[..., 1])
        return np.stack([-s, -s])

    coeffs = grid.project(grad_phi(grid.points))
    assert np.abs(coeffs).max() < 1e-13


def test_velocity_at_matches_grid_tables():
    basis = BasisSet(9)
    grid = basis.grid(16)
    coeffs = RNG.standard_normal(9)
    # Point arrays end in their components, grid fields are planes.
    np.testing.assert_allclose(
        np.moveaxis(basis.velocity_at(grid.points, coeffs), -1, 0),
        grid.synthesize(coeffs),
        atol=1e-13,
    )
    # A coefficient stack gives one field per row.
    stack = np.stack([coeffs, 2.0 * coeffs, -coeffs])
    fields = basis.velocity_at(grid.points, stack)
    assert fields.shape == (3, 16, 16, 2)
    for row, c in zip(fields, stack):
        np.testing.assert_allclose(np.moveaxis(row, -1, 0), grid.synthesize(c), atol=1e-13)


@pytest.mark.parametrize("M", [16, 5, 6], ids=["M16", "alias-edge-odd", "alias-edge-even"])
def test_grid_gradient_matches_the_modal_gradient(M):
    # The grid gradient is the spectral derivative of the synthesized
    # velocity, exact while every basis wavenumber stays below Nyquist: on
    # a fine grid, at the alias-free minimum M = 2 kmax + 1 = 5 (odd, no
    # Nyquist mode) and at M = 2 kmax + 2 = 6 (even, where D drops the
    # Nyquist mode (-1)^a), on modes of both parities and with k2 < 0.
    basis = BasisSet(9)
    assert basis.kmax == 2 and {m.parity for m in basis.modes} == {"cos", "sin"}
    assert basis.kvecs[:, 1].min() < 0
    grid = basis.grid(M)
    nyquist = (-1.0) ** np.arange(M)
    assert (np.abs(derivative_matrix(M) @ nyquist).max() < 1e-12) == (M % 2 == 0)
    coeffs = RNG.standard_normal(9)
    u, (d_x, d_y) = grid.synthesize_gradient(coeffs)
    np.testing.assert_array_equal(u, grid.synthesize(coeffs))
    expected = np.moveaxis(gradient_at(basis, grid.points, coeffs), (-2, -1), (0, 1))
    np.testing.assert_allclose(d_x, expected[:, 0], atol=1e-13)
    np.testing.assert_allclose(d_y, expected[:, 1], atol=1e-13)


def test_weighed_rows_evaluate_like_coefficients():
    # A row weighed once, c_n MODE_NORM d_n, gives at points and on the grid
    # (as component planes) the velocity of its coefficients, one row or a
    # stack of rows.
    basis = BasisSet(9)
    grid = basis.grid(16)
    assert grid.vec is basis.vec
    stack = RNG.standard_normal((3, 9))
    weights = basis.weigh(stack)
    assert weights.shape == (3, 9, 2)
    np.testing.assert_array_equal(weights, stack[:, :, None] * (MODE_NORM * basis.dirs))
    points = RNG.uniform(-5.0, 11.0, size=(7, 2))
    np.testing.assert_allclose(
        basis.weighted_at(points, weights), basis.velocity_at(points, stack), rtol=0, atol=1e-15
    )
    planes = grid.planes(weights)
    assert planes.shape == (3, 2, 16, 16)
    np.testing.assert_allclose(
        np.moveaxis(planes, -3, -1), basis.velocity_at(grid.points, stack), rtol=0, atol=1e-15
    )
    shaped = points.reshape(7, 1, 2)
    for c, w, p in zip(stack, weights, planes):
        np.testing.assert_allclose(
            basis.weighted_at(shaped, w), basis.velocity_at(shaped, c), rtol=0, atol=1e-15
        )
        np.testing.assert_allclose(grid.planes(w), p, rtol=0, atol=1e-15)


def test_stacked_synthesis_and_projection_match_per_field_loops():
    # A leading stack axis gives, field by field, what one call per field
    # gives: the block walk synthesizes and projects whole blocks of nodes.
    grid = BasisSet(9).grid(16)
    stack = RNG.standard_normal((2, 3, 9))
    u = grid.synthesize(stack)
    _, grad = grid.synthesize_gradient(stack)
    moments = grid.project(u + 0.1 * u**2)
    assert u.shape == (2, 3, 2, 16, 16)
    assert [d.shape for d in grad] == [(2, 3, 2, 16, 16)] * 2
    assert moments.shape == (2, 3, 9)
    for idx in itertools.product(range(2), range(3)):
        c = stack[idx]
        np.testing.assert_allclose(u[idx], grid.synthesize(c), rtol=1e-12, atol=1e-15)
        for d, d_one in zip(grad, grid.synthesize_gradient(c)[1]):
            np.testing.assert_allclose(d[idx], d_one, rtol=1e-12, atol=1e-15)
        field = grid.synthesize(c)
        np.testing.assert_allclose(
            moments[idx], grid.project(field + 0.1 * field**2), rtol=1e-12, atol=1e-15
        )


def test_eigenfield_relation_on_grid():
    # -Delta w = lam w: second derivatives of trig(k.x) give |k|^2 trig(k.x).
    basis = BasisSet(9)
    grid = basis.grid(16)
    h = 2.0 * np.pi / 16
    for n, mode in enumerate(basis.modes):
        W = grid.synthesize(np.eye(basis.size)[n])
        lap = (
            np.roll(W, 1, axis=-2)
            + np.roll(W, -1, axis=-2)
            + np.roll(W, 1, axis=-1)
            + np.roll(W, -1, axis=-1)
            - 4.0 * W
        ) / h**2
        # Second-order FD Laplacian approximates -lam w; loose tolerance.
        np.testing.assert_allclose(lap, -mode.lam * W, atol=0.1 * mode.lam)


@pytest.mark.parametrize("N, M", [(8, 3), (8, 16), (13, 5), (13, 21), (32, 7), (32, 24)])
def test_grid_moments_are_the_fft(N, M):
    # The pruned DFT against numpy's full FFT at q mod M, F_q = C_q - i S_q:
    # odd and even M, and M = 2 kmax + 1 (3 at N = 8, 5 at N = 13, 7 at
    # N = 32), where q = k_i + k_j wraps past M / 2.
    basis = BasisSet(N)
    assert M >= 2 * basis.kmax + 1
    reach = 2 * basis.kmax
    fields = RNG.standard_normal((2, 3, M, M))
    parts = basis.grid(M).moments(fields)
    moments = parts[..., 0] + 1j * parts[..., 1]
    q1 = np.arange(-reach, reach + 1)[:, None] % M
    q2 = np.arange(reach + 1)[None, :] % M
    expected = np.fft.fft2(fields)[..., q1, q2]
    assert moments.shape == expected.shape == (2, 3, 2 * reach + 1, reach + 1)
    assert np.abs(moments - expected).max() <= 1e-13 * np.abs(fields).sum(axis=(-2, -1)).max()


def test_alias_guard_and_validation():
    with pytest.raises(ValueError):
        BasisSet(9).grid(4)
    with pytest.raises(ValueError):
        enumerate_modes(0)
    with pytest.raises(ValueError):
        BasisSet(4).grid(16).project(np.zeros((2, 8, 8)))
