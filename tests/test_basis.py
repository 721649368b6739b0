"""Oracle tests for the divergence-free trigonometric eigenbasis."""

import itertools

import numpy as np
import pytest

from oracles import gradient_at, spectral_gradient

from torusflow.basis import MODE_NORM, BasisSet, enumerate_modes
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
    dux = spectral_gradient(u[..., 0])[..., 0]
    duy = spectral_gradient(u[..., 1])[..., 1]
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
        extra = np.stack([np.zeros_like(x), np.cos(3.0 * x)], axis=-1)
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
        return np.stack([-s, -s], axis=-1)

    coeffs = grid.project(grad_phi(grid.points))
    assert np.abs(coeffs).max() < 1e-13


def test_velocity_at_matches_grid_tables():
    basis = BasisSet(9)
    grid = basis.grid(16)
    coeffs = RNG.standard_normal(9)
    np.testing.assert_allclose(
        basis.velocity_at(grid.points, coeffs),
        grid.synthesize(coeffs),
        atol=1e-13,
    )
    np.testing.assert_allclose(
        gradient_at(basis, grid.points, coeffs),
        grid.synthesize_gradient(coeffs),
        atol=1e-13,
    )
    # A coefficient stack gives one field per row.
    stack = np.stack([coeffs, 2.0 * coeffs, -coeffs])
    fields = basis.velocity_at(grid.points, stack)
    assert fields.shape == (3, 16, 16, 2)
    for row, c in zip(fields, stack):
        np.testing.assert_allclose(row, grid.synthesize(c), atol=1e-13)


def test_eigenfield_relation_on_grid():
    # -Delta w = lam w: second derivatives of trig(k.x) give |k|^2 trig(k.x).
    basis = BasisSet(9)
    grid = basis.grid(16)
    h = 2.0 * np.pi / 16
    for n, mode in enumerate(basis.modes):
        W = grid.synthesize(np.eye(basis.size)[n])
        lap = (
            np.roll(W, 1, axis=0)
            + np.roll(W, -1, axis=0)
            + np.roll(W, 1, axis=1)
            + np.roll(W, -1, axis=1)
            - 4.0 * W
        ) / h**2
        # Second-order FD Laplacian approximates -lam w; loose tolerance.
        np.testing.assert_allclose(lap, -mode.lam * W, atol=0.1 * mode.lam)


def test_alias_guard_and_validation():
    with pytest.raises(ValueError):
        BasisSet(9).grid(4)
    with pytest.raises(ValueError):
        enumerate_modes(0)
    with pytest.raises(ValueError):
        BasisSet(4).grid(16).project(np.zeros((8, 8, 2)))
