import numpy as np
import pytest

from mintwo.geometry import (Ball, Cylinder, Subspace, central_differences,
                             complement_basis, half_gamma, orthonormalize,
                             unit_ball_volume)


def test_project_coordinate_axis():
    S = Subspace(np.array([[1.0, 0.0]]))
    assert np.allclose(S.project(np.array([1.0, 1.0])), [1.0, 0.0])


def test_project_full_space_identity():
    S = Subspace(np.eye(3))
    p = np.array([0.3, -1.2, 7.0])
    assert np.allclose(S.project(p), p)


def test_project_diagonal_line():
    # span{(1,1,0)/sqrt2}: projection of (2,3,5) is (2.5, 2.5, 0)
    S = Subspace(np.array([[1.0, 1.0, 0.0]]) / np.sqrt(2.0))
    assert np.allclose(S.project(np.array([2.0, 3.0, 5.0])),
                       [2.5, 2.5, 0.0], atol=1e-12)


def test_project_idempotent():
    rng = np.random.default_rng(0)
    for _ in range(20):
        B = orthonormalize(rng.standard_normal((2, 5)))
        S = Subspace(B)
        p = rng.standard_normal(5)
        q = S.project(p)
        assert np.allclose(S.project(q), q, atol=1e-12)


def test_orthonormalize_rows():
    rng = np.random.default_rng(1)
    B = orthonormalize(rng.standard_normal((3, 6)))
    assert np.allclose(B @ B.T, np.eye(3), atol=1e-12)


def test_subspace_distance_and_perp():
    S = Subspace(np.array([[1.0, 0.0, 0.0]]))
    assert S.distance(np.array([2.0, 3.0, 4.0])) == pytest.approx(5.0)
    assert np.allclose(S.perp(np.array([2.0, 3.0, 4.0])), [0.0, 3.0, 4.0])


def test_complement_of_no_rows_is_identity():
    assert np.array_equal(complement_basis(np.zeros((0, 5)), 5), np.eye(5))


def test_complement_basis_completes_rows():
    rows = orthonormalize(np.array([[1.0, 2.0, 0.0, -1.0],
                                    [0.0, 1.0, 1.0, 3.0]]))
    comp = complement_basis(rows, 4)
    full = np.vstack([rows, comp])
    assert comp.shape == (2, 4)
    assert np.allclose(full @ full.T, np.eye(4), atol=1e-14)


def test_ball_contains_center():
    assert Ball(np.zeros(3), 1.0).contains(np.zeros(3))


def test_cylinder_ignores_trailing_coords():
    C = Cylinder(2, radius=1.0)
    assert C.contains(np.array([0.5, 0.5, 9.0, -9.0]))
    assert not C.contains(np.array([1.5, 0.0, 0.0, 0.0]))


def test_unit_ball_volume():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(np.pi)
    assert unit_ball_volume(3) == pytest.approx(4 * np.pi / 3)


@pytest.mark.parametrize("n", range(1, 13))
def test_gamma_matches_scipy(n):
    # Gamma(n/2) for the sphere area and Gamma(n/2 + 1) for the ball volume
    gamma = pytest.importorskip("scipy.special").gamma
    for j in (n, n + 2):
        want = float(gamma(j / 2.0))
        if j % 2 == 0:
            assert half_gamma(j) == want
        else:
            assert abs(half_gamma(j) - want) <= np.spacing(want)
    if n % 2 == 0:
        assert unit_ball_volume(n) == float(np.pi ** (n / 2.0)
                                            / gamma(n / 2.0 + 1.0))


def test_central_differences_exact_on_a_quadratic():
    # every node value, difference and quotient is a dyadic rational, so
    # the stencil's derivative of a quadratic is exact at interior nodes
    h = 1 / 8
    x = h * np.arange(-4, 5)
    y = h * np.arange(-3, 4)
    X, Y = np.meshgrid(x, y, indexing="ij")
    values = np.stack([X * X + 3 * X * Y, Y * Y - X], axis=-1)
    D = central_differences(values, h)
    assert D.shape == (len(x) - 2, len(y) - 2, 2, 2)
    Xi, Yi = X[1:-1, 1:-1], Y[1:-1, 1:-1]
    assert np.array_equal(D[..., 0, 0], 2 * Xi + 3 * Yi)
    assert np.array_equal(D[..., 1, 0], 3 * Xi)
    assert np.array_equal(D[..., 0, 1], -np.ones_like(Xi))
    assert np.array_equal(D[..., 1, 1], 2 * Yi)
