import numpy as np
import pytest

from mintwo.geometry import (Ball, Cylinder, Everything, Subspace, Torus,
                             hausdorff_distance, orthonormalize,
                             rotation_fixing_axis, subspace_intersection,
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


def test_subspace_affine_offset():
    S = Subspace(np.array([[1.0, 0.0]]), offset=np.array([0.0, 1.0]))
    assert S.distance(np.array([5.0, 1.0])) == pytest.approx(0.0, abs=1e-12)
    assert S.distance(np.array([5.0, 3.0])) == pytest.approx(2.0)


def test_subspace_intersection_planes_in_r3():
    P1 = Subspace(np.eye(3)[:2])                       # z = 0
    P2 = Subspace(np.array([[1.0, 0.0, 0.0],
                            [0.0, 1.0, 1.0]]) /
                  np.array([[1.0], [np.sqrt(2.0)]]))   # contains x-axis
    I = subspace_intersection(P1, P2)
    assert I.dim == 1
    assert I.contains(np.array([3.0, 0.0, 0.0]))


def test_hausdorff_identity():
    A = np.random.default_rng(2).standard_normal((40, 3))
    assert hausdorff_distance(A, A) == 0.0


def test_hausdorff_singletons():
    assert hausdorff_distance(np.array([[0.0]]),
                              np.array([[3.0]])) == pytest.approx(3.0)


def test_hausdorff_two_planes_at_angle():
    # two planes through 0 in R^3 at angle theta, dense samples in B_2:
    # the extremal point at radius 2 on one plane is 2*sin(theta) from the
    # other (its orthogonal foot stays inside the ball)
    theta = 0.4
    t = np.linspace(-2, 2, 201)
    u = np.linspace(-2, 2, 201)
    tt, uu = np.meshgrid(t, u)
    A = np.stack([tt, uu, np.zeros_like(tt)], axis=-1).reshape(-1, 3)
    B = np.stack([tt, uu * np.cos(theta), uu * np.sin(theta)],
                 axis=-1).reshape(-1, 3)
    A = A[np.linalg.norm(A, axis=1) <= 2]
    B = B[np.linalg.norm(B, axis=1) <= 2]
    d = hausdorff_distance(A, B)
    assert d == pytest.approx(2 * np.sin(theta), abs=0.05)


def test_hausdorff_triangle_inequality():
    rng = np.random.default_rng(3)
    for _ in range(10):
        A, B, C = (rng.standard_normal((15, 2)) for _ in range(3))
        dab = hausdorff_distance(A, B)
        dbc = hausdorff_distance(B, C)
        dac = hausdorff_distance(A, C)
        assert dac <= dab + dbc + 1e-12


def test_hausdorff_rejects_empty():
    with pytest.raises(ValueError):
        hausdorff_distance(np.zeros((0, 2)), np.zeros((3, 2)))


def test_ball_contains_center():
    assert Ball(np.zeros(3), 1.0).contains(np.zeros(3))


def test_torus_center_circle():
    axis = Subspace(np.array([[0.0, 0.0, 1.0]]))
    T = Torus(axis, rho=0.5, r=0.25)
    assert T.contains(np.array([0.5, 0.0, 0.0]))


def test_torus_misses_axis():
    # points with vanishing cross-axis part are never inside the tube
    axis = Subspace(np.array([[0.0, 0.0, 1.0]]))
    T = Torus(axis, rho=0.5, r=0.25)
    for z in np.linspace(-2, 2, 17):
        assert not T.contains(np.array([0.0, 0.0, z]))


def test_torus_rotation_invariance():
    axis = Subspace(np.array([[0.0, 0.0, 1.0]]))
    T = Torus(axis, rho=0.5, r=0.2)
    rng = np.random.default_rng(4)
    for _ in range(25):
        p = rng.standard_normal(3)
        ang = rng.uniform(0, 2 * np.pi)
        c, s = np.cos(ang), np.sin(ang)
        R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        assert T.contains(p) == T.contains(R @ p)


def test_cylinder_ignores_trailing_coords():
    C = Cylinder(2, radius=1.0)
    assert C.contains(np.array([0.5, 0.5, 9.0, -9.0]))
    assert not C.contains(np.array([1.5, 0.0, 0.0, 0.0]))


def test_everything_contains_anything():
    assert Everything().contains(np.array([1e6, -1e6, 0.0]))


def test_unit_ball_volume():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(np.pi)
    assert unit_ball_volume(3) == pytest.approx(4 * np.pi / 3)


def test_rotation_fixing_axis():
    axis = Subspace(np.array([[1.0, 1.0, 0.0]]) / np.sqrt(2.0))
    R = rotation_fixing_axis(axis, angle_seed=5)
    assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
    v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    assert np.allclose(R @ v, v, atol=1e-12)
