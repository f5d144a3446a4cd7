import json

import numpy as np
import pytest

from mintwo.cones import Cone, HalfPlane, nu
from mintwo.fixtures import cone_fixture
from mintwo.geometry import Subspace


def _line(vec):
    v = np.asarray(vec, dtype=float)
    return Subspace(v[None, :] / np.linalg.norm(v))


def test_axis_two_complex_lines():
    # {w=0} and {z=0} in C^2 = R^4 meet only at the origin: dim 0 axis
    C = Cone.pair(Subspace(np.eye(4)[:2]), Subspace(np.eye(4)[2:]))
    A = C.axis()
    assert A is not None
    assert A.dim == 0


def test_axis_four_half_planes_r3():
    C = cone_fixture("four_half_planes_r3")
    A = C.axis()
    assert A.dim == 0


def test_axis_four_half_planes_r4():
    C = cone_fixture("four_half_planes_r4")
    A = C.axis()
    assert A.dim == 1
    assert A.contains(np.array([0.0, 1.0, 0.0, 0.0]))


def test_axis_parallel_planes_empty():
    P1 = Subspace(np.eye(3)[:2])
    P2 = Subspace(np.eye(3)[:2], offset=np.array([0.0, 0.0, 1.0]))
    C = Cone.pair(P1, P2)
    assert C.axis() is None


def test_dist_pair_lines():
    C = cone_fixture("pair_lines_r2")
    assert C.dist_to_support(np.array([1.0, 0.0])) == \
        pytest.approx(1 / np.sqrt(2))


def test_dist_half_plane_behind_boundary():
    # H = {x >= 0, y = 0} in R^2; X = (-3, 4) is nearest to the corner 0
    H = HalfPlane(Subspace(np.zeros((0, 2)), ambient_dim=2),
                  np.array([1.0, 0.0]))
    assert H.distance(np.array([-3.0, 4.0])) == pytest.approx(5.0)


def test_dist_on_support_zero():
    C = cone_fixture("transverse_pair_r4")
    s = 1 / np.sqrt(2)
    assert C.dist_to_support(np.array([0.3, -0.7, 0.0, 0.0])) == \
        pytest.approx(0.0, abs=1e-12)
    assert C.dist_to_support(np.array([0.3 * s, 0.0, 0.3 * s, 0.0])) == \
        pytest.approx(0.0, abs=1e-12)


def test_dist_is_one_lipschitz():
    C = cone_fixture("four_half_planes_r3")
    rng = np.random.default_rng(11)
    X = rng.standard_normal((100, 3))
    Y = rng.standard_normal((100, 3))
    dX = C.dist_to_support(X)
    dY = C.dist_to_support(Y)
    assert np.all(np.abs(dX - dY) <=
                  np.linalg.norm(X - Y, axis=-1) + 1e-12)


def test_dist_translation_invariant_along_axis():
    C = cone_fixture("four_half_planes_r4")
    rng = np.random.default_rng(12)
    for _ in range(20):
        X = rng.standard_normal(4)
        t = rng.uniform(-2, 2)
        Y = X + t * np.array([0.0, 1.0, 0.0, 0.0])
        assert C.dist_to_support(Y) == pytest.approx(
            C.dist_to_support(X), abs=1e-10)


def test_spine_transverse_pair():
    C = cone_fixture("transverse_pair_r4")
    S = C.spine()
    assert S.dim == 0


def test_spine_four_half_planes():
    C = cone_fixture("four_half_planes_r4")
    assert C.spine().dim == 1


def test_spine_multiplicity_two_plane():
    P = Subspace(np.eye(4)[:2])
    C = Cone.plane_with_multiplicity(P)
    assert C.spine().dim == 2


def test_r_is_distance_to_axis():
    C = cone_fixture("four_half_planes_r4")
    A = C.axis()
    rng = np.random.default_rng(13)
    for _ in range(20):
        X = rng.standard_normal(4)
        assert C.r(X) == pytest.approx(A.distance(X), abs=1e-10)


def test_nu_identity():
    C = cone_fixture("transverse_pair_r4")
    assert nu(C, C, samples=400, seed=0) < 1e-12


def test_nu_two_lines_at_angle():
    # lines at mutual angle theta in B_2: sup distance is 2*sin(theta)
    # attained at radius 2 (the orthogonal foot stays inside the ball)
    theta = 0.3
    C = Cone.pair(_line([1.0, 0.0]), _line([0.0, 1.0]))
    D = Cone.pair(_line([np.cos(theta), np.sin(theta)]),
                  _line([-np.sin(theta), np.cos(theta)]))
    val = nu(C, D, samples=2000, seed=1)
    assert val == pytest.approx(2 * np.sin(theta), rel=0.02)


def test_nu_symmetric():
    C = cone_fixture("pair_lines_r2")
    D = Cone.pair(_line([1.0, 0.2]), _line([0.2, 1.0]))
    assert nu(C, D, samples=1500, seed=2) == pytest.approx(
        nu(D, C, samples=1500, seed=3), rel=0.05)


def test_nu_rejects_small_sample_count():
    C = cone_fixture("pair_lines_r2")
    with pytest.raises(ValueError):
        nu(C, C, samples=50)


def test_pair_rejects_coinciding_planes():
    P = Subspace(np.eye(3)[:2])
    with pytest.raises(ValueError):
        Cone.pair(P, Subspace(np.eye(3)[:2]))


def test_four_hp_rejects_duplicate_sides():
    boundary = Subspace(np.zeros((0, 3)), ambient_dim=3)
    s = 1 / np.sqrt(2)
    sides = [(-s, -s, 0.0), (-s, -s, 0.0), (s, 0.0, s), (s, 0.0, -s)]
    with pytest.raises(ValueError):
        Cone.four_half_planes(boundary, sides)


def test_align_identity_for_aligned_cone():
    C = cone_fixture("four_half_planes_r4")
    frame = C.align()
    # axis maps to the trailing coordinates; an aligned fixture should give
    # a rotation that is the identity on the axis
    v = np.array([0.0, 1.0, 0.0, 0.0])
    w = frame.to_aligned(v)
    assert np.allclose(np.abs(w[-1]), 1.0, atol=1e-10)
    assert np.allclose(w[:-1], 0.0, atol=1e-10)


def test_align_r_matches_cross_coordinates():
    C = cone_fixture("four_half_planes_r4")
    frame = C.align()
    rng = np.random.default_rng(14)
    for _ in range(10):
        X = rng.standard_normal(4)
        w = frame.to_aligned(X)
        assert C.r(X) == pytest.approx(np.linalg.norm(w[:-1]), abs=1e-10)


def test_align_omegas_four_hp():
    C = cone_fixture("four_half_planes_r3")
    frame = C.align()
    omegas = np.array(frame.omegas)
    assert omegas.shape == (4, 3)
    assert np.allclose(np.linalg.norm(omegas, axis=1), 1.0, atol=1e-12)
    for om in omegas:
        assert C.dist_to_support(om) == pytest.approx(0.0, abs=1e-10)


def test_align_requires_axis():
    P1 = Subspace(np.eye(3)[:2])
    P2 = Subspace(np.eye(3)[:2], offset=np.array([0.0, 0.0, 1.0]))
    C = Cone.pair(P1, P2)
    with pytest.raises(ValueError):
        C.align()


def test_cone_json_roundtrip():
    for name in ("pair_lines_r2", "transverse_pair_r4",
                 "four_half_planes_r3", "four_half_planes_r4"):
        C = cone_fixture(name)
        text = C.to_json()
        D = Cone.from_json(text)
        assert D.kind == C.kind
        assert nu(C, D, samples=400, seed=4) < 1e-10
        assert D.to_json() == text
        json.loads(text)


def test_sample_support_lands_on_support():
    for name in ("transverse_pair_r4", "four_half_planes_r3"):
        C = cone_fixture(name)
        pts, wts, piece = C.sample_support(500, radius=2.0, seed=5)
        assert np.all(C.dist_to_support(pts) < 1e-10)
        assert np.array_equal(np.unique(piece), np.arange(len(C.pieces)))
        assert np.all(np.linalg.norm(pts, axis=-1) <= 2.0 + 1e-9)
        assert np.all(wts > 0)
