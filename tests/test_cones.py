import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mintwo.cones import Cone, HalfPlane, _halton, nu
from mintwo.fixtures import cone_fixture
from mintwo.geometry import Subspace

from memory import traced_peak


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
    assert A.distance(np.array([0.0, 1.0, 0.0, 0.0])) <= 1e-9


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


def test_r_is_distance_to_axis():
    C = cone_fixture("four_half_planes_r4")
    A = C.axis()
    rng = np.random.default_rng(13)
    for _ in range(20):
        X = rng.standard_normal(4)
        assert C.r(X) == pytest.approx(A.distance(X), abs=1e-10)


def test_nu_identity():
    C = cone_fixture("transverse_pair_r4")
    assert nu(C, C, samples=400) < 1e-12


def test_nu_two_lines_at_angle():
    # lines at mutual angle theta in B_2: sup distance is 2*sin(theta)
    # attained at radius 2 (the orthogonal foot stays inside the ball)
    theta = 0.3
    C = Cone.pair(_line([1.0, 0.0]), _line([0.0, 1.0]))
    D = Cone.pair(_line([np.cos(theta), np.sin(theta)]),
                  _line([-np.sin(theta), np.cos(theta)]))
    val = nu(C, D, samples=2000)
    assert val == pytest.approx(2 * np.sin(theta), rel=0.02)


def test_nu_symmetric():
    C = cone_fixture("pair_lines_r2")
    D = Cone.pair(_line([1.0, 0.2]), _line([0.2, 1.0]))
    assert nu(C, D, samples=1500) == pytest.approx(
        nu(D, C, samples=1500), rel=0.05)


def test_nu_rejects_small_sample_count():
    C = cone_fixture("pair_lines_r2")
    with pytest.raises(ValueError):
        nu(C, C, samples=50)


def test_pair_rejects_coinciding_planes():
    P = Subspace(np.eye(3)[:2])
    with pytest.raises(ValueError):
        Cone.pair(P, Subspace(np.eye(3)[:2]))


def test_multiplicity2_rejects_distinct_planes():
    # with r_C read off the first plane, the second would lie in the
    # collar nowhere and the first everywhere
    with pytest.raises(ValueError, match="multiplicity2 needs coinciding"):
        Cone("pair", [Subspace(np.eye(3)[:2]), Subspace(np.eye(3)[1:])],
             2, 1, multiplicity2=True)


def test_multiplicity2_json_roundtrip():
    P = Subspace(np.eye(4)[:2])
    text = Cone("pair", [P, P], 2, 2, multiplicity2=True).to_json()
    D = Cone.from_json(text)
    assert D.multiplicity2 is True
    assert D.axis() == P
    assert D.to_json() == text


def _pair_doc():
    return json.loads(cone_fixture("transverse_pair_r4").to_json())


@pytest.mark.parametrize("value", ["no", "true", 1, 0, None])
def test_cone_json_multiplicity2_must_be_boolean(value):
    doc = _pair_doc()
    doc["multiplicity2"] = value
    with pytest.raises(ValueError, match="multiplicity2 must be true or"):
        Cone.from_json(json.dumps(doc))


@pytest.mark.parametrize("offset", [[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0],
                                    "0", [[0.0, 0.0, 0.0, 0.0]]])
def test_cone_json_offset_must_be_zeros(offset):
    doc = _pair_doc()
    doc["planes"][0]["offset"] = offset
    with pytest.raises(ValueError, match="offset .* is not 4 zeros"):
        Cone.from_json(json.dumps(doc))


def test_cone_json_plane_needs_offset():
    doc = _pair_doc()
    del doc["planes"][1]["offset"]
    with pytest.raises(ValueError, match="has no key 'offset'"):
        Cone.from_json(json.dumps(doc))


def test_four_hp_rejects_duplicate_sides():
    boundary = Subspace(np.zeros((0, 3)), ambient_dim=3)
    s = 1 / np.sqrt(2)
    sides = [(-s, -s, 0.0), (-s, -s, 0.0), (s, 0.0, s), (s, 0.0, -s)]
    with pytest.raises(ValueError):
        Cone.four_half_planes(boundary, sides)


def test_cone_json_roundtrip():
    for name in ("pair_lines_r2", "transverse_pair_r4",
                 "four_half_planes_r3", "four_half_planes_r4"):
        C = cone_fixture(name)
        text = C.to_json()
        D = Cone.from_json(text)
        assert D.kind == C.kind
        assert nu(C, D, samples=400) < 1e-10
        assert D.to_json() == text
        json.loads(text)


def test_cone_json_rejects_unknown_kind():
    doc = json.loads(cone_fixture("four_half_planes_r4").to_json())
    doc["kind"] = "triple"
    with pytest.raises(ValueError, match="unknown cone kind"):
        Cone.from_json(json.dumps(doc))


@pytest.mark.parametrize("name, region, area", [
    ("transverse_pair_r4", "ball", 8.0 * np.pi),
    ("four_half_planes_r3", "ball", 8.0),
    # {z = w = 0} covers the disc of radius 2, and the graph of w = z over
    # that disc has twice its area
    ("transverse_pair_r4", "cylinder", 12.0 * np.pi),
    # each half-plane over B_2^2 is a half-ellipse with semi-axes 2 sqrt2
    # and 2
    ("four_half_planes_r4", "cylinder", 8.0 * np.sqrt(2.0) * np.pi)])
def test_sample_support_lands_on_support(name, region, area):
    C = cone_fixture(name)
    pts, wts, piece = C.sample_support(2000, radius=2.0, region=region)
    assert np.all(C.dist_to_support(pts) <= 1e-12)
    assert np.array_equal(np.unique(piece), np.arange(len(C.pieces)))
    if region == "ball":
        assert np.all(np.linalg.norm(pts, axis=-1) <= 2.0 + 1e-9)
    else:
        # the closed cylinder B_2^n x R^k
        assert np.all(np.linalg.norm(pts[:, :C.n], axis=-1) <= 2.0)
    assert np.all(wts > 0)
    assert wts.sum() == pytest.approx(area, rel=0.01)


def test_sample_support_rejects_unknown_region():
    with pytest.raises(ValueError, match="unknown sampling region"):
        cone_fixture("transverse_pair_r4").sample_support(100, 2.0, "slab")


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 6), m=st.integers(1, 5000))
def test_halton_matches_scipy_bitwise(d, m):
    qmc = pytest.importorskip("scipy.stats.qmc")
    ours = _halton(d, m)
    ref = qmc.Halton(d=d, scramble=False).random(m)
    assert ours.shape == ref.shape == (m, d)
    assert np.array_equal(ours.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("d, m", [(2, 3311), (3, 5000), (5, 20000)])
def test_halton_holds_two_columns_besides_its_output(d, m):
    # 3,311 points in 2-d are what _ball_coefficients draws for 2,000
    # samples of a disc.  Two float columns (quotient and digit), plus a
    # reduction buffer of at most 8,192 bools for q.any(); summing each
    # column apart and copying it into the output held five columns
    out, peak = traced_peak(_halton, d, m)
    assert peak <= out.nbytes + 2 * 8 * m + 16_384


@st.composite
def linear_cones(draw):
    """A pair of planes or four half-planes through 0, both from Gaussian
    rows, in R^(n+k) with n, k <= 3."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = n + k
    if draw(st.booleans()):
        return Cone.pair(Subspace(rng.standard_normal((n, d))),
                         Subspace(rng.standard_normal((n, d))))
    boundary = Subspace(rng.standard_normal((n - 1, d)), ambient_dim=d)
    sides = [boundary.perp(rng.standard_normal(d)) for _ in range(4)]
    return Cone.four_half_planes(boundary, sides)


@settings(max_examples=200, deadline=None)
@given(C=linear_cones())
def test_axis_lies_in_every_piece(C):
    A = C.axis()
    # two generic n-planes in R^(n+k) meet in dimension max(n - k, 0)
    assert A.dim == (C.n - 1 if C.kind == "four_hp" else max(C.n - C.k, 0))
    for piece in C.pieces:
        for v in A.basis:
            assert piece.distance(v) <= 1e-12
            assert piece.distance(-v) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(C=linear_cones(), seed=st.integers(0, 2 ** 32 - 1),
       t=st.floats(1e-3, 1e3))
def test_dist_to_support_is_homogeneous(C, seed, t):
    X = np.random.default_rng(seed).standard_normal((16, C.ambient_dim))
    got, want = C.dist_to_support(t * X), t * C.dist_to_support(X)
    # a few ulp of the point's norm: the distance is a difference of
    # vectors of that size
    ulp = np.spacing(t * np.linalg.norm(X, axis=-1))
    assert np.all(np.abs(got - want) <= 8 * ulp)


@settings(max_examples=200, deadline=None)
@given(C=linear_cones())
def test_cone_json_text_roundtrip(C):
    text = C.to_json()
    assert Cone.from_json(text).to_json() == text
