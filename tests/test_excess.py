import hashlib

import numpy as np
import pytest

from mintwo.conefit import (_fit_pair_with_axis, _nearest_piece,
                            _plane_distances, coarser_excess)
from mintwo.cones import Cone, nu
from mintwo.excess import (COLLAR, excess_E, excess_Q,
                           radial_homogeneity_deficit, reverse_excess,
                           single_plane_ratio)
from mintwo.fixtures import FixtureSpec, cone_fixture, generate
from mintwo.geometry import Ball, Subspace, orthonormalize
from mintwo.twovalued import TwoValuedGrid
from mintwo.varifold import SampledVarifold, SimilarityView, sample_graph

from cone_clouds import cone_cloud
from windows import gather


def _doubled(P):
    """The multiplicity-two plane P: a pair of coinciding planes."""
    return Cone("pair", [P, P], P.dim, P.ambient_dim - P.dim,
                multiplicity2=True)


def test_excess_zero_on_exact_cone():
    C = cone_fixture("transverse_pair_r4")
    V = cone_cloud("transverse_pair_r4", 1 / 32, 2.0)
    assert excess_E(V, C) <= 1e-12 * V.total_mass


def test_excess_tilted_line_closed_form():
    # graph of eps*x over {y=0} in R^2 against the plane itself on B_1:
    # integral of (eps^2 x^2/(1+eps^2)) * sqrt(1+eps^2) dx over [-1,1]
    eps = 0.3

    def fn(pts):
        v = eps * pts[:, :1]
        return v, v
    g = TwoValuedGrid.from_function(fn, 1, 1, 1.0, 1 / 512)
    V = sample_graph(g, with_tangents=False)
    P = _doubled(Subspace(np.array([[1.0, 0.0]])))
    got = excess_E(V, P, Ball(np.zeros(2), 1.0))
    # the ambient unit ball cuts the line at |x| = 1/sqrt(1+eps^2); with
    # two coincident sheets the closed form is (4/3) eps^2 / (1+eps^2)
    want = (4.0 / 3.0) * eps ** 2 / (1 + eps ** 2)
    assert got == pytest.approx(want, rel=0.01)


def test_excess_curved_pair_scaling():
    # V = {w=0} u {w=z+z^2}, C = tangent pair: dist ~ |z|^2 so the
    # unscaled excess over B_rho behaves like rho^(n+4) = rho^6
    g = generate(FixtureSpec("holo_pair_curved", 1 / 256, radius=1.0,
                             params={"a": 1.0, "b": 1.0}))
    V = sample_graph(g, with_tangents=False)
    C = cone_fixture("transverse_pair_r4")
    vals = [excess_E(V, C, Ball(np.zeros(4), rho))
            for rho in (0.8, 0.4, 0.2)]
    assert vals[0] / vals[1] == pytest.approx(2 ** 6, rel=0.25)
    assert vals[1] / vals[2] == pytest.approx(2 ** 6, rel=0.25)


def test_excess_monotone_in_region():
    g = generate(FixtureSpec("holo_pair_curved", 1 / 64, radius=1.0))
    V = sample_graph(g, with_tangents=False)
    C = cone_fixture("transverse_pair_r4")
    small = excess_E(V, C, Ball(np.zeros(4), 0.5))
    big = excess_E(V, C, Ball(np.zeros(4), 1.0))
    assert small <= big


def test_excess_triangle_comparison():
    g = generate(FixtureSpec("holo_pair_curved", 1 / 64, radius=1.0))
    V = sample_graph(g, with_tangents=False)
    R = Ball(np.zeros(4), 1.0)
    mass = float(V.weights[R.contains(V.points)].sum())
    rng = np.random.default_rng(30)
    C = cone_fixture("transverse_pair_r4")
    for trial in range(5):
        a = rng.standard_normal((2, 4))
        q, _ = np.linalg.qr(np.vstack([np.eye(4)[:2], 0.2 * a]).T)
        D = Cone.pair(Subspace(q.T[:2]), C.pieces[1].boundary
                      if hasattr(C.pieces[1], "boundary")
                      else C.pieces[1])
        lhs = abs(np.sqrt(excess_E(V, C, R)) - np.sqrt(excess_E(V, D, R)))
        assert lhs <= np.sqrt(mass) * nu(C, D, samples=2000) + 1e-9


def test_q_zero_on_exact_cone():
    C = cone_fixture("transverse_pair_r4")
    V = cone_cloud("transverse_pair_r4", 1 / 32, 2.5)
    assert excess_Q(V, C).q < 1e-8 * V.total_mass


def test_q_detects_missing_sheet():
    # V covers only the plane {w=0}; the reverse excess sees the absent
    # sheet of the pair
    C = cone_fixture("transverse_pair_r4")
    V = cone_cloud(_doubled(C.pieces[0]), 1 / 32, 2.5)
    rep = excess_Q(V, C)
    assert rep.reverse > 0.05


def test_reverse_excess_rejects_multiplicity_two_plane():
    # a multiplicity-two plane is its own axis, so r_C is 0 on its whole
    # support and the collar holds every support sample: the reverse term
    # would read 0 for a cloud of the whole pair and for a cloud of the
    # other plane alone
    C = cone_fixture("transverse_pair_r4")
    P = _doubled(C.pieces[0])
    other = _doubled(C.pieces[1])
    for V in (cone_cloud(C, 1 / 32, 2.5), cone_cloud(other, 1 / 32, 2.5)):
        with pytest.raises(ValueError, match="outside the collar"):
            reverse_excess(V, P, 500)
        with pytest.raises(ValueError, match="outside the collar"):
            excess_Q(V, P)


def test_q_bounded_by_sup_height():
    # graph at constant height s over both planes of the pair
    s = 0.01
    C = cone_fixture("transverse_pair_r4")
    W = sample_graph(generate(FixtureSpec(
        "pair_planes", 1 / 32, 2.5,
        {"g1": [[0, 0], [0, 0]], "g2": [[1, 0], [0, 1]],
         "c1": [0, s], "c2": [0, s]})))
    q = excess_Q(W, C).q
    mass = W.total_mass
    assert q <= np.sqrt(2 * mass) * s * 1.5


@pytest.mark.parametrize("view", [False, True])
def test_reverse_excess_rejects_empty_cylinder(view):
    # every sample lies 5 away from the cylinder's axis, in a plain cloud
    # and in a view centred on the origin of the far cloud
    C = cone_fixture("transverse_pair_r4")
    V = cone_cloud("transverse_pair_r4", 1 / 16, 1.0)
    shift = np.array([5.0, 0.0, 0.0, 0.0])
    if view:
        V = SimilarityView(V, center=-shift)
    else:
        V = SampledVarifold(V.n, V.k, V.points + shift, V.weights)
    with pytest.raises(ValueError, match="no samples in the cylinder"):
        reverse_excess(V, C, 500)


@pytest.mark.parametrize("name, digest", [
    ("transverse_pair_r4",
     "9b13f3303ed8a9c732a4425db20ddfafa312672566e2840985581903550e7d45"),
    ("four_half_planes_r4",
     "f65a15c399f16d4fee8f604c16d408ee86c21ca38b1344a7564113a0329170a7")])
def test_reverse_samples_pinned(name, digest, monkeypatch):
    # the reverse term integrates over the cylinder samples of spt C
    # outside the collar; SHA-256 of (Y, w) at 2000 samples per piece
    C = cone_fixture(name)
    seen = []

    def unit_distance(V, Y):
        seen.append(Y)
        return np.ones(len(Y))
    monkeypatch.setattr("mintwo.excess.dist_to_varifold", unit_distance)
    rep = excess_Q(cone_cloud(name, 1 / 16, 2.0), C, count_per_piece=2000)
    Y, w, _ = C.sample_support(2000, 2.0, "cylinder")
    outside = C.r(Y) >= COLLAR
    Y, w = Y[outside], w[outside]
    assert np.array_equal(seen[0], Y)
    assert rep.reverse == float(np.sum(w))
    assert hashlib.sha256(Y.tobytes() + w.tobytes()).hexdigest() == digest


def test_single_plane_ratio_exact_cone_is_zero():
    C = cone_fixture("transverse_pair_r4")
    V = cone_cloud("transverse_pair_r4", 1 / 32, 2.0)
    assert single_plane_ratio(V, C) == 0.0


def test_single_plane_ratio_tilted_plane():
    # a single plane tilted slightly off P1: distance to the union is
    # pointwise <= distance to P1, and near P1 the two coincide
    eps = 0.05

    def fn(pts):
        v = eps * pts[:, :1]
        return np.hstack([v, np.zeros_like(v)]), \
            np.hstack([v, np.zeros_like(v)])
    g = TwoValuedGrid.from_function(fn, 2, 2, 1.0, 1 / 64)
    V = sample_graph(g, with_tangents=False)
    C = cone_fixture("transverse_pair_r4")
    ratio = single_plane_ratio(V, C)
    assert np.isfinite(ratio)
    assert ratio <= 1.2


def test_lone_sample_matches_its_batched_value():
    # a region holding one sample gives the same last bit as that sample
    # does inside a batch
    rng = np.random.default_rng(5)
    P1, P2 = (Subspace(orthonormalize(rng.standard_normal((2, 4))))
              for _ in range(2))
    C = Cone.pair(P1, P2)
    X = 0.3 * rng.standard_normal((1000, 4))
    r = np.linalg.norm(X, axis=1)
    d1, d2 = P1.distance(X), P2.distance(X)
    pair = np.minimum(d1, d2) ** 2
    # samples at radius 1/2 to 1 enter the denominator of the ratio only
    ring = X[(r >= 0.5) & (r < 1.0)]
    for i, x in enumerate(X):
        d, _ = _nearest_piece(x[None],
                              _plane_distances([P1.basis, P2.basis]))
        assert d ** 2 == pair[i]
        if r[i] < 0.5 and d1[i] <= d2[i]:
            V = SampledVarifold(2, 2, np.vstack([x, ring]),
                                np.ones(len(ring) + 1))
            assert single_plane_ratio(V, C) == d1[i] ** 2 / excess_E(V, C)


def test_single_plane_ratio_parallel_graphs():
    def fn(pts):
        z = np.zeros((len(pts), 1))
        return np.hstack([z, z]), np.hstack([z + 0.3, z])
    g = TwoValuedGrid.from_function(fn, 2, 2, 1.0, 1 / 64)
    V = sample_graph(g, with_tangents=False)
    C = cone_fixture("transverse_pair_r4")
    ratio = single_plane_ratio(V, C)
    assert np.isfinite(ratio)
    assert ratio > 0


def test_coarser_excess_planted_optimum():
    # V from a pair with a 1-dim axis; C perturbs the pair while keeping a
    # 0-dim axis constraint, so searching for a larger axis recovers V's
    # (span{e1, e2} and span{e2, e3} turned by 45 degrees in the e1-e3
    # plane, so that both are graphs over the first two coordinates)
    s = 1 / np.sqrt(2)
    P1 = Subspace(np.array([[s, 0.0, s, 0.0], [0.0, 1.0, 0.0, 0.0]]))
    P2 = Subspace(np.array([[-s, 0.0, s, 0.0], [0.0, 1.0, 0.0, 0.0]]))
    D_star = Cone.pair(P1, P2)  # axis = span{e2}
    V = cone_cloud(D_star, 1 / 32, 2.0)
    # sub-axis cone: a transverse pair with 0-dim axis close to D_star
    c, s = np.cos(0.05), np.sin(0.05)
    Q = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, c, 0.0, s],
                  [0.0, 0.0, 1.0, 0.0], [0.0, -s, 0.0, c]])
    Csub = Cone.pair(Subspace(P1.basis @ Q.T), P2)
    val, D = coarser_excess(V, Csub)
    assert val <= 1e-6 * V.total_mass
    assert nu(D, D_star, samples=800) < 1e-2


def test_coarser_excess_no_room_errors():
    # A(C) already fills A(C0): no strictly larger axis available
    C = cone_fixture("transverse_pair_r4")
    V = cone_cloud("transverse_pair_r4", 1 / 16, 2.0)
    with pytest.raises(ValueError):
        coarser_excess(V, C, C0=C)


def _curved_pair_cloud():
    return sample_graph(generate(FixtureSpec("holo_pair_curved", 1 / 64)),
                        with_tangents=False)


def test_coarser_excess_pinned_on_cloud():
    # the excess and the JSON of the cone; the search draws nothing, so a
    # second call gives the same bits.  From the moment's start alone the
    # search found 0x1.77e76b44f8a9dp-2 (0.367); C's planes turned to
    # contain the axis start a fit that ends lower
    V = _curved_pair_cloud()
    C = cone_fixture("transverse_pair_r4")
    val, D = coarser_excess(V, C)
    assert val.hex() == "0x1.667262c3f2f89p-2"
    assert hashlib.sha256(D.to_json().encode()).hexdigest() == \
        "af826263e03fe79a5defd87979a8b096673cf14aea64fac1a595b972ccc62a9e"
    again, E = coarser_excess(V, C)
    assert again.hex() == val.hex() and E.to_json() == D.to_json()


def test_coarser_excess_tries_every_moment_eigen_direction():
    # with a 0-dimensional axis and no reference cone every direction may
    # join the axis, so the candidates are the eigenvectors of the unit
    # ball's weighted second moment; the top and bottom ones, which were
    # the only two candidates before, gave 0x1.0eec5a21db384p-1 at best
    V = _curved_pair_cloud()
    val, D = coarser_excess(V, cone_fixture("transverse_pair_r4"))
    pts, wts = gather(SimilarityView(V), Ball(np.zeros(4), 1.0))
    _, vecs = np.linalg.eigh(np.einsum("m,mi,mj->ij", wts, pts, pts))
    fits = [_fit_pair_with_axis((SimilarityView(V), Ball(np.zeros(4), 1.0)),
                                u[None], V.n, cone_fixture("transverse_pair_r4"))
            for u in vecs.T]
    assert val == min(v for _, v in fits)
    assert D.to_json() == min(fits, key=lambda f: f[1])[0].to_json()
    assert val <= float.fromhex("0x1.0eec5a21db384p-1")


def test_coarser_excess_on_view_equals_copy():
    # a view at rho = 1/2 and the rescaled copy of its cloud hold the same
    # bits in the unit ball, which lies inside the view's cylinder
    V = _curved_pair_cloud()
    C = cone_fixture("transverse_pair_r4")
    val, D = coarser_excess(SimilarityView(V, None, 0.5, cyl=2.2), C)
    W = SampledVarifold(V.n, V.k, V.points / 0.5, V.weights / 0.5 ** V.n)
    want, E = coarser_excess(W, C)
    assert val == want
    assert D.to_json() == E.to_json()


def test_coarser_excess_four_hp_positive():
    V = cone_cloud("four_half_planes_r4", 1 / 64, 2.0)
    pair = cone_fixture("transverse_pair_r4")
    val, _ = coarser_excess(V, pair)
    assert val > 1e-4 * V.total_mass


def test_radial_deficit_zero_for_homogeneous():
    C = cone_fixture("four_half_planes_r3")

    def u(X):
        return 0.1 * X[:, :1]  # linear, hence homogeneous degree one
    assert radial_homogeneity_deficit(C, u, 0.25, 1.0) == \
        pytest.approx(0.0, abs=1e-14)


def test_radial_deficit_zero_for_cone_itself():
    C = cone_fixture("transverse_pair_r4")

    def u(X):
        return np.zeros((len(X), 1))
    assert radial_homogeneity_deficit(C, u, 0.25, 1.0) == 0.0


def test_radial_deficit_r2_profile_matches_ray_oracle():
    # u = |X|^2 on a multiplicity-two plane: u/R = R so d/dR(u/R) = 1 and
    # the integral is area(S) * int_r0^r1 R dR per unit sphere measure
    P = _doubled(Subspace(np.eye(4)[:2]))

    def u(X):
        return np.einsum("md,md->m", X, X)[:, None]
    r_lo, r_hi = 0.25, 1.0
    got = radial_homogeneity_deficit(P, u, r_lo, r_hi, tau=0.0, rays=4000)
    # both coincident sheets of the multiplicity-two plane contribute
    want = 2 * (2 * np.pi * (r_hi ** 2 - r_lo ** 2) / 2.0)
    assert got == pytest.approx(want, rel=0.02)


def test_radial_deficit_rejects_collar_overlap():
    C = cone_fixture("four_half_planes_r3")
    with pytest.raises(ValueError):
        radial_homogeneity_deficit(C, lambda X: X[:, :1], 0.01, 1.0,
                                   tau=0.5)


def test_excess_dilation_scaling():
    # joint dilation of V and the region by rho scales excess by rho^(n+2)
    # for a dilation-invariant cone
    g = generate(FixtureSpec("holo_pair_curved", 1 / 128, radius=1.0))
    V = sample_graph(g, with_tangents=False)
    C = cone_fixture("transverse_pair_r4")
    rho = 0.5
    E_small = excess_E(V, C, Ball(np.zeros(4), rho))
    W = SampledVarifold(V.n, V.k, V.points / rho,
                        V.weights / rho ** V.n,
                        resolution=None if V.resolution is None
                        else V.resolution / rho)
    E_scaled = excess_E(W, C, Ball(np.zeros(4), 1.0))
    assert E_scaled == pytest.approx(E_small / rho ** (V.n + 2), rel=1e-9)
