"""Rungs of the decay ladder as similarity views of one cloud.

The reference is the rescaled copy the ladder used to make of each rung
(``_rescaled`` below, kept as it was): a view must gather the same arrays
bit for bit, count the same fit windows and give the same excess, while
building no copy and no second sample index.
"""

import numpy as np
import pytest

import mintwo.conefit as conefit
import mintwo.excess as excess
import mintwo.varifold as varifold
from mintwo.conefit import decay_pipeline
from mintwo.excess import _sq_dist, dist_to_varifold, excess_E
from mintwo.fixtures import FixtureSpec, cone_fixture, generate
from mintwo.geometry import Ball, Cylinder
from mintwo.varifold import SampledVarifold, SimilarityView, sample_graph

from memory import traced_peak


def _rescaled(V, center, rho, cyl=2.2):
    """Blow-up of V at center by 1/rho, restricted near the cylinder."""
    pts = (V.points - center) / rho
    keep = np.linalg.norm(pts[:, :V.n], axis=-1) <= cyl
    return SampledVarifold(
        V.n, V.k, pts[keep], V.weights[keep] / rho ** V.n,
        None if V.tangents is None else V.tangents[keep],
        V.tangent_ok[keep], V.sheet[keep],
        None if V.resolution is None else V.resolution / rho,
        None if V.patch_radius is None else V.patch_radius / rho,
        None if V.gradients is None else V.gradients[keep])


def _copy_excess_E(V, C, R):
    # the one-sided excess of a whole cloud in one pass
    keep = R.contains(V.points)
    d = C.dist_to_support(V.points[keep])
    return float(np.sum(V.weights[keep] * d ** 2))


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def wide_cloud():
    # radius 2.5 reaches past the rung cylinder of radius 2.2
    return sample_graph(generate(FixtureSpec("holo_pair_curved", 1 / 16,
                                             radius=2.5)))


CENTERS = {"origin": np.zeros(4),
           "off_centre": np.array([0.03, -0.02, 0.01, 0.0])}


@pytest.mark.parametrize("center", sorted(CENTERS))
@pytest.mark.parametrize("theta", [0.5, 0.3])
def test_view_gathers_like_copy(theta, center, wide_cloud, monkeypatch):
    V, c = wide_cloud, CENTERS[center]
    regions = [None, Ball(np.zeros(4), 1.0), Ball(np.zeros(4), 1.0 / theta),
               Cylinder(2, 2.0)]
    for j in range(4):
        rho = theta ** j
        ref = _rescaled(V, c, rho)
        view = SimilarityView(V, c, rho, cyl=2.2)
        assert view.resolution == ref.resolution
        assert view.patch_radius == ref.patch_radius
        assert view.total_mass == ref.total_mass
        radii = np.linalg.norm(ref.points, axis=1)
        assert view.count(regions[1]) == np.count_nonzero(radii < 1.0)
        assert view.count(regions[2]) == np.count_nonzero(radii < 1 / theta)
        for chunk in (7, len(V.weights) + 1):
            monkeypatch.setattr(varifold, "_CHUNK", chunk)
            for R in regions:
                keep = (np.ones(len(ref.weights), dtype=bool) if R is None
                        else R.contains(ref.points))
                pts, wts = view.gather(R)
                assert _same_bits(pts, ref.points[keep])
                assert _same_bits(wts, ref.weights[keep])


@pytest.mark.parametrize("center", sorted(CENTERS))
@pytest.mark.parametrize("theta", [0.5, 0.3])
@pytest.mark.parametrize("with_tangents", [True, False])
def test_view_reverse_distances_match_copy(theta, center, with_tangents,
                                           wide_cloud):
    V = wide_cloud
    if not with_tangents:
        V = SampledVarifold(V.n, V.k, V.points, V.weights,
                            resolution=V.resolution,
                            patch_radius=V.patch_radius)
    c = CENTERS[center]
    rng = np.random.default_rng(7)
    for j in range(3):
        rho = theta ** j
        ref = _rescaled(V, c, rho)
        # queries within 0.05 of a sample in the 2-cylinder: their nearest
        # sample lies in the copy's 2.2-cylinder as well
        near = ref.points[Cylinder(2, 2.0).contains(ref.points)]
        Y = near + rng.uniform(-0.025, 0.025, near.shape)
        got = dist_to_varifold(SimilarityView(V, c, rho, cyl=2.2), Y)
        want = dist_to_varifold(ref, Y)
        if theta == 0.5 and center == "origin":
            assert _same_bits(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("cone", ["transverse_pair_r4",
                                  "four_half_planes_r4"])
def test_excess_E_independent_of_chunk(cone, monkeypatch):
    C = cone_fixture(cone)
    V = sample_graph(generate(FixtureSpec("holo_pair_curved", 1 / 8,
                                          radius=2.5)), with_tangents=False)
    clouds = [(V, V), (SimilarityView(V, None, 0.5, cyl=2.2),
                       _rescaled(V, np.zeros(4), 0.5))]
    regions = [Ball(np.zeros(4), 1.0), Cylinder(2, 2.0)]
    for chunk in (1, 7, len(V.weights) + 1):
        monkeypatch.setattr(varifold, "_CHUNK", chunk)
        for view, ref in clouds:
            for R in regions:
                assert excess_E(view, C, R) == _copy_excess_E(ref, C, R)


@pytest.mark.parametrize("cone", ["transverse_pair_r4",
                                  "four_half_planes_r4"])
def test_lone_row_distance_matches_batch(cone):
    # a chunk of excess_E can hold a single sample of its region
    C = cone_fixture(cone)
    X = np.random.default_rng(3).standard_normal((2000, 4))
    lone = np.concatenate([_sq_dist(C, x[None]) for x in X])
    assert _same_bits(lone, _sq_dist(C, X))


def test_decay_builds_one_tree(monkeypatch):
    built = []

    def counting(points):
        built.append(len(points))
        return build(points)

    build = varifold.cKDTree
    monkeypatch.setattr(varifold, "cKDTree", counting)
    V = sample_graph(generate(FixtureSpec("holo_pair_curved", 1 / 64)),
                     with_tangents=False)
    rep = decay_pipeline(V, cone_fixture("transverse_pair_r4"), J=5)
    assert len(rep.records) >= 2
    assert built == [len(V.weights)]


def test_decay_rung_marks_each_region_once(monkeypatch):
    # a rung fits and takes its one-sided excess in one unit-ball object,
    # so its view marks the samples of the unit ball once; the reverse
    # term only looks for one member in its 2-cylinder, which marks
    # nothing.  Only rung 0 runs excess_Q, which marks the 2-cylinder of
    # its one-sided term once
    marked, one_sided, two_sided = [], [], []
    flags, E, Q = SimilarityView._flags, excess_E, conefit.excess_Q

    def counting_flags(view, region):
        before = view._region
        out = flags(view, region)
        if view._region is not before:
            marked.append((view.rho, type(region).__name__, region.radius))
        return out

    def counting_E(V, C, R=None):
        one_sided.append((V.rho, type(R).__name__))
        return E(V, C, R)

    def counting_Q(*args, **kwargs):
        two_sided.append(args[0].rho)
        return Q(*args, **kwargs)

    monkeypatch.setattr(SimilarityView, "_flags", counting_flags)
    monkeypatch.setattr(conefit, "excess_E", counting_E)
    monkeypatch.setattr(excess, "excess_E", counting_E)
    monkeypatch.setattr(conefit, "excess_Q", counting_Q)
    V = sample_graph(generate(FixtureSpec("holo_pair_curved", 1 / 64)),
                     with_tangents=False)
    rep = decay_pipeline(V, cone_fixture("transverse_pair_r4"), J=3,
                         fit_min_samples=200)
    assert [r["fit_radius"] for r in rep.records] == [1.0, 1.0, 1.0]
    assert two_sided == [1.0]
    assert [m[1:] for m in marked if m[0] == 1.0] == [("Cylinder", 2.0)]
    for r in rep.records:
        assert [m[1:] for m in marked if m[0] == r["scale"]] == [
            ("Ball", 1.0)]
        assert [e[1] for e in one_sided if e[0] == r["scale"]] == ["Ball"]


def test_decay_widened_window_not_clipped():
    # at theta = 0.4 a starved rung fits in Ball(1/theta) = Ball(2.5),
    # which reaches past the rung cylinder of radius 2.2; the rung's view
    # holds the whole window, so its fit is the fit of an unclipped view
    V = sample_graph(generate(FixtureSpec("holo_pair_curved", 1 / 64,
                                          radius=3.0)),
                     with_tangents=False)
    C = cone_fixture("transverse_pair_r4")
    rep = decay_pipeline(V, C, theta=0.4, J=1, fit_min_samples=8000)
    (rung,) = rep.records
    assert rung["fit_radius"] == 2.5
    want, _ = conefit.fit_cone(SimilarityView(V, None, 0.4), "pair", C,
                               R=Ball(np.zeros(V.n + V.k), 2.5))
    assert rung["cone"].to_json() == want.to_json()


def test_decay_transient_memory(monkeypatch):
    # With blocks of 1024 rows the ladder holds, beyond the cloud, its one
    # sample index (built inside the measured span; at most 3.5 bytes a
    # sample, with no per-sample order), a rung's view flags (member and
    # region, one byte a sample each), a fit's weights, distances and two
    # piece arrays (18 bytes a row of its window), one cluster's points
    # and weights gathered from the view (at most a window of them) and a
    # few blocks.  A gathered window next to its cluster copy (the bound
    # allowed two windows of points and weights) or an int32 order of the
    # samples exceeds it.  At h = 1/128 the fit and the index set the
    # peak; at 1/64 the reverse term's fixed support samples did.
    V = sample_graph(generate(FixtureSpec("holo_pair_curved", 1 / 128)),
                     with_tangents=False)
    C = cone_fixture("transverse_pair_r4")
    chunk = 1024
    monkeypatch.setattr(varifold, "_CHUNK", chunk)
    rep, peak = traced_peak(decay_pipeline, V, C, J=5)
    assert len(rep.records) >= 2
    d = V.n + V.k
    m = len(V.weights)
    window = max(SimilarityView(V, None, r["scale"], cyl=2.2).count(
        Ball(np.zeros(d), r["fit_radius"])) for r in rep.records)
    block = chunk * d * 8
    assert V.tree().nbytes <= 3.5 * m
    bound = (3.5 * m + 2 * m + window * (18 + (d + 1) * 8) + 5 * block)
    assert peak < bound


def test_view_fills_arrays_of_final_size(monkeypatch):
    # gather, total_mass and excess_E allocate their outputs once, at the
    # size of the region, and beyond them hold the region's flags (one
    # byte per base sample) and a few blocks; a list of per-chunk pieces
    # and its concatenation held the output twice
    V = sample_graph(generate(FixtureSpec("holo_pair_curved", 1 / 64)),
                     with_tangents=False)
    chunk = 256
    monkeypatch.setattr(varifold, "_CHUNK", chunk)
    view = SimilarityView(V, None, 1.0, cyl=2.2)
    members = view.count()
    slack = len(V.weights) + 8 * chunk * 4 * 8
    R = Ball(np.zeros(4), 1.0)
    (pts, wts), peak = traced_peak(view.gather, R)
    assert peak < pts.nbytes + wts.nbytes + slack
    _, peak = traced_peak(excess_E, view, cone_fixture("transverse_pair_r4"),
                          R)
    assert peak < wts.nbytes + slack
    _, peak = traced_peak(lambda: view.total_mass)
    assert peak < 8 * members + slack
