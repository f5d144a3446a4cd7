import numpy as np
import pytest

from mintwo.fixtures import FixtureSpec, cone_fixture, generate
from mintwo.geometry import Ball, Subspace
from mintwo.stationarity import BumpField, first_variation_defect
from mintwo.twovalued import TwoValuedGrid
from mintwo.varifold import (SampledVarifold, axis_tilt, density_profile,
                             density_ratio, sample_cone, sample_graph)

from memory import traced_peak


def _double_plane(h=1 / 64):
    def fn(pts):
        v = np.zeros((len(pts), 1))
        return v, v
    return TwoValuedGrid.from_function(fn, 2, 1, 1.0, h)


def test_plane_mass_two_pi():
    V = sample_graph(_double_plane(), with_tangents=False)
    assert V.total_mass == pytest.approx(2 * np.pi, rel=0.03)


def test_segment_mass_closed_form():
    # {m x, -m x} over B_1 in R^1: two crossed segments of length 2
    m = 0.7

    def fn(pts):
        v = m * pts[:, :1]
        return v, -v
    g = TwoValuedGrid.from_function(fn, 1, 1, 1.0, 1 / 128)
    V = sample_graph(g, with_tangents=False)
    assert V.total_mass == pytest.approx(4 * np.sqrt(1 + m * m), rel=1e-6)


def test_branched_mass_analytic():
    # graph of {w^(3/2), -w^(3/2)}: holomorphic, so the area element is
    # 1 + |dw^(3/2)/dw|^2 = 1 + (9/4)|w|, and the mass over B_1 is 5*pi
    g = generate(FixtureSpec("branched_w32", 1 / 256, radius=1.0))
    V = sample_graph(g, with_tangents=False)
    assert V.total_mass == pytest.approx(5 * np.pi, rel=0.01)


def test_mass_first_order_convergence():
    oracle = 5 * np.pi
    errs = []
    for h in (1 / 64, 1 / 128, 1 / 256):
        g = generate(FixtureSpec("branched_w32", h, radius=1.0))
        errs.append(abs(sample_graph(g, with_tangents=False).total_mass -
                        oracle))
    assert errs[1] < 0.7 * errs[0]
    assert errs[2] < 0.7 * errs[1]


def test_sample_graph_rejects_nonfinite():
    def fn(pts):
        v = np.full((len(pts), 1), np.nan)
        return v, v
    g = TwoValuedGrid.from_function(fn, 1, 1, 1.0, 0.25)
    with pytest.raises(ValueError):
        sample_graph(g)


def test_mass_in_half_ball_symmetry():
    V = sample_graph(_double_plane(), with_tangents=False)
    d = V.n + V.k
    left = V.points[:, 0] < 0
    half = float(V.weights[left].sum())
    assert half == pytest.approx(V.total_mass / 2, rel=0.03)


def test_density_plane_is_one():
    g = generate(FixtureSpec("pair_planes", 1 / 128, radius=1.0,
                             params={"g1": [[0.0, 0.0], [0.0, 0.0]],
                                     "g2": [[0.0, 0.0], [0.0, 0.0]],
                                     "c2": [2.0, 0.0]}))
    V = sample_graph(g, with_tangents=False)
    assert density_ratio(V, np.zeros(4), 0.25) == pytest.approx(1.0,
                                                                abs=0.02)


def test_density_four_half_lines_vertex_is_two():
    g = generate(FixtureSpec("four_half_planes", 1 / 256, radius=1.0))
    V = sample_graph(g, with_tangents=False)
    assert density_ratio(V, np.zeros(3), 0.25) == pytest.approx(2.0,
                                                                abs=0.02)


def test_density_transverse_pair_off_axis():
    C = cone_fixture("transverse_pair_r4")
    V = sample_cone(C, 60000, radius=2.0)
    X = np.array([1.0, 0.0, 0.0, 0.0])  # on P1 only, away from the axis
    assert density_ratio(V, X, 0.2) == pytest.approx(1.0, abs=0.05)


def test_density_monotone_in_radius_on_stationary_fixtures():
    g = generate(FixtureSpec("four_half_planes", 1 / 256, radius=1.0))
    V = sample_graph(g, with_tangents=False)
    radii, ratios = density_profile(V, np.zeros(3), 0.5)
    # ball-count quantization is about h/(2 rho), so only radii with
    # quantization below the 2% slack are comparable
    usable = [(rho, ratio) for rho, ratio in zip(radii, ratios)
              if V.resolution / (2 * rho) < 0.015]
    assert len(usable) >= 2
    for (_, larger), (_, smaller) in zip(usable, usable[1:]):
        assert smaller <= larger * 1.02

    C = cone_fixture("transverse_pair_r4")
    W = sample_cone(C, 60000, radius=2.0)
    _, ratios = density_profile(W, np.zeros(4), 1.0)
    for larger, smaller in zip(ratios, ratios[1:]):
        assert smaller <= larger * 1.02


def test_density_rejects_tiny_radius():
    V = sample_graph(_double_plane(), with_tangents=False)
    with pytest.raises(ValueError):
        density_ratio(V, np.zeros(3), 1e-6)


def test_axis_tilt_zero_on_cone():
    C = cone_fixture("four_half_planes_r4")
    V = sample_cone(C, 4000, radius=2.0)
    val = axis_tilt(V, C, Ball(np.zeros(4), 1.0))
    assert val == pytest.approx(0.0, abs=1e-10)


def test_axis_tilt_closed_form_single_plane():
    # multiplicity-two plane tilted by angle phi against the axis direction
    phi = 0.2

    def fn(pts):
        v = np.tan(phi) * pts[:, :1]
        return v, v
    g = TwoValuedGrid.from_function(fn, 2, 1, 1.0, 1 / 64)
    V = sample_graph(g)
    axis = Subspace(np.array([[1.0, 0.0, 0.0]]))
    C = cone_fixture("four_half_planes_r3")
    # reuse the varifold machinery directly: tilt of the x-axis against the
    # tilted graph tangent is sin(phi) at every sample
    from mintwo.varifold import axis_tilt as tilt
    val = tilt(V, _cone_with_axis(axis), Ball(np.zeros(3), 1.0))
    mass = float(V.weights[Ball(np.zeros(3), 1.0).contains(V.points)].sum())
    expected = mass * np.sin(phi) ** 2
    assert val == pytest.approx(expected, rel=0.02)


def _cone_with_axis(axis):
    # thin wrapper: a four-half-plane cone sharing the requested axis is
    # overkill; axis_tilt only reads C.axis(), so any cone with that axis
    # works.  Build a pair whose intersection is the axis.
    from mintwo.cones import Cone
    P1 = Subspace(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    P2 = Subspace(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    C = Cone.pair(P1, P2)
    assert C.axis() == axis
    return C


def test_axis_tilt_requires_tangents():
    C = cone_fixture("four_half_planes_r4")
    V = sample_cone(C, 2000, radius=2.0)
    W = SampledVarifold(V.n, V.k, V.points, V.weights)
    with pytest.raises(ValueError):
        axis_tilt(W, C, Ball(np.zeros(4), 1.0))


def test_tree_built_once_through_module_name(monkeypatch):
    # ``mintwo.varifold.cKDTree`` is the one place a cloud builds its tree
    import mintwo.varifold as varifold
    built = []

    def counting(points):
        built.append(len(points))
        return build(points)

    build = varifold.cKDTree
    monkeypatch.setattr(varifold, "cKDTree", counting)
    V = sample_cone(cone_fixture("transverse_pair_r4"), 2000, radius=2.0)
    first = density_ratio(V, np.zeros(4), 0.5)
    assert density_ratio(V, np.zeros(4), 0.5) == first
    assert built == [len(V.weights)]



_CHUNK_FIXTURES = {
    "lo_two_valued": FixtureSpec("lo_two_valued", 1 / 8),
    "lo_two_valued_coarse": FixtureSpec("lo_two_valued", 1 / 4),
    "branched_w32": FixtureSpec("branched_w32", 1 / 16),
    "holo_pair_curved_r1": FixtureSpec("holo_pair_curved", 1 / 16),
    "holo_pair_curved_r2.5": FixtureSpec("holo_pair_curved", 1 / 4,
                                         radius=2.5),
    "four_half_planes": FixtureSpec("four_half_planes", 1 / 32),
    "pair_planes": FixtureSpec(
        "pair_planes", 1 / 16, params={"g1": [[0.0, 0.0], [0.0, 0.0]],
                                       "g2": [[1.0, 0.0], [0.0, 1.0]]}),
}


# chunks of 1 and 7 cells cost a Python iteration each, so the 4-d grid at
# h=1/8 (about 15,000 cells) takes them at h=1/4 and, at h=1/8, chunks of
# 1000 (a short last chunk) and of more than m
@pytest.mark.parametrize("name", sorted(_CHUNK_FIXTURES))
@pytest.mark.parametrize("with_tangents", [True, False])
def test_sample_graph_chunk_invariant(name, with_tangents, monkeypatch):
    import mintwo.varifold as varifold
    g = generate(_CHUNK_FIXTURES[name])
    ref = sample_graph(g, with_tangents=with_tangents)
    m = len(ref.weights) // 2
    assert m > 1
    assert np.array_equal(ref.sheet, np.repeat([0, 1], m))
    assert ref.sheet.dtype == np.int8
    if with_tangents:
        # stored in the batched-QR order, which einsum contractions over
        # the tangents follow bit for bit
        assert ref.tangents.transpose(0, 2, 1).flags.c_contiguous
    chunks = [1000, m + 1] if name == "lo_two_valued" else [1, 7, m + 1]
    for chunk in chunks:
        monkeypatch.setattr(varifold, "_CHUNK", chunk)
        V = sample_graph(g, with_tangents=with_tangents)
        for field in ("points", "weights", "tangent_ok", "sheet"):
            assert np.array_equal(getattr(V, field), getattr(ref, field))
        if not with_tangents:
            assert V.tangents is None
            continue
        assert np.array_equal(V.tangents, ref.tangents)
        long_axes = [ax for ax in range(3) if V.tangents.shape[ax] > 1]
        assert ([V.tangents.strides[ax] for ax in long_axes]
                == [ref.tangents.strides[ax] for ax in long_axes])


@pytest.mark.parametrize("radius", [0.3, 0.75])
def test_sample_graph_base_ball_keeps_rows_of_full_cloud(radius):
    # the samples whose graph point X lies outside the base ball in
    # R^(n+k) are left out; every row kept is the full cloud's row, bit
    # for bit and in the same order
    g = generate(FixtureSpec("lo_two_valued", 1 / 8))
    full = sample_graph(g)
    V = sample_graph(g, base_radius=radius)
    keep = np.linalg.norm(full.points, axis=-1) <= radius
    assert 0 < len(V.weights) < len(full.weights)
    for field in ("points", "weights", "tangent_ok", "sheet", "tangents"):
        got, want = getattr(V, field), getattr(full, field)[keep]
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    assert V.tangents.strides == full.tangents.strides
    assert (V.resolution, V.patch_radius) == (full.resolution,
                                              full.patch_radius)


@pytest.mark.parametrize("radius", [0.5, 0.5 + 2 / 8])
def test_sample_graph_base_ball_keeps_first_variation(radius):
    # every verify-stationary field vanishes outside |X| < 0.5, so a cloud
    # cut to a ball that holds that support sums the same terms in the
    # same order as the full cloud
    g = generate(FixtureSpec("lo_two_valued", 1 / 8))
    full = sample_graph(g)
    V = sample_graph(g, base_radius=radius)
    d = g.n + g.k
    fields = [BumpField("radial_bump", np.zeros(d), 0.5)]
    fields += [BumpField("coordinate_bump", np.zeros(d), 0.5, direction=e)
               for e in np.eye(d)]
    assert len(fields) == 8
    for f in fields:
        want = first_variation_defect(full, [f], max_unreliable=1.0)
        got = first_variation_defect(V, [f], max_unreliable=1.0)
        assert got.hex() == want.hex()


def test_sample_graph_transient_memory(monkeypatch):
    # Beyond the returned cloud, sampling holds the slab window, one
    # slab's evaluation and one block of gradients.  A quarter of the
    # cloud is a loose bound on that; full-box gradient arrays (the former
    # implementation) take about three times the cloud on this grid.
    import mintwo.varifold as varifold
    monkeypatch.setattr(varifold, "_CHUNK", 256)
    g = generate(FixtureSpec("lo_two_valued", 1 / 8))
    V, peak = traced_peak(sample_graph, g)
    cloud = sum(a.nbytes for a in (V.points, V.weights, V.tangents,
                                   V.tangent_ok, V.sheet))
    assert peak - cloud < cloud / 4


def test_sample_graph_transient_memory_finite_radius(monkeypatch):
    # The finite-radius path adds the kept cells and their keep flags to
    # what the path above holds, and fills the cloud at its final size.
    # The slab window and a slab's evaluation do not depend on the
    # radius, so the radius keeps most of the cloud (23,472 of 29,996
    # samples) for the cloud to outweigh them; concatenating per-chunk
    # pieces, or compacting arrays sized for every candidate cell, would
    # hold about a cloud more.
    import mintwo.varifold as varifold
    monkeypatch.setattr(varifold, "_CHUNK", 256)
    g = generate(FixtureSpec("lo_two_valued", 1 / 8))
    V, peak = traced_peak(sample_graph, g, base_radius=1.3)
    assert 0 < len(V.weights) < 29_996
    cloud = sum(a.nbytes for a in (V.points, V.weights, V.tangents,
                                   V.tangent_ok, V.sheet))
    assert peak - cloud < cloud / 4


def test_sample_graph_holds_no_grid_of_values():
    # a closed-form 4-d grid is read slab by slab: beyond the returned
    # cloud, building and sampling it holds far less than the grid's two
    # value arrays (54.3 MiB here), which are never filled
    def build():
        g = generate(FixtureSpec("lo_two_valued", 1 / 16))
        return g, sample_graph(g, base_radius=0.5 + 2 * g.h)
    (g, V), peak = traced_peak(build)
    assert "_values" not in vars(g)
    # the cells whose midpoint lies in the base ball hold 99,296 samples;
    # those with |X| <= 0.5 + 2h in R^7 are about a fifth of them
    assert len(V.weights) < 99_296 / 4
    cloud = sum(a.nbytes for a in (V.points, V.weights, V.tangents,
                                   V.tangent_ok, V.sheet))
    assert peak - cloud < (g.a1.nbytes + g.a2.nbytes) / 2
