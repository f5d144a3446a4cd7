import hashlib

import numpy as np
import pytest

from mintwo.cones import Cone
from mintwo.excess import dist_to_varifold
from mintwo.fixtures import FixtureSpec, cone_fixture, generate
from mintwo.geometry import Ball, Subspace
from mintwo.stationarity import BumpField, first_variation_defect
from mintwo.twovalued import TwoValuedGrid, lipschitz_estimate
from mintwo.varifold import (SampledVarifold, axis_tilt, density_profile,
                             density_ratio, sample_cone, sample_graph)

from memory import traced_held, traced_peak


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


@pytest.mark.parametrize("X, expected", [
    ((0.0, 0.5, 0.0, 0.0), 2.0),   # on the axis span{e2}
    ((0.5, 0.5, 0.0, 0.0), 1.0)],  # on P1 only, 0.5 from the axis
    ids=["axis", "off_axis"])
def test_density_pair_meeting_in_a_line(X, expected):
    # span{e1, e2} and span{e2, e3} meet in the line span{e2}: the
    # density >= 2 set that the decay ladder's gate looks for is that line
    P1 = Subspace(np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]]))
    P2 = Subspace(np.array([[0, 1.0, 0, 0], [0, 0, 1.0, 0]]))
    V = sample_cone(Cone.pair(P1, P2), 40000, radius=1.5)
    assert density_ratio(V, np.array(X), 0.2) == pytest.approx(expected,
                                                               abs=0.05)


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


@pytest.mark.parametrize("rho", [-1.0, 0.0, np.nan, np.inf])
def test_density_rejects_radius_not_positive_finite(rho):
    # a cloud without a resolution has no floor to catch these radii
    V = SampledVarifold(1, 1, np.zeros((3, 2)), np.ones(3))
    with pytest.raises(ValueError, match="rho must be positive and finite"):
        density_ratio(V, np.zeros(2), rho)


@pytest.mark.parametrize("X", [[0.0, np.nan, 0.0], [np.inf, 0.0, 0.0],
                               [0.0, 0.0], [[0.0, 0.0, 0.0]]])
def test_density_rejects_centre_off_ambient_space(X):
    V = sample_graph(_double_plane(1 / 16), with_tangents=False)
    with pytest.raises(ValueError, match="finite point of R"):
        density_ratio(V, np.array(X), 0.5)


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
    # ``mintwo.varifold.cKDTree`` is the one place a cloud builds its tree,
    # on its first nearest-sample query; a density reads the cloud in one
    # pass and builds none
    import mintwo.varifold as varifold
    built = []

    def counting(points):
        built.append(len(points))
        return build(points)

    build = varifold.cKDTree
    monkeypatch.setattr(varifold, "cKDTree", counting)
    V = sample_cone(cone_fixture("transverse_pair_r4"), 2000, radius=2.0)
    density_ratio(V, np.zeros(4), 0.5)
    assert built == []
    Y = np.eye(4)
    first = dist_to_varifold(V, Y)
    assert built == [len(V.weights)]
    assert np.array_equal(dist_to_varifold(V, Y), first)
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
    assert ref.tangents is None
    if with_tangents:
        # the frames come in the batched-QR order, which einsum
        # contractions over them follow bit for bit
        assert ref.gradients.flags.c_contiguous
        assert ref.frames(slice(None)).transpose(0, 2, 1).flags.c_contiguous
    chunks = [1000, m + 1] if name == "lo_two_valued" else [1, 7, m + 1]
    for chunk in chunks:
        monkeypatch.setattr(varifold, "_CHUNK", chunk)
        V = sample_graph(g, with_tangents=with_tangents)
        for field in ("points", "weights", "tangent_ok", "sheet"):
            assert np.array_equal(getattr(V, field), getattr(ref, field))
        if not with_tangents:
            assert V.gradients is None and not V.has_frames
            continue
        assert V.gradients.tobytes() == ref.gradients.tobytes()
        assert V.gradients.strides == ref.gradients.strides


def test_sample_graph_derives_the_cells_once(monkeypatch):
    # the first walk keeps every slab's cells, and the second walk reads
    # them back: the cell list is derived once per slab, with or without
    # a base radius
    import mintwo.varifold as varifold
    from mintwo.twovalued import SlabWindow
    g = generate(FixtureSpec("holo_pair_curved", 1 / 64))
    slabs = len(SlabWindow(g).spans)
    assert slabs > 1
    calls = []
    candidate_blocks = varifold._candidate_blocks

    def spy(*args):
        calls.append(args[3])
        return candidate_blocks(*args)
    monkeypatch.setattr(varifold, "_candidate_blocks", spy)
    for radius in (np.inf, 0.5):
        calls.clear()
        sample_graph(g, base_radius=radius)
        assert len(calls) == slabs
        assert len({span.start for span in calls}) == slabs


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
    for field in ("points", "weights", "tangent_ok", "sheet", "gradients"):
        got, want = getattr(V, field), getattr(full, field)[keep]
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    assert V.gradients.strides == full.gradients.strides
    assert (V.resolution, V.patch_radius) == (full.resolution,
                                              full.patch_radius)


@pytest.mark.parametrize("fixture,params", [
    ("holo_pair_curved", {"a": 1.0, "b": 1.0}),
    ("pair_planes", {"g1": [[0.3, -0.2, 0.1]], "g2": [[-0.4, 0.5, 0.2]]})])
def test_sample_graph_of_box_equals_whole_grid(fixture, params):
    # a box that covers the base ball by one cell more gives the whole
    # grid's samples bit for bit, at a spacing that is no power of two and
    # a radius that is no multiple of it; its Lipschitz estimate is taken
    # over fewer nodes, so it can only trust more tangents
    g = generate(FixtureSpec(fixture, 0.03, 0.7, params))
    base = 0.5 + g.h * np.sqrt(g.n)
    box = g.box(base + g.h)
    assert box.dims[0] < g.dims[0]
    assert lipschitz_estimate(box) <= lipschitz_estimate(g)
    full = sample_graph(g, base_radius=base)
    V = sample_graph(box, base_radius=base)
    assert len(V.weights) > 0
    for field in ("points", "weights", "sheet", "gradients"):
        got, want = getattr(V, field), getattr(full, field)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    assert V.gradients.strides == full.gradients.strides
    assert not (full.tangent_ok & ~V.tangent_ok).any()


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
    want = first_variation_defect(full, fields, max_unreliable=1.0)
    got = first_variation_defect(V, fields, max_unreliable=1.0)
    assert [d.hex() for d in got] == [d.hex() for d in want]


# bytes of a 4-d sample (n=4, k=3) with its point, weight, flag, sheet
# and a 4 x 7 frame, as the cloud once stored it
_FRAMED_SAMPLE = 8 * 7 + 8 + 1 + 1 + 8 * 4 * 7


def test_sample_graph_transient_memory(monkeypatch):
    # Beyond the returned cloud, sampling holds the slab window, one
    # slab's evaluation and one block of gradients.  A quarter of the
    # bytes of a sample with a frame (_FRAMED_SAMPLE / 4, a quarter of the
    # cloud when it stored frames) is a loose bound on that; full-box
    # gradient arrays (the former implementation) take about three times
    # such a cloud on this grid.
    import mintwo.varifold as varifold
    monkeypatch.setattr(varifold, "_CHUNK", 256)
    g = generate(FixtureSpec("lo_two_valued", 1 / 8))
    V, peak = traced_peak(sample_graph, g)
    assert peak - V.nbytes < len(V.weights) * _FRAMED_SAMPLE / 4


def test_sample_graph_transient_memory_finite_radius(monkeypatch):
    # The finite-radius path adds the keep flags of the kept cells to
    # what the path above holds, and fills the cloud at its final size.
    # The slab window and a slab's evaluation do not depend on the
    # radius, so the radius keeps most of the cloud (23,472 of 29,996
    # samples) for the bound of the path above to outweigh them;
    # concatenating per-chunk pieces, or compacting arrays sized for every
    # candidate cell, would hold about a cloud more.
    import mintwo.varifold as varifold
    monkeypatch.setattr(varifold, "_CHUNK", 256)
    g = generate(FixtureSpec("lo_two_valued", 1 / 8))
    V, peak = traced_peak(sample_graph, g, base_radius=1.3)
    assert 0 < len(V.weights) < 29_996
    assert peak - V.nbytes < len(V.weights) * _FRAMED_SAMPLE / 4


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
    assert peak - V.nbytes < (g.a1.nbytes + g.a2.nbytes) / 2


_PAIR = {"g1": [[0.3, -0.2], [0.1, 0.0]], "g2": [[-0.4, 0.5], [0.2, 0.1]]}

# SHA-256 of the (m, n+k) coordinate array of closed-form fixture clouds,
# recorded when sample_graph stored every sample's coordinates whole:
# (fixture, h, radius, params, base_radius, with_tangents) -> hash
_POINTS_SHA256 = [
    (("pair_planes", 1 / 16, 1.0, _PAIR, np.inf, True),
     "bced60fa493286f25db112645b19f9454d3a0d5aff257dd707395db20d2ec393"),
    (("pair_planes", 0.1, 1.3, _PAIR, 0.9, False),
     "6a35bb7f1df9dbb9c73447a918f24382ee6961f2eaced7c08614d23a6e3186ac"),
    (("four_half_planes", 1 / 32, 1.0, None, np.inf, False),
     "c5f9469290fe40a7dbba0833d6af5fa57587b088b59d65e2792c853e454d2489"),
    (("hopf_lo_cone", 1 / 4, 1.0, None, np.inf, True),
     "a5871e300d65fe0243cb0fff0518dd939e5449422e8152f37dfdc13c3d6b49a8"),
    (("lo_two_valued", 1 / 8, 1.0, None, 0.75, True),
     "a5e28d8132128d944b3827d1ff282c4912a046ee616fb4717828502587151e75"),
    (("lo_two_valued", 1 / 4, 1.0, None, np.inf, False),
     "6eaec093cd01a9b83d3ffe452a77196fa9e00e9f728f06d023144c88902becaa"),
    (("branched_w32", 1 / 16, 1.0, None, np.inf, False),
     "c556e0b61c64ee41b4bfc8c907128c64a29d42eb134ac8bc5e9b763d9c955bc3"),
    (("holo_pair_curved", 1 / 32, 1.0, None, 0.5, False),
     "77708911c53cdda7e3570e3b841b58f9dd685489831c9ce9a962524182e3cfdd"),
    (("holo_pair_curved", 0.03, 0.7, {"a": 1.0, "b": 1.0}, np.inf, True),
     "386b59c59aff4a8d0013d6c839165c4367dbf14b8c46e0d94b7330be9f518a08"),
    (("tilted_plane", 1 / 16, 1.0, {"slope": 0.5}, np.inf, True),
     "3810d151244f766bb25b386ebfad653c12887fdb449bab917183fdfa536239cf"),
]


@pytest.mark.parametrize("case,sha256", _POINTS_SHA256,
                         ids=["-".join(map(str, c[:2] + c[4:]))
                              for c, _ in _POINTS_SHA256])
def test_points_at_builds_the_stored_coordinates(case, sha256):
    # a graph cloud stores cells and graph values, not midpoints; the rows
    # it builds equal bit for bit the coordinates it once stored, whole or
    # gathered by any index
    fixture, h, radius, params, base, with_tangents = case
    V = sample_graph(generate(FixtureSpec(fixture, h, radius, params)),
                     with_tangents=with_tangents, base_radius=base)
    P = V.points_at(slice(None))
    assert P.dtype == np.float64 and P.flags.c_contiguous
    assert P.shape == (len(V.weights), V.n + V.k)
    assert hashlib.sha256(P.tobytes()).hexdigest() == sha256
    assert np.array_equal(V.points, P)
    rows = np.arange(len(P))[::7]
    block = np.stack([rows[:6], rows[-6:]])
    assert V.points_at(rows).tobytes() == P[rows].tobytes()
    assert V.points_at(block).tobytes() == P[block].tobytes()
    assert V.points_at(V.sheet == 1).tobytes() == P[V.sheet == 1].tobytes()
    assert V.points_at(3).tobytes() == P[3].tobytes()
    # the domain coordinates come from the midpoint tables alone
    for idx in (rows, block, V.sheet == 1, 3, slice(None)):
        assert V.domain_at(idx).tobytes() == P[idx][..., :V.n].tobytes()


def test_domain_at_of_a_cloud_of_points():
    V = sample_cone(cone_fixture("transverse_pair_r4"), 500, radius=2.0)
    rows = np.arange(0, len(V.weights), 5)
    assert np.array_equal(V.domain_at(rows), V.points[rows, :V.n])
    assert V.nbytes == sum(a.nbytes for a in (V.points, V.weights,
                                              V.tangents, V.tangent_ok,
                                              V.sheet))


def test_graph_cloud_holds_30_bytes_a_sample():
    # a sample of a surface in R^4 without tangents holds its two graph
    # values (16 bytes), its int32 cell (4), its weight (8), its
    # tangent_ok flag and its sheet (1 each), and the cloud one midpoint
    # table per axis (4 KiB here).  Beyond those arrays the call holds
    # only the cloud's Python and NumPy objects, about 6 KiB.  With its
    # four coordinates stored whole a sample held 42 bytes
    g = generate(FixtureSpec("holo_pair_curved", 1 / 128))
    assert g.mask.any()  # the ball mask is built outside the call
    V, held = traced_held(sample_graph, g, with_tangents=False)
    m = len(V.weights)
    assert m == 101_990
    tables = sum(t.nbytes for t in V._points.mids)
    assert V.nbytes == 30 * m + tables
    assert held - V.nbytes < 16 * 1024
