"""The nearest-sample index against brute force and SciPy's KD-tree, and
the ball masses of ``density_ratio`` against brute force.

Clouds are drawn on a coarse integer lattice, so duplicate samples and
queries at exactly equal distances from several samples are common.  The
brute-force reference accumulates each squared distance in coordinate
order, ((dx0^2 + dx1^2) + dx2^2) + ..., as the index and
``density_ratio`` do.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mintwo.varifold as varifold
from mintwo.fixtures import FixtureSpec, generate
from mintwo.geometry import unit_ball_volume
from mintwo.varifold import (GraphPoints, SampleIndex, SampledVarifold,
                             density_ratio, sample_graph)

from memory import traced_peak


def _brute_d2(P, Y):
    d2 = np.zeros((len(Y), len(P)))
    for i in range(P.shape[1]):
        diff = P[None, :, i] - Y[:, None, i]
        d2 += diff * diff
    return d2


@st.composite
def _cloud_and_queries(draw):
    d = draw(st.integers(2, 7))
    m = draw(st.integers(1, 300))
    step = draw(st.sampled_from([1.0, 0.5, 0.1, 1e-3]))
    lattice = st.integers(-3, 3).map(lambda v: v * step)
    P = draw(hnp.arrays(float, (m, d), elements=lattice))
    # repeat some samples exactly
    for src, dst in draw(st.lists(st.tuples(st.integers(0, m - 1),
                                            st.integers(0, m - 1)),
                                  max_size=10)):
        P[dst] = P[src]
    on_lattice = draw(hnp.arrays(float, (draw(st.integers(1, 20)), d),
                                 elements=lattice))
    anywhere = draw(hnp.arrays(float, (draw(st.integers(0, 10)), d),
                               elements=st.floats(-50, 50)))
    return P, np.concatenate([on_lattice, anywhere, P[:5]])


# 40 makes blocks of one leaf and of five boxes
_CHUNKS = st.sampled_from([40, 1 << 13])


# grid spacings per domain dimension n, so that a cloud has at most a few
# thousand samples
_SPACINGS = {2: [1 / 8, 0.1, 1 / 16], 3: [1 / 8, 0.2], 4: [0.25, 0.2]}


@st.composite
def _graph_cloud_and_queries(draw, dims=tuple(sorted(_SPACINGS))):
    # a plane pair over R^n, n = 2, 3 or 4, in R^(n+k), with gradients on
    # a grid of quarters, so that the two sheets often coincide (duplicate
    # samples, always when g2 = g1) and queries often lie at equal
    # distances from several samples; the ball's edge leaves partial
    # tiles, a finite base radius keeps different cells on the two
    # sheets, and some queries lie far outside the data, as the uncovered
    # part of a rung-0 cylinder does
    n = draw(st.sampled_from(dims))
    k = draw(st.sampled_from([1, 2]))
    quarter = st.integers(-4, 4).map(lambda v: v / 4)
    g1 = draw(hnp.arrays(float, (k, n), elements=quarter))
    g2 = (g1 if draw(st.booleans())
          else draw(hnp.arrays(float, (k, n), elements=quarter)))
    h = draw(st.sampled_from(_SPACINGS[n]))
    radius = 1.0 if n == 4 else draw(st.sampled_from([0.5, 1.0]))
    spec = FixtureSpec("pair_planes", h, radius,
                       {"g1": g1.tolist(), "g2": g2.tolist()})
    V = sample_graph(generate(spec), with_tangents=False,
                     base_radius=draw(st.sampled_from([np.inf, 0.6])))
    P = V.points_at(slice(None))
    assume(len(P) > 0)
    d = n + k
    at = draw(st.lists(st.integers(0, len(P) - 1), min_size=1, max_size=20))
    offsets = draw(hnp.arrays(float, (len(at), d),
                              elements=quarter.map(lambda v: v * h)))
    anywhere = draw(hnp.arrays(float, (draw(st.integers(0, 10)), d),
                               elements=st.floats(-2, 2)))
    far = draw(hnp.arrays(float, (draw(st.integers(0, 3)), d),
                          elements=st.floats(-50, 50)))
    return V, np.concatenate([P[at], P[at] + offsets, anywhere, far])


# a graph cloud's stored coordinates, which an index reads by lattice tiles
_GRAPH_POINTS = _graph_cloud_and_queries().map(lambda VY: (VY[0]._points,
                                                           VY[1]))


@settings(max_examples=60, deadline=None)
@given(data=st.one_of(_cloud_and_queries(), _GRAPH_POINTS), chunk=_CHUNKS)
def test_query_matches_brute_force(data, chunk):
    P, Y = data
    with mock.patch.object(varifold, "_CHUNK", chunk):
        dist, idx = SampleIndex(P).query(Y)
    d2 = _brute_d2(P[:], Y)
    first = d2.argmin(axis=1)  # the lowest index among exact ties
    assert np.array_equal(idx, first)
    assert np.array_equal(dist, np.sqrt(d2[np.arange(len(Y)), first]))


@settings(max_examples=60, deadline=None)
@given(data=_cloud_and_queries())
def test_query_distances_match_kdtree(data):
    spatial = pytest.importorskip("scipy.spatial")
    P, Y = data
    want, _ = spatial.cKDTree(P).query(Y)
    assert np.array_equal(SampleIndex(P).query(Y)[0], want)


@settings(max_examples=40, deadline=None)
@given(data=_graph_cloud_and_queries(), chunk=_CHUNKS)
def test_graph_points_index_matches_array_index(data, chunk):
    # an index over a graph cloud's cells and values answers as one over
    # its materialized coordinates, bit for bit, ties included
    V, Y = data
    with mock.patch.object(varifold, "_CHUNK", chunk):
        graph = V.tree()
        whole = SampleIndex(V.points_at(slice(None)))
        got, want = graph.query(Y), whole.query(Y)
    assert isinstance(graph.points, GraphPoints)
    assert isinstance(graph.leaves, varifold._TileLeaves)
    assert got[0].tobytes() == want[0].tobytes()
    assert np.array_equal(got[1], want[1])


@settings(max_examples=60, deadline=None)
@given(data=_cloud_and_queries(), chunk=_CHUNKS,
       r=st.sampled_from([0.1, 0.5, 1.0, 2.5, 100.0]),
       spread=st.booleans())
def test_density_matches_brute_force(data, chunk, r, spread):
    # the mass of the closed ball about each query point, summed in
    # ascending sample order, bit for bit; the stored points, which
    # density_ratio reads as views, are left as they were
    P, Y = data
    W = np.linspace(0.1, 3.7, len(P)) ** 2 if spread else np.ones(len(P))
    V = SampledVarifold(1, P.shape[1] - 1, P, W)
    stored = P.copy()
    inside = _brute_d2(P, Y) <= r * r
    with mock.patch.object(varifold, "_CHUNK", chunk):
        got = [density_ratio(V, y, r) for y in Y]
    assert got == [float(W[flags].sum()) / (unit_ball_volume(1) * r)
                   for flags in inside]
    assert np.array_equal(P, stored)


@settings(max_examples=40, deadline=None)
@given(data=_graph_cloud_and_queries(dims=(2,)), chunk=_CHUNKS,
       r=st.sampled_from([0.375, 0.5, 1.0, 3.0]))
def test_graph_density_matches_array_density(data, chunk, r):
    # a graph cloud's density equals that of its materialized array cloud
    V, Y = data
    whole = SampledVarifold(V.n, V.k, V.points_at(slice(None)), V.weights,
                            resolution=V.resolution)
    with mock.patch.object(varifold, "_CHUNK", chunk):
        assert ([density_ratio(V, y, r) for y in Y]
                == [density_ratio(whole, y, r) for y in Y])


def test_float32_boxes_keep_a_tie_in_another_leaf():
    # two leaves, x = 0.1 ... 3.2 and their mirror images; the query at 0
    # is seeded in the mirrored leaf, whose sample 32 at x = -0.1 ties
    # with sample 0 at x = 0.1.  A low bound rounded to nearest, up to
    # float32(0.1) > 0.1, would prune sample 0's leaf and answer 32
    Q = np.stack([np.arange(1, 33) * 0.1, np.zeros(32)], axis=1)
    P = np.concatenate([Q, -Q])
    dist, idx = SampleIndex(P).query(np.zeros((1, 2)))
    assert idx.tolist() == [0] and dist.tolist() == [0.1]


def test_float32_boxes_past_float32_range():
    # coordinates past the float32 range give infinite box bounds, which
    # still hold their samples, and no overflow warning
    P = np.array([[1e39, 0.0], [-1e39, 1.0], [0.5, 3.4e38], [0.0, -0.1]])
    Y = np.array([[1e39, 0.5], [0.0, 0.0], [-2e39, 4e38], [0.5, 3e38]])
    dist, idx = SampleIndex(P).query(Y)
    d2 = _brute_d2(P, Y)
    assert np.array_equal(idx, d2.argmin(axis=1))
    assert np.array_equal(dist, np.sqrt(d2.min(axis=1)))


def test_empty_index():
    index = SampleIndex(np.zeros((0, 3)))
    dist, idx = index.query(np.zeros((2, 3)))
    assert np.array_equal(dist, [np.inf, np.inf])
    assert np.array_equal(idx, [0, 0])


def test_no_query_rows():
    index = SampleIndex(np.zeros((4, 2)))
    dist, idx = index.query(np.zeros((0, 2)))
    assert dist.shape == idx.shape == (0,)


def test_nonfinite_query_rejected():
    index = SampleIndex(np.zeros((4, 2)))
    with pytest.raises(ValueError, match="finite"):
        index.query(np.array([[np.nan, 0.0]]))


def test_index_arrays_near_eight_bytes_per_sample():
    P = np.random.default_rng(0).standard_normal((100_000, 4))
    assert SampleIndex(P).nbytes < 8 * len(P)


@pytest.mark.parametrize("g2", [[[0, 0], [0, 0]], [[2, 0], [0, 1]]])
def test_graph_index_twin_sheets_and_distinct_cells(g2):
    # g2 = g1: the sheets coincide and every sample has a twin at the same
    # point, so each of them is found at distance 0 and the lower index
    # (sheet 0's) wins.  A steep g2: the base ball keeps fewer cells of
    # sheet 1 than of sheet 0, so the sheets' tiles differ.  Queries far
    # outside the data are answered too.
    spec = FixtureSpec("pair_planes", 1 / 16, 1.0,
                       {"g1": [[0, 0], [0, 0]], "g2": g2})
    V = sample_graph(generate(spec), with_tangents=False, base_radius=0.6)
    counts = np.bincount(V.sheet)
    assert (counts[0] == counts[1]) == (g2 == [[0, 0], [0, 0]])
    P = V.points_at(slice(None))
    Y = np.concatenate([P, P + 1 / 32, [[40.0, -3, 0, 7], [0, 0, 0, -60]]])
    dist, idx = V.tree().query(Y)
    d2 = _brute_d2(P, Y)
    first = d2.argmin(axis=1)
    assert np.array_equal(idx, first)
    assert np.array_equal(dist, np.sqrt(d2[np.arange(len(Y)), first]))
    if counts[0] == counts[1]:
        assert np.array_equal(idx[:len(P)], np.arange(len(P)) % counts[0])


@pytest.fixture(scope="module")
def ladder_cloud():
    # the cloud of the decay_ladder benchmark: h = 1/256, 409,972 samples
    return sample_graph(generate(FixtureSpec("holo_pair_curved", 1 / 256)),
                        with_tangents=False)


def test_graph_index_near_two_bytes_per_sample(ladder_cloud):
    # lattice-tile leaves keep each leaf's runs of rows (20 bytes a leaf
    # of up to 32 samples in 2-d) and the float32 boxes: no order and no
    # code per sample, where the Morton leaves of an array cloud take 4
    # bytes a sample more
    index = ladder_cloud.tree()
    m = len(ladder_cloud.weights)
    held = [index.leaves.starts, index.leaves.lengths]
    held += [a for box in index.boxes for a in box]
    assert all(a.size <= m // 4 for a in held)
    assert index.nbytes == sum(a.nbytes for a in held)
    assert index.nbytes <= 2 * m


@pytest.mark.parametrize("chunk", [40, 1 << 13])
def test_float32_boxes_on_faces_and_ties(chunk, monkeypatch):
    # the boxes are float32, rounded outward: each holds its samples,
    # whose coordinates (multiples of 0.1) are no float32, and each bound
    # is the float32 next to the samples' extreme.  Queries on the faces
    # of the leaf boxes (the stored float32 faces and the samples' own
    # extremes), and queries equidistant from every sample and its mirror
    # image, get the brute-force answer bit for bit, the lower index on a
    # tie
    monkeypatch.setattr(varifold, "_CHUNK", chunk)
    Q = np.random.default_rng(3).integers(-30, 31, (300, 3)) * 0.1
    P = np.concatenate([Q, Q * [-1, 1, 1]])
    index = SampleIndex(P)
    lo, hi = index.boxes[0]
    assert lo.dtype == hi.dtype == np.float32
    pts = P[index.leaves.rows(np.arange(index.leaves.count))[0]]
    low, high = pts.min(axis=1).T, pts.max(axis=1).T
    up, down = np.float32(np.inf), np.float32(-np.inf)
    assert (lo <= low).all() and (np.nextafter(lo, up) > low).all()
    assert (hi >= high).all() and (np.nextafter(hi, down) < high).all()
    assert (lo < low).any() and (hi > high).any()
    faces = []
    centre = (lo.T.astype(float) + hi.T) / 2
    for face in (lo, hi, low, high):
        for i in range(3):
            Y = centre.copy()
            Y[:, i] = face[i]
            faces.append(Y)
    mirror = Q[:100] * [0, 1, 1] + [0, 0.05, -0.05]
    Y = np.concatenate(faces + [mirror])
    dist, idx = index.query(Y)
    d2 = _brute_d2(P, Y)
    first = d2.argmin(axis=1)
    assert np.array_equal(idx, first)
    assert np.array_equal(dist, np.sqrt(d2[np.arange(len(Y)), first]))
    assert (idx[-len(mirror):] < len(Q)).all()


@pytest.mark.parametrize("chunk", [1 << 10, 1 << 13])
def test_query_transient_memory(chunk, monkeypatch):
    # a query's working set is a few blocks of _CHUNK pairs per level of
    # the hierarchy, whatever the cloud size and the distances, plus its
    # outputs; the cloud (a 2-d surface in R^4) is 6.4 MB
    monkeypatch.setattr(varifold, "_CHUNK", chunk)
    rng = np.random.default_rng(1)
    u = rng.uniform(-1, 1, (200_000, 2))
    P = np.column_stack([u, u[:, :1] * u[:, 1:], np.sin(3 * u[:, :1])])
    index = SampleIndex(P)
    near = P[rng.integers(0, len(P), 1000)] + 1e-3
    spread = rng.uniform(-2, 2, (1000, 4))
    index.query(spread[:10])
    for Y in (np.full((1, 4), 1e3), np.array([[3.0, 0, 0, 0]]), near,
              spread):
        _, peak = traced_peak(index.query, Y)
        assert peak < 16 * 8 * chunk + 32 * len(Y)


@pytest.mark.parametrize("d", [2, 4, 7])
def test_build_transient_memory(d, monkeypatch):
    # the Morton codes (8 bytes a sample) are freed before the int64
    # order (8 bytes) is narrowed to the int32 one (4 bytes), so beyond
    # the points the build never holds more than two arrays of 8 bytes a
    # sample, plus the boxes it keeps and the Morton work of one block
    # (three arrays of d numbers a sample); holding the codes and both
    # orders took 20 bytes a sample
    chunk = 1 << 10
    monkeypatch.setattr(varifold, "_CHUNK", chunk)
    P = np.random.default_rng(d).standard_normal((100_000, d))
    index, peak = traced_peak(SampleIndex, P)
    boxes = sum(lo.nbytes + hi.nbytes for lo, hi in index.boxes)
    assert peak < 16 * len(P) + boxes + 3 * chunk * d * 8


@pytest.mark.parametrize("chunk", [1 << 10, 1 << 13])
def test_graph_build_transient_memory(chunk, ladder_cloud, monkeypatch):
    # a graph cloud's build reads the cells one block at a time and sorts
    # runs of up to 8 cells, not samples: beyond the index it keeps, it
    # holds less than 2 bytes a sample and a few blocks, so no array of
    # one int16 or more per sample (the Morton build of the same cloud
    # held 16 bytes a sample and kept a 4-byte order)
    monkeypatch.setattr(varifold, "_CHUNK", chunk)
    index, peak = traced_peak(SampleIndex, ladder_cloud._points)
    assert isinstance(index.leaves, varifold._TileLeaves)
    m, d = index.points.shape
    assert peak < index.nbytes + 2 * m + 3 * chunk * d * 8
