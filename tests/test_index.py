"""The nearest-sample index against brute force and SciPy's KD-tree.

Clouds are drawn on a coarse integer lattice, so duplicate samples and
queries at exactly equal distances from several samples are common.  The
brute-force reference accumulates each squared distance in coordinate
order, ((dx0^2 + dx1^2) + dx2^2) + ..., as the index does.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mintwo.varifold as varifold
from mintwo.varifold import SampleIndex


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


@settings(max_examples=60, deadline=None)
@given(data=_cloud_and_queries(), chunk=_CHUNKS)
def test_query_matches_brute_force(data, chunk):
    P, Y = data
    with mock.patch.object(varifold, "_CHUNK", chunk):
        dist, idx = SampleIndex(P).query(Y)
    d2 = _brute_d2(P, Y)
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


@settings(max_examples=60, deadline=None)
@given(data=_cloud_and_queries(), chunk=_CHUNKS,
       r=st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.5, 100.0]))
def test_ball_matches_brute_force(data, chunk, r):
    P, Y = data
    with mock.patch.object(varifold, "_CHUNK", chunk):
        index = SampleIndex(P)
        rows = index.query_ball_point(Y, r)
        one = index.query_ball_point(Y[0], r)
    inside = _brute_d2(P, Y) <= r * r
    assert len(rows) == len(Y)
    for got, want in zip(rows, inside):
        assert np.array_equal(got, np.flatnonzero(want))
    assert np.array_equal(one, rows[0])


def test_empty_index():
    index = SampleIndex(np.zeros((0, 3)))
    dist, idx = index.query(np.zeros((2, 3)))
    assert np.array_equal(dist, [np.inf, np.inf])
    assert np.array_equal(idx, [0, 0])
    assert len(index.query_ball_point(np.zeros(3), 1.0)) == 0


def test_no_query_rows():
    index = SampleIndex(np.zeros((4, 2)))
    dist, idx = index.query(np.zeros((0, 2)))
    assert dist.shape == idx.shape == (0,)
    assert index.query_ball_point(np.zeros((0, 2)), 1.0) == []


def test_nonfinite_query_rejected():
    index = SampleIndex(np.zeros((4, 2)))
    with pytest.raises(ValueError, match="finite"):
        index.query(np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError, match="finite"):
        index.query_ball_point(np.array([np.inf, 0.0]), 1.0)


def test_index_arrays_near_eight_bytes_per_sample():
    P = np.random.default_rng(0).standard_normal((100_000, 4))
    assert SampleIndex(P).nbytes < 8 * len(P)


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
    index.query_ball_point(spread[:10], 0.1)
    for Y in (np.full((1, 4), 1e3), np.array([[3.0, 0, 0, 0]]), near,
              spread):
        tracemalloc.start()
        try:
            index.query(Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 8 * chunk + 32 * len(Y)
