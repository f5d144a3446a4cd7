import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mintwo.twovalued as twovalued
import mintwo.varifold as varifold
from mintwo.fixtures import FixtureSpec, generate
from mintwo.twovalued import (TwoValuedGrid, canonical_pair, crossed,
                              holder_seminorm, lattice_edges,
                              lipschitz_estimate, metric_G, metric_G_many,
                              trusted)
from mintwo.excess import dist_to_varifold
from mintwo.varifold import SampledVarifold, sample_graph

from memory import traced_peak


def test_metric_identity():
    a = (np.array([1.0, 2.0]), np.array([-3.0, 0.5]))
    assert metric_G(a, a) == 0.0


def test_metric_k1_example():
    # G({1,3},{2,5}) = min(1+2, 4+1) = 3
    a = (np.array([1.0]), np.array([3.0]))
    b = (np.array([2.0]), np.array([5.0]))
    assert metric_G(a, b) == pytest.approx(3.0)


def test_metric_antipodal_pairs():
    # G({v,-v},{w,-w}) = 2*min(|v-w|, |v+w|)
    rng = np.random.default_rng(7)
    for _ in range(30):
        v = rng.standard_normal(3)
        w = rng.standard_normal(3)
        got = metric_G((v, -v), (w, -w))
        want = 2 * min(np.linalg.norm(v - w), np.linalg.norm(v + w))
        assert got == pytest.approx(want, abs=1e-12)


def test_metric_axioms_random_triples():
    rng = np.random.default_rng(8)
    for _ in range(200):
        k = rng.integers(1, 4)
        a, b, c = (tuple(rng.standard_normal((2, k))) for _ in range(3))
        assert metric_G(a, b) == pytest.approx(metric_G(b, a), abs=1e-12)
        assert metric_G(a, a) == 0.0
        assert metric_G(a, c) <= metric_G(a, b) + metric_G(b, c) + 1e-12


def test_metric_isometry_invariance():
    rng = np.random.default_rng(9)
    for _ in range(20):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        a = tuple(rng.standard_normal((2, 3)))
        b = tuple(rng.standard_normal((2, 3)))
        ra = (a[0] @ q.T, a[1] @ q.T)
        rb = (b[0] @ q.T, b[1] @ q.T)
        assert metric_G(ra, rb) == pytest.approx(metric_G(a, b), abs=1e-10)


def test_metric_many_matches_scalar():
    rng = np.random.default_rng(10)
    a1, a2 = rng.standard_normal((2, 50, 2))
    b1, b2 = rng.standard_normal((2, 50, 2))
    many = metric_G_many(a1, a2, b1, b2)
    for i in range(50):
        assert many[i] == pytest.approx(
            metric_G((a1[i], a2[i]), (b1[i], b2[i])), abs=1e-12)


def test_canonical_pair_is_lexicographic():
    a, b = canonical_pair(np.array([2.0, 0.0]), np.array([1.0, 5.0]))
    assert a[0] <= b[0]


def test_grid_mask_and_nodes():
    g = generate(FixtureSpec("pair_planes", 0.25, radius=1.0,
                             params={"g1": [[0.0]], "g2": [[1.0]]}))
    pts = g.coords[g.mask]
    assert np.all(np.linalg.norm(pts, axis=-1) <= 1.0 + 1e-9)
    assert g.n == 1 and g.k == 1


def test_grid_json_roundtrip():
    g = generate(FixtureSpec("branched_w32", 0.25, radius=1.0))
    text = g.to_json()
    h = TwoValuedGrid.from_json(text)
    assert h.n == g.n and h.k == g.k and h.h == g.h
    assert np.array_equal(h.mask, g.mask)
    assert np.allclose(h.a1[h.mask], g.a1[g.mask])
    assert np.allclose(h.a2[h.mask], g.a2[g.mask])
    # serialization is stable: dumping again gives the same text
    assert h.to_json() == text
    json.loads(text)  # valid JSON


def test_lipschitz_constant_function():
    def fn(pts):
        v = np.zeros((len(pts), 1))
        return v, v + 2.0
    g = TwoValuedGrid.from_function(fn, 2, 1, 1.0, 0.25)
    assert lipschitz_estimate(g) == 0.0


def test_lipschitz_crossing_slopes():
    # f(x) = {m x, -m x}: adjacent nodes straddling 0 force the crossed
    # pairing, giving estimate 2m on a grid symmetric about 0
    m = 1.5

    def fn(pts):
        v = m * pts[:, :1]
        return v, -v
    g = TwoValuedGrid.from_function(fn, 1, 1, 1.0, 0.125)
    assert lipschitz_estimate(g) == pytest.approx(2 * m, rel=1e-9)


def test_lipschitz_branched_bounded():
    g = generate(FixtureSpec("branched_w32", 1 / 32, radius=1.0))
    L = lipschitz_estimate(g)
    assert np.isfinite(L)
    assert L <= 3.1


def test_lipschitz_monotone_under_refinement():
    vals = []
    for h in (1 / 8, 1 / 16, 1 / 32):
        g = generate(FixtureSpec("branched_w32", h, radius=1.0))
        vals.append(lipschitz_estimate(g))
    assert vals[0] <= vals[1] + 1e-12
    assert vals[1] <= vals[2] + 1e-12


def _branched_derivative_grid(h):
    # Df of {w^(3/2), -w^(3/2)} embedded as two complex values
    def fn(pts):
        w = pts[:, 0] + 1j * pts[:, 1]
        d = 1.5 * np.sqrt(w)
        return (np.stack([d.real, d.imag], axis=-1),
                np.stack([-d.real, -d.imag], axis=-1))
    return TwoValuedGrid.from_function(fn, 2, 2, 1.0, h)


def test_holder_half_finite_for_branched_derivative():
    vals = [holder_seminorm(_branched_derivative_grid(h), 0.5)
            for h in (1 / 8, 1 / 16)]
    assert all(np.isfinite(v) for v in vals)
    # stable under refinement
    assert vals[1] <= vals[0] * 1.5


def test_holder_above_half_diverges_for_branched_derivative():
    vals = [holder_seminorm(_branched_derivative_grid(h), 0.6)
            for h in (1 / 8, 1 / 16, 1 / 32)]
    # the sup behaves like h^(-0.1) for this fixture, so growth is slow
    # but strictly monotone under refinement
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > vals[0] * 1.10


def test_holder_linear_is_zero():
    def fn(pts):
        v = pts @ np.array([[1.0, 2.0]]).T
        return v, v + 1.0
    g = TwoValuedGrid.from_function(fn, 2, 1, 1.0, 0.25)
    # derivative of a linear two-valued map is constant
    def dfn(pts):
        v = np.tile([1.0, 2.0], (len(pts), 1))
        return v, v
    dg = TwoValuedGrid.from_function(dfn, 2, 2, 1.0, 0.25)
    assert holder_seminorm(dg, 0.7) == 0.0


def test_holder_rejects_bad_alpha():
    g = _branched_derivative_grid(0.25)
    with pytest.raises(ValueError):
        holder_seminorm(g, 0.0)
    with pytest.raises(ValueError):
        holder_seminorm(g, 1.5)


def _holder_reference(f, alpha):
    # the row-by-row loop holder_seminorm once ran, over every node pair
    idx = f.inside_indices()
    pts = f.coords[tuple(idx.T)]
    v1 = f.a1[tuple(idx.T)]
    v2 = f.a2[tuple(idx.T)]
    best = 0.0
    for i in range(len(idx) - 1):
        d = np.linalg.norm(pts[i + 1:] - pts[i], axis=-1)
        g = metric_G_many(v1[i + 1:], v2[i + 1:],
                          np.broadcast_to(v1[i], v1[i + 1:].shape),
                          np.broadcast_to(v2[i], v2[i + 1:].shape))
        best = max(best, float((g / d ** alpha).max()))
    return best


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), k=st.integers(1, 3),
       cells=st.integers(1, 6), alpha=st.floats(0.05, 1.0),
       block=st.sampled_from([1, 5, 64, 1 << 16]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_holder_blocks_match_row_loop(n, k, cells, alpha, block, seed):
    rng = np.random.default_rng(seed)
    shape = (2 * cells + 1,) * n + (k,)
    g = TwoValuedGrid(n, k, 1.0, 1.0 / cells, rng.standard_normal(shape),
                      rng.standard_normal(shape))
    saved = twovalued._PAIR_BLOCK
    twovalued._PAIR_BLOCK = block
    try:
        got = holder_seminorm(g, alpha)
    finally:
        twovalued._PAIR_BLOCK = saved
    assert got == _holder_reference(g, alpha)


_coords = st.integers(-2, 2).map(float)


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(0, 6), k=st.integers(1, 3), data=st.data())
def test_canonical_pair_orders_lexicographically(rows, k, data):
    pair = st.lists(st.lists(_coords, min_size=k, max_size=k),
                    min_size=rows, max_size=rows)
    a = np.array(data.draw(pair), dtype=float).reshape(rows, k)
    b = np.array(data.draw(pair), dtype=float).reshape(rows, k)
    c1, c2 = canonical_pair(a, b)
    for r in range(rows):
        lo, hi = sorted([tuple(a[r]), tuple(b[r])])
        assert tuple(c1[r]) == lo and tuple(c2[r]) == hi
    s1, s2 = canonical_pair(b, a)
    assert np.array_equal(s1, c1) and np.array_equal(s2, c2)



@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 6), k=st.integers(1, 3), data=st.data())
def test_crossed_flips_under_a_swap_of_either_pair(rows, k, data):
    # small integer coordinates make equal pairing costs common; swapping
    # the stored values of one pair exchanges the two costs, so the mask
    # flips exactly where they differ and a tie stays straight both ways
    pair = st.lists(st.lists(_coords, min_size=k, max_size=k),
                    min_size=rows, max_size=rows)
    a1, a2, b1, b2 = (np.array(data.draw(pair), dtype=float).reshape(rows, k)
                      for _ in range(4))
    straight = (np.linalg.norm(a1 - b1, axis=-1)
                + np.linalg.norm(a2 - b2, axis=-1))
    cross = (np.linalg.norm(a1 - b2, axis=-1)
             + np.linalg.norm(a2 - b1, axis=-1))
    mask = crossed(a1, a2, b1, b2)
    assert np.array_equal(mask, cross < straight)
    tie = straight == cross
    for swapped in (crossed(a2, a1, b1, b2), crossed(a1, a2, b2, b1)):
        assert np.array_equal(swapped[~tie], ~mask[~tie])
        assert not swapped[tie].any() and not mask[tie].any()


def test_trusted_excludes_the_floor():
    h, L = 1 / 32, 1.0
    floor = 2.0 * L * h
    sep = np.array([0.0, np.nextafter(floor, 0), floor,
                    np.nextafter(floor, 1), 1.0])
    assert trusted(sep, L, h).tolist() == [False, False, False, True, True]

# every closed-form fixture at two resolutions; the finer 2-d and 4-d grids
# have more than 16,384 nodes, where NumPy starts to reuse the temporaries
# of whole-grid expressions in place
CLOSED_FORM = [
    (fixture, params, h)
    for fixture, params, hs in (
        ("pair_planes", {"g1": [[0.5, -0.25]], "g2": [[0.0, 1.0]],
                         "c2": [0.5]}, (1 / 8, 1 / 64)),
        ("four_half_planes", {}, (1 / 16, 1 / 256)),
        ("hopf_lo_cone", {}, (1 / 4, 1 / 8)),
        ("lo_two_valued", {}, (1 / 4, 1 / 8)),
        ("branched_w32", {}, (1 / 8, 1 / 64)),
        ("holo_pair_curved", {"a": 1.0, "b": 0.5}, (1 / 8, 1 / 64)),
        ("tilted_plane", {"slope": 0.3}, (1 / 8, 1 / 64)))
    for h in hs]


def _single_shot(fn, n, k, radius, h):
    # the whole-grid build that the slab build replaced
    m = int(round(2 * radius / h)) + 1
    axes = [(-radius + h * np.arange(m)) for _ in range(n)]
    coords = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    v1, v2 = fn(coords.reshape(-1, n))
    shape = coords.shape[:-1] + (k,)
    a1, a2 = canonical_pair(v1.reshape(shape), v2.reshape(shape))
    mask = np.linalg.norm(coords, axis=-1) <= radius + 1e-12
    return a1, a2, mask, coords


@pytest.mark.parametrize("fixture,params,h", CLOSED_FORM)
def test_slab_build_matches_single_shot(fixture, params, h, monkeypatch):
    calls = []
    build = TwoValuedGrid.from_function.__func__

    def spy(cls, fn, n, k, radius, h):
        calls.append((fn, n, k, radius, h))
        return build(cls, fn, n, k, radius, h)
    monkeypatch.setattr(TwoValuedGrid, "from_function", classmethod(spy))
    spec = FixtureSpec(fixture, h, params=params)
    generate(spec)
    fn, n, k, radius, _ = calls[0]
    a1, a2, mask, coords = _single_shot(fn, n, k, radius, h)
    # seven lines make slabs that start and end inside rows of 3-d and 4-d
    # grids
    row = int(np.prod(mask.shape[1:]))
    for budget in (1, 7 * mask.shape[-1], 3 * row, mask.size):
        monkeypatch.setattr(twovalued, "_SLAB_NODES", budget)
        g = generate(spec)
        assert np.array_equal(g.a1, a1) and np.array_equal(g.a2, a2)
        assert np.array_equal(g.mask, mask)
    assert np.array_equal(g.coords, coords)


def test_generate_transient_memory(monkeypatch):
    # a budget of one node cuts this 4-d grid of 83,521 nodes into slabs
    # of one line, the 17 nodes along the last axis; the values of a
    # closed-form grid are filled on first access
    monkeypatch.setattr(twovalued, "_SLAB_NODES", 1)
    def build():
        g = generate(FixtureSpec("lo_two_valued", 1 / 8))
        g.a1
        return g
    g, peak = traced_peak(build)
    grid = g.a1.nbytes + g.a2.nbytes + g.mask.nbytes
    assert peak - grid < grid / 16


def test_closed_form_grid_builds_its_mask_on_first_read():
    g = generate(FixtureSpec("lo_two_valued", 1 / 8))
    assert "mask" not in vars(g) and "_values" not in vars(g)
    assert g.node_count() == 20_185
    assert "mask" in vars(g) and "_values" not in vars(g)


@pytest.mark.parametrize("n", [2, 3])
def test_box_nodes_are_full_lattice_nodes(n):
    # at a spacing that is no power of two and a radius that is no
    # multiple of it, the box's axes, mask and values are slices of the
    # whole lattice's, bit for bit
    h, radius = 0.03, 0.7
    g = generate(FixtureSpec("pair_planes", h, radius,
                             {"g1": [[0.3] * n], "g2": [[-0.2] * n]}))
    b = g.box(0.51)
    lo = int(np.floor((radius - 0.51) / h))
    at = tuple(slice(lo, lo + m) for m in b.dims)
    assert lo >= 1 and b.dims[0] < g.dims[0]
    assert g.axes[0][lo] <= -0.51 and g.axes[0][lo + b.dims[0] - 1] >= 0.51
    for ax, full in zip(b.axes, g.axes):
        assert np.array_equal(ax, full[at[0]])
    assert np.array_equal(b.mask, g.mask[at])
    assert np.array_equal(b.a1, g.a1[at]) and np.array_equal(b.a2, g.a2[at])


def test_box_of_stored_grid_or_whole_lattice_is_the_grid():
    g = generate(FixtureSpec("four_half_planes", 1 / 8))
    assert g.box(1.0) is g and g.box(5.0) is g
    stored = TwoValuedGrid(1, 2, 1.0, 1 / 8, g.a1, g.a2)
    assert stored.box(0.25) is stored


def _lipschitz_reference(f):
    # the whole-grid scan lipschitz_estimate once ran
    best = 0.0
    for ax in range(f.n):
        lo, hi = lattice_edges(f.n, ax)
        both = f.mask[lo] & f.mask[hi]
        if both.any():
            g = metric_G_many(f.a1[lo], f.a2[lo], f.a1[hi], f.a2[hi])
            best = max(best, float(g[both].max()) / f.h)
    return best


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), k=st.integers(1, 3), cells=st.integers(1, 5),
       budget=st.sampled_from([1, 2, 7, 40, 1 << 16]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_lipschitz_independent_of_slabs_and_storage(n, k, cells, budget,
                                                    seed):
    rng = np.random.default_rng(seed)
    shape = (2 * cells + 1,) * n + (k,)
    a1, a2 = rng.standard_normal(shape), rng.standard_normal(shape)
    swap = (rng.random(shape[:-1]) < 0.5)[..., None]
    f = TwoValuedGrid(n, k, 1.0, 1.0 / cells, a1, a2, canonicalize=False)
    s = TwoValuedGrid(n, k, 1.0, 1.0 / cells, np.where(swap, a2, a1),
                      np.where(swap, a1, a2), canonicalize=False)
    want = _lipschitz_reference(f)
    with mock.patch.object(twovalued, "_SLAB_NODES", budget):
        assert lipschitz_estimate(f) == want
        assert lipschitz_estimate(s) == want


@settings(max_examples=200, deadline=None)
@given(dims=st.lists(st.integers(2, 9), min_size=1, max_size=4),
       budget=st.one_of(st.sampled_from([1, 2, 7, 40, 1 << 14]),
                        st.integers(1, 800)))
def test_slabs_are_runs_of_whole_lines(dims, budget):
    dims = tuple(dims)
    with mock.patch.object(twovalued, "_SLAB_NODES", budget):
        slabs = list(twovalued._slabs(dims))
    # slices of flat indices that cover the lattice once, in order, each
    # a whole number of lines along the last axis
    stop = 0
    for span in slabs:
        assert span == slice(stop, span.stop)
        size = span.stop - stop
        assert size % dims[-1] == 0
        assert 1 < size <= max(budget, dims[-1])
        stop = span.stop
    assert stop == int(np.prod(dims))
    if len(dims) == 2:
        # 2-d slabs are runs of whole rows
        rows = max(1, budget // dims[1])
        assert slabs == [slice(s * dims[1], min(s + rows, dims[0]) * dims[1])
                         for s in range(0, dims[0], rows)]


@settings(max_examples=200, deadline=None)
@given(start=st.integers(0, 50), length=st.integers(1, 60),
       size=st.integers(2, 70))
def test_blocks_cover_a_slab_with_no_lone_node(start, length, size):
    span = slice(start, start + length)
    blocks = twovalued._blocks(span, size)
    # consecutive slices that cover the slab once, in order, of size
    # nodes but the last, which holds one more when a lone node is left
    assert blocks[0].start == span.start and blocks[-1].stop == span.stop
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    lengths = [b.stop - b.start for b in blocks]
    assert all(m == size for m in lengths[:-1])
    assert lengths[-1] <= size + 1
    assert min(lengths) > 1 or length == 1


def test_scans_of_a_closed_form_grid_build_no_mask():
    # the scans read the ball flags of the slabs they evaluate from their
    # window; the mask stays unbuilt until something reads it
    g = generate(FixtureSpec("lo_two_valued", 1 / 8)).box(0.6)
    lipschitz_estimate(g)
    sample_graph(g, base_radius=0.5)
    assert "mask" not in vars(g) and "_values" not in vars(g)


def test_lipschitz_memory_below_one_row(monkeypatch):
    # rows of 35,937 nodes against a budget of one 33 x 33 plane: the
    # scan holds a window of the values (48 bytes a node) and ball flags
    # (1 byte) of one row and one slab, where the edges from the slab find
    # their lower ends, and the work of one slab: its evaluation or the
    # edges along one axis, about 410 bytes a node of the slab.  A scan of
    # whole rows held about 400 bytes a node of a row (13.5 MiB here), and
    # the edges along every axis of a slab at once about 770 bytes a node.
    g = generate(FixtureSpec("lo_two_valued", 1 / 16))
    budget = 33 * 33
    monkeypatch.setattr(twovalued, "_SLAB_NODES", budget)
    row = int(np.prod(g.dims[1:]))
    _, peak = traced_peak(lipschitz_estimate, g)
    assert peak < 48 * (row + budget) + 512 * budget


def _stored_copy(g):
    # a grid of the same values that reads them from arrays, not from fn
    return TwoValuedGrid.from_json(g.to_json())


def _same_cloud(V, W):
    for field in ("points", "weights", "tangent_ok", "sheet", "gradients"):
        a, b = getattr(V, field), getattr(W, field)
        assert (a.dtype, a.shape, a.strides) == (b.dtype, b.shape, b.strides)
        assert a.tobytes() == b.tobytes()


# SHA-256 of the bytes of every frame of the closed-form clouds, as
# sample_graph stored them when it kept a frame per sample: the batched
# QR output in its transposed stride layout
FRAMES_SHA256 = {
    ("pair_planes", 1 / 8, np.inf):
        "9f2a13bb443cab9caee982dc25ffe13f8d6047a1a82067353487ff6889907ec9",
    ("pair_planes", 1 / 8, 0.5):
        "ce4b8609d59b27c360a7a35e14584b60b42799c6c66fb2a7b4a54f8fd090133b",
    ("pair_planes", 1 / 64, np.inf):
        "ec8575b89418c3020c3b09f2c61731567b01c48f4f2058afca04e519f9cb8da1",
    ("pair_planes", 1 / 64, 0.5):
        "f8b1fd89927d7a1318b73c9e4558c7e1000f0329d61ba33627f96a59c7fba355",
    ("four_half_planes", 1 / 16, np.inf):
        "34bdea8dd26ba7c3b746512a4ecb1e1bea07634b4dfba2f7454756c2a1fc5c34",
    ("four_half_planes", 1 / 16, 0.5):
        "8ed1c43c1db8c6e1f1d1a99fc4df94441e727fbae44e46506f33b3464af6a53a",
    ("four_half_planes", 1 / 256, np.inf):
        "1854d21f00313aad5526cb4a61c2e22da90d5ad7fdb2b2d279d6f3491f8e3d61",
    ("four_half_planes", 1 / 256, 0.5):
        "830fdfbe6fbe8c8237982416adbd6d736b15560c9f04ada9c2eb7a39dd4183a8",
    ("hopf_lo_cone", 1 / 4, np.inf):
        "62239de2b9fbc083b083e72869e33d7c992a2fc37917e5e2fde065ff627badc6",
    ("hopf_lo_cone", 1 / 4, 0.5):
        "43362fdefd3534ae024bd879280dd82cd4e2732cfd3a838003d2ac2db600a920",
    ("hopf_lo_cone", 1 / 8, np.inf):
        "fc9e0cfc23a29ce71949dde71a7852031ed852c347955ceb320cb45c3b16dbb7",
    ("hopf_lo_cone", 1 / 8, 0.5):
        "5c1ce516a4864106217894552d18ae3c363ed23a58cd6e7f4f0d9d84cd7356a4",
    ("lo_two_valued", 1 / 4, np.inf):
        "69bcd9f6c7edbfdac12919255cf7768f9b82949874dddc6803ad9860341db25b",
    ("lo_two_valued", 1 / 4, 0.5):
        "45435d53ade15bddaa06aaf71eb01f368a20e403ad9e86c98b6efb43d90f39f4",
    ("lo_two_valued", 1 / 8, np.inf):
        "18f6d50d424e7047da70af5018c7268cfe4e49604350dccd5f45774cfceb4610",
    ("lo_two_valued", 1 / 8, 0.5):
        "caf92b7a8246a2af3bcc5e42c0335ce0e4bfdac3bcf24a8cee68780261ef7516",
    ("branched_w32", 1 / 8, np.inf):
        "8b858593549b336d5d4b6da70987b324a90583ea0862e2a13271782c50e634bd",
    ("branched_w32", 1 / 8, 0.5):
        "fe36d9282a911f2ce61e7c32630167fe5b4e057d31374821296a4a39e2912400",
    ("branched_w32", 1 / 64, np.inf):
        "4148f8f5df4f72d1870aefc4da7e74967bc1b1e317c4ea848e3492faf67460c2",
    ("branched_w32", 1 / 64, 0.5):
        "03cdb13f8474542feb79589bf47731d12486edb7a8d96ca8927f3c3b4b620eab",
    ("holo_pair_curved", 1 / 8, np.inf):
        "bcbc90a634e10e57afdcfadede98e652c3863df14ece73c55072e607dd6739b7",
    ("holo_pair_curved", 1 / 8, 0.5):
        "986fcdc06f9888ab604a49763170c335d38ac545b5f85f9281d08b526fed7fa9",
    ("holo_pair_curved", 1 / 64, np.inf):
        "0d18000f18fee656273125dd20b4e17615e2f4ee1507fa12eeba78c9254f7fa9",
    ("holo_pair_curved", 1 / 64, 0.5):
        "3ad9c46282b50b0ea9816e97deadebbb3abcb8d09a4a620e74d2b34982e04933",
    ("tilted_plane", 1 / 8, np.inf):
        "1dc6ca38e4b36a8475951d5c3889b31ff5035388beff34634a45d348bf7f8430",
    ("tilted_plane", 1 / 8, 0.5):
        "cfbff34382767cdcfd6e6adbbff381392aac8b761a6fc44ad2ed48d159c777fc",
    ("tilted_plane", 1 / 64, np.inf):
        "f1aede77b40f463626efb6e256a638c9307331fb834038b8b5861eabe8c5c291",
    ("tilted_plane", 1 / 64, 0.5):
        "5fcef2d5ed7c5b1922428d59a893a45e57170d8f007a1cf0cfd5800c47010c7c",
}


@pytest.mark.parametrize("base_radius", [np.inf, 0.5])
@pytest.mark.parametrize("fixture,params,h", CLOSED_FORM)
def test_sample_graph_of_closed_form_grid_matches_stored(fixture, params, h,
                                                         base_radius):
    spec = FixtureSpec(fixture, h, params=params)
    g = generate(spec)
    V = sample_graph(g, base_radius=base_radius)
    assert "_values" not in vars(g)
    _same_cloud(V, sample_graph(_stored_copy(generate(spec)),
                                base_radius=base_radius))
    assert lipschitz_estimate(g) == lipschitz_estimate(_stored_copy(g))
    # the frames read from the gradients are the frames once stored, bit
    # for bit and stride for stride
    assert V.tangents is None
    T = V.frames(slice(None))
    n, d = g.n, g.n + g.k
    assert T.shape == (len(V.weights), n, d)
    assert T.strides == (8 * n * d, 8, 8 * n)
    assert (hashlib.sha256(T.tobytes()).hexdigest()
            == FRAMES_SHA256[fixture, h, base_radius])
    # and the patch refinement of dist_to_varifold reads them as it reads
    # the frames of a cloud that carries them
    W = SampledVarifold(V.n, V.k, V.points, V.weights, T, V.tangent_ok,
                        V.resolution, V.patch_radius)
    rng = np.random.default_rng(3)
    Y = V.points[::7] + rng.uniform(-h, h, V.points[::7].shape)
    got = dist_to_varifold(V, Y)
    assert got.tobytes() == dist_to_varifold(W, Y).tobytes()
    assert not np.array_equal(got, dist_to_varifold(
        SampledVarifold(V.n, V.k, V.points, V.weights), Y))


def _sampled_nodes(g, base_radius):
    # flat indices of the lower corners and upper neighbours of the cells
    # that sample_graph samples: the admissible cells (lower corner and
    # its upper neighbours inside the ball) with, for a finite radius, a
    # sample of the whole cloud in the base ball
    n = g.n
    base = (slice(None, -1),) * n
    ok = g.mask[base].copy()
    for ax in range(n):
        upper = list(base)
        upper[ax] = slice(1, None)
        ok &= g.mask[tuple(upper)]
    corner = np.ravel_multi_index(np.nonzero(ok), g.dims)
    if base_radius < np.inf:
        inside = np.linalg.norm(sample_graph(g, with_tangents=False).points,
                                axis=-1) <= base_radius
        corner = corner[inside[:len(corner)] | inside[len(corner):]]
    strides = [int(np.prod(g.dims[ax + 1:])) for ax in range(n)]
    return np.unique(np.concatenate([corner] + [corner + s for s in strides]))


# in the last case slabs start and end inside the 4,913-node rows of the
# 4-d grid; in the first, blocks of 3,276 nodes cut the 2-d slabs of 3,855
@pytest.mark.parametrize("n,h,budget", [(2, 1 / 128, None), (4, 1 / 8, None),
                                        (4, 1 / 8, 1000)])
def test_sample_graph_evaluates_each_node_at_most_twice(n, h, budget,
                                                        monkeypatch):
    from mintwo.fixtures import lo_map
    calls = []

    def fn(pts):
        calls.append(pts.copy())
        v = lo_map(np.pad(pts, ((0, 0), (0, 4 - n))))
        return v, -v
    if budget is not None:
        monkeypatch.setattr(twovalued, "_SLAB_NODES", budget)
    g = TwoValuedGrid.from_function(fn, n, 3, 1.0, h)
    slabs = list(twovalued._slabs(g.dims))
    assert len(slabs) >= 5
    if budget is not None:
        assert slabs[0].stop < int(np.prod(g.dims[1:]))
    slab_of = np.concatenate([np.full(s.stop - s.start, i)
                              for i, s in enumerate(slabs)])

    def nodes_of(pts):
        # flat indices of the nodes at pts
        index = np.rint((pts + g.radius) / g.h).astype(int)
        return np.ravel_multi_index(tuple(index.T), g.dims)
    for base_radius in (np.inf, 0.3):
        sampled_nodes = _sampled_nodes(g, base_radius)
        calls.clear()
        sample_graph(g, base_radius=base_radius)
        # fn sees blocks of at most one node more than a fixed size, and
        # never a lone node
        size = twovalued._BLOCK_BYTES // (8 * n * (n + 3))
        assert 1 < min(len(pts) for pts in calls)
        assert max(len(pts) for pts in calls) <= size + 1
        reads = np.zeros(len(slab_of), dtype=int)
        for pts in calls:
            np.add.at(reads, nodes_of(pts), 1)
        # the Lipschitz pass reads every node, and the fill once more each
        # node of a slab that holds a node of a sampled cell, in the blocks
        # the Lipschitz pass evaluated
        sampled = np.zeros(len(slabs), dtype=bool)
        sampled[slab_of[sampled_nodes]] = True
        assert np.array_equal(reads, 1 + sampled[slab_of])
        assert reads.max() == 2
        lipschitz = np.cumsum([len(pts) for pts in calls]) <= len(slab_of)
        blocks = {pts.tobytes() for pts, first in zip(calls, lipschitz)
                  if first}
        assert all(pts.tobytes() in blocks for pts in calls)
        # with every cell sampled, only the 2-d slabs all hold a node of an
        # admissible cell: the last 4-d slab is the end of the last row,
        # all of it outside the ball
        assert reads.min() == (2 if base_radius == np.inf and n == 2 else 1)
    assert "_values" not in vars(g)


def test_lipschitz_rejects_nonfinite_value_inside_ball():
    g = _stored_copy(generate(FixtureSpec("branched_w32", 1 / 8)))
    assert lipschitz_estimate(g) > 0
    outside = tuple(np.argwhere(~g.mask)[0])
    g.a1[outside] = np.nan
    assert lipschitz_estimate(g) > 0
    g.a2[tuple(np.argwhere(g.mask)[len(np.argwhere(g.mask)) // 2])] = np.nan
    with pytest.raises(ValueError, match="grid values are not finite"):
        lipschitz_estimate(g)


def test_lipschitz_rejects_overflowing_values():
    def fn(pts):
        v = np.where(pts[:, :1] < 0, -1e308, 1e308)
        return v, v
    g = TwoValuedGrid.from_function(fn, 1, 1, 1.0, 0.25)
    with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                   match="overflow"):
        lipschitz_estimate(g)
