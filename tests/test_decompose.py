from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mintwo.decompose as decompose
from mintwo.decompose import (_spanning_forest, detect_doubles,
                              monodromy_test, propagate_labels, ring_loop)
from mintwo.fixtures import FixtureSpec, generate
from mintwo.twovalued import TwoValuedGrid, index_dtype

from memory import traced_peak


def _branched(h=1 / 64):
    return generate(FixtureSpec("branched_w32", h, radius=1.0))


def _holo(h=1 / 64):
    return generate(FixtureSpec("holo_pair_curved", h, radius=1.0,
                                params={"a": 1.0, "b": 1.0}))


def _center(f):
    return tuple((np.array(f.dims) - 1) // 2)


def test_holo_pair_decomposes():
    lab = propagate_labels(_holo())
    assert lab.decomposed
    assert len(lab.conflicts) == 0


def test_holo_sheets_are_the_two_selections():
    f = _holo()
    lab = propagate_labels(f)
    s1, s2 = lab.sheets()
    m = lab.labels >= 0
    # at every labelled node the selections are the stored pair, in
    # one order or the other
    straight = (np.all(s1[m] == f.a1[m], axis=-1)
                & np.all(s2[m] == f.a2[m], axis=-1))
    crossed = (np.all(s1[m] == f.a2[m], axis=-1)
               & np.all(s2[m] == f.a1[m], axis=-1))
    assert np.all(straight | crossed)


def test_branched_graph_has_conflicts():
    lab = propagate_labels(_branched())
    assert not lab.decomposed
    assert len(lab.conflicts) > 0


@pytest.mark.parametrize("h, conflicts, branch_points", [
    (1 / 32, 48, [[0.1875, -0.0625], [0.1875, -0.03125]]),
    (1 / 64, 108, [[0.125, -0.03125], [0.125, -0.015625]]),
])
def test_branched_labelling_pinned(h, conflicts, branch_points):
    # counts and witnesses of the breadth-first labelling, pinned exactly
    lab = propagate_labels(_branched(h))
    assert lab.conflicts.shape == (conflicts, 2)
    assert np.array_equal(lab.branch_points, branch_points)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["branched", "holo"]),
       seed=st.integers(0, 2 ** 32 - 1),
       share=st.floats(0.0, 1.0),
       cut=st.booleans(),
       seed_node=st.none() | st.tuples(st.integers(0, 32),
                                        st.integers(0, 32)))
def test_labels_follow_swapped_storage(name, seed, share, cut, seed_node):
    # swapping the stored pair on a node set S flips every matching at an
    # edge with one end in S: components and conflicts stay, and labels
    # change by S up to one global swap per component
    g = (_branched if name == "branched" else _holo)(1 / 32)
    exclusion = propagate_labels(g).exclusion.copy()
    if cut:
        exclusion[8:10, :] = True
        exclusion[:, 50] = True
    swap = np.random.default_rng(seed).random(g.dims) < share
    a1 = np.where(swap[..., None], g.a2, g.a1)
    a2 = np.where(swap[..., None], g.a1, g.a2)
    f = TwoValuedGrid(g.n, g.k, g.radius, g.h, a1, a2, canonicalize=False)
    a = propagate_labels(g, exclusion=exclusion, seed_node=seed_node)
    b = propagate_labels(f, exclusion=exclusion, seed_node=seed_node)
    assert np.array_equal(a.components, b.components)
    assert (sorted(map(tuple, a.conflicts.tolist()))
            == sorted(map(tuple, b.conflicts.tolist())))
    m = a.labels >= 0
    assert np.array_equal(a.labels[~m], b.labels[~m])
    assert np.all(b.labels[m] >= 0)
    change = a.labels[m] ^ b.labels[m] ^ swap[m]
    for c in np.unique(a.components[m]):
        assert np.unique(change[a.components[m] == c]).size == 1


def _csgraph_forest(edge, stride, admissible, seed_node):
    # reference: scipy's queue search over a CSR adjacency whose rows list
    # neighbours as axis 0 lower, axis 0 upper, axis 1 lower, ...
    sparse = pytest.importorskip("scipy.sparse")
    from scipy.sparse.csgraph import breadth_first_order, connected_components
    n, N = edge.shape
    has = np.zeros((N, 2 * n), dtype=bool)
    for ax, s in enumerate(stride):
        has[s:, 2 * ax] = edge[ax, :N - s]
        has[:, 2 * ax + 1] = edge[ax]
    offset = np.repeat(stride, 2) * np.tile([-1, 1], n)
    indices = (np.arange(N)[:, None] + offset)[has]
    indptr = np.concatenate([[0], np.cumsum(has.sum(axis=1))])
    graph = sparse.csr_array((np.ones(len(indices)), indices, indptr),
                             shape=(N, N))
    _, comp = connected_components(graph, directed=False)
    nodes = np.flatnonzero(admissible)
    roots = nodes[np.sort(np.unique(comp[nodes], return_index=True)[1])]
    if seed_node is not None:
        seed = np.ravel_multi_index(tuple(seed_node), admissible.shape)
        if admissible.flat[seed]:
            roots = np.concatenate([[seed], roots[comp[roots] != comp[seed]]])
    parent = np.arange(N)
    component = np.full(N, -1)
    for c, root in enumerate(roots):
        order, pred = breadth_first_order(graph, root, directed=True)
        parent[order[1:]] = pred[order[1:]]
        component[order] = c
    return parent, component


@settings(max_examples=80, deadline=None)
@given(dims=st.lists(st.integers(1, 9), min_size=1, max_size=3),
       seed=st.integers(0, 2 ** 32 - 1),
       density=st.floats(0.3, 1.0),
       drop=st.floats(0.0, 0.5),
       with_seed=st.booleans())
def test_spanning_forest_matches_csgraph(dims, seed, density, drop,
                                         with_seed):
    # the level-at-a-time search picks the same parents and components as
    # a one-node-at-a-time queue search
    rng = np.random.default_rng(seed)
    dims = tuple(dims)
    n, N = len(dims), int(np.prod(dims))
    admissible = rng.random(dims) < density
    stride = [int(np.prod(dims[ax + 1:])) for ax in range(n)]
    edge = np.zeros((n,) + dims, dtype=bool)
    for ax in range(n):
        lo = tuple(slice(None, -1) if a == ax else slice(None)
                   for a in range(n))
        hi = tuple(slice(1, None) if a == ax else slice(None)
                   for a in range(n))
        edge[ax][lo] = (admissible[lo] & admissible[hi]
                        & (rng.random(edge[ax][lo].shape) >= drop))
    seed_node = tuple(rng.integers(0, d) for d in dims) if with_seed \
        else None
    args = (edge.reshape(n, N), stride, admissible, seed_node)
    parent, component = _spanning_forest(*args)
    ref_parent, ref_component = _csgraph_forest(*args)
    assert np.array_equal(component, ref_component)
    assert np.array_equal(parent, ref_parent)


def test_labelling_reads_the_grid_in_one_walk(monkeypatch):
    # the separations, the Lipschitz estimate and every edge's matching
    # come from one Lipschitz walk, called through this module's binding
    # with an edge hook
    f = _branched()
    calls = []
    walk = decompose.lipschitz_estimate

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return walk(*args, **kwargs)
    monkeypatch.setattr(decompose, "lipschitz_estimate", counted)
    propagate_labels(f)
    assert len(calls) == 1
    assert calls[0]["edges"] is not None


def test_closed_form_grid_evaluated_once_per_slab(monkeypatch):
    # propagate_labels reads the grid only through the Lipschitz walk,
    # which evaluates each slab once and never fills the value arrays
    from mintwo.twovalued import _slabs
    f = generate(FixtureSpec("branched_w32", 1 / 128))
    calls = []
    evaluate = TwoValuedGrid._evaluate

    def counted(self, rows, v1, v2):
        calls.append(rows)
        return evaluate(self, rows, v1, v2)
    monkeypatch.setattr(TwoValuedGrid, "_evaluate", counted)
    propagate_labels(f)
    assert calls == list(_slabs(f.dims))
    assert "_values" not in vars(f)


_PLANES_2D = {"g1": [[0, 0], [0, 0]], "g2": [[1, 0], [0, 1]]}
_PLANES_3D = {"g1": [[0, 0, 0]], "g2": [[1, 0.5, -0.25]]}


@pytest.mark.parametrize("name, h, params", [
    (name, h, params)
    for name, params in [("branched_w32", {}),
                         ("holo_pair_curved", {"a": 1.0, "b": 1.0}),
                         ("pair_planes", _PLANES_2D),
                         ("tilted_plane", {"slope": 0.5})]
    for h in (1 / 32, 0.03)] + [("pair_planes", 1 / 8, _PLANES_3D)])
def test_closed_form_labelling_equals_stored_copy(name, h, params):
    # the walk over a closed-form grid reads the values its stored copy
    # holds, bit for bit, and leaves the closed-form values unfilled
    f = generate(FixtureSpec(name, h, params=params))
    a = propagate_labels(f)
    assert "_values" not in vars(f)
    g = generate(FixtureSpec(name, h, params=params))
    b = propagate_labels(TwoValuedGrid(g.n, g.k, g.radius, g.h, g.a1, g.a2,
                                       canonicalize=False))
    for x, y in [(a.labels, b.labels), (a.components, b.components),
                 (a.conflicts, b.conflicts),
                 (a.branch_points, b.branch_points)]:
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()
    assert a.exclusion_volume() == b.exclusion_volume()


def test_labelling_working_set():
    # beyond the grid, the labelling holds about 25 bytes a node: the
    # walk's separations, the matchings, the forest in int32 and int8
    # labels.  Filling the values and an int64 forest took 97
    f = generate(FixtureSpec("branched_w32", 1 / 256))
    assert f.mask.any()  # the ball mask is built outside the span
    lab, peak = traced_peak(propagate_labels, f)
    assert lab.labels.dtype == np.int8
    assert lab.components.dtype == np.int32
    assert peak < 50 * lab.labels.size


def test_index_dtype_guards_overflow():
    # the forest's indices take int32 while every value fits, else int64
    assert index_dtype(2 ** 31 - 1) == np.int32
    assert index_dtype(2 ** 31) == np.int64


def test_monodromy_evaluates_closed_form_grid_once_per_slab(monkeypatch):
    # the loop reads the values before the Lipschitz pass, which then reads
    # the filled arrays instead of fn again
    from mintwo.twovalued import _slabs
    f = generate(FixtureSpec("branched_w32", 1 / 128))
    calls = []
    evaluate = TwoValuedGrid._evaluate

    def counted(self, rows, v1, v2):
        calls.append(rows)
        return evaluate(self, rows, v1, v2)
    monkeypatch.setattr(TwoValuedGrid, "_evaluate", counted)
    assert monodromy_test(f, ring_loop(f, _center(f), 48)) == "swap"
    assert calls == list(_slabs(f.dims))
    assert len(calls) == 18


def test_pair_planes_doubles_follow_the_trust_rule():
    # values 0 and x: the separation is |x| and L = 1, so the floor is 2h;
    # the 9 nodes with |x| < 2h and the 4 with |x| = 2h are not trusted,
    # as in sample_graph and monodromy_test.  The default exclusion adds
    # their 12 lattice neighbours: 25 nodes of area h^2.
    f = generate(FixtureSpec("pair_planes", 1 / 32, params={
        "g1": [[0, 0], [0, 0]], "g2": [[1, 0], [0, 1]]}))
    assert np.count_nonzero(detect_doubles(f)) == 13
    lab = propagate_labels(f)
    assert lab.decomposed
    assert lab.exclusion_volume() == 0.0244140625

def test_branch_points_cluster_at_origin():
    # the only branch point of the two-valued square root sheets is 0;
    # witnesses appear within the matching-ambiguity zone around it
    lab = propagate_labels(_branched())
    assert len(lab.branch_points) > 0
    assert np.linalg.norm(lab.branch_points, axis=1).max() < 0.2


def test_monodromy_swap_on_all_rings():
    f = _branched()
    ci = _center(f)
    results = [monodromy_test(f, ring_loop(f, ci, r))
               for r in range(12, 44, 4)]
    assert results == ["swap"] * 8


def test_monodromy_trivial_on_holo_rings():
    f = _holo()
    ci = _center(f)
    # homotopic loops agree; here all are trivial
    assert [monodromy_test(f, ring_loop(f, ci, r))
            for r in (16, 24, 32)] == ["trivial"] * 3


def test_monodromy_trivial_off_branch_point():
    f = _branched()
    ci = _center(f)
    off = (ci[0] + 40, ci[1] + 40)
    assert monodromy_test(f, ring_loop(f, off, 6)) == "trivial"


def test_monodromy_rejects_ambiguous_loop():
    f = _branched()
    with pytest.raises(ValueError):
        monodromy_test(f, ring_loop(f, _center(f), 2))


def test_monodromy_rejects_broken_loop():
    f = _holo()
    loop = ring_loop(f, _center(f), 16)
    with pytest.raises(ValueError):
        monodromy_test(f, loop[::2])


def test_constant_pair_decomposes_without_exclusion():
    def fn(pts):
        z = np.zeros((len(pts), 1))
        return z, z + 2.0
    f = TwoValuedGrid.from_function(fn, 2, 1, 1.0, 1 / 16)
    lab = propagate_labels(f)
    assert lab.decomposed
    assert lab.exclusion_volume() == 0.0
    s1, s2 = lab.sheets()
    good = ~np.isnan(s1[..., 0])
    assert np.allclose(np.sort(np.stack([s1[good], s2[good]]), axis=0),
                       np.sort(np.array([[0.0], [2.0]]))[:, None, :])


def test_labels_seed_independent_up_to_global_swap():
    f = _holo()
    a = propagate_labels(f)
    b = propagate_labels(f, seed_node=(10, 10))
    m = (a.labels >= 0) & (b.labels >= 0)
    same = a.labels[m] == b.labels[m]
    for c in np.unique(a.components[m]):
        sel = a.components[m] == c
        assert same[sel].all() or (~same[sel]).all()


def test_exclusion_volume_shrinks_under_refinement():
    vols = [propagate_labels(_branched(h)).exclusion_volume()
            for h in (1 / 32, 1 / 64)]
    assert vols[1] < vols[0]


def test_exclusion_must_cover_doubles():
    f = _branched()
    with pytest.raises(ValueError):
        propagate_labels(f, exclusion=np.zeros(f.dims, dtype=bool))


def test_detect_doubles_floor():
    f = _branched()
    dbl = detect_doubles(f)
    coords = f.coords[dbl]
    assert np.linalg.norm(coords, axis=-1).max() < 0.2


def test_ring_loop_validation():
    f = _holo()
    with pytest.raises(ValueError):
        ring_loop(f, (2, 2), 10)  # leaves the grid


def _clusters_whole_array(f, doubles, conflicts):
    # the whole-array formula _responsible_clusters once used
    if not len(conflicts) or not doubles.any():
        return np.zeros((0, f.n))
    dbl = np.argwhere(doubles)
    diff = conflicts[:, None, :] - dbl[None, :, :]
    nearest = np.unique(np.abs(diff).max(axis=2).argmin(axis=1))
    return f.node_coords(tuple(dbl[nearest].T))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 3), side=st.integers(2, 7),
       block=st.sampled_from([1, 2, 5, 1 << 14]), data=st.data())
def test_responsible_clusters_blocks_match_whole_array(n, side, block,
                                                       data):
    # doubles on a small lattice make Chebyshev ties common; blocks of
    # conflict rows find the same nearest doubles, first in C order on a
    # tie, and list them in C order
    def fn(pts):
        v = np.zeros((len(pts), 1))
        return v, v
    f = TwoValuedGrid.from_function(fn, n, 1, 1.0, 2.0 / (side - 1))
    doubles = data.draw(hnp.arrays(bool, f.dims))
    conflicts = np.array(data.draw(st.lists(
        st.tuples(*[st.integers(0, side - 1)] * n), max_size=20)),
        dtype=np.int64).reshape(-1, n)
    want = _clusters_whole_array(f, doubles, conflicts)
    with mock.patch.object(decompose, "_PAIR_BLOCK", block):
        got = decompose._responsible_clusters(f, doubles, conflicts)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
