from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mintwo import conefit, varifold
from mintwo.cli import main as cli_main
from mintwo.cones import Cone, nu
from mintwo.conefit import decay_pipeline, fit_cone
from mintwo.excess import excess_E, weighted_square_sum
from mintwo.fixtures import FixtureSpec, cone_fixture, generate
from mintwo.geometry import Ball, Subspace, orthonormalize
from mintwo.varifold import (SampledVarifold, SimilarityView, pairwise_sum,
                             sample_graph)

from cone_clouds import cone_cloud
from memory import traced_peak
from windows import gather


def _perturbed_pair(C, rng, scale=0.05):
    return Cone.pair(
        Subspace(orthonormalize(C.pieces[0].basis
                                + scale * rng.standard_normal((2, 4)))),
        Subspace(orthonormalize(C.pieces[1].basis
                                + scale * rng.standard_normal((2, 4)))))


def test_fit_recovers_planted_pair():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    Ct = Cone.pair(Subspace(q[:2]), Subspace(q[2:]))
    V = cone_cloud(Ct, 1 / 32, 2.0)
    C0 = _perturbed_pair(Ct, rng, 0.1)
    fit, val = fit_cone(V, "pair", C0)
    assert nu(fit, Ct, samples=2000) < 1e-6
    assert val < 1e-10 * V.total_mass


def test_fit_never_worse_than_start():
    rng = np.random.default_rng(4)
    Ct = cone_fixture("transverse_pair_r4")
    V = cone_cloud("transverse_pair_r4", 1 / 32, 2.0)
    C0 = _perturbed_pair(Ct, rng, 0.2)
    _, val = fit_cone(V, "pair", C0)
    assert val <= excess_E(V, C0) + 1e-12


def test_fit_exact_start_returned_unchanged():
    Ct = cone_fixture("transverse_pair_r4")
    V = cone_cloud("transverse_pair_r4", 1 / 32, 2.0)
    fit, val = fit_cone(V, "pair", Ct)
    assert fit is Ct
    assert val <= 1e-12 * V.total_mass


def test_fit_tangent_cone_of_curved_pair():
    # {w=0} u {w=z+z^2} near the origin: the best pair over B_{1/4}
    # approximates the tangent cone {w=0} u {w=z}
    rng = np.random.default_rng(9)
    g = generate(FixtureSpec("holo_pair_curved", 1 / 256, radius=1.0,
                             params={"a": 1.0, "b": 1.0}))
    V = sample_graph(g, with_tangents=False)
    Ctrue = cone_fixture("transverse_pair_r4")
    C0 = _perturbed_pair(Ctrue, rng)
    fit, _ = fit_cone(V, "pair", C0, R=Ball(np.zeros(4), 0.25))
    assert nu(fit, Ctrue, samples=2000) < 0.02


def test_pair_cannot_fit_four_half_planes():
    # the four half planes span three directions, so any two planes leave
    # a residual bounded away from zero
    V = cone_cloud("four_half_planes_r4", 1 / 64, 2.0)
    pair0 = cone_fixture("transverse_pair_r4")
    _, val = fit_cone(V, "pair", pair0)
    assert val > 1e-3 * V.total_mass


def test_fit_four_hp_recovers_planted_sides():
    C4 = cone_fixture("four_half_planes_r4")
    rng = np.random.default_rng(14)
    sides = [orthonormalize(H.side[None]
                            + 0.05 * rng.standard_normal((1, 4)))[0]
             for H in C4.pieces]
    # re-orthogonalize the perturbed sides against the axis
    A = C4.axis()
    sides = [s - (s @ A.basis.T) @ A.basis for s in sides]
    sides = [s / np.linalg.norm(s) for s in sides]
    C0 = Cone.four_half_planes(A, sides)
    V = cone_cloud("four_half_planes_r4", 1 / 64, 2.0)
    fit, val = fit_cone(V, "four_hp", C0)
    assert nu(fit, C4, samples=2000) < 1e-6
    assert val < 1e-10 * V.total_mass


def test_four_hp_fit_working_set():
    # A four half-plane fit holds, beyond its view's flags (member and
    # region, a byte a sample each) and a few blocks of rows, its
    # clusters' weights (8 bytes a row of its window, for the sign of each
    # side, np.average of its cluster) and one int8 piece a row.  The
    # gathered window it held before (40 bytes a row), a cluster's
    # points, or the weights of two passes at once exceed the bound.
    V = sample_graph(generate(FixtureSpec("holo_pair_curved", 1 / 128)),
                     with_tangents=False)
    C0 = cone_fixture("four_half_planes_r4")
    R = Ball(np.zeros(4), 1.0)
    (_, val), peak = traced_peak(fit_cone, V, "four_hp", C0, R=R)
    rows = np.count_nonzero(R.contains(V.points))
    block = 40 * varifold._CHUNK
    assert val > 0
    assert peak < 2 * len(V.weights) + 9 * rows + 5 * block


def test_fit_equivariant_under_rotation():
    rng = np.random.default_rng(18)
    Ct = cone_fixture("transverse_pair_r4")
    V = cone_cloud("transverse_pair_r4", 1 / 32, 2.0)
    C0 = _perturbed_pair(Ct, rng)
    fit, val = fit_cone(V, "pair", C0)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    W = SampledVarifold(V.n, V.k, V.points @ q.T, V.weights,
                        resolution=V.resolution,
                        patch_radius=V.patch_radius)
    C0r = Cone.pair(Subspace(C0.pieces[0].basis @ q.T),
                    Subspace(C0.pieces[1].basis @ q.T))
    fitr, valr = fit_cone(W, "pair", C0r)
    assert valr == pytest.approx(val, rel=1e-9, abs=1e-12)
    fit_rot = Cone.pair(Subspace(fit.pieces[0].basis @ q.T),
                        Subspace(fit.pieces[1].basis @ q.T))
    assert nu(fitr, fit_rot, samples=2000) < 1e-9


def test_fit_rejects_empty_region():
    Ct = cone_fixture("transverse_pair_r4")
    V = cone_cloud("transverse_pair_r4", 1 / 16, 2.0)
    with pytest.raises(ValueError):
        fit_cone(V, "pair", Ct, R=Ball(np.full(4, 50.0), 0.1))


def test_fit_rejects_unknown_class():
    Ct = cone_fixture("transverse_pair_r4")
    V = cone_cloud("transverse_pair_r4", 1 / 16, 2.0)
    with pytest.raises(ValueError):
        fit_cone(V, "triple", Ct)


@pytest.mark.parametrize("cone, cone_class", [
    ("transverse_pair_r4", "four_hp"), ("four_half_planes_r4", "pair")])
def test_fit_rejects_cone_of_other_class(cone, cone_class):
    C0 = cone_fixture(cone)
    V = cone_cloud(cone, 1 / 32, 2.0)
    with pytest.raises(ValueError, match="not '%s'" % cone_class):
        fit_cone(V, cone_class, C0)


def test_decay_null_on_exact_cone():
    # the ladder on an exactly conical cloud stays at machine-zero excess
    Ct = cone_fixture("transverse_pair_r4")
    V = cone_cloud("transverse_pair_r4", 1 / 64, 2.5)
    rep = decay_pipeline(V, Ct, J=4, fit_min_samples=500)
    assert rep.exact_cone
    assert len(rep.records) >= 2
    for r in rep.records:
        assert r["one_sided_scaled"] < 1e-8 * V.total_mass
        assert r["nu_step"] < 1e-8


def test_decay_slope_two_on_curved_pair():
    g = generate(FixtureSpec("holo_pair_curved", 1 / 256, radius=1.0,
                             params={"a": 1.0, "b": 1.0}))
    V = sample_graph(g, with_tangents=False)
    Ct = cone_fixture("transverse_pair_r4")
    rep = decay_pipeline(V, Ct, J=5)
    assert rep.fitted_2alpha == pytest.approx(2.0, abs=0.5)
    assert len(rep.records) >= 4


def test_decay_rejects_low_density_center():
    g = generate(FixtureSpec("holo_pair_curved", 1 / 128, radius=1.0))
    V = sample_graph(g, with_tangents=False)
    Ct = cone_fixture("transverse_pair_r4")
    # a point on only one sheet has density ratio about 1
    with pytest.raises(ValueError):
        decay_pipeline(V, Ct, center=np.array([0.5, 0.0, 0.0, 0.0]))


def test_decay_q_gate():
    # a cloud of another pair, span{e1, e2} and span{e1 + e3, e2}, is
    # far from the cone; a tight gate rejects it
    Ct = cone_fixture("transverse_pair_r4")
    s = 1 / np.sqrt(2)
    D = Cone.pair(Subspace(np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])),
                  Subspace(np.array([[s, 0, s, 0], [0, 1.0, 0, 0]])))
    V2 = cone_cloud(D, 1 / 32, 2.5)
    with pytest.raises(ValueError, match="exceeds the gate"):
        decay_pipeline(V2, Ct, q_gate=1e-3, fit_min_samples=500)


def _moment(pts, wts):
    # the weighted second moment of gathered rows, as fits summed it
    return np.einsum("m,mi,mj->ij", wts, pts, pts)


def _gathered_fit(V, cone_class, C0, R):
    """``fit_cone`` as it was before fits were streamed: the window is
    gathered once, clusters are copied from it, and a four half-plane fit
    projects the whole window off the axis.  A test-only reference."""
    pts, wts = gather(V, R)
    mass = float(wts.sum())
    d = conefit._nearest_piece(pts, [P.distance for P in C0.pieces])[0]
    init_val = weighted_square_sum(d, wts)
    if init_val <= conefit.EXACT_FIT_FRACTION * mass:
        return C0, init_val
    if cone_class == "pair":
        bases = [P.basis.copy() for P in C0.pieces]
        n = bases[0].shape[0]
        prev = None
        for _ in range(conefit._FIT_ITERS):
            assign = conefit._nearest_piece(
                pts, conefit._plane_distances(bases))[1]
            if prev is not None and np.array_equal(assign, prev):
                break
            prev = assign
            for i in range(2):
                sel = assign == i
                if sel.sum() >= n:
                    bases[i] = conefit._top_eigvecs(
                        _moment(pts[sel], wts[sel]), n)
        d = conefit._nearest_piece(pts, conefit._plane_distances(bases))[0]
        cone = Cone.pair(Subspace(bases[0]), Subspace(bases[1]))
    else:
        A = C0.axis()
        q = pts @ (A.basis.T @ A.basis)
        np.subtract(pts, q, out=q)
        sides = [H.side.copy() for H in C0.pieces]
        cone, prev = C0, None
        for _ in range(conefit._FIT_ITERS):
            assign = conefit._nearest_piece(
                pts, [H.distance for H in cone.pieces])[1]
            if prev is not None and np.array_equal(assign, prev):
                break
            prev = assign
            for i in range(4):
                sel = assign == i
                if sel.sum() < 2:
                    continue
                v = conefit._top_eigvecs(_moment(q[sel], wts[sel]),
                                         1)[0]
                if v @ np.average(q[sel], axis=0, weights=wts[sel]) < 0:
                    v = -v
                sides[i] = v
            cone = Cone.four_half_planes(A, sides)
        d = conefit._nearest_piece(pts, [H.distance
                                         for H in cone.pieces])[0]
    val = weighted_square_sum(d, wts)
    return (cone, val) if val < init_val else (C0, init_val)


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


@pytest.mark.parametrize("chunk", [1000, 1 << 13])
@settings(max_examples=20, deadline=None)
@given(d=st.sampled_from([3, 4, 7]), rows=st.integers(1, 50000),
       share=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_streamed_sums_equal_gathered_sums(chunk, d, rows, share, seed):
    """The moments and the sign averages of the fits, summed chunk by
    chunk, equal those of the gathered rows bit for bit.

    ``np.einsum("m,mi,mj->ij", w, p, p)`` adds the terms (w p_i) p_j of
    C-ordered rows one row at a time in row order, and ``np.average``
    along the rows divides such a row-order sum of w p by the pairwise
    sum of the weights.  The fits carry both totals from chunk to chunk
    in that order (``conefit._carry``), over a window (``_window_moment``)
    and over a cluster, the rows of each chunk nearest to one piece
    (``_add_moment``).  On Fortran-ordered rows einsum sums in another
    order and the equality breaks; the view's chunks and ``_off_axis``
    give C-ordered rows.  If a NumPy release changes either order, this
    test fails before any golden drifts.
    """
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((rows, d))
    wts = rng.random(rows) + 1e-3
    sel = rng.random(rows) < share
    n = 4 if d == 7 else 2
    view = SimilarityView(SampledVarifold(n, d - n, pts, wts))
    M, cluster, total = np.zeros((d, d)), np.zeros((d, d)), np.zeros(d)
    weights = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(varifold, "_CHUNK", chunk)
        window = conefit._window_moment((view, None))
        at = 0
        for p, w in view.chunks():
            s = sel[at:at + len(p)]
            at += len(p)
            conefit._add_moment(cluster, p[s], w[s])
            conefit._carry(total, p[s] * w[s][:, None])
            weights.append(w[s])
    assert _bits(window) == _bits(_moment(pts, wts))
    assert _bits(cluster) == _bits(_moment(pts[sel], wts[sel]))
    if sel.any():
        mean = total / pairwise_sum(weights, np.count_nonzero(sel))
        assert _bits(mean) == _bits(np.average(pts[sel], axis=0,
                                               weights=wts[sel]))


def _tilted_four_hp(rng, scale):
    C4 = cone_fixture("four_half_planes_r4")
    A = C4.axis()
    sides = [H.side + scale * rng.standard_normal(4) for H in C4.pieces]
    sides = [s - (s @ A.basis.T) @ A.basis for s in sides]
    return Cone.four_half_planes(A, [s / np.linalg.norm(s) for s in sides])


@pytest.mark.parametrize("chunk", [1000, 1 << 13])
@pytest.mark.parametrize("case", ["pair_graph", "pair_view", "pair_cone",
                                  "four_hp_graph", "four_hp_cone"])
def test_streamed_fit_equals_gathered_fit(case, chunk, monkeypatch):
    # a fit reads its window from the view chunk by chunk and gathers one
    # cluster at a time; its cone and excess equal bit for bit those of
    # the fit over the gathered window, at any block size
    monkeypatch.setattr(varifold, "_CHUNK", chunk)
    rng = np.random.default_rng(21)
    cone_class = "pair" if case.startswith("pair") else "four_hp"
    if case.endswith("cone"):
        V = cone_cloud("transverse_pair_r4" if cone_class == "pair"
                       else "four_half_planes_r4", 1 / 32, 2.0)
    else:
        V = sample_graph(generate(FixtureSpec("holo_pair_curved", 1 / 64)),
                         with_tangents=False)
    C0 = (_perturbed_pair(cone_fixture("transverse_pair_r4"), rng, 0.1)
          if cone_class == "pair" else _tilted_four_hp(rng, 0.1))
    view = (SimilarityView(V, None, 0.5, cyl=2.2) if case.endswith("view")
            else SimilarityView(V))
    R = Ball(np.zeros(4), 1.0)
    got = fit_cone(view, cone_class, C0, R=R)
    want = _gathered_fit(view, cone_class, C0, R)
    assert got[0] is not C0
    assert got[0].to_json() == want[0].to_json()
    assert got[1] == want[1]


@lru_cache(maxsize=None)
def _fit_cloud(cone=None):
    """The graph cloud of the named cone at h = 1/32, or for None that of
    ``holo_pair_curved`` at h = 1/64."""
    if cone is not None:
        return cone_cloud(cone, 1 / 32, 2.0)
    return sample_graph(generate(FixtureSpec("holo_pair_curved", 1 / 64)),
                        with_tangents=False)


@pytest.mark.parametrize("iters", [None, 1, 2])
@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from(["pair_graph", "pair_view", "pair_cone",
                             "four_hp_graph", "four_hp_view",
                             "four_hp_cone"]),
       seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(0.02, 0.2))
def test_fit_from_random_start_equals_gathered_fit(iters, case, seed,
                                                   scale):
    # from any perturbed start the streamed fit equals the gathered one bit
    # for bit and is never worse than its start; with one or two refit
    # rounds the alternation stops before its assignment is stable
    rng = np.random.default_rng(seed)
    cone_class = "pair" if case.startswith("pair") else "four_hp"
    C0 = (_perturbed_pair(cone_fixture("transverse_pair_r4"), rng, scale)
          if cone_class == "pair" else _tilted_four_hp(rng, scale))
    truth = ("transverse_pair_r4" if cone_class == "pair"
             else "four_half_planes_r4")
    V = _fit_cloud(truth if case.endswith("cone") else None)
    view = (SimilarityView(V, None, 0.5, cyl=2.2) if case.endswith("view")
            else SimilarityView(V))
    R = Ball(np.zeros(4), 1.0)
    pts, wts = gather(view, R)
    start = weighted_square_sum(
        conefit._nearest_piece(pts, [P.distance for P in C0.pieces])[0], wts)
    with pytest.MonkeyPatch.context() as mp:
        if iters is not None:
            mp.setattr(conefit, "_FIT_ITERS", iters)
        try:
            want = _gathered_fit(view, cone_class, C0, R)
        except ValueError:
            with pytest.raises(ValueError):
                fit_cone(view, cone_class, C0, R=R)
            return
        got = fit_cone(view, cone_class, C0, R=R)
    assert got[0].to_json() == want[0].to_json()
    assert got[1] == want[1]
    assert got[1] <= start
    assert got[1] == start if got[0] is C0 else got[1] < start


def test_four_hp_fit_raises_when_sides_merge():
    # two half-planes +-e1 around the axis e3, each sample off the plane
    # by 1e-7 alternately on either side, and four start sides, two near
    # each half-plane: a round's refit merges the two sides of each pair
    x = np.linspace(0.05, 0.9, 40)
    z = np.linspace(-0.9, 0.9, 41)
    X, Z = np.meshgrid(x, z, indexing="ij")
    half = np.stack([X.ravel(), np.zeros(X.size), Z.ravel()], axis=1)
    pts = np.vstack([half, half * [-1, 1, 1]])
    pts[:, 1] = np.where(np.arange(len(pts)) % 2 == 0, 1e-7, -1e-7)
    V = SampledVarifold(2, 1, pts, np.full(len(pts), 1e-3))
    C0 = Cone.four_half_planes(
        Subspace(np.array([[0.0, 0, 1]])),
        [[np.cos(a), np.sin(a), 0.0]
         for a in (0.3, -0.3, np.pi + 0.3, np.pi - 0.3)])
    with pytest.raises(ValueError, match="sides merged"):
        fit_cone(V, "four_hp", C0)


def _counting(monkeypatch):
    """Counts of ``SimilarityView.chunks`` calls (window reads) and of fit
    passes (``conefit._pass``), from now on."""
    counts = {"reads": 0, "passes": 0}
    chunks, one_pass = SimilarityView.chunks, conefit._pass

    def counted_chunks(self, region=None):
        counts["reads"] += 1
        return chunks(self, region)

    def counted_pass(*args):
        counts["passes"] += 1
        return one_pass(*args)
    monkeypatch.setattr(SimilarityView, "chunks", counted_chunks)
    monkeypatch.setattr(conefit, "_pass", counted_pass)
    return counts


@pytest.mark.parametrize("iters", [1, 2, conefit._FIT_ITERS])
@pytest.mark.parametrize("cone_class", ["pair", "four_hp"])
def test_fit_reads_window_once_per_round(cone_class, iters, monkeypatch):
    # the pass that measures the start gives the first clusters and each
    # refit round is followed by one pass, whose excess is the fit's, so r
    # rounds read the window's points 1 + r times, whether the fit
    # converged (r rounds, the last found no row changed its piece) or
    # stopped after _FIT_ITERS rounds.  The window's mass for the
    # exact-fit test reads the weights alone, not the chunks.  No fit
    # gathers a cluster: the view has no gather
    monkeypatch.setattr(conefit, "_FIT_ITERS", iters)
    rng = np.random.default_rng(5)
    C0 = (_perturbed_pair(cone_fixture("transverse_pair_r4"), rng, 0.1)
          if cone_class == "pair" else _tilted_four_hp(rng, 0.1))
    counts = _counting(monkeypatch)
    fit_cone(_fit_cloud(), cone_class, C0)
    # the fits converge after 7 (pair) and 4 (four_hp) rounds
    rounds = min(iters, {"pair": 7, "four_hp": 4}[cone_class])
    assert counts["passes"] == 1 + rounds
    assert counts["reads"] == counts["passes"]
    assert not hasattr(SimilarityView, "gather")


def test_decay_golden_reads_windows_fourteen_times(monkeypatch, tmp_path):
    # the decay golden configuration (bench/workloads.py): its three rung
    # fits (1 + r passes each), its excess_Q and its one-sided excesses
    # read 14 windows; the fits' masses read no chunk
    counts = _counting(monkeypatch)
    argv = ["decay", "--fixture", "holo_pair_curved", "--h", "0.0078125",
            "--cone", "transverse_pair_r4", "--J", "3",
            "--fit-min-samples", "300"]
    assert cli_main(argv + ["--out", str(tmp_path / "decay.json")]) == 0
    assert counts["reads"] == 14
