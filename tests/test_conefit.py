import numpy as np
import pytest

from mintwo import conefit, varifold
from mintwo.cones import Cone, nu
from mintwo.conefit import decay_pipeline, fit_cone
from mintwo.excess import excess_E
from mintwo.fixtures import FixtureSpec, cone_fixture, generate
from mintwo.geometry import Ball, Subspace, orthonormalize
from mintwo.varifold import (SampledVarifold, SimilarityView, sample_cone,
                             sample_graph)

from memory import traced_peak


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
    V = sample_cone(Ct, 6000, radius=2.0)
    C0 = _perturbed_pair(Ct, rng, 0.1)
    fit, val = fit_cone(V, "pair", C0)
    assert nu(fit, Ct, samples=2000) < 1e-6
    assert val < 1e-10 * V.total_mass


def test_fit_never_worse_than_start():
    rng = np.random.default_rng(4)
    Ct = cone_fixture("transverse_pair_r4")
    V = sample_cone(Ct, 4000, radius=2.0)
    C0 = _perturbed_pair(Ct, rng, 0.2)
    _, val = fit_cone(V, "pair", C0)
    assert val <= excess_E(V, C0) + 1e-12


def test_fit_exact_start_returned_unchanged():
    Ct = cone_fixture("transverse_pair_r4")
    V = sample_cone(Ct, 4000, radius=2.0)
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
    C4 = cone_fixture("four_half_planes_r4")
    V = sample_cone(C4, 6000, radius=2.0)
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
    V = sample_cone(C4, 8000, radius=2.0)
    fit, val = fit_cone(V, "four_hp", C0)
    assert nu(fit, C4, samples=2000) < 1e-6
    assert val < 1e-10 * V.total_mass


def test_four_hp_fit_working_set():
    # A four half-plane fit holds its window (points and weights, 40 bytes
    # a sample), the axis-orthogonal part of the points and the product
    # that forms it (32 bytes a sample each), the nearest distances and
    # pieces of one blocked pass, and a few blocks.  A whole-window pass
    # held four distance arrays and (m, 4) temporaries per half-plane:
    # about 4.8 windows.
    V = sample_graph(generate(FixtureSpec("holo_pair_curved", 1 / 128)),
                     with_tangents=False)
    C0 = cone_fixture("four_half_planes_r4")
    R = Ball(np.zeros(4), 1.0)
    (_, val), peak = traced_peak(fit_cone, V, "four_hp", C0, R=R)
    window = 40 * np.count_nonzero(R.contains(V.points))
    block = 40 * varifold._CHUNK
    assert val > 0
    assert peak < 3 * window + 2 * block


def test_fit_equivariant_under_rotation():
    rng = np.random.default_rng(18)
    Ct = cone_fixture("transverse_pair_r4")
    V = sample_cone(Ct, 5000, radius=2.0)
    C0 = _perturbed_pair(Ct, rng)
    fit, val = fit_cone(V, "pair", C0)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    W = SampledVarifold(V.n, V.k, V.points @ q.T, V.weights,
                        sheet=V.sheet, resolution=V.resolution,
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
    V = sample_cone(Ct, 2000, radius=2.0)
    with pytest.raises(ValueError):
        fit_cone(V, "pair", Ct, R=Ball(np.full(4, 50.0), 0.1))


def test_fit_rejects_unknown_class():
    Ct = cone_fixture("transverse_pair_r4")
    V = sample_cone(Ct, 2000, radius=2.0)
    with pytest.raises(ValueError):
        fit_cone(V, "triple", Ct)


@pytest.mark.parametrize("cone, cone_class", [
    ("transverse_pair_r4", "four_hp"), ("four_half_planes_r4", "pair")])
def test_fit_rejects_cone_of_other_class(cone, cone_class):
    C0 = cone_fixture(cone)
    V = sample_cone(C0, 2000, radius=2.0)
    with pytest.raises(ValueError, match="not '%s'" % cone_class):
        fit_cone(V, cone_class, C0)


def test_decay_null_on_exact_cone():
    # the ladder on an exactly conical cloud stays at machine-zero excess
    Ct = cone_fixture("transverse_pair_r4")
    V = sample_cone(Ct, 20000, radius=2.5)
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
    Ct = cone_fixture("transverse_pair_r4")
    V = sample_cone(Ct, 8000, radius=2.5)
    W = SampledVarifold(V.n, V.k,
                        V.points + np.array([0, 0, 0.3, 0.0]),
                        V.weights, tangents=V.tangents, sheet=V.sheet,
                        resolution=V.resolution,
                        patch_radius=V.patch_radius)
    # the shifted cloud is far from the cone; a tight gate rejects it
    D = Cone.pair(Subspace(np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])),
                  Subspace(np.array([[0, 1.0, 0, 0], [0, 0, 1.0, 0]])))
    V2 = sample_cone(D, 8000, radius=2.5)
    with pytest.raises(ValueError):
        decay_pipeline(V2, Ct, q_gate=1e-3, fit_min_samples=500)


def _gathered_fit(V, cone_class, C0, R):
    """``fit_cone`` as it was before fits were streamed: the window is
    gathered once, clusters are copied from it, and a four half-plane fit
    projects the whole window off the axis.  A test-only reference."""
    pts, wts = V.gather(R)
    mass = float(wts.sum())
    d = conefit._nearest_piece(pts, [P.distance for P in C0.pieces])[0]
    init_val = conefit.weighted_square_sum(d, wts)
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
                        conefit._moment(pts[sel], wts[sel]), n)
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
                v = conefit._top_eigvecs(conefit._moment(q[sel], wts[sel]),
                                         1)[0]
                if v @ np.average(q[sel], axis=0, weights=wts[sel]) < 0:
                    v = -v
                sides[i] = v
            cone = Cone.four_half_planes(A, sides)
        d = conefit._nearest_piece(pts, [H.distance
                                         for H in cone.pieces])[0]
    val = conefit.weighted_square_sum(d, wts)
    return (cone, val) if val < init_val else (C0, init_val)


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
        truth = cone_fixture("transverse_pair_r4" if cone_class == "pair"
                             else "four_half_planes_r4")
        V = sample_cone(truth, 3000, radius=2.0)
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
