import numpy as np
import pytest

from mintwo.cones import Cone
from mintwo.fixtures import FixtureSpec, cone_fixture, generate
from mintwo.geometry import Subspace
from mintwo.linkclass import (LinkSample, classify_arcs, classify_link,
                              sample_link)
from mintwo.twovalued import TwoValuedGrid


def _half_circle(u, v, m=100):
    t = np.linspace(0, np.pi, m)
    return np.outer(np.cos(t), u) + np.outer(np.sin(t), v)


def test_transverse_pair_link_is_two_circles():
    C = cone_fixture("transverse_pair_r4")
    r = classify_link(sample_link(C, M=256))
    assert r.verdict == "two_disjoint_great_circles"
    assert max(r.diagnostics["geodesy_residuals"]) < 1e-12
    assert r.diagnostics["min_curve_gap"] > 0.5


def test_four_half_planes_link():
    C = cone_fixture("four_half_planes_r4")
    for M in (128, 256):
        r = classify_link(sample_link(C, M=M))
        assert r.verdict == "four_half_circles"
        assert r.diagnostics["antipodal_gap"] < 2.0 / M
        assert all(d < 0.02 for d in r.balance_defects)
        assert len(r.junction_points) == 2


def test_link_rotation_invariance():
    C = cone_fixture("four_half_planes_r4")
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    # rotate the codomain only, keeping the pieces graphical
    R = np.eye(4)
    R[2:, 2:] = q
    A = C.axis()
    Cr = Cone.four_half_planes(Subspace(A.basis @ R.T),
                               [H.side @ R.T for H in C.pieces])
    r = classify_link(sample_link(Cr, M=256))
    assert r.verdict == "four_half_circles"
    assert all(d < 0.02 for d in r.balance_defects)


def test_link_from_crossing_grid():
    # {0.3x, -0.3x} over R^2: the planes cross along the y axis, so the
    # link is four half circles through two antipodal junctions
    def fn(pts):
        return 0.3 * pts[:, :1], -0.3 * pts[:, :1]
    g = TwoValuedGrid.from_function(fn, 2, 1, 1.5, 1 / 128)
    r = classify_link(sample_link(g, M=256))
    assert r.verdict == "four_half_circles"
    assert r.diagnostics["antipodal_gap"] < 1e-10


def test_link_from_disjoint_grid():
    def fn(pts):
        a = np.hstack([0.3 * pts[:, :1], np.zeros((len(pts), 1))])
        b = np.hstack([np.zeros((len(pts), 1)), 0.3 * pts[:, 1:2]])
        return a, b
    g = TwoValuedGrid.from_function(fn, 2, 2, 1.5, 1 / 64)
    r = classify_link(sample_link(g, M=128))
    assert r.verdict == "two_disjoint_great_circles"


def test_classify_link_evaluates_closed_form_grid_once_per_slab(
        monkeypatch, tmp_path):
    # the homogeneity check reads the values before the Lipschitz pass,
    # which then reads the filled arrays instead of fn again
    from mintwo.cli import main
    from mintwo.twovalued import _slabs
    calls = []
    evaluate = TwoValuedGrid._evaluate

    def counted(self, rows, v1, v2):
        calls.append(rows)
        return evaluate(self, rows, v1, v2)
    monkeypatch.setattr(TwoValuedGrid, "_evaluate", counted)
    assert main(["classify-link", "--fixture", "holo_pair_curved",
                 "--param", "b=0", "--h", "0.015625", "--radius", "1.5",
                 "--out", str(tmp_path / "link.json")]) == 0
    f = generate(FixtureSpec("holo_pair_curved", 0.015625, radius=1.5))
    assert calls == list(_slabs(f.dims))
    assert len(calls) == 10

def test_link_rejects_inhomogeneous_grid():
    g = generate(FixtureSpec("holo_pair_curved", 1 / 64, radius=1.5,
                             params={"a": 1.0, "b": 1.0}))
    with pytest.raises(ValueError):
        sample_link(g, M=128)


def test_classify_needs_enough_angles():
    C = cone_fixture("transverse_pair_r4")
    with pytest.raises(ValueError):
        classify_link(sample_link(C, M=32))


def test_three_arc_network_inconsistent():
    # three half circles through +-e3: degree-3 junctions cannot balance
    e3 = np.array([0.0, 0.0, 1.0])
    arcs = [_half_circle(e3, np.array([1.0, 0.0, 0.0])),
            _half_circle(e3, np.array([0.0, 1.0, 0.0])),
            _half_circle(e3, np.array([-1.0, 0.0, 0.0]))]
    r = classify_arcs(arcs)
    assert r.verdict == "inconsistent"
    assert r.diagnostics["junction_degrees"] == [3, 3]
    assert min(r.balance_defects) > 0.5


def test_four_arc_network_consistent():
    e3 = np.array([0.0, 0.0, 1.0])
    dirs = [np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0]),
            np.array([0.0, 1.0, 0.0]), np.array([0.0, -1.0, 0.0])]
    r = classify_arcs([_half_circle(e3, d) for d in dirs])
    assert r.verdict == "four_half_circles"
    assert max(r.balance_defects) < 1e-10


def test_unbalanced_junction_defect_closed_form():
    # tilt one outgoing direction by delta: the tangent sum has norm
    # 2 sin(delta / 2) at each junction
    delta = 0.2
    e3 = np.array([0.0, 0.0, 1.0])
    tilted = np.array([np.cos(delta), np.sin(delta), 0.0])
    dirs = [tilted, np.array([-1.0, 0.0, 0.0]),
            np.array([0.0, 1.0, 0.0]), np.array([0.0, -1.0, 0.0])]
    r = classify_arcs([_half_circle(e3, d) for d in dirs])
    want = np.linalg.norm(tilted - np.array([1.0, 0.0, 0.0]))
    for d in r.balance_defects:
        assert d == pytest.approx(want, abs=1e-3)


def test_closed_disjoint_circles_via_arcs():
    t = np.linspace(0, 2 * np.pi, 200, endpoint=False)
    c1 = np.column_stack([np.cos(t), np.sin(t), 0 * t, 0 * t])
    c2 = np.column_stack([0 * t, 0 * t, np.cos(t), np.sin(t)])
    assert classify_arcs([c1, c2]).verdict == "two_disjoint_great_circles"


def test_non_geodesic_circle_rejected():
    # a latitude circle spans an affine 2-plane missing the origin
    t = np.linspace(0, 2 * np.pi, 200, endpoint=False)
    c1 = np.column_stack([np.cos(t), np.sin(t), 0 * t, 0 * t])
    lat = np.column_stack([0.8 * np.cos(t), 0.8 * np.sin(t),
                           0.6 + 0 * t, 0 * t])
    assert classify_arcs([c1, lat]).verdict == "inconsistent"


def test_link_sample_validates_sphere():
    with pytest.raises(ValueError):
        LinkSample(np.array([0.0, 1.0]),
                   np.ones((2, 2, 3)), np.zeros(2, dtype=bool))


def test_classification_json_round_trip():
    import json
    C = cone_fixture("four_half_planes_r4")
    r = classify_link(sample_link(C, M=128))
    obj = json.loads(r.to_json())
    assert obj["verdict"] == "four_half_circles"
    assert len(obj["junction_points"]) == 2
    assert len(obj["balance_defects"]) == 2
