import hashlib
import json

import numpy as np
import pytest

from mintwo.blowup import (ConeField, HElement, dehomogenize, eval_H,
                           harmonic_defect, homogeneity_defect)
from mintwo.fixtures import cone_fixture
from mintwo.geometry import complement_basis

from memory import traced_peak


def _pair_maps():
    return [np.array([[0.2, -0.1], [0.05, 0.3], [0.4, 0.0]]),
            np.array([[0.0, 0.1], [-0.2, 0.0], [0.0, -0.3]])]


def _four_hp_element():
    C4 = cone_fixture("four_half_planes_r4")
    A = C4.axis()
    c = 0.3 * np.array([[0.0, 0.0, 1.0, 0.0]])
    phi = []
    for H in C4.pieces:
        T = np.vstack([H.side[None], A.basis])
        w = np.array([0.1, -0.05, 0.2, 0.15])
        phi.append(w - T.T @ np.linalg.solve(T @ T.T, T @ w))
    return HElement(C4, c=c, phi=np.array(phi))


def _plane_scalar_field(C, fn_coords, h=1 / 32):
    """Scalar profile times the first normal direction of piece 0."""
    P0 = C.pieces[0]
    N0 = complement_basis(P0.basis, C.ambient_dim)

    def fn(X):
        c1 = X @ P0.basis.T
        q = fn_coords(c1)
        piece = C.nearest_piece(X)
        out = np.zeros_like(X)
        out[piece == 0] = q[piece == 0, None] * N0[0]
        return out
    return ConeField.from_function(C, fn, h)


def test_eval_element_closed_form_pair():
    C = cone_fixture("transverse_pair_r4")
    psi = HElement(C, maps=_pair_maps())
    # a point on piece 0 at in-plane coordinates (0.5, -0.2)
    X = 0.5 * C.pieces[0].basis[0] - 0.2 * C.pieces[0].basis[1]
    want_normal_coeffs = (np.array([0.5, -0.2, 1.0]) @ psi.maps[0])
    N0 = complement_basis(C.pieces[0].basis, 4)
    want = want_normal_coeffs @ N0
    got = eval_H(psi, X, piece=0)[0]
    assert np.linalg.norm(got - want) < 1e-12


def test_eval_element_closed_form_four_hp():
    psi = _four_hp_element()
    C4 = psi.C0
    H0 = C4.pieces[0]
    A = C4.axis()
    r, y = 0.4, -0.3
    X = r * H0.side + y * A.basis[0]
    T = np.vstack([H0.side[None], A.basis])
    cperp = psi.c[0] - T.T @ np.linalg.solve(T @ T.T, T @ psi.c[0])
    want = y * cperp + r * psi.phi[0]
    got = eval_H(psi, X, piece=0)[0]
    assert np.linalg.norm(got - want) < 1e-12


def test_eval_rejects_axis_point():
    psi = _four_hp_element()
    with pytest.raises(ValueError):
        eval_H(psi, psi.axis.basis[0], piece=0)


def test_element_validation():
    C4 = cone_fixture("four_half_planes_r4")
    with pytest.raises(ValueError):
        HElement(C4, c=C4.axis().basis.copy())  # not in the complement
    with pytest.raises(ValueError):
        HElement(C4, phi=np.ones((4, 4)))  # not orthogonal to pieces


def test_dehomogenize_recovers_pair_element():
    C = cone_fixture("transverse_pair_r4")
    psi = HElement(C, maps=_pair_maps())
    v = ConeField.from_element(psi, h=1 / 32)
    rec, norms = dehomogenize(v)
    err = np.linalg.norm(rec.coefficient_vector()
                         - psi.coefficient_vector())
    assert err < 1e-10
    assert norms["residual"] < 1e-10
    assert norms["orthogonality"] < 1e-8


def test_dehomogenize_recovers_four_hp_element():
    psi = _four_hp_element()
    v = ConeField.from_element(psi, h=1 / 24)
    rec, norms = dehomogenize(v)
    err = np.linalg.norm(rec.coefficient_vector()
                         - psi.coefficient_vector())
    assert err < 1e-10
    assert norms["residual"] < 1e-10
    assert norms["orthogonality"] < 1e-8


@pytest.mark.parametrize("name, digest", [
    ("transverse_pair_r4",
     "fad0fb87329ab427199eb293258c48cdcc6047d109fe5096c32c060dfc17c5c2"),
    ("four_half_planes_r4",
     "b52164a819010a67e237cc30da79ec6787d890639be4bba07a33c5274e716a7a")])
def test_chart_lattices_pinned(name, digest):
    # SHA-256 of every chart's coords, X and frame, in piece order
    h = hashlib.sha256()
    for ch in ConeField(cone_fixture(name), h=1 / 8).charts:
        for key in ("coords", "X", "frame"):
            h.update(np.ascontiguousarray(ch[key]).tobytes())
    assert h.hexdigest() == digest


def test_dehomogenize_four_hp_norms_pinned():
    # the half-plane tangents are the chart frames [side; boundary]; the
    # projection of a four half-plane field keeps its norms bit for bit
    v = ConeField.from_element(_four_hp_element(), h=1 / 24)
    _, norms = dehomogenize(v)
    assert norms["field"] == 10.175236739670146
    assert norms["projection"] == 10.17523673967015


def test_dehomogenize_commutes_with_scaling():
    C = cone_fixture("transverse_pair_r4")
    maps = _pair_maps()
    r1, _ = dehomogenize(ConeField.from_element(HElement(C, maps=maps),
                                                h=1 / 32))
    r2, _ = dehomogenize(ConeField.from_element(
        HElement(C, maps=[3.0 * m for m in maps]), h=1 / 32))
    assert np.allclose(r2.coefficient_vector(),
                       3.0 * r1.coefficient_vector(), atol=1e-12)


def test_dehomogenize_idempotent():
    # projecting the projection changes nothing and leaves zero residual
    C = cone_fixture("transverse_pair_r4")
    v = _plane_scalar_field(C, lambda c: c[:, 0] ** 2)
    rec, _ = dehomogenize(v)
    w = ConeField.from_element(rec, h=v.h)
    rec2, norms2 = dehomogenize(w)
    assert np.allclose(rec2.coefficient_vector(),
                       rec.coefficient_vector(), atol=1e-10)
    assert norms2["residual"] < 1e-10


def test_dehomogenize_quadratic_mean_value():
    # v = x1^2 over the unit disk of one plane: the constant part of the
    # projection is the disk mean 1/4, and the linear parts vanish by
    # symmetry
    C = cone_fixture("transverse_pair_r4")
    v = _plane_scalar_field(C, lambda c: c[:, 0] ** 2, h=1 / 64)
    rec, _ = dehomogenize(v)
    assert rec.maps[0][2, 0] == pytest.approx(0.25, abs=0.01)
    assert np.abs(rec.maps[0][:2]).max() < 1e-10


def test_dehomogenize_rejects_starved_window():
    C = cone_fixture("transverse_pair_r4")
    v = _plane_scalar_field(C, lambda c: c[:, 0], h=1 / 8)
    with pytest.raises(ValueError):
        dehomogenize(v, rho=0.1)


def test_dehomogenize_rejects_degenerate_sampling():
    # the ball meets plane 0 only (plane 1 is 0.42 away from its centre),
    # so the six fields of plane 1 vanish on every sample
    C = cone_fixture("transverse_pair_r4")
    v = ConeField.from_element(HElement(C, maps=[np.ones((3, 2))] * 2),
                               h=1 / 32)
    with pytest.raises(ValueError,
                       match="degenerate sampling: basis rank 6 < 12"):
        dehomogenize(v, Z=(0.6, 0, 0, 0), rho=0.3)


@pytest.mark.parametrize("element, nb", [
    (lambda: HElement(cone_fixture("transverse_pair_r4"), maps=_pair_maps()),
     12),
    (_four_hp_element, 11)], ids=["pair", "four_hp"])
def test_dehomogenize_transient_memory(element, nb):
    # the design matrix (rows x nb doubles) is built once in place and
    # solved by one SVD, which copies it once
    v = ConeField.from_element(element(), h=1 / 128)
    rows = v.C0.k * sum(int((np.linalg.norm(ch["X"], axis=-1) < 1).sum())
                        for ch in v.charts)
    _, peak = traced_peak(dehomogenize, v)
    assert peak < 2.5 * rows * nb * 8


def test_harmonic_defect_oracles():
    C = cone_fixture("transverse_pair_r4")
    lin = _plane_scalar_field(C, lambda c: c[:, 0])
    assert harmonic_defect(lin) == 0.0
    # Re z^2 is harmonic: the five-point stencil is exact on quadratics
    harm = _plane_scalar_field(C, lambda c: c[:, 0] ** 2 - c[:, 1] ** 2)
    assert harmonic_defect(harm) < 1e-10
    # |x|^2 has Laplacian 2n = 4 and sup 2 on the chart
    quad = _plane_scalar_field(C, lambda c: (c ** 2).sum(axis=1))
    assert harmonic_defect(quad) == pytest.approx(2.0, rel=1e-10)


def test_harmonic_defect_zero_field():
    C = cone_fixture("transverse_pair_r4")
    v = ConeField(C, h=1 / 16)
    assert harmonic_defect(v) == 0.0


def test_homogeneity_defect_oracles():
    C = cone_fixture("transverse_pair_r4")
    maps = [np.array([[0.2, -0.1], [0.05, 0.3], [0.0, 0.0]]),
            np.array([[0.0, 0.1], [-0.2, 0.0], [0.0, 0.0]])]
    lin = ConeField.from_element(HElement(C, maps=maps), h=1 / 32)
    assert homogeneity_defect(lin) < 1e-20
    psi4 = _four_hp_element()
    v4 = ConeField.from_element(psi4, h=1 / 24)
    assert homogeneity_defect(v4) < 1e-20
    quad = _plane_scalar_field(C, lambda c: (c ** 2).sum(axis=1))
    assert homogeneity_defect(quad) > 1.0
    assert homogeneity_defect(quad, degree=2.0) < 1e-20


def test_field_json_round_trip():
    psi = _four_hp_element()
    v = ConeField.from_element(psi, h=1 / 12)
    text = v.to_json()
    w = ConeField.from_json(text)
    assert w.to_json() == text


def test_field_json_rejects_missing_charts():
    v = ConeField.from_element(_four_hp_element(), h=1 / 12)
    doc = json.loads(v.to_json())
    doc["values"] = doc["values"][:3]
    with pytest.raises(ValueError, match="holds 3 charts"):
        ConeField.from_json(json.dumps(doc))


def test_field_rejects_tangential_values():
    C = cone_fixture("transverse_pair_r4")
    with pytest.raises(ValueError):
        ConeField.from_function(C, lambda X: X.copy(), h=1 / 16)
