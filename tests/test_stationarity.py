import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mintwo.stationarity as stationarity
from mintwo.fixtures import FixtureSpec, generate, lo_map
from mintwo.stationarity import (BumpField, first_variation_defect,
                                 mss_residual)
from mintwo.twovalued import TwoValuedGrid
from mintwo.varifold import SampledVarifold, sample_graph

from memory import traced_peak


def _linear_pair(h):
    return generate(FixtureSpec("pair_planes", h, 1.0,
                                {"g1": [[0.3, 0.0], [0.0, -0.2]],
                                 "g2": [[0.0, 0.1], [0.4, 0.0]],
                                 "c2": [1.0, 0.0]}))


def _max_defect(V, fields, **kwargs):
    return max(first_variation_defect(V, fields, **kwargs))


def _fields(d, radius=0.8, center=None):
    c = np.zeros(d) if center is None else np.asarray(center, dtype=float)
    return [BumpField("coordinate_bump", c, radius,
                      direction=np.eye(d)[-1]),
            BumpField("radial_bump", c, radius)]


def test_defect_small_on_linear_pair():
    # exact planes: the defect is pure midpoint-quadrature error
    V = sample_graph(_linear_pair(1 / 32))
    assert _max_defect(V, _fields(4)) < 1e-5


def test_defect_second_order_on_linear_pair():
    vals = [_max_defect(sample_graph(_linear_pair(h)), _fields(4))
            for h in (1 / 16, 1 / 32)]
    assert vals[1] < vals[0] / 3.5


def test_defect_linear_in_field_amplitude():
    V = sample_graph(_linear_pair(1 / 16))
    f1 = BumpField("radial_bump", np.zeros(4), 0.8, amplitude=1.0)
    f2 = BumpField("radial_bump", np.zeros(4), 0.8, amplitude=2.0)
    d1 = _max_defect(V, [f1])
    d2 = _max_defect(V, [f2])
    assert d2 == pytest.approx(2.0 * d1, rel=1e-12)


def test_defect_nonminimal_graph_bounded_below():
    # paraboloid sheets are far from stationary: the defect has a floor
    def fn(pts):
        v = np.einsum("md,md->m", pts, pts)[:, None]
        z = np.zeros_like(v)
        return np.hstack([v, z]), np.hstack([v, z + 2.0])
    g = TwoValuedGrid.from_function(fn, 2, 2, 1.0, 1 / 64)
    V = sample_graph(g)
    f = [BumpField("coordinate_bump", np.zeros(4), 0.5,
                   direction=np.eye(4)[2])]
    assert _max_defect(V, f) > 0.1


def test_defect_vanishes_across_four_half_plane_junction():
    # fields straddling the crossing axis: the four unit-density half
    # planes balance, so the defect decays under refinement
    vals = []
    for h in (1 / 64, 1 / 256):
        g = generate(FixtureSpec("four_half_planes", h, radius=1.0))
        V = sample_graph(g)
        vals.append(_max_defect(V, _fields(3, radius=0.5),
                                max_unreliable=0.3))
    assert vals[1] < vals[0] / 10
    assert vals[1] < 1e-6


def test_defect_broken_junction_bounded_below():
    # three half lines at 0, 90 and 180 degrees: the tangent forces at the
    # junction sum to (0, 1), so no refinement makes this stationary
    ts = np.linspace(0.01, 1.0, 300)
    dirs = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
            np.array([-1.0, 0.0])]
    pts = np.vstack([ts[:, None] * d for d in dirs])
    w = np.full(len(pts), ts[1] - ts[0])
    tan = np.vstack([np.broadcast_to(d[None, None], (len(ts), 1, 2))
                     for d in dirs])
    V = SampledVarifold(1, 1, pts, w, tangents=tan)
    assert _max_defect(V, _fields(2, radius=0.5)) > 0.2


def test_defect_decays_on_lo_annulus():
    # the two-valued minimal graph away from its singular point: the defect
    # over bumps supported in an annulus at least halves per h-halving
    x0 = np.array([0.55, 0.0, 0.0, 0.0])
    c = np.concatenate([x0, lo_map(x0[None])[0]])
    vals = []
    for h in (1 / 8, 1 / 16):
        g = generate(FixtureSpec("lo_two_valued", h, radius=1.0))
        V = sample_graph(g)
        vals.append(_max_defect(V, _fields(7, radius=0.3, center=c),
                                max_unreliable=0.2))
    assert vals[0] > 0
    assert vals[1] < vals[0] / 1.8


def _defect_reference(V, f):
    # the whole-array pass first_variation_defect once made per field
    sup = f.supported(V.points)
    J = f.jacobian(V.points[sup])
    T = V.frames(sup)
    div = np.einsum("mnd,mde,mne->m", T, J, T)
    return abs(float(np.sum(V.weights[sup] * div))) / f.unit_dphi_bound


@functools.lru_cache(maxsize=None)
def _lo_cloud():
    return sample_graph(generate(FixtureSpec("lo_two_valued", 1 / 4)))


@settings(max_examples=40, deadline=None)
@given(chunk=st.integers(3, 64), rounds=st.integers(0, 3),
       sup_tail=st.sampled_from([1, 2]), all_tail=st.sampled_from([1, 2]),
       axis=st.integers(-1, 6), offset=st.floats(-0.3, 0.3),
       radius=st.floats(0.4, 0.9))
def test_defect_chunked_equals_whole_array_pass(chunk, rounds, sup_tail,
                                                all_tail, axis, offset,
                                                radius):
    # a cloud cut so that its samples, and its supported samples, end in
    # a 1- or 2-row tail of a chunk
    V = _lo_cloud()
    center = np.full(7, offset)
    f = (BumpField("radial_bump", center, radius) if axis < 0 else
         BumpField("coordinate_bump", center, radius,
                   direction=np.eye(7)[axis]))
    sup = f.supported(V.points)
    inside, outside = np.flatnonzero(sup), np.flatnonzero(~sup)
    assume(len(inside) >= rounds * chunk + sup_tail)
    inside = inside[:rounds * chunk + sup_tail]
    total = len(inside) + len(outside)
    outside = outside[:len(outside) - (total - all_tail) % chunk]
    sel = np.sort(np.concatenate([inside, outside]))
    W = SampledVarifold(V.n, V.k, V.points[sel], V.weights[sel], None,
                        V.tangent_ok[sel], V.sheet[sel],
                        gradients=V.gradients[sel])
    assert len(sel) % chunk == all_tail
    want = _defect_reference(W, f)
    with mock.patch.object(stationarity, "_CHUNK", chunk):
        assert first_variation_defect(W, [f], max_unreliable=1.0) == [want]


@pytest.mark.parametrize("frames", [False, True])
def test_defect_bit_identical_across_chunk_sizes(frames):
    # one pass over fields of different supports gives each field the
    # value of its own whole-array pass, on a graph cloud and on a cloud
    # that carries its frames
    V = _lo_cloud()
    if frames:
        V = SampledVarifold(V.n, V.k, V.points, V.weights,
                            V.frames(slice(None)), V.tangent_ok, V.sheet)
    fields = (_fields(7, radius=0.7)
              + _fields(7, radius=0.3, center=[0.2] * 7)
              + [BumpField("coordinate_bump", np.full(7, -0.3), 0.4,
                           direction=np.eye(7)[4])])
    want = [_defect_reference(V, f) for f in fields]
    for chunk in (1, 2, 5, len(V.weights) + 1):
        with mock.patch.object(stationarity, "_CHUNK", chunk):
            assert first_variation_defect(V, fields,
                                          max_unreliable=1.0) == want


def test_defect_checks_fields_in_order():
    # the first field that fails its check names the error, before any
    # divergence is computed
    V = sample_graph(_linear_pair(1 / 8))
    ok = _fields(4)[0]
    off = _fields(4, radius=0.5, center=[0.0, 0.0, 5.0, 0.0])[0]
    bad = SampledVarifold(V.n, V.k, V.points, V.weights, None,
                          np.zeros(len(V.weights), dtype=bool),
                          gradients=V.gradients)
    with pytest.raises(ValueError, match="no sample in the support"):
        first_variation_defect(bad, [off, ok], max_unreliable=0.5)
    with pytest.raises(ValueError, match="unreliable tangents"):
        first_variation_defect(bad, [ok, off], max_unreliable=0.5)
    with mock.patch.object(stationarity, "_tangential_div",
                           side_effect=AssertionError):
        with pytest.raises(ValueError, match="no sample in the support"):
            first_variation_defect(V, [ok, off])


def test_sampling_and_first_variation_memory():
    # the verify-stationary work on the 4-d fixture at h=1/16: beyond the
    # cloud, sampling holds the slab window, the kept cells and one block
    # of cells, and the first variation a support mask per field, one
    # term per supported sample and field, and one chunk of frames and
    # Jacobians.
    # Row-wide slabs in the Lipschitz pass, 8,192-cell sampling chunks and
    # a Jacobian per supported sample took about 10 MiB beyond the cloud.
    def check():
        g = generate(FixtureSpec("lo_two_valued", 1 / 16))
        V = sample_graph(g, base_radius=0.5 + 2 * g.h)
        del g
        first_variation_defect(
            V, [BumpField("radial_bump", np.zeros(7), 0.5)] + [
                BumpField("coordinate_bump", np.zeros(7), 0.5, direction=e)
                for e in np.eye(7)], max_unreliable=0.6)
        return V
    V, peak = traced_peak(check)
    assert peak - V.nbytes < 8 * 2 ** 20


def test_defect_rejects_field_off_the_cloud():
    # over the unit disc both sheets take values of size below 2
    V = sample_graph(_linear_pair(1 / 8))
    with pytest.raises(ValueError, match="no sample in the support"):
        _max_defect(V, _fields(4, radius=0.5, center=[0.0, 0.0, 5.0, 0.0]))


@pytest.mark.parametrize("value", [-0.1, 1.5, np.nan])
def test_defect_rejects_max_unreliable_outside_unit_interval(value):
    V = sample_graph(_linear_pair(1 / 8))
    with pytest.raises(ValueError, match="max_unreliable"):
        _max_defect(V, _fields(4), max_unreliable=value)


def test_defect_requires_tangents():
    V = sample_graph(_linear_pair(1 / 8), with_tangents=False)
    with pytest.raises(ValueError):
        _max_defect(V, _fields(4))


def test_field_rejects_bad_input():
    with pytest.raises(ValueError):
        BumpField("sine_wave", np.zeros(3), 0.5)
    with pytest.raises(ValueError):
        BumpField("radial_bump", np.zeros(3), -1.0)


@pytest.mark.parametrize("radius", [np.nan, np.inf])
def test_field_rejects_radius_not_finite(radius):
    # a NaN radius once passed the radius <= 0 check and supported nothing
    with pytest.raises(ValueError, match="radius must be positive and "
                                         "finite"):
        BumpField("coordinate_bump", np.zeros(3), radius,
                  direction=[1.0, 0.0, 0.0])


def _grid(fn, h=1 / 32):
    # a single-valued sheet: a grid whose two values coincide
    return TwoValuedGrid.from_function(lambda pts: (fn(pts), fn(pts)),
                                       2, 1, 1.0, h)


def test_mss_residual_exact_zero_on_linear():
    f = _grid(lambda pts: pts @ np.array([[0.3], [0.5]]))
    assert mss_residual(f, [(np.zeros(2), 0.5)]) < 1e-14


def test_mss_residual_constant_shift_invariant():
    f = _grid(lambda pts: pts @ np.array([[0.3], [0.5]])
              + 0.2 * np.sin(3 * pts[:, :1]))
    g = TwoValuedGrid(2, 1, f.radius, f.h, f.a1 + 7.0, f.a2 + 7.0)
    bumps = [(np.zeros(2), 0.5), (np.array([0.2, -0.1]), 0.4)]
    assert mss_residual(g, bumps) == pytest.approx(mss_residual(f, bumps),
                                                   rel=1e-9)


def test_mss_residual_paraboloid_bounded_below():
    f = _grid(lambda pts: np.einsum("md,md->m", pts, pts)[:, None])
    assert mss_residual(f, [(np.zeros(2), 0.5)]) > 0.1


def test_mss_residual_rejects_support_touching_boundary():
    f = _grid(lambda pts: pts[:, :1])
    with pytest.raises(ValueError):
        mss_residual(f, [(np.array([0.9, 0.0]), 0.5)])


def test_mss_residual_rejects_two_different_values():
    f = TwoValuedGrid.from_function(
        lambda pts: (pts[:, :1], pts[:, :1] + 1e-3), 2, 1, 1.0, 1 / 32)
    with pytest.raises(ValueError, match="single-valued"):
        mss_residual(f, [(np.zeros(2), 0.5)])


@pytest.mark.parametrize("h,residual", [(1 / 8, 0.0012347773774802745),
                                        (1 / 16, 0.0003511741234083478)])
def test_mss_residual_of_hopf_cone_pinned(h, residual):
    # acceptance criterion 03's residuals, equal bit for bit to those of
    # the single-valued box grid that once held the Hopf-cone patch
    f = generate(FixtureSpec("hopf_lo_cone", h))
    bumps = [(np.array([0.6, 0.0, 0.0, 0.0]), 0.25),
             (np.array([0.0, -0.6, 0.0, 0.0]), 0.25)]
    assert mss_residual(f, bumps) == residual
