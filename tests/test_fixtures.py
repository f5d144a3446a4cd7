import numpy as np
import pytest

from mintwo.fixtures import (FixtureSpec, LO_CONSTANT, cone_fixture,
                             generate, hopf, lo_map)
from mintwo.twovalued import lipschitz_estimate, metric_G


def test_hopf_basepoint():
    assert np.allclose(hopf(1.0, 0.0), [1.0, 0.0, 0.0])


def test_hopf_diagonal():
    v = hopf(1 / np.sqrt(2), 1 / np.sqrt(2))
    assert np.allclose(v, [0.0, 1.0, 0.0], atol=1e-12)


def test_hopf_maps_sphere_to_sphere():
    rng = np.random.default_rng(21)
    z = rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))
    v = hopf(z[:, 0], z[:, 1])
    assert np.allclose(np.linalg.norm(v, axis=-1), 1.0, atol=1e-12)


def test_hopf_rejects_origin():
    with pytest.raises(ValueError):
        hopf(0.0, 0.0)


def test_lo_map_homogeneous_degree_one():
    rng = np.random.default_rng(22)
    x = rng.standard_normal((20, 4))
    lam = 2.7
    assert np.allclose(lo_map(lam * x), lam * lo_map(x), atol=1e-12)


def test_lo_map_norm():
    # |f(x)| = (sqrt5/2)|x| since the Hopf image is a unit vector
    rng = np.random.default_rng(23)
    x = rng.standard_normal((20, 4))
    assert np.allclose(np.linalg.norm(lo_map(x), axis=-1),
                       LO_CONSTANT * np.linalg.norm(x, axis=-1), atol=1e-12)


def test_lo_constant_is_symbolic():
    assert LO_CONSTANT == np.sqrt(5.0) / 2.0


def test_four_half_planes_values():
    g = generate(FixtureSpec("four_half_planes", 0.25, radius=1.5))
    idx_m1 = tuple(np.argwhere(np.isclose(g.coords[..., 0], -1.0))[0])
    idx_p1 = tuple(np.argwhere(np.isclose(g.coords[..., 0], 1.0))[0])
    a1, a2 = g.a1[idx_m1], g.a2[idx_m1]
    assert {tuple(a1), tuple(a2)} == {(-1.0, 0.0), (1.0, 0.0)}
    b1, b2 = g.a1[idx_p1], g.a2[idx_p1]
    assert {tuple(b1), tuple(b2)} == {(0.0, 1.0), (0.0, -1.0)}


def test_branched_at_one():
    g = generate(FixtureSpec("branched_w32", 0.25, radius=1.0))
    idx = tuple(np.argwhere(np.isclose(g.coords[..., 0], 1.0) &
                            np.isclose(g.coords[..., 1], 0.0))[0])
    vals = {tuple(np.round(g.a1[idx], 12)), tuple(np.round(g.a2[idx], 12))}
    assert vals == {(1.0, 0.0), (-1.0, 0.0)}


def test_holo_pair_double_point_at_origin():
    g = generate(FixtureSpec("holo_pair_curved", 0.25, radius=1.0,
                             params={"a": 1.0, "b": 1.0}))
    idx = tuple(np.argwhere(np.isclose(g.coords[..., 0], 0.0) &
                            np.isclose(g.coords[..., 1], 0.0))[0])
    assert np.allclose(g.a1[idx], 0.0)
    assert np.allclose(g.a2[idx], 0.0)


def test_holo_pair_reads_complex_string_params():
    # "--param a=1+2j" is not JSON, so it arrives as the string "1+2j"
    g = generate(FixtureSpec("holo_pair_curved", 0.25, radius=1.0,
                             params={"a": "1+2j", "b": 0}))
    idx = tuple(np.argwhere(np.isclose(g.coords[..., 0], 1.0) &
                            np.isclose(g.coords[..., 1], 0.0))[0])
    assert np.allclose(sorted(map(tuple, [g.a1[idx], g.a2[idx]])),
                       [(0.0, 0.0), (1.0, 2.0)])


def test_holo_pair_sheet_crossings():
    # sheets {w=0} and {w = z + z^2} coincide exactly at z = 0 and z = -1
    g = generate(FixtureSpec("holo_pair_curved", 0.125, radius=1.5,
                             params={"a": 1.0, "b": 1.0}))
    sep = np.linalg.norm(g.a1 - g.a2, axis=-1)
    close = np.argwhere(g.mask & (sep < 1e-10))
    pts = np.array([g.coords[tuple(i)] for i in close])
    for p in pts:
        near_zero = np.linalg.norm(p) < 1e-9
        near_minus_one = np.linalg.norm(p - [-1.0, 0.0]) < 1e-9
        assert near_zero or near_minus_one


def test_lo_two_valued_antipodal():
    g = generate(FixtureSpec("lo_two_valued", 0.5, radius=1.0))
    idx = tuple(g.inside_indices()[5])
    a1, a2 = g.a1[idx], g.a2[idx]
    assert np.allclose(a1, -a2)


def test_all_fixtures_lipschitz_finite():
    specs = [
        FixtureSpec("pair_planes", 0.25, 1.0,
                    {"g1": [[0.5, 0.0]], "g2": [[0.0, 0.5]]}),
        FixtureSpec("four_half_planes", 0.25, 1.0),
        FixtureSpec("branched_w32", 0.25, 1.0),
        FixtureSpec("holo_pair_curved", 0.25, 1.0),
        FixtureSpec("tilted_plane", 0.25, 1.0, {"slope": 0.3}),
        FixtureSpec("lo_two_valued", 0.5, 1.0),
        FixtureSpec("hopf_lo_cone", 0.5, 1.0),
    ]
    for spec in specs:
        L = lipschitz_estimate(generate(spec))
        assert np.isfinite(L)


def test_pair_planes_offsets():
    g = generate(FixtureSpec("pair_planes", 0.25, 1.0,
                             params={"g1": [[0.0]], "g2": [[0.0]],
                                     "c1": [0.0], "c2": [2.0]}))
    idx = tuple(g.inside_indices()[0])
    a1, a2 = g.a1[idx], g.a2[idx]
    assert metric_G((a1, a2), (np.array([0.0]), np.array([2.0]))) == \
        pytest.approx(0.0, abs=1e-12)


def test_unknown_fixture_rejected():
    with pytest.raises(ValueError):
        FixtureSpec("no_such_fixture", 0.25)


def test_bad_resolution_rejected():
    with pytest.raises(ValueError):
        FixtureSpec("branched_w32", -0.1)


def test_cone_fixture_unknown():
    with pytest.raises(ValueError):
        cone_fixture("nope")


def test_hopf_lo_cone_multiplicity_two():
    g = generate(FixtureSpec("hopf_lo_cone", 0.5, radius=1.0))
    assert np.allclose(g.a1[g.mask], g.a2[g.mask])
