"""Block sizes change the working set of a call, never its result.

Each case runs once at the default block sizes (``varifold._CHUNK`` rows
and ``twovalued._SLAB_NODES`` nodes) and once at small odd ones (257 rows,
and slabs of one line along the last axis), on clouds and grids that span
many blocks, and requires the same result bit for bit.
"""

import numpy as np
import pytest

import mintwo.twovalued as twovalued
import mintwo.varifold as varifold
from mintwo.cli import main
from mintwo.conefit import fit_cone
from mintwo.excess import dist_to_varifold, excess_E, excess_Q
from mintwo.fixtures import FixtureSpec, cone_fixture, generate
from mintwo.geometry import Ball, Cylinder
from mintwo.varifold import SimilarityView, sample_graph

SMALL = 257


def _small_blocks(monkeypatch):
    monkeypatch.setattr(varifold, "_CHUNK", SMALL)
    monkeypatch.setattr(twovalued, "_SLAB_NODES", 1)


def _bits(x):
    if isinstance(x, float):
        return x.hex()
    return x.dtype, x.shape, x.tobytes()


@pytest.fixture(scope="module")
def wide_cloud():
    # 39,614 samples: 155 blocks of 257 rows
    return sample_graph(generate(FixtureSpec("holo_pair_curved", 1 / 32,
                                             radius=2.5)))


def _views(V):
    return [V, SimilarityView(V, None, 1.0, cyl=2.2),
            SimilarityView(V, np.array([0.03, -0.02, 0.01, 0.0]), 0.5,
                           cyl=2.2)]


@pytest.mark.parametrize("cone,cone_class", [
    ("transverse_pair_r4", "pair"), ("four_half_planes_r4", "four_hp")])
def test_fit_cone_independent_of_blocks(cone, cone_class, wide_cloud,
                                        monkeypatch):
    C0 = cone_fixture(cone)

    def fits():
        return [(C.to_json(), val.hex()) for view in _views(wide_cloud)
                for C, val in [fit_cone(view, cone_class, C0,
                                        R=Ball(np.zeros(4), 1.5))]]
    want = fits()
    _small_blocks(monkeypatch)
    assert fits() == want


def test_functionals_independent_of_blocks(wide_cloud, monkeypatch):
    C = cone_fixture("transverse_pair_r4")
    Y = C.sample_support(700, 2.0, "cylinder")[0]
    regions = [None, Ball(np.zeros(4), 1.0), Cylinder(2, 2.0)]

    def values():
        out = []
        for view in _views(wide_cloud):
            v = varifold.as_view(view)
            out += [v.total_mass.hex(), v.count()]
            for R in regions:
                out += [_bits(a) for a in v.gather(R)] + [v.count(R)]
                if R is not None:
                    out.append(excess_E(view, C, R).hex())
            out += [_bits(dist_to_varifold(view, Y)),
                    excess_Q(view, C, count_per_piece=700).to_json()]
        return out
    want = values()
    _small_blocks(monkeypatch)
    assert values() == want


_GRIDS = {
    "holo_pair_curved": FixtureSpec("holo_pair_curved", 1 / 64),
    "lo_two_valued": FixtureSpec("lo_two_valued", 1 / 8),
}


def _cloud_bits(V):
    return [None if a is None else (_bits(a), a.strides)
            for a in (V.points, V.weights, V.tangent_ok, V.sheet,
                      V.tangents, V.gradients)]


@pytest.mark.parametrize("name", sorted(_GRIDS))
@pytest.mark.parametrize("base_radius", [np.inf, 0.7])
@pytest.mark.parametrize("with_tangents", [True, False])
def test_sample_graph_independent_of_blocks(name, base_radius,
                                            with_tangents, monkeypatch):
    g = generate(_GRIDS[name])
    want = _cloud_bits(sample_graph(g, with_tangents, base_radius))
    _small_blocks(monkeypatch)
    assert len(list(twovalued._slabs(g.dims))) == g.mask.size // g.dims[-1]
    assert _cloud_bits(sample_graph(g, with_tangents, base_radius)) == want
    assert "_values" not in vars(g)


@pytest.mark.parametrize("base_radius", [np.inf, 0.5])
def test_windowed_sampling_matches_gen_round_trip(base_radius, tmp_path,
                                                  monkeypatch):
    # the closed-form grid, read through the slab window, and the same
    # grid written by ``gen`` and read back as a stored ``custom_grid``
    path = tmp_path / "grid.json"
    assert main(["gen", "--fixture", "holo_pair_curved", "--h", "0.015625",
                 "--out", str(path)]) == 0
    stored = generate(FixtureSpec("custom_grid", 0.015625,
                                  params={"path": str(path)}))
    for small in (False, True):
        if small:
            _small_blocks(monkeypatch)
        g = generate(FixtureSpec("holo_pair_curved", 0.015625))
        assert (_cloud_bits(sample_graph(g, base_radius=base_radius))
                == _cloud_bits(sample_graph(stored,
                                            base_radius=base_radius)))
        assert "_values" not in vars(g)
