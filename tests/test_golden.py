"""Golden report bodies: the six acceptance-criterion-10 configurations.

The configurations and the report hash come from ``bench/workloads.py`` (read
only), so the benchmark and this test share one list.  A change that moves a
hash must say which report changed and why.  ``PINNED`` adds reports kept
here only, outside the benchmark's list.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from mintwo.blowup import ConeField
from mintwo.cli import main as cli_main
from mintwo.conefit import _nearest_piece
from mintwo.fixtures import cone_fixture

_spec = importlib.util.spec_from_file_location(
    "bench_workloads",
    Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

GOLDEN_SHA256 = {
    "density":
        "7c1dd1a2f7ac1c467cc55169e1dd587a38e3efc31de3d385444297da699c51f7",
    "excess":
        "c990875aa94d1b15f34aa35aea548c440f41d900c357655179347f91698931e1",
    # every record now carries fit_radius (1.0 on each of the three
    # rungs); without it the body hashes to db066d59..., the hash before
    "decay":
        "bc35aa5f95d6543dad6c9cda11b65619b09c2e6a341ac672a1cc8a0aee0736ad",
    "decompose":
        "ce1d027d39d576a690c806082c2ac627b80a617b677923fb21a274bad0f8c19d",
    "link":
        "e7b5e80c6e300f293388309fd6f9a76fbc5b09adf922b77d2a8ffd2723c2801c",
    "stationary":
        "2bc34311022f7e4b9aec03b2c36d375d80604b1d2ee4d5d3bf99f8f46533f41e",
}


# None of the six golden reports changes when sample_graph stores its
# tangents C-contiguously instead of in the batched-QR order; this 4-d
# report does (its max_defect moves in the last bit)
PINNED = {
    "stationary_4d": (
        ["verify-stationary", "--fixture", "lo_two_valued", "--h", "0.125",
         "--max-unreliable", "1.0"],
        "341e50f5990578879a1ab725a6cdd8b7343d29e7599d58188bdd5d518dc02fb1"),
    # the benchmark's stationary_4d call, whose cloud keeps only the
    # samples within 0.5 + 2h of 0 in R^7
    "stationary_4d_h16": (
        ["verify-stationary", "--fixture", "lo_two_valued", "--h", "0.0625",
         "--max-unreliable", "0.6"],
        "6d0202b11606b019f2e10c5a1f1516e8d766a03f26dcc80ee56775de824f934c"),
    # a 3-d grid of 35,937 nodes, more than _SLAB_NODES, so its slabs
    # start and end inside rows
    "stationary_3d": (
        ["verify-stationary", "--fixture", "pair_planes",
         "--param", "g1=[[0,0,0]]", "--param", "g2=[[1,0.5,-0.25]]",
         "--h", "0.0625", "--max-unreliable", "1.0"],
        "88c162bcf8db9237fc669e022f47dfba5fdfa283cccec193e07a598eaf6b71ba"),
    # at a spacing that is no power of two, the box that verify-stationary
    # samples starts at node 1 or later of each axis
    "stationary_4d_h09": (
        ["verify-stationary", "--fixture", "lo_two_valued", "--h", "0.09",
         "--max-unreliable", "1.0"],
        "e935f722acbb3a12f3a0c8b93432e4de97f28c068fab2692679ad42b8956cde4"),
    # and on a lattice whose radius is no multiple of its spacing
    "stationary_3d_h07": (
        ["verify-stationary", "--fixture", "pair_planes",
         "--param", "g1=[[0,0,0]]", "--param", "g2=[[1,0.5,-0.25]]",
         "--h", "0.07", "--radius", "0.95", "--max-unreliable", "1.0"],
        "78153a57177492afa41f12d6fa31f4591a735df29e65201a5a421a4470d2bbc4"),
    # a fitted pair, written with each plane's (zero) offset
    "fit": (
        ["fit", "--fixture", "holo_pair_curved", "--h", "0.015625",
         "--cone", "transverse_pair_r4", "--fit-radius", "0.25"],
        "0bd3d7ec763b22b89af48f9cdf3cb72f4d62e643e1b3b63c5e96df38ee4282e4"),
    # a fitted four half-plane cone, whose fit runs its own alternation
    "fit_four_hp": (
        ["fit", "--fixture", "holo_pair_curved", "--h", "0.015625",
         "--cone", "four_half_planes_r4", "--cone-class", "four_hp",
         "--fit-radius", "0.5"],
        "1bf86affad232b42cee508a4d098a944b50d4d11704e92b64da539c25dd0e5ee"),
    # density of a surface in R^4 about an off-origin centre at four
    # radii; the density golden is a curve in R^3 at the origin
    "density_4d": (
        ["density", "--fixture", "holo_pair_curved", "--h", "0.0078125",
         "--center", "0.25,0,0,0", "--rho", "0.5"],
        "c12ceac768d3c75890cde559bc3a124f255c2425b3f430d00e38bb2f1c4fa0e9"),
}

# dehomogenize reports on fields written by ConeField.from_function
DEHOMOGENIZE_SHA256 = {
    "transverse_pair_r4":
        "2ecf1f13aecfcabdf598186a0fcc160c3cac3b4f7aa6dc1cfa9573107ffa3673",
    "four_half_planes_r4":
        "ab1f9fa531f6e90ccad65a3555b77f6158c340d988fdf9b3cd53f41aec1f9aaf",
}


def test_golden_list_is_complete():
    assert set(workloads.GOLDEN) == set(GOLDEN_SHA256)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_golden_report_body(name, tmp_path):
    out = tmp_path / (name + ".json")
    argv = ["--seed", "0"] + workloads.GOLDEN[name] + ["--out", str(out)]
    assert cli_main(argv) == 0
    assert workloads.report_sha256(out.read_bytes()) == GOLDEN_SHA256[name]


def test_golden_report_bodies_hold_over_repeated_calls(tmp_path):
    # the six configurations run twice, back to back, in one process,
    # which is how the benchmark and the sweeps call main: no state kept
    # between calls (the parser among it) reaches a report body
    hashes = []
    for _ in range(2):
        for name in sorted(GOLDEN_SHA256):
            out = tmp_path / (name + ".json")
            argv = ["--seed", "0"] + workloads.GOLDEN[name] \
                + ["--out", str(out)]
            assert cli_main(argv) == 0
            hashes.append(workloads.report_sha256(out.read_bytes()))
    assert hashes == [GOLDEN_SHA256[n] for n in sorted(GOLDEN_SHA256)] * 2


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_report_body(name, tmp_path):
    args, sha256 = PINNED[name]
    out = tmp_path / (name + ".json")
    assert cli_main(["--seed", "0"] + args + ["--out", str(out)]) == 0
    assert workloads.report_sha256(out.read_bytes()) == sha256


# no command draws a random number, so these bodies are the same at every
# seed; a decay body records its seed in config.seed, which is set aside
SEED_FREE = {"fit": PINNED["fit"][0], "fit_four_hp": PINNED["fit_four_hp"][0],
             "decay": workloads.GOLDEN["decay"]}


@pytest.mark.parametrize("name", sorted(SEED_FREE))
def test_report_body_does_not_depend_on_seed(name, tmp_path):
    bodies = []
    for seed in ("0", "7"):
        out = tmp_path / ("%s-%s.json" % (name, seed))
        assert cli_main(["--seed", seed] + SEED_FREE[name]
                        + ["--out", str(out)]) == 0
        body = json.loads(out.read_text())["report"]
        body.get("config", {}).pop("seed", None)
        bodies.append(body)
    assert bodies[0] == bodies[1]


def _normal_field(C):
    """Cone field of ``ConeField.from_function``: on each piece, the part
    of a fixed vector normal to the piece, times |X| (1 + sin 3 X_0)/2,
    which is not linear and vanishes at 0, where the planes of a pair
    meet."""
    frames = [T for T, _ in C.piece_frames()]
    w = np.linspace(0.1, 0.4, C.ambient_dim)

    def fn(X):
        piece = _nearest_piece(X, [P.distance for P in C.pieces])[1]
        scale = np.linalg.norm(X, axis=-1) * (1 + np.sin(3 * X[:, 0])) / 2
        out = np.zeros_like(X)
        for j, T in enumerate(frames):
            sel = piece == j
            out[sel] = scale[sel, None] * (w - T.T @ (T @ w))
        return out
    return ConeField.from_function(C, fn, h=1 / 16)


@pytest.mark.parametrize("cone", sorted(DEHOMOGENIZE_SHA256))
def test_dehomogenize_report_body(cone, tmp_path):
    field = tmp_path / "field.json"
    field.write_text(_normal_field(cone_fixture(cone)).to_json())
    out = tmp_path / "dh.json"
    assert cli_main(["dehomogenize", "--field", str(field), "--rho", "0.9",
                     "--out", str(out)]) == 0
    assert workloads.report_sha256(out.read_bytes()) \
        == DEHOMOGENIZE_SHA256[cone]
