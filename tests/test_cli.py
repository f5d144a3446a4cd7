import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

jsonschema = pytest.importorskip("jsonschema")

from mintwo import cli
from mintwo.cli import main, report_schema
from mintwo.twovalued import TwoValuedGrid


def _run(argv):
    return main(argv)


def _check(path, command):
    doc = json.loads(path.read_text())
    jsonschema.validate(doc, report_schema(command))
    return doc


def test_gen_round_trip_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--fixture", "branched_w32", "--h", "0.125"]
    assert _run(args + ["--out", str(a)]) == 0
    assert _run(args + ["--out", str(b)]) == 0
    text = a.read_text()
    assert text == b.read_text()
    grid = TwoValuedGrid.from_json(text)
    assert grid.to_json() == text


def test_density_four_half_planes_vertex(tmp_path):
    out = tmp_path / "d.json"
    assert _run(["density", "--fixture", "four_half_planes",
                 "--h", "0.00390625", "--rho", "0.25",
                 "--out", str(out)]) == 0
    doc = _check(out, "density")
    assert doc["report"]["ratios"][0] == pytest.approx(2.0, abs=0.02)


def test_density_reports_are_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["density", "--fixture", "four_half_planes", "--h", "0.015625"]
    assert _run(args + ["--out", str(a)]) == 0
    assert _run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_excess_report(tmp_path):
    out = tmp_path / "e.json"
    assert _run(["excess", "--fixture", "holo_pair_curved",
                 "--h", "0.015625", "--cone", "transverse_pair_r4",
                 "--out", str(out)]) == 0
    doc = _check(out, "excess")
    body = doc["report"]
    assert body["one_sided_B1"] > 0
    assert body["two_sided"]["q"] == pytest.approx(
        np.sqrt(body["two_sided"]["one_sided"]
                + body["two_sided"]["reverse"]))


def test_fit_report(tmp_path):
    out = tmp_path / "f.json"
    assert _run(["fit", "--fixture", "holo_pair_curved",
                 "--h", "0.015625", "--cone", "transverse_pair_r4",
                 "--fit-radius", "0.25", "--out", str(out)]) == 0
    doc = _check(out, "fit")
    assert doc["report"]["cone"]["kind"] == "pair"
    assert doc["report"]["excess"] >= 0


def test_decay_csv_rows_and_slope(tmp_path):
    out = tmp_path / "decay.json"
    csv = tmp_path / "decay.csv"
    assert _run(["decay", "--fixture", "holo_pair_curved",
                 "--h", "0.00390625", "--cone", "transverse_pair_r4",
                 "--J", "5", "--fit-min-samples", "300",
                 "--csv", str(csv), "--out", str(out)]) == 0
    doc = _check(out, "decay")
    rows = np.loadtxt(csv, delimiter=",", skiprows=1)
    assert rows.shape == (5, 7)
    slope = np.polyfit(np.log(rows[:, 1]), np.log(rows[:, 2]), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.5)
    assert doc["report"]["fitted_2alpha"] == pytest.approx(slope)
    # fit_radius is appended last, so the other columns keep their places
    assert csv.read_text().splitlines()[0].split(",") == [
        "j", "scale", "one_sided_scaled", "reverse_scaled", "nu_step",
        "rot_step", "fit_radius"]
    theta = doc["report"]["theta"]
    assert set(rows[:, 6]) <= {1.0, 1.0 / theta}
    assert rows[:, 1].tolist() == [r["scale"]
                                   for r in doc["report"]["records"]]


def test_decay_reports_are_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["decay", "--fixture", "holo_pair_curved", "--h", "0.0078125",
            "--cone", "transverse_pair_r4", "--J", "3",
            "--fit-min-samples", "300"]
    assert _run(args + ["--out", str(a)]) == 0
    assert _run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_decompose_report(tmp_path):
    out = tmp_path / "dec.json"
    labels = tmp_path / "labels.npy"
    assert _run(["decompose", "--fixture", "branched_w32",
                 "--h", "0.015625", "--labels-out", str(labels),
                 "--out", str(out)]) == 0
    doc = _check(out, "decompose")
    assert doc["report"]["decomposed"] is False
    assert doc["report"]["conflicts"] > 0
    assert np.load(labels).ndim == 2


@pytest.mark.parametrize("h, sha256", [
    ("0.03125",
     "7255f970acbd124e6716d35bab3462beabf7f562b8035ab175f50fc13c2900e3"),
    ("0.015625",
     "e9c1536163336c8ab6f80d33103a0cc4680d74acb77898d56958887f1b4ee84c"),
])
def test_labels_out_bytes_pinned(h, sha256, tmp_path):
    # the labels file keeps its int64 dtype and its values whatever dtype
    # the labelling holds in memory
    labels = tmp_path / "labels.npy"
    assert _run(["decompose", "--fixture", "branched_w32", "--h", h,
                 "--labels-out", str(labels),
                 "--out", str(tmp_path / "dec.json")]) == 0
    assert hashlib.sha256(labels.read_bytes()).hexdigest() == sha256


def test_classify_link_cone_preset(tmp_path):
    out = tmp_path / "link.json"
    assert _run(["classify-link", "--cone", "four_half_planes_r4",
                 "--M", "128", "--out", str(out)]) == 0
    doc = _check(out, "classify-link")
    assert doc["report"]["verdict"] == "four_half_circles"


def test_classify_link_pair_of_planes_on_grid(tmp_path):
    # {0} u {w = x}: each fiber point pairs a node's values with that
    # node's own coordinates, so the link is two great circles at the
    # default h (pairing them with the circle point left a residual of
    # 0.0023, above GEOD_TOL, and the verdict "inconsistent")
    out = tmp_path / "link.json"
    assert _run(["classify-link", "--fixture", "pair_planes",
                 "--param", "g1=[[0,0],[0,0]]",
                 "--param", "g2=[[1,0],[0,1]]", "--out", str(out)]) == 0
    report = _check(out, "classify-link")["report"]
    assert report["verdict"] == "two_disjoint_great_circles"
    assert max(report["diagnostics"]["geodesy_residuals"]) < 1e-12


def test_verify_stationary_report(tmp_path):
    out = tmp_path / "st.json"
    assert _run(["verify-stationary", "--fixture", "four_half_planes",
                 "--h", "0.015625", "--max-unreliable", "0.3",
                 "--out", str(out)]) == 0
    doc = _check(out, "verify-stationary")
    assert doc["report"]["max_defect"] < 1e-3


def test_verify_stationary_evaluates_only_its_box(tmp_path, monkeypatch):
    # the fields read the ball of radius 0.5 + h sqrt(n) in R^(n+k); the
    # command evaluates the fixture only on the box of the lattice that
    # covers it by one cell more, not on the whole cube [-1, 1]^4
    h = 0.0625
    reach = 0.5 + h * (np.sqrt(4) + 1)
    farthest = []
    build = TwoValuedGrid.from_function.__func__

    def spy(cls, fn, n, k, radius, h):
        def recorded(pts):
            farthest.append(float(np.abs(pts).max()))
            return fn(pts)
        return build(cls, recorded, n, k, radius, h)

    monkeypatch.setattr(TwoValuedGrid, "from_function", classmethod(spy))
    assert _run(["verify-stationary", "--fixture", "lo_two_valued",
                 "--h", str(h), "--max-unreliable", "0.6",
                 "--out", str(tmp_path / "st.json")]) == 0
    assert farthest and max(farthest) <= reach


def _verify_stationary_cloud(argv, monkeypatch, tmp_path):
    # the cloud that a verify-stationary call samples through the CLI's
    # sample_graph binding
    import mintwo.cli as cli
    clouds = []

    def spy(*args, **kwargs):
        clouds.append(sample(*args, **kwargs))
        return clouds[-1]
    sample = cli.sample_graph
    monkeypatch.setattr(cli, "sample_graph", spy)
    assert _run(["verify-stationary"] + argv
                + ["--out", str(tmp_path / "st.json")]) == 0
    [V] = clouds
    return V


@pytest.mark.parametrize("spec,argv,count", [
    (("lo_two_valued", 0.0625, 1.0, {}),
     ["--fixture", "lo_two_valued", "--h", "0.0625",
      "--max-unreliable", "0.6"], 8_424),
    (("pair_planes", 0.07, 0.95,
      {"g1": [[0, 0, 0]], "g2": [[1, 0.5, -0.25]]}),
     ["--fixture", "pair_planes", "--param", "g1=[[0,0,0]]",
      "--param", "g2=[[1,0.5,-0.25]]", "--h", "0.07", "--radius", "0.95",
      "--max-unreliable", "1.0"], None)])
def test_verify_stationary_samples_only_the_support(spec, argv, count,
                                                    monkeypatch, tmp_path):
    # the cloud keeps exactly the samples that some field supports, rows
    # of the cloud of the ball of radius 0.5 + h sqrt(n) (20,120 samples
    # of lo_two_valued at h=1/16), bit for bit and in the same order
    from mintwo.fixtures import FixtureSpec, generate
    from mintwo.stationarity import BumpField
    from mintwo.varifold import sample_graph
    V = _verify_stationary_cloud(argv, monkeypatch, tmp_path)
    g = generate(FixtureSpec(*spec))
    base = 0.5 + g.h * np.sqrt(g.n)
    W = sample_graph(g.box(base + g.h), base_radius=base)
    d = g.n + g.k
    fields = [BumpField("radial_bump", np.zeros(d), 0.5)]
    fields += [BumpField("coordinate_bump", np.zeros(d), 0.5, direction=e)
               for e in np.eye(d)]
    read = np.any([f.supported(W.points) for f in fields], axis=0)
    assert 0 < np.count_nonzero(read) < len(W.weights)
    if count is not None:
        assert (len(V.weights), len(W.weights)) == (count, 20_120)
    for field in ("points", "weights", "tangent_ok", "sheet", "gradients"):
        got, want = getattr(V, field), getattr(W, field)[read]
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


def test_verify_stationary_grid_inside_support_rejected(monkeypatch,
                                                        capsys):
    # the fields read the ball of radius 0.5 + h sqrt(n) about 0, n = 1
    # here; a grid of radius 0.3 once gave a max_defect of 0.0207 on the
    # exact cone at h=1/64, measured at the grid's edge, where radius 1
    # gives 3.2e-5
    def sample_graph(*args, **kwargs):
        raise AssertionError("grid sampled for a rejected argument")
    monkeypatch.setattr("mintwo.cli.sample_graph", sample_graph)
    h = 0.015625
    err = _rejected(["verify-stationary", "--fixture", "four_half_planes",
                     "--h", str(h), "--radius", "0.3"], capsys)
    assert "needs a grid radius of at least 0.515625" in err


def test_verify_stationary_memory(tmp_path):
    # one 4-d call at h=1/16 holds its cloud of 8,424 samples with their
    # gradients (1.4 MB), the lattice box's slab window and one slab's
    # evaluation while it samples, and then per field a support mask, one
    # term per supported sample and one chunk of frames and Jacobians:
    # about 3.5 MiB.  A cloud of the 20,120 samples within 0.5 + 2h of 0
    # with a frame each (5.8 MB) and a pass per field took 8.1 MiB.
    from memory import traced_peak
    argv = ["verify-stationary", "--fixture", "lo_two_valued",
            "--h", "0.0625", "--max-unreliable", "0.6",
            "--out", str(tmp_path / "st.json")]
    assert _run(argv) == 0  # imports and caches outside the trace
    code, peak = traced_peak(_run, argv)
    assert code == 0
    assert peak < 5 * 2 ** 20


def test_dehomogenize_report(tmp_path):
    from mintwo.blowup import ConeField, HElement
    from mintwo.fixtures import cone_fixture
    C = cone_fixture("transverse_pair_r4")
    maps = [np.array([[0.2, -0.1], [0.05, 0.3], [0.4, 0.0]]),
            np.array([[0.0, 0.1], [-0.2, 0.0], [0.0, -0.3]])]
    v = ConeField.from_element(HElement(C, maps=maps), h=1 / 16)
    field = tmp_path / "field.json"
    field.write_text(v.to_json())
    out = tmp_path / "dh.json"
    assert _run(["dehomogenize", "--field", str(field),
                 "--out", str(out)]) == 0
    doc = _check(out, "dehomogenize")
    assert doc["report"]["norms"]["residual"] < 1e-10
    got = np.asarray(doc["report"]["plane_maps"][0])
    assert np.allclose(got, maps[0], atol=1e-10)


def test_error_paths_exit_one(tmp_path, capsys):
    # density radius below the resolution floor
    assert _run(["density", "--fixture", "four_half_planes",
                 "--h", "0.25", "--rho", "1e-6"]) == 1
    err = capsys.readouterr().err
    assert "error" in err
    # missing cone file
    assert _run(["excess", "--fixture", "four_half_planes",
                 "--h", "0.25", "--cone",
                 str(tmp_path / "missing.json")]) == 1
    # link analysis of a non-homogeneous grid
    assert _run(["classify-link", "--fixture", "holo_pair_curved",
                 "--h", "0.015625", "--radius", "1.5",
                 "--param", "a=1.0", "--param", "b=1.0",
                 "--M", "128"]) == 1


def _strict_json(text):
    # json.loads reads NaN and Infinity, which strict JSON parsers refuse
    def refuse(name):
        raise ValueError("%s is not JSON" % name)
    return json.loads(text, parse_constant=refuse)


def _error_line(argv, capsys):
    # a rejected run exits 1, writes no report and one strict JSON line
    assert _run(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    doc = _strict_json(lines[0])
    assert set(doc) == {"error", "config"}
    return doc


def _rejected(argv, capsys):
    return _error_line(argv, capsys)["error"]


def test_pair_planes_without_gradients_rejected(capsys):
    err = _rejected(["excess", "--fixture", "pair_planes", "--h", "0.25",
                     "--cone", "transverse_pair_r4"], capsys)
    assert "g1, g2" in err


def test_unknown_fixture_param_rejected(capsys):
    err = _rejected(["density", "--fixture", "holo_pair_curved",
                     "--h", "0.25", "--param", "a=1.0",
                     "--param", "c=2.0"], capsys)
    assert "takes no parameter c" in err


def _no_grid(monkeypatch):
    # a rejected argument must be caught before the fixture grid is built
    def generate(spec):
        raise AssertionError("grid built for a rejected argument")
    monkeypatch.setattr("mintwo.cli.generate", generate)


def test_decay_without_rungs_rejected(monkeypatch, capsys):
    _no_grid(monkeypatch)
    err = _rejected(["decay", "--fixture", "holo_pair_curved",
                     "--h", "0.125", "--cone", "transverse_pair_r4",
                     "--J", "0"], capsys)
    assert "J must be at least 1" in err


@pytest.mark.parametrize("theta", ["1.0", "-0.5"])
def test_decay_theta_outside_unit_interval_rejected(theta, monkeypatch,
                                                    capsys):
    _no_grid(monkeypatch)
    err = _rejected(["decay", "--fixture", "holo_pair_curved",
                     "--h", "0.0625", "--cone", "transverse_pair_r4",
                     "--theta", theta], capsys)
    assert "theta must lie in (0, 1)" in err


def test_decay_fit_min_samples_below_one_rejected(monkeypatch, capsys):
    _no_grid(monkeypatch)
    err = _rejected(["decay", "--fixture", "holo_pair_curved",
                     "--h", "0.0625", "--cone", "transverse_pair_r4",
                     "--fit-min-samples", "0"], capsys)
    assert "fit_min_samples must be at least 1" in err


@pytest.mark.parametrize("seed, command", [
    ("-1", ["decay", "--cone", "transverse_pair_r4"]),
    ("-2", ["decay", "--cone", "transverse_pair_r4"]),
    ("-1", ["fit", "--cone", "transverse_pair_r4"]),
    ("-1", ["density"]),
])
def test_negative_seed_rejected(seed, command, monkeypatch, capsys):
    # rejected before any work, although no number depends on the seed
    _no_grid(monkeypatch)
    err = _rejected(["--seed", seed] + command
                    + ["--fixture", "holo_pair_curved", "--h", "0.0625"],
                    capsys)
    assert err == "seed must be a non-negative integer, got %s" % seed


@pytest.mark.parametrize("argv, message", [
    (["fit", "--fixture", "holo_pair_curved", "--h", "0.0625",
      "--cone", "transverse_pair_r4", "--cone-class", "four_hp"],
     "the cone is of class 'pair', not 'four_hp'"),
    (["decay", "--fixture", "holo_pair_curved", "--h", "0.03125",
      "--cone", "four_half_planes_r4"],
     "the cone is of class 'four_hp', not 'pair'"),
    (["fit", "--fixture", "four_half_planes", "--h", "0.0625",
      "--cone", "four_half_planes_r3", "--cone-class", "pair"],
     "the cone is of class 'four_hp', not 'pair'"),
])
def test_cone_of_other_class_rejected(argv, message, monkeypatch, capsys):
    _no_grid(monkeypatch)
    assert message in _rejected(argv, capsys)


def test_decay_without_measured_rungs_is_not_exact(tmp_path):
    # every rung's fit window is starved, so the ladder stops before its
    # first rung and has measured nothing
    out = tmp_path / "d.json"
    assert _run(["decay", "--fixture", "holo_pair_curved", "--h", "0.0625",
                 "--cone", "transverse_pair_r4", "--J", "3",
                 "--fit-min-samples", "100000", "--out", str(out)]) == 0
    body = _check(out, "decay")["report"]
    assert body["records"] == [] and body["truncated"]
    assert body["exact_cone"] is False


@pytest.mark.parametrize("value", ["-0.1", "1.5", "nan"])
def test_verify_stationary_max_unreliable_outside_unit_interval_rejected(
        value, monkeypatch, capsys):
    _no_grid(monkeypatch)
    err = _rejected(["verify-stationary", "--fixture", "lo_two_valued",
                     "--h", "0.0625", "--max-unreliable", value], capsys)
    assert "max_unreliable must lie in [0, 1]" in err


def test_classify_link_without_angles_rejected(capsys):
    err = _rejected(["classify-link", "--cone", "transverse_pair_r4",
                     "--M", "0"], capsys)
    assert "at least 64 angles" in err


@pytest.mark.parametrize("rho", ["0", "-1", "inf"])
def test_density_nonpositive_rho_rejected(rho, capsys):
    err = _rejected(["density", "--fixture", "four_half_planes",
                     "--h", "0.25", "--rho", rho], capsys)
    assert "rho must be positive" in err


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("argv, name", [
    (["fit", "--fixture", "holo_pair_curved", "--h", "0.0625",
      "--cone", "transverse_pair_r4", "--fit-radius"], "fit_radius"),
    # the field file does not exist: the radius is checked before it is read
    (["dehomogenize", "--field", "no-such-field.json", "--rho"], "rho"),
])
def test_radius_not_positive_and_finite_rejected(argv, name, value,
                                                 monkeypatch, capsys):
    _no_grid(monkeypatch)
    err = _rejected(argv + [value], capsys)
    assert err.startswith("%s must be positive and finite" % name)


def test_classify_link_without_source_rejected(capsys):
    err = _rejected(["classify-link", "--M", "64"], capsys)
    assert "--cone" in err and "--fixture" in err


def test_classify_link_with_two_sources_rejected(monkeypatch, capsys):
    _no_grid(monkeypatch)
    err = _rejected(["classify-link", "--cone", "transverse_pair_r4",
                     "--fixture", "holo_pair_curved", "--h", "0.0625"],
                    capsys)
    assert "--cone" in err and "--fixture" in err


def test_param_without_equals_rejected(capsys):
    err = _rejected(["density", "--fixture", "pair_planes", "--h", "0.25",
                     "--param", "g1", "--param", "g2=[[1, 0], [0, 1]]"],
                    capsys)
    assert "'g1' is not key=value" in err


@pytest.mark.parametrize("fixture, params, message", [
    ("pair_planes", ["g1=[[0, 0], [0, 0]]", "g2=I"],
     "parameter g2 must be a numeric (k, n) matrix"),
    ("pair_planes", ["g1=[[1, 0], [0, 1]]", "g2=[[1, 2, 3]]"],
     "g1 and g2 must have one shape"),
    ("pair_planes", ["g1=[[1, 0], [0, 1]]", "g2=[[0, 1], [1, 0]]",
                     "c2=[1, 2, 3]"],
     "parameter c2 must be a length-2 vector"),
    ("tilted_plane", ["g=[[1], [2, 3]]"],
     "parameter g must be a numeric (k, n) matrix"),
    ("tilted_plane", ["slope=[1]"], "parameter slope must be a number"),
    ("holo_pair_curved", ["a=[1, 2]"], "parameter a must be a number"),
    ("holo_pair_curved", ["b=one"], "parameter b must be a number"),
])
def test_malformed_fixture_param_rejected(fixture, params, message,
                                          monkeypatch, capsys):
    _no_grid(monkeypatch)
    argv = ["density", "--fixture", fixture, "--h", "0.25"]
    for item in params:
        argv += ["--param", item]
    assert message in _rejected(argv, capsys)


@pytest.mark.parametrize("fixture, param", [
    ("holo_pair_curved", "b=NaN"),
    ("holo_pair_curved", "a=-Infinity"),
    ("holo_pair_curved", 'b="nan"'),
    ("holo_pair_curved", 'a="inf+1j"'),
    ("tilted_plane", "slope=Infinity"),
    pytest.param("tilted_plane", "slope=1" + "0" * 400, id="slope=10**400"),
])
def test_nonfinite_fixture_scalar_rejected(fixture, param, monkeypatch,
                                           capsys):
    _no_grid(monkeypatch)
    err = _rejected(["density", "--fixture", fixture, "--h", "0.25",
                     "--param", param], capsys)
    assert err.startswith("fixture parameter %s must be finite"
                          % param.partition("=")[0])


@pytest.mark.parametrize("value", ["0", "true", "[1]", "1.5", "null"])
def test_custom_grid_path_not_a_string_rejected(value, monkeypatch, capsys):
    # open() reads an int as a file descriptor: path=0 read stdin and
    # path=true wrote to fd 1; the others raised a TypeError
    import mintwo.fixtures

    def spy(*args, **kwargs):
        raise AssertionError("open called for path=%s" % value)
    monkeypatch.setattr(mintwo.fixtures, "open", spy, raising=False)
    err = _rejected(["density", "--fixture", "custom_grid", "--rho", "1.0",
                     "--param", "path=" + value], capsys)
    assert err.startswith("fixture parameter path must be a file name")


@pytest.mark.parametrize("argv", [
    ["excess", "--fixture", "four_half_planes", "--h", "0.25",
     "--cone", "{}"],
    ["density", "--fixture", "custom_grid", "--param", "path={}"],
    ["dehomogenize", "--field", "{}"]])
def test_input_file_not_json_names_flag_and_path(argv, tmp_path, capsys):
    # the parser's own message, "Expecting value: line 1 column 1 (char
    # 0)", names neither the flag nor the file
    path = tmp_path / "notes.txt"
    path.write_text("not JSON\n")
    source = next(a for a in argv if "{}" in a)
    flag = argv[argv.index(source) - 1]
    err = _rejected([a.format(path) for a in argv], capsys)
    assert err.startswith("%s %s is not JSON: Expecting value"
                          % (flag, source.format(path)))


def test_memory_error_is_a_json_error_line(monkeypatch, capsys):
    # a lattice too fine for memory (--h 1e-9 asks for a 14.9 GiB axis)
    # fails in an allocation, which the run reports as its error line
    def generate(spec):
        raise MemoryError("Unable to allocate 14.9 GiB for an array")
    monkeypatch.setattr(cli, "generate", generate)
    err = _rejected(["density", "--fixture", "holo_pair_curved",
                     "--h", "1e-9"], capsys)
    assert err == "out of memory: Unable to allocate 14.9 GiB for an array"


@pytest.mark.parametrize("argv, key, value", [
    (["density", "--fixture", "four_half_planes", "--h", "0.25",
      "--rho", "inf"], "rho", "inf"),
    (["density", "--fixture", "four_half_planes", "--h", "inf"], "h", "inf"),
    (["decay", "--fixture", "holo_pair_curved", "--cone",
      "transverse_pair_r4", "--theta", "nan"], "theta", "nan"),
])
def test_nonfinite_config_in_error_line_is_a_string(argv, key, value,
                                                    monkeypatch, capsys):
    _no_grid(monkeypatch)
    assert _error_line(argv, capsys)["config"][key] == value


@pytest.mark.parametrize("h, radius", [("inf", "1"), ("nan", "1"),
                                       ("0.25", "inf"), ("0.25", "nan")])
def test_nonfinite_h_or_radius_rejected(h, radius, capsys):
    err = _rejected(["density", "--fixture", "holo_pair_curved",
                     "--h", h, "--radius", radius], capsys)
    assert "h and radius must be finite and positive" in err


@pytest.mark.parametrize("argv, message", [
    (["excess", "--cone", "pair_lines_r2"], "--cone has dimension 2"),
    (["fit", "--cone", "pair_lines_r2"], "--cone has dimension 2"),
    (["decay", "--cone", "pair_lines_r2"], "--cone has dimension 2"),
    (["density", "--center", "0,0"], "--center has dimension 2"),
    (["decay", "--cone", "transverse_pair_r4", "--center", "0,0"],
     "--center has dimension 2"),
])
def test_cone_or_center_of_other_dimension_rejected(argv, message,
                                                    monkeypatch, capsys):
    # holo_pair_curved is a graph in R^4; the check comes before sampling
    def sample_graph(*args, **kwargs):
        raise AssertionError("grid sampled for a rejected argument")
    monkeypatch.setattr("mintwo.cli.sample_graph", sample_graph)
    err = _rejected(argv[:1] + ["--fixture", "holo_pair_curved",
                                "--h", "0.25"] + argv[1:], capsys)
    assert message + ", not the ambient dimension 4" in err


@pytest.mark.parametrize("command", [["density"],
                                     ["decay", "--cone",
                                      "transverse_pair_r4"]])
@pytest.mark.parametrize("center", ["nan,0,0,0", "0,inf,0,0"])
def test_nonfinite_center_rejected(command, center, monkeypatch, capsys):
    _no_grid(monkeypatch)
    err = _rejected(command[:1] + ["--fixture", "holo_pair_curved",
                                   "--h", "0.03125"] + command[1:]
                    + ["--center", center], capsys)
    assert "--center entries must be finite" in err


@pytest.mark.parametrize("center", ["", "a,b"])
@pytest.mark.parametrize("command", ["density", "decay", "dehomogenize"])
def test_center_of_no_numbers_rejected(command, center, tmp_path,
                                       monkeypatch, capsys):
    # an empty --center once meant the origin, and was recorded as "" in
    # the config; a word gave float()'s message, which names no option
    from mintwo.blowup import ConeField, HElement
    from mintwo.fixtures import cone_fixture
    _no_grid(monkeypatch)
    if command == "dehomogenize":
        C = cone_fixture("transverse_pair_r4")
        field = ConeField.from_element(
            HElement(C, maps=[np.zeros((3, 2)), np.zeros((3, 2))]), h=1 / 4)
        argv = ["dehomogenize", "--field",
                _json_file(tmp_path, json.loads(field.to_json()))]
    else:
        argv = [command, "--fixture", "holo_pair_curved", "--h", "0.125"]
        if command == "decay":
            argv += ["--cone", "transverse_pair_r4"]
    err = _rejected(argv + ["--center", center], capsys)
    assert err == "--center entries must be numbers, got %r" % center


def test_dehomogenize_center_of_other_dimension_rejected(tmp_path, capsys):
    from mintwo.blowup import ConeField, HElement
    from mintwo.fixtures import cone_fixture
    C = cone_fixture("transverse_pair_r4")
    maps = [np.zeros((3, 2)), np.zeros((3, 2))]
    field = ConeField.from_element(HElement(C, maps=maps), h=1 / 4)
    err = _rejected(["dehomogenize", "--field",
                     _json_file(tmp_path, json.loads(field.to_json())),
                     "--center", "0,0,0"], capsys)
    assert "--center has dimension 3, not the ambient dimension 4" in err


def _json_file(tmp_path, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cone_json_without_k_rejected(tmp_path, capsys):
    from mintwo.fixtures import cone_fixture
    doc = json.loads(cone_fixture("transverse_pair_r4").to_json())
    del doc["k"]
    err = _rejected(["classify-link", "--cone", _json_file(tmp_path, doc)],
                    capsys)
    assert "cone JSON has no key 'k'" in err


@pytest.mark.parametrize("change, message", [
    ({"offset": [0.0, 0.0, 0.5, 0.0]},
     "cone JSON plane offset [0.0, 0.0, 0.5, 0.0] is not 4 zeros"),
    ({"multiplicity2": "no"},
     "cone JSON multiplicity2 must be true or false, got 'no'"),
    ({"multiplicity2": True}, "multiplicity2 needs coinciding planes"),
])
def test_excess_cone_json_rejected(change, message, tmp_path, monkeypatch,
                                   capsys):
    # an affine plane, a multiplicity2 that is no boolean and one that
    # tags two distinct planes are refused before the grid is built
    from mintwo.fixtures import cone_fixture
    _no_grid(monkeypatch)
    doc = json.loads(cone_fixture("transverse_pair_r4").to_json())
    if "offset" in change:
        doc["planes"][1]["offset"] = change["offset"]
    else:
        doc.update(change)
    err = _rejected(["excess", "--fixture", "holo_pair_curved",
                     "--h", "0.0625", "--cone", _json_file(tmp_path, doc)],
                    capsys)
    assert message in err


@pytest.mark.parametrize("command", ["excess", "decay"])
def test_multiplicity_two_cone_json_rejected(command, tmp_path, capsys):
    # the reverse term of a multiplicity-two plane is undefined: its whole
    # support lies in the collar around its axis, the plane itself
    from mintwo.cones import Cone
    from mintwo.fixtures import cone_fixture
    P = cone_fixture("transverse_pair_r4").pieces[0]
    path = tmp_path / "plane.json"
    path.write_text(Cone("pair", [P, P], 2, 2, multiplicity2=True).to_json())
    err = _rejected([command, "--fixture", "holo_pair_curved",
                     "--h", "0.0625", "--cone", str(path)], capsys)
    assert err == ("no support sample of the cone lies outside the "
                   "collar r_C < 0.125: reverse excess undefined")


def test_excess_cone_json_matches_preset(tmp_path):
    # a cone file with zero offsets gives the preset's report body
    from mintwo.fixtures import cone_fixture
    path = tmp_path / "cone.json"
    path.write_text(cone_fixture("transverse_pair_r4").to_json())
    bodies = []
    for cone in ("transverse_pair_r4", str(path)):
        out = tmp_path / "e.json"
        assert _run(["excess", "--fixture", "holo_pair_curved",
                     "--h", "0.0625", "--cone", cone,
                     "--out", str(out)]) == 0
        bodies.append(_check(out, "excess")["report"])
    assert bodies[0] == bodies[1]
    assert "two_sided" in bodies[0]


def _grid_doc():
    def fn(pts):
        v = pts[:, :1].copy()
        return v, -v
    return json.loads(TwoValuedGrid.from_function(fn, 2, 1, 1.0, 0.25)
                      .to_json())


def test_grid_json_without_h_rejected(tmp_path, capsys):
    doc = _grid_doc()
    del doc["h"]
    err = _rejected(["density", "--fixture", "custom_grid", "--rho", "1.0",
                     "--param", "path=" + _json_file(tmp_path, doc)],
                    capsys)
    assert "grid JSON has no key 'h'" in err


def test_grid_json_zero_spacing_rejected(tmp_path, capsys):
    doc = _grid_doc()
    doc["h"] = 0
    err = _rejected(["density", "--fixture", "custom_grid", "--rho", "1.0",
                     "--param", "path=" + _json_file(tmp_path, doc)],
                    capsys)
    assert "h must be positive" in err


def test_grid_json_negative_node_index_rejected(tmp_path, capsys):
    # index -1 would wrap to the far edge of the lattice, outside the ball
    doc = _grid_doc()
    doc["nodes"][0]["index"] = [-1, 0]
    err = _rejected(["density", "--fixture", "custom_grid", "--rho", "1.0",
                     "--param", "path=" + _json_file(tmp_path, doc)],
                    capsys)
    assert "[-1, 0] is outside the lattice" in err


@pytest.mark.parametrize("key,value", [("n", 2.0), ("k", True),
                                       ("radius", "1.0"), ("h", None)])
def test_grid_json_value_of_wrong_type_rejected(key, value, tmp_path,
                                                capsys):
    doc = _grid_doc()
    doc[key] = value
    err = _rejected(["density", "--fixture", "custom_grid", "--rho", "1.0",
                     "--param", "path=" + _json_file(tmp_path, doc)],
                    capsys)
    assert "grid JSON %s must be" % key in err


def test_custom_grid_config_records_the_file_grid(tmp_path):
    # --h and --radius do not reach a custom_grid, whose file fixes both:
    # the config records the grid that was sampled, not the flags
    grid = tmp_path / "g.json"
    assert _run(["gen", "--fixture", "holo_pair_curved", "--h", "0.0625",
                 "--out", str(grid)]) == 0
    docs = []
    for argv in (["--fixture", "custom_grid", "--param", "path=%s" % grid,
                  "--h", "0.5", "--radius", "3"],
                 ["--fixture", "holo_pair_curved", "--h", "0.0625"]):
        out = tmp_path / "d.json"
        assert _run(["density"] + argv + ["--out", str(out)]) == 0
        docs.append(_check(out, "density"))
    custom, closed = docs
    assert (custom["config"]["h"], custom["config"]["radius"]) == (0.0625,
                                                                  1.0)
    assert custom["report"] == closed["report"]


@pytest.mark.parametrize("command", ["decompose", "density"])
def test_grid_json_nonfinite_value_rejected(command, tmp_path, capsys):
    # one NaN inside the ball once dropped out of the Lipschitz maximum,
    # and decompose exited 0 with a labelling built on L = 0
    from mintwo.fixtures import FixtureSpec, generate
    doc = json.loads(generate(FixtureSpec("branched_w32", 1 / 8)).to_json())
    doc["nodes"][len(doc["nodes"]) // 2]["a1"][0] = float("nan")
    rho = ["--rho", "1.0"] if command == "density" else []
    err = _rejected([command, "--fixture", "custom_grid"] + rho
                    + ["--param", "path=" + _json_file(tmp_path, doc)],
                    capsys)
    assert err == "grid values are not finite"


@pytest.mark.parametrize("key,value", [("n", "2"), ("k", 2.0),
                                       ("n", False)])
def test_cone_json_value_of_wrong_type_rejected(key, value, tmp_path,
                                                capsys):
    from mintwo.fixtures import cone_fixture
    doc = json.loads(cone_fixture("transverse_pair_r4").to_json())
    doc[key] = value
    err = _rejected(["classify-link", "--cone", _json_file(tmp_path, doc)],
                    capsys)
    assert "cone JSON %s must be a positive integer" % key in err


def test_cone_field_json_without_n_rejected(tmp_path, capsys):
    from mintwo.blowup import ConeField, HElement
    from mintwo.fixtures import cone_fixture
    C = cone_fixture("transverse_pair_r4")
    maps = [np.zeros((3, 2)), np.zeros((3, 2))]
    doc = json.loads(ConeField.from_element(HElement(C, maps=maps),
                                            h=1 / 4).to_json())
    del doc["cone"]["n"]
    err = _rejected(["dehomogenize", "--field", _json_file(tmp_path, doc)],
                    capsys)
    assert "cone JSON has no key 'n'" in err


def test_cone_field_json_text_spacing_rejected(tmp_path, capsys):
    from mintwo.blowup import ConeField, HElement
    from mintwo.fixtures import cone_fixture
    C = cone_fixture("transverse_pair_r4")
    maps = [np.zeros((3, 2)), np.zeros((3, 2))]
    doc = json.loads(ConeField.from_element(HElement(C, maps=maps),
                                            h=1 / 4).to_json())
    doc["h"] = "0.25"
    err = _rejected(["dehomogenize", "--field", _json_file(tmp_path, doc)],
                    capsys)
    assert "cone-field JSON h must be a number" in err


def _pair_field_doc():
    from mintwo.blowup import ConeField, HElement
    from mintwo.fixtures import cone_fixture
    maps = [np.arange(6.0).reshape(3, 2) / 10, np.zeros((3, 2))]
    return json.loads(ConeField.from_element(
        HElement(cone_fixture("transverse_pair_r4"), maps=maps),
        h=1 / 8).to_json())


@pytest.mark.parametrize("key, value", [
    ("h", 0), ("h", float("nan")), ("h", -0.25), ("extent", float("inf"))])
def test_cone_field_json_spacing_rejected(key, value, tmp_path, capsys):
    # h = 0 divided by zero, NaN failed in arange and -0.25 built an
    # empty lattice that no stored values matched
    doc = _pair_field_doc()
    doc[key] = value
    err = _rejected(["dehomogenize", "--field", _json_file(tmp_path, doc)],
                    capsys)
    assert err.startswith("cone-field JSON %s must be positive and finite"
                          % key)


def test_cone_field_json_nan_value_rejected(tmp_path, capsys):
    # a NaN inside the rho ball once gave a report of NaN norms, since
    # the orthogonality post-check nan > 1e-8 is False
    doc = _pair_field_doc()
    doc["values"][0][4][4][0] = float("nan")
    err = _rejected(["dehomogenize", "--field", _json_file(tmp_path, doc)],
                    capsys)
    assert err == "cone-field JSON values are not finite"


def _overflowing_field(tmp_path):
    # a finite value whose square overflows once gave Infinity norms
    doc = _pair_field_doc()
    doc["values"][0][4][4][0] = 1e308
    return _json_file(tmp_path, doc)


def test_dehomogenize_overflowing_norms_rejected(tmp_path, capsys):
    err = _rejected(["dehomogenize", "--field", _overflowing_field(tmp_path)],
                    capsys)
    assert err.startswith("the projection's norms are not finite")


def test_dehomogenize_overflow_is_one_json_line_in_a_process(tmp_path):
    # NumPy's overflow warning once reached stderr ahead of the error line
    r = subprocess.run([sys.executable, "-m", "mintwo", "dehomogenize",
                        "--field", _overflowing_field(tmp_path)],
                       capture_output=True, text=True, cwd=tmp_path,
                       env=_source_env())
    assert r.returncode == 1 and r.stdout == ""
    lines = r.stderr.splitlines()
    assert len(lines) == 1, r.stderr
    assert _strict_json(lines[0])["error"].startswith(
        "the projection's norms are not finite")


SUBCOMMANDS = ("gen", "density", "excess", "fit", "decay", "decompose",
               "classify-link", "verify-stationary", "dehomogenize")


def _check_help(r):
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("usage: mintwo")
    choices = re.search(r"\{([^}]*)\}", r.stdout).group(1).split(",")
    assert tuple(choices) == SUBCOMMANDS


def _source_env():
    """The environment of a fresh interpreter that imports mintwo from the
    source the tests import."""
    import mintwo
    return dict(os.environ,
                PYTHONPATH=str(Path(mintwo.__file__).resolve().parents[1]))


def test_console_entry_point(tmp_path):
    # The ``mintwo`` script exists only after an install, so run the entry
    # point that pyproject.toml declares, and ``python -m mintwo``, from the
    # source the tests import, outside the repository root.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"mintwo": "mintwo.cli:main"}
    module, func = scripts["mintwo"].split(":")
    env = _source_env()
    for argv in (["-c", f"import sys; from {module} import {func}; "
                        f"sys.exit({func}())"],
                 ["-m", "mintwo"]):
        _check_help(subprocess.run([sys.executable, *argv, "--help"],
                                   capture_output=True, text=True,
                                   cwd=tmp_path, env=env))


@pytest.mark.skipif(shutil.which("mintwo") is None,
                    reason="the mintwo script is not installed")
def test_installed_console_script():
    _check_help(subprocess.run(["mintwo", "--help"], capture_output=True,
                               text=True))


def _pair_planes_gen(out):
    return ["gen", "--fixture", "pair_planes", "--param", "g1=[[0,0,0]]",
            "--param", "g2=[[1,0.5,-0.25]]", "--h", "0.25", "--out", out]


def test_calls_in_one_process_share_one_parser_and_no_state(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    # argv, and the exit code of main or of its SystemExit
    calls = [
        (["density", "--fixture", "holo_pair_curved", "--h", "0.125",
          "--center", "0.25,0,0,0"], 1),
        (_pair_planes_gen(str(tmp_path / "a.json")), 0),
        (_pair_planes_gen(str(tmp_path / "b.json")), 0),
        (["decompose", "--fixture", "no_such_fixture"], 2),
        (["--seed", "-1", "density", "--fixture", "holo_pair_curved"], 1),
        (["density", "--fixture", "holo_pair_curved", "--h", "0.125"], 1),
        (["gen", "--fixture", "pair_planes", "--param", "g1",
          "--out", str(tmp_path / "c.json")], 1),
        (["decompose", "--fixture", "branched_w32", "--h", "0.125",
          "--out", str(tmp_path / "d.json")], 0),
        (_pair_planes_gen(str(tmp_path / "a.json")), 0),
    ]
    # the namespace of each argv on a parser built for it alone
    expected = []
    for argv, code in calls:
        try:
            expected.append(cli.build_parser.__wrapped__().parse_args(argv))
        except SystemExit as exc:
            assert exc.code == code == 2
            expected.append(None)
    capsys.readouterr()

    built, parsed = [], []
    init, parse_args = (argparse.ArgumentParser.__init__,
                        argparse.ArgumentParser.parse_args)

    def spy_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "mintwo":
            built.append(self)

    def spy_parse_args(self, *args, **kwargs):
        parsed.append((self, None))  # kept when argparse exits
        ns = parse_args(self, *args, **kwargs)
        parsed[-1] = (self, ns)
        return ns
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy_init)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        spy_parse_args)
    for argv, code in calls:
        try:
            assert main(argv) == code
        except SystemExit as exc:
            assert exc.code == code == 2
    monkeypatch.undo()

    assert len(built) <= 1
    assert len({id(p) for p, _ in parsed}) == 1
    seen = [ns for _, ns in parsed]
    assert seen == expected
    params = [ns.param for ns in seen if ns and ns.command == "gen"]
    assert params == [["g1=[[0,0,0]]", "g2=[[1,0.5,-0.25]]"]] * 2 \
        + [["g1"]] + [["g1=[[0,0,0]]", "g2=[[1,0.5,-0.25]]"]]
    assert [ns.center for ns in seen if ns and ns.command == "density"] \
        == ["0.25,0,0,0", None, None]
    assert (tmp_path / "a.json").read_bytes() \
        == (tmp_path / "b.json").read_bytes()


def test_import_builds_no_parser_and_main_builds_one(tmp_path):
    # importing mintwo.cli, which the benchmark times as set-up, builds no
    # parser; the first main call builds the top parser and one parser per
    # subcommand, and later calls build none
    code = ("import argparse, json\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def spy(self, *args, **kwargs):\n"
            "    init(self, *args, **kwargs)\n"
            "    built.append(self.prog)\n"
            "argparse.ArgumentParser.__init__ = spy\n"
            "import mintwo.cli\n"
            "counts = [len(built)]\n"
            "for _ in range(3):\n"
            "    assert mintwo.cli.main(['--seed', '-1', 'decompose',\n"
            "                            '--fixture', 'branched_w32']) == 1\n"
            "    counts.append(len(built))\n"
            "print(json.dumps(counts))\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, cwd=tmp_path, env=_source_env())
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == [0] + [1 + len(SUBCOMMANDS)] * 3


# modules no command loads: SciPy is a test dependency only, and
# numpy.random would load hashlib (OpenSSL) and secrets with it
_EXCLUDED = ("scipy", "numpy.random", "hashlib", "secrets")


def _excluded_after(tmp_path, code):
    """Sorted names of the modules under _EXCLUDED (each name and its
    submodules) that a fresh interpreter running code has loaded.

    The interpreter starts in tmp_path with PYTHONPATH at the source the
    tests import, so nothing else on the path is imported first.
    """
    code += ("\nimport json\nprint(json.dumps(sorted("
             "m for m in sys.modules if any(m == r or m.startswith(r + '.') "
             "for r in %r))))" % (_EXCLUDED,))
    r = subprocess.run([sys.executable, "-c", "import sys\n" + code],
                       capture_output=True, text=True, cwd=tmp_path,
                       env=_source_env())
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.splitlines()[-1])


def test_excluded_check_sees_numpy_random_and_what_it_loads(tmp_path):
    loaded = _excluded_after(tmp_path, "import numpy.random")
    assert {"numpy.random", "numpy.random.mtrand", "hashlib",
            "secrets"} <= set(loaded)
    assert not [m for m in loaded if m.split(".")[0] == "numpy"
                and not m.startswith("numpy.random")]


def test_startup_imports_no_excluded_module(tmp_path):
    assert _excluded_after(tmp_path, "import mintwo.cli") == []
    help_run = ("import runpy\nsys.argv = ['mintwo', '--help']\n"
                "try:\n    runpy.run_module('mintwo', run_name='__main__')\n"
                "except SystemExit as e:\n    assert e.code == 0\n")
    assert _excluded_after(tmp_path, help_run) == []


@pytest.mark.parametrize("argv", [
    ["verify-stationary", "--fixture", "lo_two_valued", "--h", "0.125",
     "--max-unreliable", "1.0"],
    ["decay", "--fixture", "holo_pair_curved", "--h", "0.03125", "--cone",
     "transverse_pair_r4", "--J", "2", "--fit-min-samples", "100"],
    ["density", "--fixture", "holo_pair_curved", "--h", "0.0625"],
    ["excess", "--fixture", "holo_pair_curved", "--h", "0.0625", "--cone",
     "transverse_pair_r4"],
    ["fit", "--fixture", "holo_pair_curved", "--h", "0.0625", "--cone",
     "transverse_pair_r4"],
    ["decompose", "--fixture", "holo_pair_curved", "--h", "0.0625"],
])
def test_commands_import_no_excluded_module(argv, tmp_path):
    out = tmp_path / "report.json"
    loaded = _excluded_after(tmp_path, (
        "from mintwo.cli import main\n"
        "assert main(%r) == 0" % (argv + ["--out", str(out)])))
    assert loaded == []
    assert json.loads(out.read_text())["report"]
