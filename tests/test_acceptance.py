"""End-to-end acceptance checks, one per criterion, each printing a
pass/fail line (run with -s to see them inline)."""

import json
import time

import numpy as np

from mintwo.blowup import ConeField, HElement, dehomogenize
from mintwo.cli import main as cli_main
from mintwo.conefit import decay_pipeline
from mintwo.decompose import monodromy_test, propagate_labels, ring_loop
from mintwo.excess import (excess_E, excess_Q, radial_homogeneity_deficit,
                           single_plane_ratio)
from mintwo.fixtures import (CONE_FIXTURE_IDS, FixtureSpec, cone_fixture,
                             generate)
from mintwo.geometry import Ball
from mintwo.linkclass import classify_arcs, classify_link, sample_link
from mintwo.stationarity import (BumpField, first_variation_defect,
                                 mss_residual)
from mintwo.twovalued import metric_G_many
from mintwo.varifold import (SampledVarifold, axis_tilt, density_ratio,
                             sample_cone, sample_graph)


def _verdict(num, name, ok, detail=""):
    line = "criterion %2d (%s): %s" % (num, name,
                                       "PASS" if ok else "FAIL")
    if detail:
        line += "  [%s]" % detail
    print(line)
    assert ok, line


def test_criterion_01_metric_suite():
    t0 = time.time()
    rng = np.random.default_rng(0)
    ok = True
    worst = 0.0
    for k in (1, 2, 3):
        a1, a2, b1, b2, c1, c2 = rng.standard_normal((6, 10000, k))
        gab = metric_G_many(a1, a2, b1, b2)
        gba = metric_G_many(b1, b2, a1, a2)
        gaa = metric_G_many(a1, a2, a1, a2)
        gac = metric_G_many(a1, a2, c1, c2)
        gbc = metric_G_many(b1, b2, c1, c2)
        worst = max(worst, float(np.abs(gaa).max()),
                    float(np.abs(gab - gba).max()),
                    float((gac - gab - gbc).max()))
        ok &= worst <= 1e-12
    dt = time.time() - t0
    ok &= dt < 1.0
    _verdict(1, "metric suite", ok,
             "worst defect %.1e, %.2fs" % (worst, dt))


def test_criterion_02_density():
    t0 = time.time()
    g = generate(FixtureSpec("four_half_planes", 1 / 256, radius=1.0))
    V = sample_graph(g, with_tangents=False)
    vertex = density_ratio(V, np.zeros(3), 0.25)

    h = 1 / 128
    ax = -1.0 + h * (np.arange(int(round(2.0 / h))) + 0.5)
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel(),
                           np.zeros(xx.size)])
    W = SampledVarifold(2, 1, pts, np.full(len(pts), h * h),
                        resolution=h)
    plane = density_ratio(W, np.zeros(3), 0.25)
    dt = time.time() - t0
    ok = 1.96 <= vertex <= 2.04 and 0.98 <= plane <= 1.02 and dt < 10
    _verdict(2, "density ratios", ok,
             "vertex %.4f, plane %.4f, %.1fs" % (vertex, plane, dt))


def test_criterion_03_stationarity():
    t0 = time.time()
    fields = [BumpField("radial_bump", np.zeros(3), 0.5),
              BumpField("coordinate_bump", np.zeros(3), 0.5,
                        direction=np.eye(3)[1])]
    defects = []
    for h in (1 / 128, 1 / 256, 1 / 512):
        g = generate(FixtureSpec("four_half_planes", h, radius=1.0))
        defects.append(max(first_variation_defect(sample_graph(g), fields,
                                                  max_unreliable=0.3)))
    ok = all(defects[i] / defects[i + 1] >= 1.8 for i in range(2))

    residuals = []
    for h in (1 / 8, 1 / 16):
        f = generate(FixtureSpec("hopf_lo_cone", h))
        bumps = [(np.array([0.6, 0.0, 0.0, 0.0]), 0.25),
                 (np.array([0.0, -0.6, 0.0, 0.0]), 0.25)]
        residuals.append(mss_residual(f, bumps))
    ok &= residuals[0] / residuals[1] >= 1.8

    ts = np.arange(1, 256) / 256.0
    dirs = [np.array([1.0, 0, 0]), np.array([0, 1.0, 0]),
            np.array([-1.0, 0, 0])]
    pts = np.vstack([ts[:, None] * d for d in dirs])
    tan = np.vstack([np.broadcast_to(d[None, None], (len(ts), 1, 3))
                     for d in dirs])
    Vb = SampledVarifold(1, 2, pts, np.full(len(pts), 1 / 256),
                         tangents=tan)
    broken = max(first_variation_defect(Vb, fields))
    ok &= broken > 10 * defects[1]
    dt = time.time() - t0
    ok &= dt < 60
    _verdict(3, "stationarity defects", ok,
             "junction ratios %.1f/%.1f, residual ratio %.1f, "
             "broken/junction %.1e, %.1fs"
             % (defects[0] / defects[1], defects[1] / defects[2],
                residuals[0] / residuals[1], broken / defects[1], dt))


def test_criterion_04_excess_decay():
    t0 = time.time()
    g = generate(FixtureSpec("holo_pair_curved", 1 / 512, radius=1.0,
                             params={"a": 1.0, "b": 1.0}))
    V = sample_graph(g, with_tangents=False)
    C0 = cone_fixture("transverse_pair_r4")
    rep = decay_pipeline(V, C0, theta=0.5, J=5)
    dt = time.time() - t0
    steps = [r["nu_step"] for r in rep.records]
    decreasing = all(b < a for a, b in zip(steps, steps[1:]))
    ratios = [b / a for a, b in zip(steps, steps[1:])]
    avg_ratio = float(np.mean(ratios)) if ratios else 1.0
    slope = rep.fitted_2alpha
    ok = (slope is not None and 1.5 <= slope <= 2.5
          and decreasing and avg_ratio <= 0.7 and dt < 300)
    _verdict(4, "excess decay", ok,
             "2alpha %.3f, steps %s, avg ratio %.3f, %.0fs"
             % (slope or -1, ["%.1e" % s for s in steps], avg_ratio, dt))


def test_criterion_05_exact_cone_nulls():
    t0 = time.time()
    ok = True
    details = []
    for name in CONE_FIXTURE_IDS:
        C = cone_fixture(name)
        V = sample_cone(C, 20000, radius=2.5)
        tol = 1e-8 * V.total_mass
        vals = [excess_E(V, C), excess_Q(V, C).q,
                axis_tilt(V, C, Ball(np.zeros(C.ambient_dim), 1.0))]
        vals.append(radial_homogeneity_deficit(
            C, lambda X: np.zeros((len(X), 1)), 0.25, 1.0))
        rep = decay_pipeline(V, C, J=3, cone_class=C.kind,
                             fit_min_samples=300)
        vals.extend(r["one_sided_scaled"] for r in rep.records)
        worst = max(vals)
        ok &= worst < tol
        details.append("%s %.1e" % (name, worst))
    dt = time.time() - t0
    ok &= dt < 30
    _verdict(5, "exact-cone nulls", ok,
             "; ".join(details) + ", %.1fs" % dt)


def test_criterion_06_decomposition_monodromy():
    t0 = time.time()
    g = generate(FixtureSpec("branched_w32", 1 / 64, radius=1.0))
    ci = tuple((np.array(g.dims) - 1) // 2)
    swaps = [monodromy_test(g, ring_loop(g, ci, r))
             for r in range(12, 44, 4)]
    ok = swaps == ["swap"] * 8

    h = generate(FixtureSpec("holo_pair_curved", 1 / 64, radius=1.0,
                             params={"a": 1.0, "b": 1.0}))
    a = propagate_labels(h)
    ok &= a.decomposed and len(a.conflicts) == 0
    b = propagate_labels(h, seed_node=(10, 10))
    m = (a.labels >= 0) & (b.labels >= 0)
    same = a.labels[m] == b.labels[m]
    for comp in np.unique(a.components[m]):
        sel = a.components[m] == comp
        ok &= bool(same[sel].all() or (~same[sel]).all())
    dt = time.time() - t0
    ok &= dt < 10
    _verdict(6, "decomposition and monodromy", ok,
             "%d/8 swap loops, decomposed %s, %.1fs"
             % (swaps.count("swap"), a.decomposed, dt))


def test_criterion_07_link_classification():
    t0 = time.time()
    M = 256
    r_pair = classify_link(sample_link(
        cone_fixture("transverse_pair_r4"), M=M))
    ok = r_pair.verdict == "two_disjoint_great_circles"
    r4 = classify_link(sample_link(
        cone_fixture("four_half_planes_r4"), M=M))
    ok &= r4.verdict == "four_half_circles"
    ok &= r4.diagnostics["antipodal_gap"] < 2.0 / M
    ok &= max(r4.balance_defects) < 0.02

    def half_circle(u, v, m=100):
        t = np.linspace(0, np.pi, m)
        return np.outer(np.cos(t), u) + np.outer(np.sin(t), v)
    e3 = np.array([0.0, 0.0, 1.0])
    broken = classify_arcs([half_circle(e3, np.array([1.0, 0, 0])),
                            half_circle(e3, np.array([0, 1.0, 0])),
                            half_circle(e3, np.array([-1.0, 0, 0]))])
    ok &= broken.verdict == "inconsistent"
    dt = time.time() - t0
    ok &= dt < 5
    _verdict(7, "link classification", ok,
             "%s / %s (gap %.1e, defect %.1e) / %s, %.1fs"
             % (r_pair.verdict, r4.verdict,
                r4.diagnostics["antipodal_gap"],
                max(r4.balance_defects), broken.verdict, dt))


def test_criterion_08_dehomogenization():
    t0 = time.time()
    C = cone_fixture("transverse_pair_r4")
    maps = [np.array([[0.2, -0.1], [0.05, 0.3], [0.4, 0.0]]),
            np.array([[0.0, 0.1], [-0.2, 0.0], [0.0, -0.3]])]
    psi = HElement(C, maps=maps)
    v = ConeField.from_element(psi, h=1 / 32)
    rec, norms = dehomogenize(v)
    err = float(np.linalg.norm(rec.coefficient_vector()
                               - psi.coefficient_vector()))
    ok = err < 1e-10 and norms["orthogonality"] < 1e-8
    w = ConeField.from_element(rec, h=1 / 32)
    rec2, _ = dehomogenize(w)
    ok &= bool(np.allclose(rec2.coefficient_vector(),
                           rec.coefficient_vector(), atol=1e-10))
    dt = time.time() - t0
    ok &= dt < 5
    _verdict(8, "dehomogenization", ok,
             "coefficient error %.1e, orthogonality %.1e, %.2fs"
             % (err, norms["orthogonality"], dt))


def test_criterion_09_single_plane_comparison():
    t0 = time.time()
    C = cone_fixture("transverse_pair_r4")
    configs = [
        ("holo_pair_curved", {"a": 0.4, "b": 0.2}),
        ("pair_planes", {"g1": [[0.1, 0.0], [0.0, 0.05]],
                         "g2": [[0.0, -0.3], [0.2, 0.0]]}),
        ("pair_planes", {"g1": [[0.2, 0.0], [0.0, 0.1]],
                         "g2": [[-0.2, 0.0], [0.0, -0.1]]}),
        ("pair_planes", {"g1": [[0.05, 0.0], [0.0, 0.0]],
                         "g2": [[0.3, 0.0], [0.0, 0.3]],
                         "c1": [0.2, 0.0], "c2": [-0.2, 0.0]}),
        ("pair_planes", {"g1": [[0.0, 0.05], [0.05, 0.0]],
                         "g2": [[0.4, 0.0], [0.0, 0.2]]}),
    ]
    from mintwo.twovalued import lipschitz_estimate
    ok = True
    variations = []
    for fid, params in configs:
        ratios = []
        for h in (1 / 64, 1 / 128):
            g = generate(FixtureSpec(fid, h, radius=1.0, params=params))
            ok &= lipschitz_estimate(g) <= 1.0
            V = sample_graph(g, with_tangents=False)
            ratios.append(single_plane_ratio(V, C))
        ok &= all(np.isfinite(r) and r > 0 for r in ratios)
        var = max(ratios) / min(ratios)
        variations.append(var)
        ok &= var < 2.0
    dt = time.time() - t0
    ok &= dt < 60
    _verdict(9, "single-plane comparison", ok,
             "max refinement variation %.3f over %d configs, %.1fs"
             % (max(variations), len(configs), dt))


def test_criterion_10_reproducibility(tmp_path):
    runs = {
        "density": ["density", "--fixture", "four_half_planes",
                    "--h", "0.015625"],
        "excess": ["excess", "--fixture", "holo_pair_curved",
                   "--h", "0.03125", "--cone", "transverse_pair_r4"],
        "decay": ["decay", "--fixture", "holo_pair_curved",
                  "--h", "0.0078125", "--cone", "transverse_pair_r4",
                  "--J", "3", "--fit-min-samples", "300"],
        "decompose": ["decompose", "--fixture", "branched_w32",
                      "--h", "0.03125"],
        "link": ["classify-link", "--cone", "four_half_planes_r4",
                 "--M", "128"],
        "stationary": ["verify-stationary", "--fixture",
                       "four_half_planes", "--h", "0.03125",
                       "--max-unreliable", "0.3"],
    }
    ok = True
    for name, argv in runs.items():
        a = tmp_path / (name + "_a.json")
        b = tmp_path / (name + "_b.json")
        ok &= cli_main(argv + ["--out", str(a)]) == 0
        ok &= cli_main(argv + ["--out", str(b)]) == 0
        same = a.read_bytes() == b.read_bytes()
        ok &= same
    # library-level report serializations are byte-stable too
    C = cone_fixture("transverse_pair_r4")
    V = sample_cone(C, 4000, radius=2.5)
    t1 = excess_Q(V, C).to_json()
    t2 = excess_Q(V, C).to_json()
    ok &= t1 == t2
    _verdict(10, "reproducibility", ok,
             "%d report configs byte-identical" % (len(runs) + 1))


def test_criterion_11_dehomogenize_field_file(tmp_path):
    # a cone field written with ConeField.to_json and read back by the
    # CLI gives the norms of the in-memory field
    t0 = time.time()
    C = cone_fixture("transverse_pair_r4")
    maps = [np.array([[0.2, -0.1], [0.05, 0.3], [0.4, 0.0]]),
            np.array([[0.0, 0.1], [-0.2, 0.0], [0.0, -0.3]])]
    v = ConeField.from_element(HElement(C, maps=maps), h=1 / 16)
    for ch in v.charts:
        # a part outside the linear class, so the residual is not zero
        ch["values"] += 0.05 * np.sin(3.0 * ch["coords"][..., :1])
    field = tmp_path / "field.json"
    field.write_text(v.to_json())
    out = tmp_path / "report.json"
    ok = cli_main(["dehomogenize", "--field", str(field), "--rho", "0.8",
                   "--out", str(out)]) == 0
    reported = json.loads(out.read_text())["report"]["norms"]
    _, norms = dehomogenize(v, rho=0.8)
    ok &= reported == norms and norms["residual"] > 1e-3
    dt = time.time() - t0
    ok &= dt < 5
    _verdict(11, "cone field through the CLI", ok,
             "residual %.3e, %d norms equal, %.2fs"
             % (norms["residual"], len(norms), dt))
