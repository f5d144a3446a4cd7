"""Self-test of the benchmark on tiny grids.

    python3 -m pytest bench/test_bench.py -q

Covers the untraced and traced paths of every workload, the report checks,
the counting of a corrupted report, loud failure of a stale patch point, and
failure without a result when the program is missing.  Takes about a minute.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import (WORKLOADS, check_report,  # noqa: E402
                       report_sha256)

# layer metrics that must read exactly 0, and ones that must not
ZERO = {
    "decay_ladder": ("decompose.", "stationarity."),
    "sheet_labels": ("excess.", "varifold.", "cones.", "conefit.",
                     "stationarity."),
    "stationary_4d": ("excess.", "varifold.tree", "varifold.density",
                      "cones.", "conefit.", "decompose."),
}
NONZERO = {
    "decay_ladder": ("excess.dist_to_varifold_s", "excess.reverse_queries",
                     "varifold.tree_builds", "conefit.rungs",
                     "cones.nu_s", "varifold.cloud_mb"),
    "sheet_labels": ("decompose.propagate_labels_s", "decompose.edges",
                     "decompose.conflicts", "fixtures.nodes"),
    "stationary_4d": ("stationarity.first_variation_s",
                      "stationarity.supported_samples", "varifold.samples",
                      "twovalued.grid_mb"),
}


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_tiny_run(name):
    proc = _bench("--workload", name, "--seed", "3", "--seconds", "1",
                  "--trace", "1", "--size", "tiny")
    res = _result(proc)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        tracing.LAYER_METRICS
    for key, value in metrics.items():
        if key.startswith(ZERO[name]):
            assert value == 0, key
    for key in NONZERO[name]:
        assert metrics[key] > 0, key
    assert len([ln for ln in proc.stdout.splitlines()
                if ln.startswith("golden ")]) == 6


def test_untraced_tiny_run_prints_end_to_end():
    proc = _bench("--workload", "sheet_labels", "--seed", "5", "--seconds",
                  "1", "--trace", "0", "--size", "tiny")
    res = _result(proc)
    assert res["correct"] and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        run.END_TO_END
    assert all(v["value"] > 0 for v in res["metrics"].values())
    for name in [*run.END_TO_END, *run.CALL_TIMES, "failed_fraction"]:
        assert "  %s " % name in proc.stdout
    record = json.loads((run.OUT / "sheet_labels-seed5-trace0.json")
                        .read_text())
    assert len(record["worker"]["setup_s"]) == run.SETUP_SAMPLES


def test_corrupted_report_counts_as_failed(tmp_path, monkeypatch):
    import worker
    call = worker._call

    def truncate_first(argv, out):
        rc, wall, cpu, data = call(argv, out)
        if not truncate_first.done:
            truncate_first.done = True
            data = data[:len(data) // 2]
        return rc, wall, cpu, data
    truncate_first.done = False
    monkeypatch.setattr(worker, "_call", truncate_first)
    args = argparse.Namespace(workload="sheet_labels", seed=0, size="tiny",
                              seconds=0.5, trace=False, setup_samples=0)
    result = worker.run_workload(args, tmp_path / "report.json",
                                 tmp_path / "spans.jsonl")
    attempted, failed, hashes = run.tally(result)
    assert attempted >= 2 and failed == 1 and len(hashes) == 1
    assert "not JSON" in result["calls"][0]["errors"][0]


def _tiny_report(name, tmp_path, seed=0):
    from mintwo.cli import main
    out = tmp_path / (name + ".json")
    assert main(WORKLOADS[name].argv(seed, "tiny") + ["--out",
                                                      str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("name,corrupt", [
    ("decay_ladder", {"fitted_2alpha": 2.7}),
    ("decay_ladder", {"fitted_2alpha": None}),
    ("sheet_labels", {"decomposed": True}),
    ("sheet_labels", {"conflicts": 0}),
    ("sheet_labels", {"branch_points": []}),
    ("stationary_4d", {"max_defect": float("nan")}),
    ("stationary_4d", {"max_defect": 1.0}),
    ("stationary_4d", {"unexpected": 1}),
])
def test_check_report_rejects(name, corrupt, tmp_path):
    env = _tiny_report(name, tmp_path)
    w = WORKLOADS[name]
    errors, err = check_report(w, json.dumps(env).encode(), 0)
    assert errors == [] and err > 0
    env["report"].update(corrupt)
    errors, _ = check_report(w, json.dumps(env).encode(), 0)
    assert errors
    assert check_report(w, json.dumps(env)[:-5].encode(), 0)[0]
    assert check_report(w, None, 0)[0] == ["no report written"]


def test_check_report_rejects_steps_and_seed(tmp_path):
    env = _tiny_report("decay_ladder", tmp_path, seed=4)
    w = WORKLOADS["decay_ladder"]
    assert check_report(w, json.dumps(env).encode(), 4)[0] == []
    assert check_report(w, json.dumps(env).encode(), 5)[0]
    env["report"]["records"].reverse()
    assert check_report(w, json.dumps(env).encode(), 4)[0]


def test_report_hash_covers_the_body_only(tmp_path):
    env = _tiny_report("sheet_labels", tmp_path)
    digest = report_sha256(json.dumps(env).encode())
    env["version"] = "999"
    assert report_sha256(json.dumps(env, indent=3).encode()) == digest
    env["report"]["conflicts"] += 1
    assert report_sha256(json.dumps(env).encode()) != digest


def test_stale_patch_point_fails_loudly():
    import mintwo.cli
    before = mintwo.cli.main
    with pytest.raises(AttributeError, match="no_such_layer"):
        tracing.install(tracing.Tracer(), tracing.PATCHES
                        + (("mintwo.cli", "no_such_layer", "x", None),))
    assert mintwo.cli.main is before
    undo = tracing.install(tracing.Tracer())
    assert mintwo.cli.main is not before
    undo()
    assert mintwo.cli.main is before


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "sheet_labels", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        tracing.LAYER_METRICS
