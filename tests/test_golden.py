"""Golden report bodies: the six acceptance-criterion-10 configurations.

The configurations and the report hash come from ``bench/workloads.py`` (read
only), so the benchmark and this test share one list.  A change that moves a
hash must say which report changed and why.  ``PINNED`` adds reports kept
here only, outside the benchmark's list.
"""

import importlib.util
from pathlib import Path

import pytest

from mintwo.cli import main as cli_main

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
    "decay":
        "78f52f44fd29fd0413cc69f8fbf9468434d27816ff7ad63c418047fd55af6685",
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
}


def test_golden_list_is_complete():
    assert set(workloads.GOLDEN) == set(GOLDEN_SHA256)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_golden_report_body(name, tmp_path):
    out = tmp_path / (name + ".json")
    argv = ["--seed", "0"] + workloads.GOLDEN[name] + ["--out", str(out)]
    assert cli_main(argv) == 0
    assert workloads.report_sha256(out.read_bytes()) == GOLDEN_SHA256[name]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_report_body(name, tmp_path):
    args, sha256 = PINNED[name]
    out = tmp_path / (name + ".json")
    assert cli_main(["--seed", "0"] + args + ["--out", str(out)]) == 0
    assert workloads.report_sha256(out.read_bytes()) == sha256
