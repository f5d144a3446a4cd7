"""The benchmark's layer patches resolve against the library and undo cleanly.

``bench/tracing.py`` wraps named bindings of ``mintwo`` modules (a module
that did ``from .x import f`` holds its own binding of ``f``).  A refactor
that drops or renames one of them makes ``install`` raise; this check runs
with the unit tests, so such a refactor fails here and not only in the
slower ``bench/test_bench.py``.
"""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(patches):
    """(owner, attribute, current value) of every patch point."""
    out = []
    for module, path, _, _ in patches:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        out.append((owner, attr, vars(owner)[attr]))
    return out


def test_patches_install_and_undo(tmp_path):
    tracing = _tracing()
    before = _bindings(tracing.PATCHES)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        for owner, attr, fn in before:
            assert vars(owner)[attr] is not fn, attr
        from mintwo import cli
        assert cli.main(["decompose", "--fixture", "branched_w32",
                         "--h", "0.0625",
                         "--out", str(tmp_path / "d.json")]) == 0
    finally:
        undo()
    for owner, attr, fn in before:
        assert vars(owner)[attr] is fn, attr
    # decompose reaches the Lipschitz pass through its own traced binding
    names = {s["id"]: s["name"] for s in tracer.spans}
    assert ("decompose.propagate_labels", "twovalued.lipschitz") in {
        (names[s["parent"]], s["name"]) for s in tracer.spans
        if s["parent"] is not None}


def test_traced_decay_counts_the_cloud(tmp_path):
    # a traced decay builds its graph cloud through the hooked
    # SampledVarifold.__init__, whose counter reads the cloud's points,
    # weights, tangent_ok, sheet and tangents: each must read as an array
    # of one row per sample (32 + 8 + 1 + 1 bytes of a surface in R^4;
    # a graph cloud carries gradients, not tangents)
    tracing = _tracing()
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        from mintwo import cli
        assert cli.main(["decay", "--fixture", "holo_pair_curved",
                         "--h", "0.03125", "--cone", "transverse_pair_r4",
                         "--J", "2", "--fit-min-samples", "100",
                         "--out", str(tmp_path / "decay.json")]) == 0
    finally:
        undo()
    (spans,) = tracer.calls()
    counts = tracing.layer_metrics(spans)
    assert counts["conefit.rungs"] == 2
    assert counts["varifold.clouds_built"] == 1
    m = counts["varifold.samples"]
    assert m > 0
    assert counts["varifold.cloud_mb"] * tracing.MB == m * (32 + 8 + 1 + 1)
