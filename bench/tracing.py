"""Layer spans for a traced benchmark run, installed from outside ``src/``.

Every public name a workload calls is wrapped where it is looked up (a
module that did ``from .x import f`` holds its own binding, so that binding
is the one replaced).  A span records its name, start, end, parent and the
counts taken at that boundary; spans stay in memory until the run ends.
A patch point that no longer resolves raises, so a refactor cannot make a
layer silently read zero.
"""

import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

MB = float(2 ** 20)


class Tracer:
    """In-memory span recorder; one root span per ``cli.main`` call."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        rec = {"id": len(self.spans), "name": name,
               "call": len(self.spans) if parent is None
               else parent["call"],
               "parent": None if parent is None else parent["id"],
               "start": perf_counter(), "end": None, "counts": {}}
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec["counts"]
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def counts(self):
        """Counts of the innermost open span."""
        if not self._open:
            raise RuntimeError("layer counter called outside any span")
        return self._open[-1]["counts"]

    def calls(self):
        """Spans grouped by root call, in call order."""
        out = defaultdict(list)
        for s in self.spans:
            out[s["call"]].append(s)
        return [out[k] for k in sorted(out)]


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _count_grid(counts, args, grid):
    _add(counts, "fixtures.nodes", grid.node_count())
    _add(counts, "twovalued.grid_mb",
         sum(a.nbytes for a in (grid.a1, grid.a2, grid.coords,
                                grid.mask)) / MB)


def _count_samples(counts, args, V):
    _add(counts, "varifold.samples", len(V.weights))


def _count_cloud(counts, args, _):
    V = args[0]
    arrays = [V.points, V.weights, V.tangent_ok, V.sheet]
    if V.tangents is not None:
        arrays.append(V.tangents)
    _add(counts, "varifold.clouds_built", 1)
    _add(counts, "varifold.cloud_mb", sum(a.nbytes for a in arrays) / MB)


def _count_queries(counts, args, d):
    V = args[0]
    _add(counts, "excess.reverse_queries", len(d))
    if V.resolution is not None:
        _add(counts, "excess.far_queries",
             int(np.count_nonzero(d > 8 * V.resolution)))


def _count_points(counts, args, _):
    X = np.asarray(args[1])
    _add(counts, "cones.dist_to_support_points",
         X.shape[0] if X.ndim > 1 else 1)


def _count_labels(counts, args, lab):
    labelled = lab.labels >= 0
    edges = 0
    for ax in range(labelled.ndim):
        lo = [slice(None)] * labelled.ndim
        hi = [slice(None)] * labelled.ndim
        lo[ax] = slice(None, -1)
        hi[ax] = slice(1, None)
        edges += int(np.count_nonzero(labelled[tuple(lo)]
                                      & labelled[tuple(hi)]))
    _add(counts, "decompose.edges", edges)
    _add(counts, "decompose.conflicts", len(lab.conflicts))


def _count_rungs(counts, args, report):
    _add(counts, "conefit.rungs", len(report.records))


def _count_supported(counts, args, mask):
    _add(counts, "stationarity.supported_samples",
         int(np.count_nonzero(mask)))


# (module, attribute path, span name or None for a counter-only hook,
#  counter(counts, args, result) or None)
PATCHES = (
    ("mintwo.cli", "main", "cli.main", None),
    ("mintwo.cli", "generate", "fixtures.generate", _count_grid),
    ("mintwo.cli", "sample_graph", "varifold.sample_graph", _count_samples),
    ("mintwo.varifold", "lipschitz_estimate", "twovalued.lipschitz", None),
    ("mintwo.decompose", "lipschitz_estimate", "twovalued.lipschitz", None),
    ("mintwo.varifold", "cKDTree", "varifold.tree_build", None),
    ("mintwo.varifold", "SampledVarifold.__init__", None, _count_cloud),
    ("mintwo.conefit", "density_ratio", "varifold.density", None),
    ("mintwo.cli", "decay_pipeline", "conefit.decay_pipeline",
     _count_rungs),
    ("mintwo.cli", "fit_cone", "conefit.fit_cone", None),
    ("mintwo.conefit", "fit_cone", "conefit.fit_cone", None),
    ("mintwo.cli", "excess_Q", "excess.excess_Q", None),
    ("mintwo.conefit", "excess_Q", "excess.excess_Q", None),
    ("mintwo.cli", "excess_E", "excess.excess_E", None),
    ("mintwo.conefit", "excess_E", "excess.excess_E", None),
    ("mintwo.excess", "excess_E", "excess.excess_E", None),
    ("mintwo.excess", "dist_to_varifold", "excess.dist_to_varifold",
     _count_queries),
    ("mintwo.conefit", "nu", "cones.nu", None),
    ("mintwo.cones", "Cone.dist_to_support", "cones.dist_to_support",
     _count_points),
    ("mintwo.cli", "propagate_labels", "decompose.propagate_labels",
     _count_labels),
    ("mintwo.cli", "first_variation_defect", "stationarity.first_variation",
     None),
    ("mintwo.stationarity", "BumpField.supported", None, _count_supported),
)


def _wrap(tracer, fn, name, counter):
    if name is None:
        def hooked(*args, **kwargs):
            out = fn(*args, **kwargs)
            counter(tracer.counts(), args, out)
            return out
        return hooked

    def traced(*args, **kwargs):
        with tracer.span(name) as counts:
            out = fn(*args, **kwargs)
            if counter is not None:
                counter(counts, args, out)
            return out
    return traced


def install(tracer, patches=PATCHES):
    """Wrap every patch point; returns a function that undoes the patches.

    Raises AttributeError naming the first patch point that does not
    resolve, before anything is patched.
    """
    resolved = []
    for module, path, name, counter in patches:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        if attr not in vars(owner):
            raise AttributeError("patch point %s.%s no longer resolves"
                                 % (module, path))
        resolved.append((owner, attr, vars(owner)[attr], name, counter))
    for owner, attr, fn, name, counter in resolved:
        setattr(owner, attr, _wrap(tracer, fn, name, counter))

    def undo():
        for owner, attr, fn, _, _ in reversed(resolved):
            setattr(owner, attr, fn)
    return undo


# Per-layer metrics of a traced call: name -> unit.
LAYER_METRICS = {
    "excess.dist_to_varifold_s": "s",
    "excess.reverse_queries": "count",
    "excess.far_query_fraction": "fraction",
    "excess.excess_Q_s": "s",
    "excess.excess_E_s": "s",
    "excess.excess_E_samples": "count",
    "varifold.tree_builds": "count",
    "varifold.tree_build_s": "s",
    "varifold.clouds_built": "count",
    "varifold.cloud_mb": "MiB",
    "varifold.sample_graph_s": "s",
    "varifold.samples": "count",
    "varifold.density_s": "s",
    "fixtures.generate_s": "s",
    "fixtures.nodes": "count",
    "twovalued.grid_mb": "MiB",
    "twovalued.lipschitz_s": "s",
    "cones.dist_to_support_s": "s",
    "cones.dist_to_support_points": "count",
    "cones.nu_s": "s",
    "conefit.fit_cone_s": "s",
    "conefit.fit_cone_calls": "count",
    "conefit.rungs": "count",
    "conefit.decay_pipeline_s": "s",
    "decompose.propagate_labels_s": "s",
    "decompose.edges": "count",
    "decompose.edges_per_s": "1/s",
    "decompose.conflicts": "count",
    "stationarity.first_variation_s": "s",
    "stationarity.supported_samples": "count",
    "cli.self_s": "s",
    "cli.wall_s": "s",
    "cli.cpu_s": "s",
    "trace.overhead_s": "s",
}

def self_times(spans):
    """Self time of each span: its duration minus its children's."""
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - covered[s["id"]] for s in spans]


def layer_metrics(spans):
    """Per-layer metrics of one call's spans; layers not called read 0."""
    out = dict.fromkeys(LAYER_METRICS, 0)
    by_id = {s["id"]: s for s in spans}
    for s, own in zip(spans, self_times(spans)):
        out["cli.self_s" if s["name"] == "cli.main"
            else s["name"] + "_s"] += own
        for key, value in s["counts"].items():
            out[key] = out.get(key, 0) + value
        if s["name"] == "varifold.tree_build":
            out["varifold.tree_builds"] += 1
        elif s["name"] == "conefit.fit_cone":
            out["conefit.fit_cone_calls"] += 1
        elif (s["name"] == "cones.dist_to_support"
              and s["parent"] is not None
              and by_id[s["parent"]]["name"] == "excess.excess_E"):
            out["excess.excess_E_samples"] += \
                s["counts"]["cones.dist_to_support_points"]
    far = out.pop("excess.far_queries", 0)
    if out["excess.reverse_queries"]:
        out["excess.far_query_fraction"] = far / out["excess.reverse_queries"]
    if out["decompose.propagate_labels_s"] > 0:
        out["decompose.edges_per_s"] = (out["decompose.edges"]
                                        / out["decompose.propagate_labels_s"])
    return out
