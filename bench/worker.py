"""One fresh benchmark process: time ``mintwo.cli.main`` calls in a loop.

Run by ``bench/run.py``; not meant to be started by hand.  Calls the CLI
for one workload, back to back, until the time budget is spent (at least
once), then checks every report and writes a JSON result file.  With
``--setup-samples N`` it also times N fresh interpreters importing
``mintwo.cli``, spread evenly over the budget between calls.  With
``--trace`` every second call runs with the layer spans installed; with
``--golden`` it runs the golden configurations once each instead and
records their report hashes.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import mintwo.cli as cli

import tracing
from workloads import GOLDEN, WORKLOADS, check_report, report_sha256

SETUP_CODE = "import time, mintwo.cli; print(time.monotonic())"


def _environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version"))}


def _call(argv, out):
    """One CLI call writing to ``out``: (exit code, wall s, cpu s, bytes)."""
    out.unlink(missing_ok=True)
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        rc = cli.main(argv + ["--out", str(out)])
    except Exception:
        traceback.print_exc()
        rc = None
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    data = out.read_bytes() if rc == 0 and out.exists() else None
    return rc, wall, cpu, data


def _setup_sample():
    """Seconds from starting an interpreter to ``mintwo.cli`` imported."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], check=True,
                          stdout=subprocess.PIPE, text=True)
    return float(proc.stdout.split()[-1]) - t0


def run_workload(args, out, spans_path):
    workload = WORKLOADS[args.workload]
    argv = workload.argv(args.seed, args.size)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)()  # a stale patch point fails before timing
    calls, setup = [], []
    start = time.perf_counter()
    while True:
        # set-up sample k is taken once k/N of the budget is spent, so host
        # drift within the run reaches all samples alike
        while (len(setup) < args.setup_samples and len(setup) <=
               args.setup_samples * (time.perf_counter() - start)
               / args.seconds):
            setup.append(_setup_sample())
        # traced and untraced calls alternate, so the tracing overhead is
        # measured under the same host load
        traced = tracer is not None and len(calls) % 2 == 1
        undo = tracing.install(tracer) if traced else None
        try:
            rc, wall, cpu, data = _call(argv, out)
        finally:
            if undo is not None:
                undo()
        calls.append({"rc": rc, "wall_s": wall, "cpu_s": cpu,
                      "traced": traced, "data": data})
        elapsed = time.perf_counter() - start
        if (len(calls) >= (2 if tracer else 1) and
                elapsed * (len(calls) + 1) / len(calls) > args.seconds):
            break
    while len(setup) < args.setup_samples:
        setup.append(_setup_sample())
    # read the peak before the checker imports and allocates anything
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for c in calls:
        data = c.pop("data")
        errors, err = check_report(workload, data, args.seed)
        if c["rc"] != 0:
            errors.insert(0, "exit code %r" % c["rc"])
        c.update(ok=not errors, errors=errors, result_err=err,
                 sha256=report_sha256(data) if not errors else None)
    result = {"calls": calls, "peak_rss_mb": peak_mb, "argv": argv,
              "setup_s": setup}
    if tracer is not None:
        result["layers"] = [tracing.layer_metrics(s)
                            for s in tracer.calls()]
        with open(spans_path, "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(dict(s, start=s["start"] - start,
                                         end=s["end"] - start)) + "\n")
        result["spans_file"] = str(spans_path)
    return result


def run_golden(out):
    hashes = {}
    for name, argv in GOLDEN.items():
        rc, _, _, data = _call(argv, out)
        hashes[name] = report_sha256(data) if rc == 0 and data else \
            "exit code %r" % rc
    return {"golden": hashes}


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--golden", action="store_true")
    p.add_argument("--setup-samples", type=int, default=0)
    p.add_argument("--result", required=True)
    args = p.parse_args()
    result_path = Path(args.result)
    out = result_path.with_suffix(".report.json")
    result = run_golden(out) if args.golden else \
        run_workload(args, out, result_path.with_suffix(".spans.jsonl"))
    out.unlink(missing_ok=True)
    result["environment"] = _environment()
    result["mintwo"] = cli.__file__
    result_path.write_text(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
