"""Benchmark of the mintwo command line: one workload, one seed, one run.

    python3 bench/run.py --workload decay_ladder --seed 0 --seconds 30 --trace 0

Run from the repository root (or any copy of it).  The program is used from
source: ``src/`` goes on PYTHONPATH of each child process, and BLAS/OpenMP
threads are capped at the number of usable cores.  A run

1. in a fresh process, calls ``mintwo.cli.main`` for the workload back to
   back (a closed loop with one client) for ``--seconds`` seconds, and
   checks every report;
2. between those calls, spread over the same seconds, starts a fresh
   interpreter several times and times it until ``mintwo.cli`` is
   imported (``setup_s``, the median).

With ``--trace 1`` it skips step 2; in step 1 every second call is traced,
which yields the per-layer metrics and the tracing overhead; and a further
fresh process runs the golden configurations once and records their
report hashes.

It prints a readable summary, writes the full record under ``bench/out/``,
and prints one JSON object as the last line of standard output.  It exits
non-zero, without that line, when a process fails or mintwo is missing.
See bench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = {"peak_rss_mb": "MiB", "setup_s": "s", "result_err": "1"}
# Printed and recorded, not gated: on a shared host their run-to-run spread
# exceeds any bound a time metric may have (see README.md).
CALL_TIMES = {"wall_s": "s", "cpu_s": "s"}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    nproc = str(len(os.sched_getaffinity(0)))
    env.update((name, nproc) for name in THREAD_VARS)
    return env


def worker(name, deadline, *flags):
    """Run bench/worker.py in a fresh process, in its own session (killed
    whole on timeout), and return its result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before %s" % name)
    result = OUT / (name + ".json")
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--result", str(result),
           *flags]
    with subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=sys.stderr,
                          start_new_session=True) as proc:
        try:
            proc.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError("%s ran past the time limit" % name)
    if proc.returncode != 0:
        raise BenchError("%s exited with %d" % (name, proc.returncode))
    data = json.loads(result.read_text())
    if not Path(data["mintwo"]).resolve().is_relative_to(SRC):
        raise BenchError("imported mintwo from %s, not from %s"
                         % (data["mintwo"], SRC))
    return data


def call_times(calls):
    """Median wall and CPU seconds of one call."""
    return {k: median(c[k] for c in calls) for k in CALL_TIMES}


def end_to_end(result):
    """End-to-end metrics of an untraced worker result."""
    errs = [c["result_err"] for c in result["calls"] if c["ok"]]
    return {"peak_rss_mb": result["peak_rss_mb"],
            "setup_s": median(result["setup_s"]),
            "result_err": median(errs) if errs else None}


def per_layer(result):
    """Median over traced calls of each layer metric; the untraced calls
    of the same run give the call times and the tracing overhead."""
    out = {k: median(m[k] for m in result["layers"]) for k in LAYER_METRICS}
    traced = call_times([c for c in result["calls"] if c["traced"]])
    plain = call_times([c for c in result["calls"] if not c["traced"]])
    out.update({"cli." + k: v for k, v in plain.items()})
    out["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return out


def tally(result):
    """(attempted, failed, distinct report hashes) over all checked calls."""
    calls = result["calls"]
    failed = sum(not c["ok"] for c in calls)
    return len(calls), failed, sorted({c["sha256"] for c in calls
                                       if c["ok"]})


def main(argv=None):
    p = argparse.ArgumentParser(
        description="mintwo CLI benchmark (see bench/README.md)")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny grids for the self-test")
    args = p.parse_args(argv)
    if not (SRC / "mintwo" / "cli.py").is_file():
        sys.stderr.write("mintwo sources not found under %s\n" % SRC)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT_S
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    flags = ["--workload", args.workload, "--seed", str(args.seed),
             "--size", args.size, "--seconds", str(args.seconds)]
    try:
        if args.trace:
            result = worker(tag, deadline, *flags, "--trace")
            golden = worker(tag + "-golden", deadline, "--golden")["golden"]
        else:
            result = worker(tag, deadline, *flags,
                            "--setup-samples", str(SETUP_SAMPLES))
    except BenchError as exc:
        sys.stderr.write("benchmark failed: %s\n" % exc)
        return 1

    attempted, failed, hashes = tally(result)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "size": args.size, "failed_fraction": failed / attempted,
              "report_sha256": hashes, "worker": result}
    if args.trace:
        metrics, units = per_layer(result), LAYER_METRICS
        record.update(per_layer=metrics, golden_sha256=golden)
    else:
        metrics, units = end_to_end(result), END_TO_END
        times = call_times(result["calls"])
        record.update(end_to_end=metrics, call_times=times)
    record_path = OUT / (tag + ".json")
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True))

    print("mintwo benchmark  workload=%s seed=%d size=%s trace=%d calls=%d"
          % (args.workload, args.seed, args.size, args.trace, attempted))
    print("environment  " + "  ".join("%s=%s" % kv for kv in
                                      result["environment"].items()))
    print("command  mintwo " + " ".join(result["argv"]))
    table = [(k, metrics[k], u) for k, u in units.items()]
    if not args.trace:
        table += [(k, times[k], u) for k, u in CALL_TIMES.items()]
    table.append(("failed_fraction", failed / attempted, "fraction"))
    for name, value, unit in table:
        print("  %-32s %14s %s" % (name, "-" if value is None
                                   else "%.6g" % value, unit))
    for c in result["calls"]:
        for e in c["errors"]:
            print("  check failed: %s" % e)
    print("report sha256  %s" % " ".join(hashes))
    for name, h in record.get("golden_sha256", {}).items():
        print("golden %-11s %s" % (name, h))
    print("record  %s" % record_path.relative_to(ROOT))
    print(json.dumps({
        "correct": failed == 0 and len(hashes) == 1,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
