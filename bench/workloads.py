"""Benchmark workloads: CLI arguments, golden configurations, report checks.

Each workload is one ``mintwo`` subcommand on a fixed fixture.  The
benchmark seed is forwarded as the CLI ``--seed``; fixture geometry is fixed
so every report can be checked against known reference values.
"""

import hashlib
import json
import math

# A stationary union has zero first variation; at h=1/16 the discretization
# leaves about 0.013 (h=1/8 about 0.027).  Anything above this is an error.
MAX_DEFECT_BOUND = 0.05


def _check_decay(body):
    errors = []
    alpha = body["fitted_2alpha"]
    if alpha is None or not 1.5 <= alpha <= 2.5:
        errors.append("fitted_2alpha %r outside [1.5, 2.5]" % (alpha,))
    steps = [r["nu_step"] for r in body["records"]]
    if len(steps) < 2 or any(b >= a for a, b in zip(steps, steps[1:])):
        errors.append("nu_step values do not strictly decrease: %r"
                      % (steps,))
    return errors, None if alpha is None else abs(alpha - 2.0)


def _check_sheets(body):
    errors = []
    if body["decomposed"]:
        errors.append("branched fixture reported as decomposed")
    if body["components"] != 1:
        errors.append("%d components, expected 1" % body["components"])
    if body["conflicts"] <= 0:
        errors.append("no labelling conflicts at a branch point")
    points = body["branch_points"]
    if not points:
        errors.append("no branch point reported")
        return errors, None
    # the true branch point of w -> {w^(3/2), -w^(3/2)} is the origin
    return errors, max(math.hypot(*p) for p in points)


def _check_stationary(body):
    defect = body["max_defect"]
    errors = []
    if not (math.isfinite(defect) and defect < MAX_DEFECT_BOUND):
        errors.append("max_defect %r not below %g" % (defect,
                                                       MAX_DEFECT_BOUND))
    return errors, defect if math.isfinite(defect) else None


class Workload:
    """One CLI subcommand with full and tiny argument lists."""

    def __init__(self, name, command, full, tiny, check):
        self.name = name
        self.command = command
        self.args = {"full": full, "tiny": tiny}
        self.check = check

    def argv(self, seed, size):
        return ["--seed", str(seed), self.command] + self.args[size]


# Why each workload exists is set out in bench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        "decay_ladder", "decay",
        ["--fixture", "holo_pair_curved", "--h", "0.00390625",
         "--cone", "transverse_pair_r4", "--J", "5"],
        ["--fixture", "holo_pair_curved", "--h", "0.0078125",
         "--cone", "transverse_pair_r4", "--J", "4",
         "--fit-min-samples", "1000"],
        _check_decay),
    Workload(
        "sheet_labels", "decompose",
        ["--fixture", "branched_w32", "--h", "0.0078125"],
        ["--fixture", "branched_w32", "--h", "0.03125"],
        _check_sheets),
    Workload(
        "stationary_4d", "verify-stationary",
        ["--fixture", "lo_two_valued", "--h", "0.0625",
         "--max-unreliable", "0.6"],
        ["--fixture", "lo_two_valued", "--h", "0.125",
         "--max-unreliable", "1.0"],
        _check_stationary),
)}

# The report configurations of acceptance criterion 10; their report body
# hashes are recorded (not gated) so refactors can show byte-identical output.
GOLDEN = {
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


def report_sha256(data):
    """SHA-256 of the report body in a canonical serialisation.

    The envelope's ``version`` and ``config`` are left out, so a version
    bump alone does not change the hash.
    """
    body = json.loads(data)["report"]
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


_validators = {}


def _validator(command):
    if command not in _validators:
        import jsonschema
        from mintwo.cli import report_schema
        _validators[command] = jsonschema.Draft202012Validator(
            report_schema(command))
    return _validators[command]


def check_report(workload, data, seed):
    """Check one report file's bytes: schema, seed, workload semantics.

    Returns (errors, result_err); errors is empty for a correct report and
    result_err is the distance of the report's number from its reference.
    """
    if data is None:
        return ["no report written"], None
    try:
        envelope = json.loads(data)
    except ValueError as exc:
        return ["report is not JSON: %s" % exc], None
    errors = sorted(e.message for e in
                    _validator(workload.command).iter_errors(envelope))
    if errors:
        return errors, None
    if envelope["config"].get("seed") != seed:
        errors.append("report seed %r, expected %d"
                      % (envelope["config"].get("seed"), seed))
    more, err = workload.check(envelope["report"])
    return errors + more, err
