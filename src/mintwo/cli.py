"""Command-line entry point: fixtures -> pipelines -> JSON/CSV reports.

Every report embeds the fully resolved run configuration and the library
version; outputs carry no timestamps, so identical configurations produce
byte-identical report bodies.
"""

import argparse
import json
import sys
from importlib import resources

import numpy as np

from . import __version__
from .geometry import Ball, check_radius
from .fixtures import (FixtureSpec, generate, cone_fixture, FIXTURE_IDS,
                       CONE_FIXTURE_IDS)
from .cones import Cone
from .varifold import sample_graph, density_profile
from .excess import excess_E, excess_Q, single_plane_ratio
from .stationarity import (BumpField, check_max_unreliable,
                           first_variation_defect)
from .decompose import propagate_labels
from .conefit import check_cone_class, check_ladder, fit_cone, decay_pipeline
from .linkclass import sample_link, classify_link
from .blowup import ConeField, dehomogenize


def report_schema(command):
    """Shipped JSON schema for a subcommand's report envelope."""
    name = "report_%s.json" % command.replace("-", "_")
    path = resources.files("mintwo") / "schemas" / name
    return json.loads(path.read_text())


def _parse_vector(text):
    try:
        v = np.array([float(t) for t in text.split(",")])
    except ValueError:
        raise ValueError("--center entries must be numbers, got %r"
                         % text) from None
    if not np.all(np.isfinite(v)):
        raise ValueError("--center entries must be finite, got %r" % text)
    return v


def _parse_params(items):
    out = {}
    for item in items or []:
        key, eq, val = item.partition("=")
        if not (key and eq):
            raise ValueError("--param %r is not key=value" % item)
        try:
            out[key] = json.loads(val)
        except json.JSONDecodeError:
            out[key] = val
    return out


def _load_cone(arg):
    if arg in CONE_FIXTURE_IDS:
        return cone_fixture(arg)
    with open(arg) as fh:
        return Cone.from_json(fh.read())


def _emit(body, config, out_path):
    report = {"config": config, "version": __version__, "report": body}
    text = json.dumps(report, sort_keys=True, indent=1)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _check_dim(what, d, ambient):
    if d != ambient:
        raise ValueError("%s has dimension %d, not the ambient dimension %d"
                         % (what, d, ambient))


def _grid(args, cone=None, center=None):
    # commands that only sample the grid pass it straight to sample_graph,
    # so it is freed once sampled and adds nothing to the later stages.
    # A cone or centre given with the fixture must live in the graph's
    # R^(n+k), which is checked before anything is sampled.  The config
    # records the spacing and radius of the grid sampled: a custom_grid
    # file's own, whatever --h and --radius say
    spec = FixtureSpec(args.fixture, args.h, args.radius,
                       _parse_params(getattr(args, "param", None)))
    grid = generate(spec)
    args.h, args.radius = grid.h, grid.radius
    if cone is not None:
        _check_dim("--cone", cone.ambient_dim, grid.n + grid.k)
    if center is not None:
        _check_dim("--center", len(center), grid.n + grid.k)
    return grid


def _config_of(args):
    # output destinations do not affect the computation: leaving them out
    # keeps report bodies byte-identical across runs that only differ in
    # where they write.  A non-finite float, which only the config of a
    # refused run holds, is written as the string "inf", "-inf" or "nan",
    # so that strict JSON parsers read the error line
    return {k: str(v) if isinstance(v, float) and not np.isfinite(v) else v
            for k, v in sorted(vars(args).items())
            if k not in ("func", "out", "csv", "labels_out")
            and v is not None}


def cmd_gen(args):
    grid = _grid(args)
    with open(args.out, "w") as fh:
        fh.write(grid.to_json())
    return 0


def cmd_density(args):
    check_radius(args.rho, "rho")
    center = _parse_vector(args.center) if args.center is not None else None
    V = sample_graph(_grid(args, center=center), with_tangents=False)
    if center is None:
        center = np.zeros(V.n + V.k)
    radii, ratios = density_profile(V, center, args.rho)
    _emit({"center": center.tolist(), "radii": radii, "ratios": ratios,
           "smallest_radius_ratio": ratios[-1]},
          _config_of(args), args.out)
    return 0


def cmd_excess(args):
    C = _load_cone(args.cone)
    V = sample_graph(_grid(args, cone=C))
    body = {"one_sided_B1": excess_E(V, C),
            "two_sided": json.loads(excess_Q(V, C).to_json())}
    if C.kind == "pair":
        body["single_plane_ratio"] = single_plane_ratio(V, C)
    _emit(body, _config_of(args), args.out)
    return 0


def cmd_fit(args):
    check_radius(args.fit_radius, "fit_radius")
    C0 = _load_cone(args.cone)
    check_cone_class(C0, args.cone_class)
    V = sample_graph(_grid(args, cone=C0), with_tangents=False)
    region = Ball(np.zeros(V.n + V.k), args.fit_radius)
    cone, val = fit_cone(V, args.cone_class, C0, R=region)
    _emit({"cone": json.loads(cone.to_json()), "excess": val},
          _config_of(args), args.out)
    return 0


def cmd_decay(args):
    check_ladder(args.theta, args.J, args.fit_min_samples)
    C0 = _load_cone(args.cone)
    check_cone_class(C0, args.cone_class)
    center = _parse_vector(args.center) if args.center is not None else None
    V = sample_graph(_grid(args, cone=C0, center=center),
                     with_tangents=False)
    report = decay_pipeline(V, C0, theta=args.theta, J=args.J,
                            center=center, cone_class=args.cone_class,
                            fit_min_samples=args.fit_min_samples)
    if args.csv:
        report.to_csv(args.csv)
    body = json.loads(report.to_json())
    # a decay body's config records the run's --seed, which the hash of
    # the decay golden covers
    body["config"]["seed"] = args.seed
    _emit(body, _config_of(args), args.out)
    return 0


def cmd_decompose(args):
    grid = _grid(args)
    lab = propagate_labels(grid)
    body = {"decomposed": lab.decomposed,
            "conflicts": len(lab.conflicts),
            "components": int(lab.components.max() + 1),
            "branch_points": lab.branch_points.tolist(),
            "exclusion_volume": lab.exclusion_volume()}
    if args.labels_out:
        # the file keeps its int64 labels whatever the dtype in memory
        np.save(args.labels_out, lab.labels.astype(np.int64))
    _emit(body, _config_of(args), args.out)
    return 0


def cmd_classify_link(args):
    if (args.cone is None) == (args.fixture is None):
        raise ValueError("classify-link takes exactly one of --cone and "
                         "--fixture")
    if args.cone is not None:
        source = _load_cone(args.cone)
    else:
        source = _grid(args)
    s = sample_link(source, M=args.M)
    result = classify_link(s)
    _emit(json.loads(result.to_json()), _config_of(args), args.out)
    return 0


# relative slack of the sampled ball of verify-stationary over its
# fields' support radius
_SUPPORT_SLACK = 1e-9


def cmd_verify_stationary(args):
    check_max_unreliable(args.max_unreliable)
    radius = 0.5
    grid = _grid(args)
    # every field vanishes outside the open ball of this radius about 0
    # in R^(n+k), so the cloud keeps the closed ball, with a relative
    # slack far above the rounding of a norm.  The Lipschitz estimate
    # behind tangent_ok is taken over the lattice box that covers the
    # ball, one cell diagonal and one cell more
    base = radius + grid.h * np.sqrt(grid.n)
    if grid.radius < base:
        raise ValueError("verify-stationary needs a grid radius of at "
                         "least %r (the fields' support %g plus a cell "
                         "diagonal), got %r"
                         % (float(base), radius, grid.radius))
    V = sample_graph(grid.box(base + grid.h),
                     base_radius=radius * (1.0 + _SUPPORT_SLACK))
    del grid  # freed once sampled, as in the other commands
    d = V.n + V.k
    fields = [BumpField("radial_bump", np.zeros(d), radius)]
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        fields.append(BumpField("coordinate_bump", np.zeros(d), radius,
                                direction=e))
    defects = first_variation_defect(V, fields,
                                     max_unreliable=args.max_unreliable)
    rows = [{"kind": f.kind,
             "direction": None if f.direction is None
             else f.direction.tolist(),
             "defect": defect} for f, defect in zip(fields, defects)]
    _emit({"fields": rows, "max_defect": max(defects)},
          _config_of(args), args.out)
    return 0


def cmd_dehomogenize(args):
    check_radius(args.rho, "rho")
    with open(args.field) as fh:
        v = ConeField.from_json(fh.read())
    Z = _parse_vector(args.center) if args.center is not None else None
    if Z is not None:
        _check_dim("--center", len(Z), v.C0.ambient_dim)
    psi, norms = dehomogenize(v, Z=Z, rho=args.rho)
    body = {"norms": norms, "kind": psi.kind}
    if psi.kind == "four_hp":
        body["axis_coefficients"] = psi.c.tolist()
        body["cross_values"] = psi.phi.tolist()
    else:
        body["plane_maps"] = [m.tolist() for m in psi.maps]
    _emit(body, _config_of(args), args.out)
    return 0


def _add_fixture_flags(p, require_fixture=True):
    p.add_argument("--fixture", required=require_fixture,
                   choices=FIXTURE_IDS)
    p.add_argument("--h", type=float, default=1.0 / 64)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--param", action="append",
                   help="fixture parameter key=json-value")


def build_parser():
    p = argparse.ArgumentParser(
        prog="mintwo",
        description="numerical laboratory for minimal two-valued graphs")
    p.add_argument("--seed", type=int, default=0,
                   help="non-negative integer recorded in every report "
                        "and checked by the benchmark; no command draws a "
                        "random number, so no number depends on it")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write a fixture grid as JSON")
    _add_fixture_flags(g)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    g = sub.add_parser("density", help="ball-count density profile")
    _add_fixture_flags(g)
    g.add_argument("--center", help="ambient point, comma separated")
    g.add_argument("--rho", type=float, default=0.25)
    g.add_argument("--out")
    g.set_defaults(func=cmd_density)

    g = sub.add_parser("excess", help="excess functionals against a cone")
    _add_fixture_flags(g)
    g.add_argument("--cone", required=True,
                   help="cone JSON path or preset name")
    g.add_argument("--out")
    g.set_defaults(func=cmd_excess)

    g = sub.add_parser("fit", help="best-fit cone search")
    _add_fixture_flags(g)
    g.add_argument("--cone", required=True)
    g.add_argument("--cone-class", choices=("pair", "four_hp"),
                   default="pair")
    g.add_argument("--fit-radius", type=float, default=1.0)
    g.add_argument("--out")
    g.set_defaults(func=cmd_fit)

    g = sub.add_parser("decay", help="multiscale excess-decay pipeline")
    _add_fixture_flags(g)
    g.add_argument("--cone", required=True)
    g.add_argument("--cone-class", choices=("pair", "four_hp"),
                   default="pair")
    g.add_argument("--center", help="ambient point, comma separated")
    g.add_argument("--theta", type=float, default=0.5)
    g.add_argument("--J", type=int, default=5)
    g.add_argument("--fit-min-samples", type=int, default=4000,
                   help="widen or stop the ladder when a fit window "
                        "holds fewer samples")
    g.add_argument("--csv")
    g.add_argument("--out")
    g.set_defaults(func=cmd_decay)

    g = sub.add_parser("decompose", help="sheet labelling and branches")
    _add_fixture_flags(g)
    g.add_argument("--labels-out")
    g.add_argument("--out")
    g.set_defaults(func=cmd_decompose)

    g = sub.add_parser("classify-link", help="link analysis of a 2-d cone")
    _add_fixture_flags(g, require_fixture=False)
    g.add_argument("--cone", help="cone JSON path or preset name")
    g.add_argument("--M", type=int, default=256)
    g.add_argument("--out")
    g.set_defaults(func=cmd_classify_link)

    g = sub.add_parser("verify-stationary",
                       help="first-variation defect table")
    _add_fixture_flags(g)
    g.add_argument("--max-unreliable", type=float, default=0.05,
                   help="tolerated fraction of ambiguous-tangent samples "
                        "per field support")
    g.add_argument("--out")
    g.set_defaults(func=cmd_verify_stationary)

    g = sub.add_parser("dehomogenize",
                       help="project a cone field onto the linear class")
    g.add_argument("--field", required=True, help="cone-field JSON path")
    g.add_argument("--center", help="axis point, comma separated")
    g.add_argument("--rho", type=float, default=1.0)
    g.add_argument("--out")
    g.set_defaults(func=cmd_dehomogenize)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise ValueError("seed must be a non-negative integer, got %d"
                             % args.seed)
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc),
                                     "config": _config_of(args)},
                                    sort_keys=True) + "\n")
        return 1

