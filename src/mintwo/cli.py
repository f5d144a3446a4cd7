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
from .geometry import Ball
from .fixtures import (FixtureSpec, generate, cone_fixture, FIXTURE_IDS,
                       CONE_FIXTURE_IDS)
from .cones import Cone
from .varifold import sample_graph, density_profile
from .excess import excess_E, excess_Q, single_plane_ratio
from .stationarity import (BumpField, check_max_unreliable,
                           first_variation_defect)
from .decompose import propagate_labels
from .conefit import check_ladder, fit_cone, decay_pipeline
from .linkclass import sample_link, classify_link
from .blowup import ConeField, dehomogenize


def report_schema(command):
    """Shipped JSON schema for a subcommand's report envelope."""
    name = "report_%s.json" % command.replace("-", "_")
    path = resources.files("mintwo") / "schemas" / name
    return json.loads(path.read_text())


def _parse_vector(text):
    return np.array([float(t) for t in text.split(",")])


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


def _grid(args):
    # commands that only sample the grid pass it straight to sample_graph,
    # so it is freed once sampled and adds nothing to the later stages
    spec = FixtureSpec(args.fixture, args.h, args.radius,
                       _parse_params(getattr(args, "param", None)))
    return generate(spec)


def _config_of(args):
    # output destinations do not affect the computation: leaving them out
    # keeps report bodies byte-identical across runs that only differ in
    # where they write
    cfg = {k: v for k, v in sorted(vars(args).items())
           if k not in ("func", "out", "csv", "labels_out")
           and v is not None}
    for k, v in cfg.items():
        if isinstance(v, np.ndarray):
            cfg[k] = v.tolist()
    return cfg


def cmd_gen(args):
    grid = _grid(args)
    with open(args.out, "w") as fh:
        fh.write(grid.to_json())
    return 0


def cmd_density(args):
    V = sample_graph(_grid(args), with_tangents=False)
    center = _parse_vector(args.center) if args.center else \
        np.zeros(V.n + V.k)
    radii, ratios = density_profile(V, center, args.rho)
    _emit({"center": center.tolist(), "radii": radii, "ratios": ratios,
           "smallest_radius_ratio": ratios[-1]},
          _config_of(args), args.out)
    return 0


def cmd_excess(args):
    V = sample_graph(_grid(args))
    C = _load_cone(args.cone)
    body = {"one_sided_B1": excess_E(V, C)}
    if C.axis() is not None:
        body["two_sided"] = json.loads(excess_Q(V, C).to_json())
    if C.kind == "pair":
        body["single_plane_ratio"] = single_plane_ratio(V, C)
    _emit(body, _config_of(args), args.out)
    return 0


def cmd_fit(args):
    V = sample_graph(_grid(args), with_tangents=False)
    C0 = _load_cone(args.cone)
    region = Ball(np.zeros(V.n + V.k), args.fit_radius)
    cone, val = fit_cone(V, args.cone_class, C0, R=region,
                         restarts=args.restarts, seed=args.seed)
    _emit({"cone": json.loads(cone.to_json()), "excess": val},
          _config_of(args), args.out)
    return 0


def cmd_decay(args):
    check_ladder(args.theta, args.J, args.fit_min_samples)
    V = sample_graph(_grid(args), with_tangents=False)
    C0 = _load_cone(args.cone)
    center = _parse_vector(args.center) if args.center else None
    report = decay_pipeline(V, C0, theta=args.theta, J=args.J,
                            center=center, cone_class=args.cone_class,
                            seed=args.seed,
                            fit_min_samples=args.fit_min_samples)
    if args.csv:
        report.to_csv(args.csv)
    _emit(json.loads(report.to_json()), _config_of(args), args.out)
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
        np.save(args.labels_out, lab.labels)
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


def cmd_verify_stationary(args):
    check_max_unreliable(args.max_unreliable)
    radius = 0.5
    grid = _grid(args)
    # every field vanishes outside the ball of this radius about 0 in
    # R^(n+k), so no sample outside it is read; one cell diagonal more is
    # a margin
    V = sample_graph(grid, base_radius=radius + grid.h * np.sqrt(grid.n))
    del grid  # freed once sampled, as in the other commands
    d = V.n + V.k
    fields = [BumpField("radial_bump", np.zeros(d), radius)]
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        fields.append(BumpField("coordinate_bump", np.zeros(d), radius,
                                direction=e))
    rows = []
    for f in fields:
        rows.append({"kind": f.kind,
                     "direction": None if f.direction is None
                     else f.direction.tolist(),
                     "defect": first_variation_defect(
                         V, [f], max_unreliable=args.max_unreliable)})
    _emit({"fields": rows, "max_defect": max(r["defect"] for r in rows)},
          _config_of(args), args.out)
    return 0


def cmd_dehomogenize(args):
    with open(args.field) as fh:
        v = ConeField.from_json(fh.read())
    Z = _parse_vector(args.center) if args.center else None
    psi, _, norms = dehomogenize(v, Z=Z, rho=args.rho)
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
    p.add_argument("--seed", type=int, default=0)
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
    g.add_argument("--restarts", type=int, default=3)
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
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc),
                                     "config": _config_of(args)},
                                    sort_keys=True) + "\n")
        return 1

