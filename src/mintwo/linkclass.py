"""Link analysis of 2-dimensional cones: great-circle pairs vs arc networks.

The link of a two-valued graphical 2-dim cone is sampled fiberwise over the
domain circle; classification segments the resulting curves, tests each arc
for great-circle geodesy (planar sections of the sphere), and checks the
first-order balance of outgoing tangents at junctions.
"""

import json

import numpy as np

from .twovalued import crossed, lipschitz_estimate, metric_G

# largest geodesy residual of a great-circle arc (``_geodesy_residual``)
GEOD_TOL = 2e-3


def _require_angles(M):
    """Raise unless a link is sampled at 64 circle angles or more."""
    if M < 64:
        raise ValueError("link classification needs at least 64 angles")


class LinkSample:
    """Fiberwise samples of a cone link over M domain-circle angles."""

    def __init__(self, angles, fiber_points, singular_flags):
        self.angles = np.asarray(angles, dtype=float)
        self.fiber_points = np.asarray(fiber_points, dtype=float)
        self.singular_flags = np.asarray(singular_flags, dtype=bool)
        norms = np.linalg.norm(self.fiber_points, axis=-1)
        if np.abs(norms - 1.0).max() > 1e-10:
            raise ValueError("fiber points must lie on the unit sphere")

    @property
    def M(self):
        return len(self.angles)


class LinkClassification:
    """Verdict plus junction diagnostics."""

    def __init__(self, verdict, junction_points, junction_tangents,
                 balance_defects, diagnostics):
        self.verdict = verdict
        self.junction_points = junction_points
        self.junction_tangents = junction_tangents
        self.balance_defects = balance_defects
        self.diagnostics = diagnostics

    def to_json(self):
        return json.dumps({
            "verdict": self.verdict,
            "junction_points": [p.tolist() for p in self.junction_points],
            "balance_defects": list(map(float, self.balance_defects)),
            "diagnostics": self.diagnostics}, sort_keys=True)


def _graph_values_from_cone(C, x):
    """Graph values over a domain direction for each piece of a 2-dim cone.

    Returns the list of ambient points (not normalized); for half-plane
    pieces only sides whose domain shadow contains the direction contribute.
    """
    out = []
    for basis, half in C.piece_frames():
        dom = basis[:, :2]
        if abs(np.linalg.det(dom)) < 1e-10:
            raise ValueError("cone piece is not graphical over the domain "
                             "plane")
        c = np.linalg.solve(dom.T, x)
        if half and c[0] < -1e-9:
            continue
        out.append(c @ basis)
    return out


def sample_link(C, M=256):
    """Sample the link of a homogeneous 2-dim cone over M circle angles.

    Input: a Cone with n = 2 (graphical pieces), or a 2-d TwoValuedGrid
    whose values are checked for degree-one homogeneity along rays (1%
    tolerance) before use.  M must be at least 64.
    """
    _require_angles(M)
    angles = 2.0 * np.pi * np.arange(M) / M
    xs = np.column_stack([np.cos(angles), np.sin(angles)])
    fibers = []
    if hasattr(C, "piece_frames"):
        if C.n != 2:
            raise ValueError("link analysis needs a 2-dimensional cone")
        for x in xs:
            cands = _graph_values_from_cone(C, x)
            if len(cands) < 2:
                raise ValueError("fewer than two sheets over a direction")
            # keep the two sheets: farthest-apart pair among candidates
            if len(cands) > 2:
                cands = sorted(cands, key=lambda p: -np.linalg.norm(p))
                best = None
                for i in range(len(cands)):
                    for j in range(i + 1, len(cands)):
                        sep = np.linalg.norm(np.asarray(cands[i])
                                             - np.asarray(cands[j]))
                        if best is None or sep > best[0]:
                            best = (sep, i, j)
                cands = [cands[best[1]], cands[best[2]]]
            p = np.array([c / np.linalg.norm(c) for c in cands])
            fibers.append(p)
    else:
        f = C
        if f.n != 2:
            raise ValueError("link analysis needs a 2-d grid")
        _check_ray_homogeneity(f)
        for x in xs:
            # the node's values over the node itself, not over x: on a
            # grid the node is off the circle by up to h / sqrt(2)
            idx_full = _nearest_node(f, x)
            node = f.node_coords(idx_full)
            a1, a2 = f.a1[idx_full], f.a2[idx_full]
            p = np.array([np.concatenate([node, a1]),
                          np.concatenate([node, a2])])
            p /= np.linalg.norm(p, axis=-1, keepdims=True)
            fibers.append(p)
    fibers = np.array(fibers)
    # the two fiber points coincide when closer than one angle step
    flags = (np.linalg.norm(fibers[:, 0] - fibers[:, 1], axis=-1)
             < 2.0 * np.pi / M)
    return LinkSample(angles, fibers, flags)


def _nearest_node(f, x):
    idx = np.round((np.asarray(x) + f.radius) / f.h).astype(int)
    idx = np.clip(idx, 0, np.array(f.dims) - 1)
    return tuple(idx)


def _check_ray_homogeneity(f):
    if f.radius < 1.0:
        raise ValueError("homogeneity check needs radius >= 1")
    angles = 2.0 * np.pi * np.arange(32) / 32
    worst = 0.0
    a1, a2 = f.a1, f.a2  # filled first, so the Lipschitz pass reads them
    L = lipschitz_estimate(f)
    for t in angles:
        x = np.array([np.cos(t), np.sin(t)])
        i1 = _nearest_node(f, x)
        i0 = _nearest_node(f, 0.5 * x)
        outer = np.stack([a1[i1], a2[i1]])
        inner = np.stack([2.0 * a1[i0], 2.0 * a2[i0]])
        scale = max(1.0, float(np.linalg.norm(outer)))
        err = metric_G(inner, outer) / scale
        worst = max(worst, err)
    if worst > 0.01 + 6.0 * L * f.h:
        raise ValueError("grid values are not homogeneous of degree one "
                         "along rays (deviation %.3g)" % worst)


def _trace_branches(s):
    """Order the two fiber points into two continuous branches."""
    M, d = s.M, s.fiber_points.shape[-1]
    c = np.empty((M, 2, d))
    c[0] = s.fiber_points[0]
    for i in range(1, M):
        p, q = s.fiber_points[i]
        c[i] = (q, p) if crossed(c[i - 1, 0], c[i - 1, 1], p, q) else (p, q)
    return c


def _geodesy_residual(arc):
    """Smallest relative singular value of the arc sample matrix.

    Great-circle arcs span exactly a 2-plane through the origin, so the
    third and later singular values vanish.
    """
    arc = np.asarray(arc)
    if len(arc) < 4:
        return 0.0
    svals = np.linalg.svd(arc, compute_uv=False)
    return float(svals[2] / np.sqrt(len(arc))) if len(svals) > 2 else 0.0


def _circular_runs(flags):
    """Runs of consecutive True values on a circular index set."""
    M = len(flags)
    if flags.all():
        return [list(range(M))]
    runs, cur = [], []
    start = int(np.argmin(flags))  # begin at a False entry
    for off in range(M):
        i = (start + off) % M
        if flags[i]:
            cur.append(i)
        elif cur:
            runs.append(cur)
            cur = []
    if cur:
        runs.append(cur)
    return runs


def _junction_tangent(junction, arc_points):
    """Outgoing unit tangent of an arc at a junction (one-sided stencil).

    Uses the two nearest arc samples; the second-order one-sided formula is
    projected onto the tangent space of the sphere at the junction.
    """
    arc_points = [q for q in arc_points
                  if np.linalg.norm(q - junction) > 1e-12]
    if len(arc_points) < 2:
        raise ValueError("degenerate junction tangent")
    q1, q2 = arc_points[0], arc_points[1]
    h1 = np.linalg.norm(q1 - junction)
    h2 = np.linalg.norm(q2 - junction)
    if h2 <= h1:
        t = q1 - junction
    else:
        # unequal-spacing one-sided derivative at the junction
        t = (-(h2 ** 2 - h1 ** 2) * junction / (h1 * h2)
             + h2 / h1 * q1 - h1 / h2 * q2) / (h2 - h1)
    t = t - (t @ junction) * junction
    nt = np.linalg.norm(t)
    if nt < 1e-14:
        raise ValueError("degenerate junction tangent")
    return t / nt


def classify_link(s):
    """Classify a sampled link: plane pair, four half-circles, or neither.

    Two coincidence-free great circles mean a pair of planes; exactly two
    junctions joined by four geodesic arcs with first-order balanced
    tangents mean a four half-plane cone; everything else is inconsistent
    and returned with diagnostics rather than silently coerced.
    """
    _require_angles(s.M)
    c = _trace_branches(s)
    diag = {}
    if not s.singular_flags.any():
        residuals = [_geodesy_residual(c[:, b]) for b in range(2)]
        gap = float(np.linalg.norm(c[:, 0] - c[:, 1], axis=-1).min())
        diag["geodesy_residuals"] = residuals
        diag["min_curve_gap"] = gap
        if max(residuals) < GEOD_TOL:
            return LinkClassification("two_disjoint_great_circles",
                                      [], [], [], diag)
        return LinkClassification("inconsistent", [], [], [], diag)
    runs = _circular_runs(s.singular_flags)
    diag["junction_runs"] = len(runs)
    if len(runs) != 2:
        return LinkClassification("inconsistent", [], [], [], diag)
    junctions = []
    for run in runs:
        pts = s.fiber_points[run].reshape(-1, s.fiber_points.shape[-1])
        j = pts.mean(axis=0)
        junctions.append(j / np.linalg.norm(j))
    diag["antipodal_gap"] = float(np.linalg.norm(junctions[0]
                                                 + junctions[1]))
    # the two unflagged angular intervals, each carrying two branches
    arcs = []
    for iv in _circular_runs(~s.singular_flags):
        for b in range(2):
            arcs.append((iv, c[iv, b]))
    residuals = [_geodesy_residual(a[1]) for a in arcs]
    diag["geodesy_residuals"] = residuals
    if len(arcs) != 4 or max(residuals) >= GEOD_TOL:
        return LinkClassification("inconsistent", junctions, [], [], diag)
    tangents, defects = [], []
    for jpt in junctions:
        outs = []
        for iv, pts in arcs:
            # orient the arc from this junction outward
            d_start = np.linalg.norm(pts[0] - jpt)
            d_end = np.linalg.norm(pts[-1] - jpt)
            ordered = pts if d_start < d_end else pts[::-1]
            outs.append(_junction_tangent(jpt, ordered[:3]))
        tangents.append(outs)
        defects.append(float(np.linalg.norm(np.sum(outs, axis=0))))
    return LinkClassification("four_half_circles", junctions, tangents,
                              defects, diag)


def classify_arcs(arcs):
    """Classify a directly supplied arc network (synthetic fixtures).

    Arc endpoints closer than 0.05 are clustered into junctions; a
    consistent four half-circle network needs every junction to collect
    exactly four arc ends.  Closed disjoint geodesic curves (no junctions)
    classify as a plane pair.  Arcs are geodesic when their residual is
    below ``GEOD_TOL``, as in ``classify_link``.
    """
    arcs = [np.asarray(a, dtype=float) for a in arcs]
    ends = []
    for ai, a in enumerate(arcs):
        ends.append((ai, 0, a[0]))
        ends.append((ai, -1, a[-1]))
    # cluster endpoints
    clusters = []
    for e in ends:
        placed = False
        for cl in clusters:
            if np.linalg.norm(cl[0][2] - e[2]) < 0.05:
                cl.append(e)
                placed = True
                break
        if not placed:
            clusters.append([e])
    # a cluster holding only the two ends of one arc is a closed curve
    junction_clusters = [cl for cl in clusters if len(cl) >= 2
                         and not (len(cl) == 2 and cl[0][0] == cl[1][0])]
    diag = {"arcs": len(arcs),
            "geodesy_residuals": [_geodesy_residual(a) for a in arcs],
            "junction_degrees": [len(cl) for cl in junction_clusters]}
    if not junction_clusters:
        verdict = ("two_disjoint_great_circles"
                   if len(arcs) == 2
                   and max(diag["geodesy_residuals"]) < GEOD_TOL
                   else "inconsistent")
        return LinkClassification(verdict, [], [], [], diag)
    junctions, tangents, defects = [], [], []
    consistent = len(junction_clusters) == 2
    for cl in junction_clusters:
        jpt = np.mean([e[2] for e in cl], axis=0)
        jpt = jpt / np.linalg.norm(jpt)
        junctions.append(jpt)
        if len(cl) != 4:
            consistent = False
        outs = []
        for ai, end, _ in cl:
            pts = arcs[ai] if end == 0 else arcs[ai][::-1]
            outs.append(_junction_tangent(jpt, pts[:3]))
        tangents.append(outs)
        defects.append(float(np.linalg.norm(np.sum(outs, axis=0))))
    if max(diag["geodesy_residuals"]) >= GEOD_TOL:
        consistent = False
    verdict = "four_half_circles" if consistent else "inconsistent"
    return LinkClassification(verdict, junctions, tangents, defects, diag)
