"""Best-fit cones and multiscale excess decay.

Cone fitting is a two-cluster alternation: assign each sample to the nearer
piece, refit each piece by an exact weighted total-least-squares plane
(eigenvectors of the cluster's second-moment matrix), repeat.  A fit runs
one alternation from its start and keeps the start when the alternation
does not improve on it; a fast path returns the initial cone unchanged when
it already fits to machine precision.  No step draws a random number: the
coarser-cone search tries every moment eigen-direction that may join the
axis, so its result is a function of its inputs.
"""

import json

import numpy as np

from .geometry import Ball, Subspace, by_rows, orthonormalize
from .cones import Cone, nu
from .excess import excess_E, excess_Q, reverse_excess, weighted_square_sum
from .varifold import SimilarityView, as_view, blocks, density_ratio

DELTA_THETA = 0.05
EXACT_FIT_FRACTION = 1e-12
# radius of the cylinder over the first n rung coordinates that a ladder
# rung keeps
_RUNG_CYLINDER = 2.2
# alternation steps of a cone fit, and reverse-excess support samples a
# piece of a ladder rung
_FIT_ITERS = 40
_REVERSE_SAMPLES = 2000


def _top_eigvecs(M, count):
    _, vecs = np.linalg.eigh(M)
    return vecs[:, -count:].T[::-1]


def _moment(pts, wts):
    return np.einsum("m,mi,mj->ij", wts, pts, pts)


def _plane_distances(bases):
    """``Subspace.distance`` of the span of the rows of each basis."""
    return [lambda p, B=B: np.linalg.norm(p - (p @ B.T) @ B, axis=-1)
            for B in bases]


class _ViewWindow:
    """A fit window read from a view, not gathered: the view's samples in
    a region, in base order.

    ``blocks()`` yields the points of consecutive rows of the window, one
    chunk of the view at a time, and ``select(flags)`` gathers the points
    and weights of the flagged rows, in window order, straight from the
    view.  The rows equal bit for bit those of ``view.gather(region)``.
    """

    def __init__(self, view, region):
        self._view, self._region = view, region
        self._count = view.count(region)

    def __len__(self):
        return self._count

    def blocks(self):
        return (p for p, _ in self._view.chunks(self._region))

    def select(self, flags):
        return self._view.gather(self._region, flags)


def _nearest_piece(pts, distances):
    """Distance of each row of a window (an array or a ``_ViewWindow``) to
    the nearest of the pieces whose distance functions are ``distances``,
    and the int8 index of that piece (the first on a tie).

    Distances are computed one block of rows at a time (``blocks`` of an
    array, the view's chunks of a window) into one array of the window's
    length; the pass of every fit.
    """
    d = np.empty(len(pts))
    assign = np.empty(len(pts), dtype=np.int8)
    parts = (pts.blocks() if isinstance(pts, _ViewWindow)
             else (pts[rows] for rows in blocks(len(pts))))
    at = 0
    for p in parts:
        ds = np.stack([by_rows(dist, p) for dist in distances])
        d[at:at + len(p)] = ds.min(axis=0)
        assign[at:at + len(p)] = ds.argmin(axis=0)
        at += len(p)
    return d, assign


def _cluster(pts, wts, flags):
    """Points and weights of the flagged rows of a window: gathered from
    the view for a ``_ViewWindow``, else ``pts[flags], wts[flags]``."""
    if isinstance(pts, _ViewWindow):
        return pts.select(flags)
    return pts[flags], wts[flags]


def _fit_pair_alternate(pts, wts, init_bases, frame=None):
    """Two-plane alternation; planes through 0.

    ``pts`` is the window, an array or a ``_ViewWindow``, and ``wts`` its
    weights.  ``frame``, when given, is the (axis, complement, window less
    its axis part) of ``_fit_pair_with_axis``: both planes then contain
    the axis (its orthonormal rows), and each refit takes the top
    directions of a cluster's moment inside the complement.
    """
    n = init_bases[0].shape[0]
    perp = pts if frame is None else frame[2]
    bases = [B.copy() for B in init_bases]
    prev_assign = None
    for _ in range(_FIT_ITERS):
        # indexed, not unpacked, so the distances are freed before the refit
        assign = _nearest_piece(pts, _plane_distances(bases))[1]
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
        for i in range(2):
            sel = assign == i
            if sel.sum() < n:
                continue
            M = _moment(*_cluster(perp, wts, sel))
            if frame is None:
                bases[i] = _top_eigvecs(M, n)
            else:
                axis, comp, _ = frame
                vs = _top_eigvecs(comp @ M @ comp.T, n - len(axis)) @ comp
                bases[i] = np.vstack([axis, vs])
    d = _nearest_piece(pts, _plane_distances(bases))[0]
    return bases, weighted_square_sum(d, wts)


def _fit_pair_with_axis(pts, wts, axis_req, n):
    """Fit a pair of n-planes through 0 both containing span(axis_req),
    which has fewer than n dimensions.

    The axis projector, its complement and the window less its axis part
    are built once, for the start and for every step of the alternation.
    Used by ``coarser_excess``.  Returns (Cone, excess).
    """
    axis = orthonormalize(axis_req)
    Pax = axis.T @ axis
    comp = orthonormalize(np.eye(len(Pax)) - Pax)
    perp = pts - by_rows(lambda p: p @ Pax, pts)
    extra = n - len(axis)
    vs = _top_eigvecs(comp @ _moment(perp, wts) @ comp.T,
                      min(2 * extra, len(comp))) @ comp
    if len(vs) < 2 * extra:
        raise ValueError("degenerate sample moment for the axis fit")
    b1 = np.vstack([axis, vs[:extra]])
    b2 = np.vstack([axis, vs[extra:]])
    bases, val = _fit_pair_alternate(pts, wts, [b1, b2],
                                     frame=(axis, comp, perp))
    C = Cone.pair(Subspace(bases[0]), Subspace(bases[1]))
    return C, val


def coarser_excess(V, C, C0=None, R=None):
    """Best excess over plane pairs whose axis strictly contains A(C).

    Searches pairs D whose axis is A(C) plus one direction u of the room:
    the span of the directions that may join A(C), inside A(C0) when a
    reference cone is given, otherwise any direction.  The candidates for
    u are every eigenvector of the weighted second moment of the window
    inside the room, in descending eigenvalue order; ties go to the first
    candidate.  No random draw: the result is a function of the inputs.
    V is a cloud or a SimilarityView, fitted in its own coordinates, as in
    ``fit_cone``.  Returns (excess, minimizing cone).
    """
    A = C.axis()
    d = V.n + V.k
    room = np.eye(d) if C0 is None else C0.axis().basis
    room = orthonormalize(room - (room @ A.basis.T) @ A.basis)
    if room.shape[0] == 0:
        raise ValueError("axis of C admits no strict superspace here")
    if A.dim + 1 > V.n - 1:
        raise ValueError("enlarged axis would exceed the maximal pair-axis "
                         "dimension")
    if R is None:
        R = Ball(np.zeros(d), 1.0)
    pts, wts = as_view(V).gather(R)
    _, vecs = np.linalg.eigh(room @ _moment(pts, wts) @ room.T)
    best = None
    for u in vecs.T[::-1] @ room:
        axis_req = np.vstack([A.basis, u[None]])
        try:
            D, val = _fit_pair_with_axis(pts, wts, axis_req, V.n)
        except ValueError:
            continue
        if best is None or val < best[0]:
            best = (val, D)
    if best is None:
        raise ValueError("no admissible coarser pair found")
    return best


def _fit_four_hp(pts, wts, C0):
    """Refit the four side directions of a four half-plane cone.

    The axis is held at A(C0); each cluster's side is the dominant
    eigenvector of its axis-orthogonal second moment.  ``pts`` is the
    window, an array or a ``_ViewWindow``, and ``wts`` its weights.
    """
    A = C0.axis()
    Pax = A.basis.T @ A.basis
    sides = [H.side.copy() for H in C0.pieces]
    cone = C0
    prev_assign = None
    for _ in range(_FIT_ITERS):
        assign = _nearest_piece(pts, [H.distance for H in cone.pieces])[1]
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
        new_sides = []
        for i in range(4):
            sel = assign == i
            if sel.sum() < 2:
                new_sides.append(sides[i])
                continue
            # the cluster's axis-orthogonal part, in place of its product
            # with the axis projector
            ps, ws = _cluster(pts, wts, sel)
            qs = ps @ Pax
            np.subtract(ps, qs, out=qs)
            del ps
            v = _top_eigvecs(_moment(qs, ws), 1)[0]
            mean = np.average(qs, axis=0, weights=ws)
            if v @ mean < 0:
                v = -v
            new_sides.append(v)
        sides = new_sides
        try:
            cone = Cone.four_half_planes(A, sides)
        except ValueError:
            raise ValueError("half-plane fit degenerated (sides merged)")
    d = _nearest_piece(pts, [H.distance for H in cone.pieces])[0]
    return cone, weighted_square_sum(d, wts)


def check_cone_class(C0, cone_class):
    """Raise unless C0 is a cone of the class ``cone_class``."""
    if C0.kind != cone_class:
        raise ValueError("the cone is of class %r, not %r"
                         % (C0.kind, cone_class))


def fit_cone(V, cone_class, C0, R=None):
    """Cone of the given class minimizing the one-sided excess over R.

    One local alternation started at C0 (``_fit_pair_alternate``, or
    ``_fit_four_hp`` for four half-planes); no random draw.  Returns
    (cone, excess): the alternation's cone when its excess is below C0's,
    else C0 with its own excess, so a fit is never worse than its start.
    When C0 already fits to machine precision the alternation is skipped.
    An error of the alternation (a degenerate four half-plane fit) is
    raised to the caller.  V is a cloud or a SimilarityView, fitted in its
    own coordinates.  The window is not gathered: every pass reads it
    from the view one chunk at a time (``_ViewWindow``), and a refit
    gathers one cluster at a time, so beyond its weights, distances and
    two arrays of pieces (18 bytes a row) a fit holds one cluster's points
    and weights, the rows and values that a gathered window would give.
    """
    check_cone_class(C0, cone_class)
    d = V.n + V.k
    if R is None:
        R = Ball(np.zeros(d), 1.0)
    view = as_view(V)
    pts = _ViewWindow(view, R)
    if len(pts) < 2 * V.n + 2:
        raise ValueError("too few samples in the fitting region")
    wts = view.weights_in(R)
    mass = float(wts.sum())
    d = _nearest_piece(pts, [P.distance for P in C0.pieces])[0]
    init_val = weighted_square_sum(d, wts)
    del d
    if init_val <= EXACT_FIT_FRACTION * mass:
        return C0, init_val
    if cone_class == "pair":
        bases, val = _fit_pair_alternate(pts, wts,
                                         [P.basis for P in C0.pieces])
        cone = Cone.pair(Subspace(bases[0]), Subspace(bases[1]))
    else:
        cone, val = _fit_four_hp(pts, wts, C0)
    if val < init_val:
        return cone, val
    return C0, init_val


# the numbers of a rung, in the column order of ``DecayReport.to_csv``
_RUNG_COLUMNS = ("j", "scale", "one_sided_scaled", "reverse_scaled",
                 "nu_step", "rot_step", "fit_radius")


class DecayReport:
    """Per-scale record of fitted cones and scaled excess components."""

    def __init__(self, theta, records, fitted_2alpha, truncated,
                 exact_cone, config):
        self.theta = float(theta)
        self.records = records
        self.fitted_2alpha = fitted_2alpha
        self.truncated = bool(truncated)
        self.exact_cone = bool(exact_cone)
        self.config = dict(config)

    def to_json(self):
        recs = [dict({c: r[c] for c in _RUNG_COLUMNS},
                     cone=json.loads(r["cone"].to_json()))
                for r in self.records]
        return json.dumps({"theta": self.theta, "records": recs,
                           "fitted_2alpha": self.fitted_2alpha,
                           "truncated": self.truncated,
                           "exact_cone": self.exact_cone,
                           "config": self.config}, sort_keys=True)

    def to_csv(self, path):
        """One row per rung; ``fit_radius``, the radius of the ball the
        rung's cone was fitted in (1 or 1/theta), is the last column."""
        rows = [[r[c] for c in _RUNG_COLUMNS] for r in self.records]
        np.savetxt(path, np.array(rows, dtype=float), delimiter=",",
                   header=",".join(_RUNG_COLUMNS), comments="")


def _axis_angle(C, D):
    """Largest principal angle between the axes of two cones (0 when the
    axes are trivial)."""
    A, B = C.axis(), D.axis()
    if A.dim == 0 or B.dim == 0:
        return 0.0
    s = np.linalg.svd(A.basis @ B.basis.T, compute_uv=False)
    return float(np.arccos(np.clip(s.min(), -1.0, 1.0)))


def check_ladder(theta, J, fit_min_samples):
    """Raise unless theta lies in (0, 1) and J, fit_min_samples >= 1."""
    if J < 1:
        raise ValueError("J must be at least 1, got %d" % J)
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1), got %g" % theta)
    if fit_min_samples < 1:
        raise ValueError("fit_min_samples must be at least 1, got %d"
                         % fit_min_samples)


def decay_pipeline(V, C0, theta=0.5, J=5, center=None, cone_class="pair",
                   q_gate=np.inf, fit_min_samples=4000):
    """Measure excess decay under repeated rescaling and cone refitting.

    Rung 0 gives ``initial_q`` (``excess_Q``).  For j = 1..J: blow up V at
    the center by theta^-j, fit a cone of the given class warm-started
    from the previous rung's cone, and record the scale-normalized
    ``excess_E`` over the unit ball, ``reverse_excess`` and the cone-step
    sizes.  The decay exponent 2*alpha is the log-log slope of the
    one-sided series over the rungs above 1e-13 max(mass, 1) (the rung-0
    mass), fitted when there are at least four; ``exact_cone`` holds when
    a rung was measured and none is above.

    Rung j is a SimilarityView of V (center, rho = theta^j) restricted to
    the cylinder of radius max(2.2, 1/theta) over the first n rung
    coordinates, which holds the widened fit window: no copy,
    and nearest samples of all of V through its one SampleIndex (bit for
    bit those of a query in rung coordinates when the center is 0 and
    theta a power of two).  The fit and the one-sided excess read one
    unit-ball object, so a rung marks the samples of the unit ball and of
    the reverse term's cylinder once each.  Beyond the cloud, the ladder
    holds its index (about 3 bytes a sample of a graph cloud, whose
    leaves are lattice tiles), one byte a sample for each of a view's
    flags, and during a fit the window's weights, distances and pieces
    and one cluster's points and weights, gathered from the view; the
    one-sided excess and the mass of rung 0 are summed chunk by chunk
    (``varifold.pairwise_sum``).  So after ``sample_graph`` the only
    arrays with an entry per sample of the cloud are one-byte flags.
    When fewer than
    fit_min_samples lie in the unit ball, the fit window is widened to
    radius 1/theta; when that is starved too, the ladder stops with the
    truncation flag (a starved window makes the fitted cone
    resolution-limited rather than data-driven).  theta must lie in
    (0, 1), J and fit_min_samples must be at least 1, and C0 must be of
    the class ``cone_class``.  The ladder draws no random number.
    """
    check_ladder(theta, J, fit_min_samples)
    check_cone_class(C0, cone_class)
    d = V.n + V.k
    center = np.zeros(d) if center is None else np.asarray(center, float)
    rho_d = max(0.05, 0.0 if V.resolution is None else 8 * V.resolution)
    dens = density_ratio(V, center, rho_d)
    if dens < 2.0 - DELTA_THETA:
        raise ValueError("not a density >= 2 point: ratio %.3f at rho %.3g"
                         % (dens, rho_d))
    cyl = max(_RUNG_CYLINDER, 1.0 / theta)
    V0 = SimilarityView(V, center, 1.0, cyl=cyl)
    q0 = excess_Q(V0, C0, count_per_piece=_REVERSE_SAMPLES).q
    if q0 > q_gate:
        raise ValueError("initial two-sided excess %.3g exceeds the gate"
                         % q0)
    floor = 1e-13 * max(V0.total_mass, 1.0)  # zero to rounding
    del V0  # and its per-sample flags, which no rung reads
    unit = Ball(np.zeros(d), 1.0)
    records = []
    prev = C0
    truncated = False
    for j in range(1, J + 1):
        scale = theta ** j
        if V.resolution is not None and scale < 8 * V.resolution:
            truncated = True
            break
        Vj = SimilarityView(V, center, scale, cyl=cyl)
        window = unit
        if Vj.count(unit) < fit_min_samples:
            window = Ball(np.zeros(d), 1.0 / theta)
            if Vj.count(window) < fit_min_samples:
                truncated = True
                break
        cone, _ = fit_cone(Vj, cone_class, prev, R=window)
        records.append({"j": j, "scale": scale, "fit_radius": window.radius,
                        "one_sided_scaled": excess_E(Vj, cone, unit),
                        "reverse_scaled": reverse_excess(Vj, cone,
                                                         _REVERSE_SAMPLES),
                        "nu_step": nu(cone, prev, samples=800),
                        "rot_step": _axis_angle(cone, prev),
                        "cone": cone})
        prev = cone
    usable = [r for r in records if r["one_sided_scaled"] > floor]
    exact = bool(records) and not usable
    fitted = None
    if len(usable) >= 4:
        x = np.log([r["scale"] for r in usable])
        y = np.log([r["one_sided_scaled"] for r in usable])
        fitted = float(np.polyfit(x, y, 1)[0])
    config = {"theta": theta, "J": J, "center": center.tolist(),
              "cone_class": cone_class,
              "q_gate": q_gate if np.isfinite(q_gate) else None,
              "initial_q": q0,
              "fit_min_samples": fit_min_samples,
              "density_ratio": dens, "density_radius": rho_d}
    return DecayReport(theta, records, fitted, truncated, exact, config)
