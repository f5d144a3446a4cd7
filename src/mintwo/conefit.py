"""Best-fit cones and multiscale excess decay.

Every cone fit is one alternation (``_alternate``): assign each sample to
the nearer piece, refit each piece to its cluster by an exact weighted
total-least-squares step (eigenvectors of the cluster's second moment, off
the axis for a pair around a given axis or for four half-planes), repeat.
A round is one pass over the window's chunks (``_pass``) that assigns
each row and adds it to its piece's moment, summed in row order as
``np.einsum`` sums gathered rows: no fit gathers, and each equals its
gathered form bit for bit.  ``fit_cone`` keeps its start when the
alternation does not improve on it, and returns an initial cone that
fits to machine precision unchanged.  No step draws a random number: the
coarser-cone search tries every moment eigen-direction that may join the
axis, so its result is a function of its inputs.
"""

import json

import numpy as np

from .geometry import Ball, Subspace, by_rows, orthonormalize
from .cones import Cone, nu
from .excess import excess_E, excess_Q, reverse_excess
from .varifold import (SimilarityView, as_view, blocks, density_ratio,
                       pairwise_sum)

DELTA_THETA = 0.05
EXACT_FIT_FRACTION = 1e-12
# radius of the cylinder over the first n rung coordinates that a ladder
# rung keeps
_RUNG_CYLINDER = 2.2
# refit rounds of a cone fit, and reverse-excess support samples a piece
# of a ladder rung
_FIT_ITERS = 40
_REVERSE_SAMPLES = 2000


def _top_eigvecs(M, count):
    _, vecs = np.linalg.eigh(M)
    return vecs[:, -count:].T[::-1]


def _carry(total, terms):
    """Add the rows of ``terms`` to ``total`` in place one at a time, in
    row order, as ``np.einsum`` and a sum over the first axis add C-ordered
    rows: a total carried over blocks equals their sum at once, bitwise."""
    if len(terms):
        terms[0] += total
        np.add.reduce(terms, axis=0, out=total)


def _add_moment(M, pts, wts):
    """Add ``np.einsum("m,mi,mj->ij", wts, pts, pts)`` of C-ordered rows to
    M in place: its terms (w p_i) p_j carried on from M (``_carry``), a
    row of M at a time, so that no (rows, d, d) array is formed."""
    wp = wts[:, None] * pts
    for i, row in enumerate(M):
        _carry(row, wp[:, i, None] * pts)


def _off_axis(pts, Pax):
    """The rows of ``pts`` less their part along the axis whose projector
    is ``Pax``, written over the product that forms that part (``pts``
    itself for None)."""
    if Pax is None:
        return pts
    qs = by_rows(lambda p: p @ Pax, pts)
    np.subtract(pts, qs, out=qs)
    return qs


def _window_moment(window, Pax=None):
    """Weighted second moment of the rows of a window (view, region), off
    the axis of projector ``Pax``, read chunk by chunk."""
    view, region = window
    M = np.zeros((view.n + view.k,) * 2)
    for p, w in view.chunks(region):
        _add_moment(M, _off_axis(p, Pax), w)
    return M


def _plane_distances(bases):
    """``Subspace.distance`` of the span of the rows of each basis."""
    return [lambda p, B=B: np.linalg.norm(p - (p @ B.T) @ B, axis=-1)
            for B in bases]


def _nearest_piece(pts, distances):
    """Distance of each row of ``pts`` to the nearest of the pieces whose
    distance functions are ``distances``, and the int8 index of that piece
    (the first on a tie), in ``blocks`` of rows."""
    d = np.empty(len(pts))
    assign = np.empty(len(pts), dtype=np.int8)
    for rows in blocks(len(pts)):
        ds = np.stack([by_rows(dist, pts[rows]) for dist in distances])
        d[rows] = ds.min(axis=0)
        assign[rows] = ds.argmin(axis=0)
    return d, assign


def _pass(window, distances, Pax, assign, weighted_mean):
    """One read of a window (view, region), the pass of every fit: writes
    over ``assign`` (int8) each row's nearest piece (``_nearest_piece`` of
    ``distances``) and adds the row, off the axis of ``Pax``, to that
    piece's cluster: its count, moment and, with ``weighted_mean``, the
    weighted sum and weights that give its ``np.average`` bit for bit.
    Returns the excess (sum of w d^2, ``pairwise_sum``), whether a row
    changed its piece, and the clusters [count, moment, sum, weights]."""
    view, region = window
    d = view.n + view.k
    clusters = [[0, np.zeros((d, d)), np.zeros(d), []] for _ in distances]
    changed = False

    def products():
        # pairwise_sum reads every row, so this reads every chunk with rows
        nonlocal changed
        at = 0
        for p, w in view.chunks(region):
            dist, near = _nearest_piece(p, distances)
            rows = slice(at, at + len(p))
            changed = changed or not np.array_equal(assign[rows], near)
            assign[rows], at = near, rows.stop
            for i, c in enumerate(clusters):
                sel = near == i
                q, ws = _off_axis(p[sel], Pax), w[sel]
                c[0] += len(ws)
                _add_moment(c[1], q, ws)
                if weighted_mean:
                    _carry(c[2], q * ws[:, None])
                    c[3].append(ws)
            yield dist * dist * w

    val = pairwise_sum(products(), len(assign))
    return val, changed, clusters


def _alternate(window, start, pieces, distances, refit, Pax=None,
               floor=-np.inf, weighted_mean=False):
    """Refit and reassign over a window (view, region), holding one int8
    piece a row.  The pass (``_pass``) of the start's distance functions
    ``start`` gives the first clusters; unless its excess is at most
    ``floor``, each round refits every piece of ``pieces`` to its cluster
    (``refit(piece, count, moment, sum, weights)``) and passes over the
    window again with ``distances(pieces)``, until no row changes its
    piece or for ``_FIT_ITERS`` rounds.  Returns the start's excess, the
    pieces and the excess of the last pass.
    """
    view, region = window
    assign = np.empty(view.count(region), dtype=np.int8)
    init, _, clusters = _pass(window, start, Pax, assign, weighted_mean)
    val = init
    for _ in range(_FIT_ITERS if init > floor else 0):
        pieces = [refit(P, *c) for P, c in zip(pieces, clusters)]
        del clusters  # and the weights they may hold, before the next pass
        val, changed, clusters = _pass(window, distances(pieces), Pax,
                                       assign, weighted_mean)
        if not changed:
            break
    return init, pieces, val


def _fit_pair_with_axis(window, axis_req, n, C):
    """Fit a pair of n-planes through 0 both containing span(axis_req),
    which has fewer than n dimensions, over a window (view, region).

    The alternation runs from two starts: the top directions off the axis
    of the window's moment, and, when the cone C is a pair, C's own planes
    turned to contain the axis (each plane's top directions off the axis).
    The moment's top directions alone can miss: for two planes through
    the axis they are the bisectors of the planes' off-axis directions,
    and the alternation stays there.  Used by ``coarser_excess``.  Returns
    the (Cone, excess) of the lower excess, the moment's start on a tie.
    """
    axis = orthonormalize(axis_req)
    Pax = axis.T @ axis
    comp = orthonormalize(np.eye(len(Pax)) - Pax)
    extra = n - len(axis)

    def top(M, count):
        return _top_eigvecs(comp @ M @ comp.T, count) @ comp

    vs = top(_window_moment(window, Pax), min(2 * extra, len(comp)))
    if len(vs) < 2 * extra:
        raise ValueError("degenerate sample moment for the axis fit")
    starts = [[vs[:extra], vs[extra:]]]
    if C.kind == "pair":
        starts.append([top(P.basis.T @ P.basis, extra) for P in C.pieces])

    def refit(B, count, M, *_):
        return np.vstack([axis, top(M, extra)]) if count >= n else B

    best = None
    for start in starts:
        bases = [np.vstack([axis, v]) for v in start]
        _, bases, val = _alternate(window, _plane_distances(bases), bases,
                                   _plane_distances, refit, Pax)
        if best is None or val < best[1]:
            best = (Cone.pair(Subspace(bases[0]), Subspace(bases[1])), val)
    return best


def coarser_excess(V, C, C0=None, R=None):
    """Best excess over plane pairs whose axis strictly contains A(C).

    Searches pairs D whose axis is A(C) plus one direction u of the room:
    the span of the directions that may join A(C), inside A(C0) when a
    reference cone is given, otherwise any direction.  The candidates for
    u are every eigenvector of the weighted second moment of the window
    inside the room, in descending eigenvalue order; ties go to the first
    candidate.  No random draw: the result is a function of the inputs.
    V is a cloud or a SimilarityView, fitted in its own coordinates, as in
    ``fit_cone``, by the same streamed alternation, from the window's
    moment and, for a pair C, from C's planes (``_fit_pair_with_axis``).
    The room's moment and each candidate's start moment are summed chunk
    by chunk as well, so the search holds no window: one read for the
    room, and for a candidate one for its moment and 1 + r for a start of
    r refit rounds.  Returns (excess, minimizing cone).
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
    window = (as_view(V), R)
    _, vecs = np.linalg.eigh(room @ _window_moment(window) @ room.T)
    best = None
    for u in vecs.T[::-1] @ room:
        try:
            D, val = _fit_pair_with_axis(window, np.vstack([A.basis, u[None]]),
                                         V.n, C)
        except ValueError:
            continue
        if best is None or val < best[0]:
            best = (val, D)
    if best is None:
        raise ValueError("no admissible coarser pair found")
    return best


def check_cone_class(C0, cone_class):
    """Raise unless C0 is a cone of the class ``cone_class``."""
    if C0.kind != cone_class:
        raise ValueError("the cone is of class %r, not %r"
                         % (C0.kind, cone_class))


def fit_cone(V, cone_class, C0, R=None):
    """Cone of the given class minimizing the one-sided excess over R.

    One alternation (``_alternate``) started at C0, no random draw; four
    half-planes keep the axis A(C0).  Returns (cone, excess): the
    alternation's cone when its excess is below C0's, else C0 with its own
    excess, so a fit is never worse than its start.  The pass that
    measures C0 gives the first clusters; when C0 already fits to machine
    precision the alternation is skipped.  An error of the alternation (a
    degenerate four half-plane fit) is raised to the caller.  V is a cloud
    or a SimilarityView, fitted in its own coordinates.  Nothing is
    gathered: a fit of r refit rounds reads its window from the view
    1 + r times, one chunk at a time (its mass reads only the weights),
    and beyond a few blocks holds one int8 piece a row of its window,
    and for four half-planes the weights of its clusters.
    """
    check_cone_class(C0, cone_class)
    if R is None:
        R = Ball(np.zeros(V.n + V.k), 1.0)
    view = as_view(V)
    if view.count(R) < 2 * V.n + 2:
        raise ValueError("too few samples in the fitting region")
    window, start = (view, R), [P.distance for P in C0.pieces]
    floor = EXACT_FIT_FRACTION * view.mass(R)
    if cone_class == "pair":
        def refit(B, count, M, *_):
            return B if count < C0.n else _top_eigvecs(M, C0.n)

        init_val, pieces, val = _alternate(
            window, start, [P.basis for P in C0.pieces], _plane_distances,
            refit, floor=floor)
    else:
        A = C0.axis()
        Pax = A.basis.T @ A.basis

        def half_planes(sides):
            try:
                return Cone.four_half_planes(A, sides)
            except ValueError:
                raise ValueError("half-plane fit degenerated (sides merged)")

        def refit(side, count, M, total, ws):
            if count < 2:
                return side
            v = _top_eigvecs(M, 1)[0]
            return -v if v @ (total / pairwise_sum(ws, count)) < 0 else v

        init_val, pieces, val = _alternate(
            window, start, [H.side for H in C0.pieces],
            lambda sides: [H.distance for H in half_planes(sides).pieces],
            refit, Pax, floor, weighted_mean=True)
    if val >= init_val:
        return C0, init_val
    if cone_class == "pair":
        return Cone.pair(Subspace(pieces[0]), Subspace(pieces[1])), val
    return half_planes(pieces), val


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
    unit-ball object, so a rung marks the samples of the unit ball once,
    and its fit of r refit rounds reads its window 1 + r times.  Beyond
    the cloud (26.5 bytes a sample of a whole graph cloud in R^4), the
    ladder holds its index (under 2 bytes a sample of a graph cloud),
    a view's marks (one byte a sample), during a fit one int8 piece a
    row of its window, and during the reverse term its support samples
    and the index queries' blocks.
    A fit's moments are carried from chunk to chunk, and its excess, the
    one-sided excess and the mass of rung 0 are summed chunk by chunk
    (``varifold.pairwise_sum``).  So after ``sample_graph`` the only
    array with an entry per sample of the cloud is a view's marks.
    When fewer than fit_min_samples lie in the unit ball, the fit window
    is widened to radius 1/theta; when that is starved too, the ladder
    stops with the truncation flag (a starved window makes the fitted
    cone resolution-limited rather than data-driven).  theta must lie in
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
    floor = 1e-13 * max(V0.mass(), 1.0)  # zero to rounding
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
