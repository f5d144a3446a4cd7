"""L2 excess functionals between sampled graphs and cone supports.

One-sided excess integrates squared distance from the samples to a cone
support; the two-sided quantity adds a reverse term integrating squared
distance from the cone support back to the samples, outside a collar around
the cone axis where the sheets cross.
"""

import json

import numpy as np

from .geometry import Ball, Cylinder, by_rows, half_gamma
from .varifold import as_view, blocks, pairwise_sum

COLLAR = 1.0 / 8.0  # reverse_excess leaves out r_C0 < COLLAR
_RADII = 16  # radii per ray of radial_homogeneity_deficit


class ExcessReport:
    """One-sided and reverse excess components of ``excess_Q``."""

    def __init__(self, one_sided, reverse):
        if one_sided < 0 or reverse < 0:
            raise ValueError("excess components must be nonnegative")
        self.one_sided = float(one_sided)
        self.reverse = float(reverse)

    @property
    def q(self):
        return float(np.sqrt(self.one_sided + self.reverse))

    def to_json(self):
        return json.dumps({"one_sided": self.one_sided,
                           "reverse": self.reverse,
                           "region": "cylinder r=2", "collar": COLLAR,
                           "q": self.q}, sort_keys=True)


def weighted_square_sum(d, wts):
    """sum(wts * d ** 2) of a distance array d, squared and weighted in
    place: one sum over the whole array, as over a fresh product."""
    d *= d
    d *= wts
    return float(np.sum(d))


def _sq_dist(C, X):
    """Squared distances of the rows of X to spt C, row by row."""
    return by_rows(C.dist_to_support, X) ** 2


def excess_E(V, C, R=None):
    """One-sided excess: sum of weight * dist(X, spt C)^2 over samples in R.

    V is a cloud or a SimilarityView (a rung of the decay ladder), read in
    its own coordinates.  Default region is the unit ball of the ambient
    space.  Distances are computed per chunk of samples
    (``SimilarityView.chunks``), and the products are summed chunk by
    chunk as ``np.sum`` sums them over the whole region
    (``varifold.pairwise_sum``): the value does not depend on the chunk
    size, and beyond the region's flags the extra memory is one chunk.
    """
    if R is None:
        R = Ball(np.zeros(V.n + V.k), 1.0)
    V = as_view(V)
    return pairwise_sum((w * _sq_dist(C, p) for p, w in V.chunks(R)),
                        V.count(R))


def dist_to_varifold(V, Y):
    """Distance from query points to the sampled surface.

    V is a cloud or a SimilarityView; Y and the distances are in V's
    coordinates, and V.resolution is in those units.  Nearest-sample
    distance, refined through each sample's tangent patch when the cloud
    has tangent planes (``frames``, read for the nearest samples only):
    the patch is the piece of the tangent plane of extent
    patch_radius around the sample, so the refined value is the exact
    distance to that patch (zero for queries on a flat exactly-sampled
    sheet, instead of the O(spacing) nearest-sample bias).  A view's query
    searches the whole base cloud through its one sample index, including
    the samples outside the view's cylinder.  The queries are answered one
    block of rows at a time (``varifold.blocks``), into one array.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    V = as_view(V)
    d = np.empty(len(Y))
    for rows in blocks(len(Y)):
        d[rows] = by_rows(lambda y: _patch_distance(V, y), Y[rows])
    return d


def _patch_distance(V, Y):
    # dist_to_varifold of a block of query rows
    d0, idx = V.query(Y)
    if not V.has_frames or V.patch_radius is None:
        return d0
    T = V.frames(idx)
    u = Y - V.points_at(idx)
    par = np.einsum("mnd,md->mn", T, u)
    par2 = np.einsum("mn,mn->m", par, par)
    perp2 = np.maximum(np.einsum("md,md->m", u, u) - par2, 0.0)
    over = np.maximum(np.sqrt(par2) - V.patch_radius, 0.0)
    return np.sqrt(perp2 + over ** 2)


def reverse_excess(V, C0, count_per_piece):
    """Excess of a cylindrical cone's support back to a sampled graph.

    Sum of w dist(Y, V)^2 (``dist_to_varifold``) over the deterministic
    quasi-random samples (Y, w) of spt C0, ``count_per_piece`` a piece, in
    the cylinder B_2^n x R^k outside the collar r_C0 < COLLAR.  V is a
    cloud or a SimilarityView, read in its own coordinates, with a sample
    in that cylinder.  ValueError when every support sample lies in the
    collar, as on a multiplicity-two plane, which is its own axis: the
    sum would read 0 whatever V is.
    """
    Y, w, _ = C0.sample_support(count_per_piece, 2.0, "cylinder")
    outside = np.empty(len(Y), dtype=bool)
    for rows in blocks(len(Y)):
        outside[rows] = by_rows(C0.r, Y[rows]) >= COLLAR
    if not outside.any():
        raise ValueError("no support sample of the cone lies outside the "
                         "collar r_C < %g: reverse excess undefined"
                         % COLLAR)
    Y, w = Y[outside], w[outside]
    cyl = Cylinder(V.n, 2.0)
    if not any(cyl.contains(p).any() for p, _ in as_view(V).chunks()):
        raise ValueError("no samples in the cylinder: reverse excess "
                         "undefined")
    return weighted_square_sum(dist_to_varifold(V, Y), w)


def excess_Q(V, C0, count_per_piece=4000):
    """Two-sided excess between a sampled graph and a cylindrical cone:
    an ExcessReport whose ``q`` is the square root of ``excess_E`` over
    the cylinder B_2^n x R^k plus ``reverse_excess``.  V is a cloud or a
    SimilarityView, read in its own coordinates.  The one-sided term comes
    first: its array of one product per sample in the cylinder is freed
    before ``reverse_excess`` builds the sample index.  ``excess_E`` never
    raises, so the errors are those of ``reverse_excess``."""
    one_sided = excess_E(V, C0, Cylinder(V.n, 2.0))
    return ExcessReport(one_sided,
                        reverse_excess(V, C0, count_per_piece))


def single_plane_ratio(V, C):
    """Excess against one plane of a pair over the excess against the pair.

    Numerator: squared distance to the first plane integrated over B_{1/2};
    denominator: squared distance to the whole support over B_1.  Returns 0
    when both vanish, inf when only the denominator does.
    """
    P1 = C.pieces[0]
    d = V.n + V.k
    keep = V.in_region(Ball(np.zeros(d), 0.5))
    X = V.points_at(keep)
    # the comparison concerns the part of V lying over P1: restrict the
    # numerator to samples at least as close to P1 as to the other piece
    d1 = by_rows(P1.distance, X)
    d2 = by_rows(C.pieces[1].distance, X)
    near = d1 <= d2
    num = float(np.sum(V.weights[keep][near] * d1[near] ** 2))
    den = excess_E(V, C, Ball(np.zeros(d), 1.0))
    if den == 0.0:
        return 0.0 if num <= 1e-14 * max(V.total_mass, 1.0) else np.inf
    return num / den


def radial_homogeneity_deficit(C0, u, r_lo, r_hi, tau=0.1, rays=256):
    """Deficit from degree-one homogeneity of a graph over a cone support.

    Integrates R^(2-n) |d/dR (u(X)/R)|^2 over the annulus r_lo < |X| < r_hi
    of spt C0, restricted to rays staying outside the axis collar
    r_C0 > tau/2.  ``u`` maps support points (m, n+k) to value arrays; the
    caller folds any additive term c into u.  Exactly zero when u is
    homogeneous of degree one along rays.  The quasi-random rays are
    deterministic, so it takes no seed.
    """
    if r_lo < tau / 2:
        raise ValueError("annulus reaches into the collar r < tau/2")
    if r_lo <= 0 or r_hi <= r_lo:
        raise ValueError("need 0 < r_lo < r_hi")
    n = C0.n
    total = 0.0
    sphere_area = 2.0 * np.pi ** (n / 2.0) / half_gamma(n)
    points, _, piece = C0.sample_support(rays, 1.0)
    norms = np.linalg.norm(points, axis=1)
    for i, (_, half) in enumerate(C0.piece_frames()):
        good = (piece == i) & (norms > 1e-6)
        dirs = points[good] / norms[good, None]
        if len(dirs) == 0:
            continue
        w_dir = (sphere_area / (2.0 if half else 1.0)) / len(dirs)
        # drop rays entering the collar anywhere in the annulus (the radial
        # coordinate scales linearly along a ray)
        rad = C0.r(dirs)
        keep = rad * r_lo > tau / 2 if tau > 0 else \
            np.ones(len(dirs), dtype=bool)
        dirs = dirs[keep]
        if len(dirs) == 0:
            continue
        Rs = np.geomspace(r_lo, r_hi, _RADII)
        X = dirs[:, None, :] * Rs[None, :, None]
        vals = np.asarray(u(X.reshape(-1, X.shape[-1])), dtype=float)
        vals = vals.reshape(len(dirs), _RADII, -1)
        q = vals / Rs[None, :, None]
        dq = np.gradient(q, Rs, axis=1)
        integrand = np.einsum("mrk,mrk->mr", dq, dq)
        # d area = R^(n-1) dR dO; weight R^(2-n) leaves R dR
        ray_int = np.trapezoid(integrand * Rs[None, :], Rs, axis=1)
        total += w_dir * float(ray_int.sum())
    return total
