"""Graphs as weighted point clouds: mass, density, tangents, axis tilt.

A two-valued graph becomes a weighted sample cloud via the area formula:
one sample per grid cell per sheet, weighted by cell volume times the
Jacobian factor sqrt(det(I + G G^T)) from finite-difference gradients.
"""

import numpy as np

from .geometry import unit_ball_volume
from .twovalued import lattice_edges, lipschitz_estimate, pairing_costs


def cKDTree(points):
    """KD-tree over the points; scipy.spatial is imported on first use."""
    from scipy.spatial import cKDTree as tree
    return tree(points)


class SampledVarifold:
    """Weighted point cloud on an n-dimensional graph in R^(n+k).

    Fields: points (m, n+k); weights (m,); optional tangents (m, n, n+k)
    with orthonormal rows per sample; tangent_ok reliability flags; sheet
    labels (-1 when unknown); resolution (sample spacing scale, used for
    resolution floors); patch_radius (extent of the flat patch each sample
    represents, np.inf for exactly conical/planar clouds).
    """

    def __init__(self, n, k, points, weights, tangents=None, tangent_ok=None,
                 sheet=None, provenance="", resolution=None,
                 patch_radius=None):
        self.n = int(n)
        self.k = int(k)
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != n + k:
            raise ValueError("points must have shape (m, n+k)")
        if self.weights.shape != (self.points.shape[0],):
            raise ValueError("weights must be one per point")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("non-finite sample coordinates")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")
        self.tangents = None if tangents is None else np.asarray(tangents)
        m = self.points.shape[0]
        self.tangent_ok = (np.ones(m, dtype=bool) if tangent_ok is None
                           else np.asarray(tangent_ok, dtype=bool))
        self.sheet = (np.full(m, -1, dtype=int) if sheet is None
                      else np.asarray(sheet, dtype=int))
        self.provenance = provenance
        self.resolution = resolution
        self.patch_radius = patch_radius
        self._tree = None

    @property
    def total_mass(self):
        return float(self.weights.sum())

    def tree(self):
        if self._tree is None:
            self._tree = cKDTree(self.points)
        return self._tree


class SimilarityView:
    """A cloud seen in the coordinates (X - center) / rho, without a copy.

    A rung of the decay ladder is the blow-up of one base cloud at a center
    by 1/rho.  The view gathers the samples of a region in its own
    coordinates, chunk by chunk, with weights divided by rho^n (the n-area
    scaling), and answers nearest-sample queries through the base cloud's
    single KD-tree.  Only samples whose first n view coordinates lie in the
    closed ball of radius ``cyl`` belong to the view.  ``resolution`` and
    ``patch_radius`` are in view units; tangent planes are unchanged by a
    similarity, so ``tangents`` is the base cloud's array.
    """

    def __init__(self, base, center=None, rho=1.0, cyl=np.inf):
        self.base = base
        self.n, self.k = base.n, base.k
        self.center = (np.zeros(base.n + base.k) if center is None
                       else np.asarray(center, dtype=float))
        self.rho = rho
        self.cyl = cyl
        self.tangents = base.tangents
        self.resolution = (None if base.resolution is None
                           else base.resolution / rho)
        self.patch_radius = (None if base.patch_radius is None
                             else base.patch_radius / rho)
        self._member = None

    def _members(self):
        # one flag per base sample, computed on first use; later gathers
        # touch only the members
        if self._member is None:
            P, n = self.base.points, self.n
            self._member = np.concatenate([
                np.linalg.norm((P[s:s + _CHUNK, :n] - self.center[:n])
                               / self.rho, axis=-1) <= self.cyl
                for s in range(0, max(len(P), 1), _CHUNK)])
        return self._member

    def chunks(self, region=None):
        """(points, weights) in view coordinates of the samples in a region.

        Yields one pair per chunk of ``_CHUNK`` base samples, in base order,
        also when the pair is empty.  The values are
        ``(points[sel] - center) / rho`` and ``weights[sel] / rho**n``.
        """
        P, W = self.base.points, self.base.weights
        scale = self.rho ** self.n
        member = self._members()
        for s in range(0, max(len(W), 1), _CHUNK):
            sel = s + np.flatnonzero(member[s:s + _CHUNK])
            pts = (P[sel] - self.center) / self.rho
            if region is not None:
                keep = region.contains(pts)
                sel, pts = sel[keep], pts[keep]
            yield pts, W[sel] / scale

    def gather(self, region=None):
        """All (points, weights) of ``chunks(region)``, concatenated."""
        pts, wts = zip(*self.chunks(region))
        return np.concatenate(pts), np.concatenate(wts)

    @property
    def total_mass(self):
        return float(np.concatenate([w for _, w in self.chunks()]).sum())

    def query(self, Y):
        """Nearest sample of the whole base cloud to each view point.

        Returns (distance in view units, base sample index).  The query
        sends center + rho Y to the base tree and divides the distances
        by rho.  When rho is a power of two and the center is 0, every
        step is exact, so the distances equal bit for bit those of a tree
        built over the view coordinates.
        """
        d, idx = self.base.tree().query(self.center + self.rho * Y)
        return d / self.rho, idx

    def points_at(self, idx):
        """View coordinates of the base samples ``idx``."""
        return (self.base.points[idx] - self.center) / self.rho


def as_view(V):
    """V when it is a view; a plain cloud as its identity view (0, 1)."""
    return V if isinstance(V, SimilarityView) else SimilarityView(V)


# admissible cells per chunk in sample_graph; base samples per chunk in
# SimilarityView.chunks.  A chunk of 4-d cells (n=4, k=3) holds about
# 1.3 KiB of gradients and QR work per cell.
_CHUNK = 1 << 13


def _orthonormal_graph_tangents(G):
    """Batched orthonormal bases of span{(e_i, G[i])} via QR.

    G has shape (m, n, k); returns (m, n, n+k) with orthonormal rows.
    """
    m, n, k = G.shape
    cols = np.concatenate([np.broadcast_to(np.eye(n), (m, n, n)), G], axis=2)
    q, _ = np.linalg.qr(np.transpose(cols, (0, 2, 1)))
    return np.transpose(q, (0, 2, 1))


def _midpoints(f, corner):
    """Midpoints of the cells whose lower corners have flat indices corner."""
    return f.node_coords(np.unravel_index(corner, f.dims)) + 0.5 * f.h


def sample_graph(f, with_tangents=True, base_radius=np.inf):
    """Discretize a two-valued graph as a SampledVarifold.

    One sample per grid cell per sheet, placed at the cell-midpoint graph
    point reconstructed from forward-difference gradients (exact for linear
    sheets).  Per-cell gradients use the pairing of neighboring values that
    minimizes the pair metric; cells where the two values are closer than
    2 L h (pairing ambiguous) get tangent_ok = False.

    The m admissible cells (all corners inside the ball) whose midpoint
    lies in the closed base ball of radius ``base_radius`` about the origin
    are listed in C order; sample i < m is sheet 0 of cell i and sample
    m + i is sheet 1.  A sample's first n coordinates are exactly its cell
    midpoint, so the cloud of a finite ``base_radius`` is, row for row and
    bit for bit, the rows of the whole cloud whose midpoints lie in that
    ball.  The Lipschitz estimate, and with it the tangent_ok floor, is
    taken over the whole grid either way.
    The values the kept cells read (their corners and upper neighbours)
    are gathered first (``f._node_values``), one grid slab at a time, from
    the slabs that hold them; a closed-form grid is evaluated slab by slab
    and never held whole.  The output arrays are then allocated once at
    their final size and filled over fixed chunks of cells, so the extra
    memory is the gathered values and one chunk's worth of gradients
    rather than a gradient per cell of the whole box.
    Tangents are stored as a (2m, n+k, n) array and exposed as its
    (2m, n, n+k) transpose: the layout of the batched QR output, which
    later einsum contractions over the tangents read in that stride order
    (a C-contiguous copy holds equal values but moves their last bit).
    """
    n, k, h = f.n, f.k, f.h
    floor = 2.0 * lipschitz_estimate(f) * h
    base = (slice(None, -1),) * n
    cell_ok = np.zeros(f.dims, dtype=bool)
    cell_ok[base] = f.mask[base]
    for ax in range(n):
        _, up = lattice_edges(n, ax, slice(None, -1))
        cell_ok[base] &= f.mask[up]
    # flat node index of each admissible cell's lower corner, C order
    corner = np.flatnonzero(cell_ok)
    if base_radius < np.inf:
        corner = corner[np.linalg.norm(_midpoints(f, corner), axis=-1)
                        <= base_radius]
    step = [int(np.prod(f.dims[ax + 1:])) for ax in range(n)]
    # the nodes the kept cells read: their lower corners and the upper
    # neighbours of those along each axis
    need = np.zeros(cell_ok.size, dtype=bool)
    need[corner] = True
    for s in step:
        need[corner + s] = True
    nodes = np.flatnonzero(need)
    del need, cell_ok
    a1, a2 = f._node_values(nodes)

    m = len(corner)
    points = np.empty((2 * m, n + k))
    weights = np.empty(2 * m)
    tangent_ok = np.empty(2 * m, dtype=bool)
    tangents = (np.empty((2 * m, n + k, n)).transpose(0, 2, 1)
                if with_tangents else None)
    for s in range(0, m, _CHUNK):
        at = corner[s:s + _CHUNK]
        c = len(at)
        here = np.searchsorted(nodes, at)
        p1, p2 = a1[here], a2[here]
        sep_ok = np.linalg.norm(p1 - p2, axis=-1) > floor
        g1 = np.empty((c, n, k))
        g2 = np.empty_like(g1)
        for ax in range(n):
            up = np.searchsorted(nodes, at + step[ax])
            b1, b2 = a1[up], a2[up]
            straight, crossed = pairing_costs(p1, p2, b1, b2)
            swap = (crossed < straight)[:, None]
            g1[:, ax] = (np.where(swap, b2, b1) - p1) / h
            g2[:, ax] = (np.where(swap, b1, b2) - p2) / h
            sep_ok &= np.linalg.norm(b1 - b2, axis=-1) > floor
        mid = _midpoints(f, at)
        for rows, p, g in ((slice(s, s + c), p1, g1),
                           (slice(m + s, m + s + c), p2, g2)):
            points[rows, :n] = mid
            points[rows, n:] = p + 0.5 * h * g.sum(axis=1)
            gram = np.einsum("mik,mjk->mij", g, g)
            weights[rows] = h ** n * np.sqrt(np.linalg.det(np.eye(n) + gram))
            tangent_ok[rows] = sep_ok
            if with_tangents:
                tangents[rows] = _orthonormal_graph_tangents(g)
    return SampledVarifold(
        n, k, points, weights, tangents, tangent_ok,
        np.repeat([0, 1], m),
        provenance="grid h=%g radius=%g" % (h, f.radius),
        resolution=h, patch_radius=h * np.sqrt(n))


def sample_cone(C, count_per_piece=4000, radius=2.0):
    """Exact quasi-random sampling of a cone support as a SampledVarifold.

    Samples lie exactly on the support with exact tangent planes; weights
    are QMC area weights per piece.  patch_radius is infinite because every
    piece is flat.
    """
    points, weights, piece = C.sample_support(count_per_piece, radius)
    tangents = np.stack([rows for rows, _ in C.piece_frames()])[piece]
    return SampledVarifold(
        C.n, C.k, points, weights, tangents, None, piece,
        provenance="cone %s" % C.kind,
        resolution=radius / count_per_piece ** (1.0 / C.n),
        patch_radius=np.inf)


def density_ratio(V, X, rho):
    """Mass of B_rho(X) divided by the n-volume of the flat n-ball.

    rho must exceed three sample spacings when the resolution is known.
    """
    if V.resolution is not None and rho < 3 * V.resolution:
        raise ValueError("rho %g below the resolution floor %g"
                         % (rho, 3 * V.resolution))
    X = np.asarray(X, dtype=float)
    idx = V.tree().query_ball_point(X, rho)
    m = float(V.weights[idx].sum())
    return m / (unit_ball_volume(V.n) * rho ** V.n)


class DensityProfile:
    """Density ratios of one center at dyadic radii (decreasing order)."""

    def __init__(self, center, radii, ratios):
        self.center = np.asarray(center, dtype=float)
        self.radii = list(radii)
        self.ratios = list(ratios)
        if any(b >= a for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError("radii must be strictly decreasing")

    @property
    def smallest_radius_ratio(self):
        return self.ratios[-1]


def density_profile(V, X, rho, levels=4):
    """Ball-count density ratios at ``levels`` dyadic radii below rho."""
    if not rho > 0:
        raise ValueError("rho must be positive, got %g" % rho)
    radii = [rho / 2 ** j for j in range(levels)]
    if V.resolution is not None:
        radii = [r for r in radii if r >= 3 * V.resolution]
    if not radii:
        raise ValueError("all dyadic radii fall below the resolution floor")
    ratios = [density_ratio(V, X, r) for r in radii]
    return DensityProfile(X, radii, ratios)


def axis_tilt(V, C, R):
    """Integral of the squared axis-tilt over a region.

    The integrand at a sample X is the sum over an orthonormal axis basis
    of the squared norms of the components orthogonal to the sample's
    tangent plane; zero exactly when every tangent contains the axis.
    """
    A = C.axis()
    if A is None:
        raise ValueError("axis tilt requires a cone with nonempty axis")
    if V.tangents is None:
        raise ValueError("axis tilt requires per-sample tangents")
    keep = R.contains(V.points)
    if A.dim == 0:
        return 0.0
    T = V.tangents[keep]
    w = V.weights[keep]
    coeff = np.einsum("mnd,jd->mnj", T, A.basis)
    a2 = A.dim - np.einsum("mnj,mnj->m", coeff, coeff)
    return float(np.sum(w * np.maximum(a2, 0.0)))
