"""Graphs as weighted point clouds: mass, density, tangents, axis tilt.

A two-valued graph becomes a weighted sample cloud via the area formula:
one sample per grid cell per sheet, weighted by cell volume times the
Jacobian factor sqrt(det(I + G G^T)) from finite-difference gradients.
"""

import numpy as np

from .geometry import Subspace, unit_ball_volume
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

    def restrict(self, region):
        """Sub-cloud of samples inside a region (shares arrays by mask)."""
        keep = region.contains(self.points)
        return SampledVarifold(
            self.n, self.k, self.points[keep], self.weights[keep],
            None if self.tangents is None else self.tangents[keep],
            self.tangent_ok[keep], self.sheet[keep], self.provenance,
            self.resolution, self.patch_radius)

    def to_csv(self, path):
        d = self.n + self.k
        cols = ["x%d" % (i + 1) for i in range(d)] + ["weight"]
        blocks = [self.points, self.weights[:, None]]
        if self.tangents is not None:
            cols += ["t%d_%d" % (i + 1, j + 1)
                     for i in range(self.n) for j in range(d)]
            blocks.append(self.tangents.reshape(len(self.weights), -1))
        cols.append("sheet")
        blocks.append(self.sheet[:, None].astype(float))
        data = np.hstack(blocks)
        np.savetxt(path, data, delimiter=",", header=",".join(cols),
                   comments="")


# admissible cells per chunk in sample_graph
_CHUNK = 1 << 15


def _orthonormal_graph_tangents(G):
    """Batched orthonormal bases of span{(e_i, G[i])} via QR.

    G has shape (m, n, k); returns (m, n, n+k) with orthonormal rows.
    """
    m, n, k = G.shape
    cols = np.concatenate([np.broadcast_to(np.eye(n), (m, n, n)), G], axis=2)
    q, _ = np.linalg.qr(np.transpose(cols, (0, 2, 1)))
    return np.transpose(q, (0, 2, 1))


def sample_graph(f, with_tangents=True, lipschitz=None):
    """Discretize a two-valued graph as a SampledVarifold.

    One sample per grid cell per sheet, placed at the cell-midpoint graph
    point reconstructed from forward-difference gradients (exact for linear
    sheets).  Per-cell gradients use the pairing of neighboring values that
    minimizes the pair metric; cells where the two values are closer than
    2 L h (pairing ambiguous) get tangent_ok = False.

    The m admissible cells (all corners inside the ball) are listed in C
    order; sample i < m is sheet 0 of cell i and sample m + i is sheet 1.
    The output arrays are allocated once at their final size and filled
    over fixed chunks of cells, so the extra memory is one chunk's worth
    of gradients rather than a gradient per cell of the whole box.
    Tangents are stored as a (2m, n+k, n) array and exposed as its
    (2m, n, n+k) transpose: the layout of the batched QR output, which
    later einsum contractions over the tangents read in that stride order
    (a C-contiguous copy holds equal values but moves their last bit).
    """
    n, k, h = f.n, f.k, f.h
    if not (np.all(np.isfinite(f.a1[f.mask])) and
            np.all(np.isfinite(f.a2[f.mask]))):
        raise ValueError("grid values are not finite")
    if lipschitz is None:
        lipschitz = lipschitz_estimate(f)
    if not np.isfinite(lipschitz):
        raise ValueError("grid values are not finite")
    floor = 2.0 * lipschitz * h
    base = (slice(None, -1),) * n
    cell_ok = np.zeros(f.dims, dtype=bool)
    cell_ok[base] = f.mask[base]
    for ax in range(n):
        _, up = lattice_edges(n, ax, slice(None, -1))
        cell_ok[base] &= f.mask[up]
    # flat node index of each admissible cell's lower corner, C order
    corner = np.flatnonzero(cell_ok)
    step = [int(np.prod(f.dims[ax + 1:])) for ax in range(n)]
    a1, a2 = f.a1.reshape(-1, k), f.a2.reshape(-1, k)
    xs = f.coords.reshape(-1, n)

    m = len(corner)
    points = np.empty((2 * m, n + k))
    weights = np.empty(2 * m)
    tangent_ok = np.empty(2 * m, dtype=bool)
    tangents = (np.empty((2 * m, n + k, n)).transpose(0, 2, 1)
                if with_tangents else None)
    for s in range(0, m, _CHUNK):
        at = corner[s:s + _CHUNK]
        c = len(at)
        p1, p2 = a1[at], a2[at]
        sep_ok = np.linalg.norm(p1 - p2, axis=-1) > floor
        g1 = np.empty((c, n, k))
        g2 = np.empty_like(g1)
        for ax in range(n):
            up = at + step[ax]
            b1, b2 = a1[up], a2[up]
            straight, crossed = pairing_costs(p1, p2, b1, b2)
            swap = (crossed < straight)[:, None]
            g1[:, ax] = (np.where(swap, b2, b1) - p1) / h
            g2[:, ax] = (np.where(swap, b1, b2) - p2) / h
            sep_ok &= np.linalg.norm(b1 - b2, axis=-1) > floor
        mid = xs[at] + 0.5 * h
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


def sample_cone(C, count_per_piece=4000, radius=2.0, seed=0):
    """Exact quasi-random sampling of a cone support as a SampledVarifold.

    Samples lie exactly on the support with exact tangent planes; weights
    are QMC area weights per piece.  patch_radius is infinite because every
    piece is flat.  The sample is the same for every ``seed``.
    """
    points, weights, piece = C.sample_support(count_per_piece, radius, seed)
    tangents = np.stack(C.piece_tangent_bases())[piece]
    return SampledVarifold(
        C.n, C.k, points, weights, tangents, None, piece,
        provenance="cone %s" % C.kind,
        resolution=radius / count_per_piece ** (1.0 / C.n),
        patch_radius=np.inf)


def mass_in(V, R):
    """Total weight of samples inside a region."""
    return float(V.weights[R.contains(V.points)].sum())


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
    radii = [rho / 2 ** j for j in range(levels)]
    if V.resolution is not None:
        radii = [r for r in radii if r >= 3 * V.resolution]
    if not radii:
        raise ValueError("all dyadic radii fall below the resolution floor")
    ratios = [density_ratio(V, X, r) for r in radii]
    return DensityProfile(X, radii, ratios)


def tangent_estimate(V, X, rho, sheet=None, residual_threshold=0.1):
    """Principal n-plane through X of nearby samples (weighted PCA).

    Returns a Subspace through X carrying two extra attributes: ``residual``
    (rms off-plane distance over rho) and ``reliable`` (residual below the
    threshold).  Restricting to a sheet label separates sheets near
    crossings when a decomposition is available.
    """
    X = np.asarray(X, dtype=float)
    idx = np.array(V.tree().query_ball_point(X, rho), dtype=int)
    if sheet is not None:
        idx = idx[V.sheet[idx] == sheet]
    if len(idx) < 3 * V.n:
        raise ValueError("too few samples (%d) in B_rho for a tangent fit"
                         % len(idx))
    q = V.points[idx] - X
    w = V.weights[idx]
    M = np.einsum("m,mi,mj->ij", w, q, q)
    evals, evecs = np.linalg.eigh(M)
    basis = evecs[:, -V.n:].T
    off = float(np.sqrt(max(evals[:-V.n].sum(), 0.0) / w.sum()))
    S = Subspace(basis, offset=X)
    S.residual = off / rho
    S.reliable = S.residual < residual_threshold
    return S


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
