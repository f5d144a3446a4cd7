"""Graphs as weighted point clouds: mass, density, tangents, axis tilt.

A two-valued graph becomes a weighted sample cloud via the area formula:
one sample per grid cell per sheet, weighted by cell volume times the
Jacobian factor sqrt(det(I + G G^T)) from finite-difference gradients.
"""

import numpy as np

from .geometry import by_rows, unit_ball_volume
from .twovalued import crossed, lattice_edges, lipschitz_estimate, trusted


def cKDTree(points):
    """KD-tree over the points; scipy.spatial is imported on first use."""
    from scipy.spatial import cKDTree as tree
    return tree(points)


class SampledVarifold:
    """Weighted point cloud on an n-dimensional graph in R^(n+k).

    Fields: points (m, n+k); weights (m,); optional tangents (m, n, n+k)
    with orthonormal rows per sample; tangent_ok reliability flags; sheet
    labels, int8 (-1 when unknown, else a sheet 0 or 1 or a cone piece
    index below 4); resolution (sample spacing scale, used for
    resolution floors); patch_radius (extent of the flat patch each sample
    represents, np.inf for exactly conical/planar clouds).
    """

    def __init__(self, n, k, points, weights, tangents=None, tangent_ok=None,
                 sheet=None, resolution=None, patch_radius=None):
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
        self.sheet = (np.full(m, -1, dtype=np.int8) if sheet is None
                      else np.asarray(sheet, dtype=np.int8))
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


# base samples per chunk in SimilarityView.chunks, indices per chunk of
# the index conversion in _candidate_cells, and admissible cells per chunk
# of sample_graph on a surface in R^4 (``_cells_per_chunk``)
_CHUNK = 1 << 13
# floats of tangent work per cell of a surface in R^4 (n = k = 2): its
# n x (n+k) tangent frame
_SURFACE_CELL = 8


def _cells_per_chunk(n, k, with_tangents):
    """Admissible cells per chunk of ``sample_graph``.

    The gradients (n x k per sheet) and, with tangents, the QR work on the
    n x (n+k) frames grow with n and k, so a chunk holds ``_CHUNK`` cells
    of a surface in R^4 and proportionally fewer cells with more floats:
    2,340 cells of a 4-d graph in R^7 (n=4, k=3), whose 8,192 cells held
    about 10 MiB of gradients and QR work.
    """
    work = n * (n + k) if with_tangents else n * k
    return max(1, _CHUNK * _SURFACE_CELL // max(work, _SURFACE_CELL))


def _orthonormal_graph_tangents(G):
    """Batched orthonormal bases of span{(e_i, G[i])} via QR.

    G has shape (m, n, k); returns (m, n, n+k) with orthonormal rows.
    """
    m, n, k = G.shape
    cols = np.concatenate([np.broadcast_to(np.eye(n), (m, n, n)), G], axis=2)
    q, _ = np.linalg.qr(np.transpose(cols, (0, 2, 1)))
    return np.transpose(q, (0, 2, 1))


def _area_factors(G):
    """Jacobian factors sqrt(det(I + G G^T)) of gradients G (m, n, k)."""
    gram = np.einsum("mik,mjk->mij", G, G)
    return np.sqrt(np.linalg.det(np.eye(G.shape[1]) + gram))


def _midpoints(f, corner):
    """Midpoints of the cells whose lower corners have flat indices corner."""
    return f.node_coords(np.unravel_index(corner, f.dims)) + 0.5 * f.h


# relative slack of the midpoint pre-filter, far above the rounding of a
# norm, so that the pre-filter keeps every cell of a sample with |X| <= r
_PREFILTER_SLACK = 1e-9


def _cell_nodes(f, corner):
    """Sorted flat indices of the nodes that the cells ``corner`` read:
    their lower corners and the upper neighbours of those along each axis."""
    step = [int(np.prod(f.dims[ax + 1:])) for ax in range(f.n)]
    return np.unique(np.concatenate([corner] + [corner + s for s in step]))


def _candidate_cells(f, base_radius):
    """Admissible cells whose midpoint may lie within ``base_radius``.

    Returns (corner, nodes): the flat lattice indices, in C order, of the
    lower corners of the admissible cells (all corners inside the ball)
    whose midpoint passes the pre-filter, and the sorted flat indices of
    the nodes they read (their lower corners and the upper neighbours of
    those along each axis).  Only the index box of the base ball is
    scanned, one row of axis 0 at a time for the midpoint test; an
    infinite radius keeps every admissible cell.
    """
    n, h = f.n, f.h
    reach = base_radius * (1.0 + _PREFILTER_SLACK)
    mids = []
    box = []
    for ax in f.axes:
        mid = ax[:-1] + 0.5 * h
        near = np.flatnonzero(np.abs(mid) <= reach)
        lo, stop = (near[0], near[-1] + 2) if near.size else (0, 1)
        mids.append(mid[lo:stop - 1])
        box.append(slice(lo, stop))
    # node box: the candidate cells and one node beyond along every axis
    M = f.mask[tuple(box)]
    dims = M.shape
    base = (slice(None, -1),) * n
    cell_ok = np.zeros(dims, dtype=bool)
    cell_ok[base] = M[base]
    for ax in range(n):
        _, up = lattice_edges(n, ax, slice(None, -1))
        cell_ok[base] &= M[up]
    if base_radius < np.inf:
        # squared midpoint norm over axes 1..n-1, broadcast over their box
        rest = sum(np.ix_(*(np.square(mid) for mid in mids[1:])), 0.0)
        for i, c in enumerate(mids[0]):
            cell_ok[(i,) + base[1:]] &= c * c + rest <= reach * reach
    corner = np.flatnonzero(cell_ok)
    need = np.zeros(cell_ok.size, dtype=bool)
    need[corner] = True
    for ax in range(n):
        need[corner + int(np.prod(dims[ax + 1:]))] = True
    nodes = np.flatnonzero(need)
    del need, cell_ok
    if dims != f.dims:
        # box flat indices to lattice flat indices, in place and one chunk
        # at a time, which bounds the n index arrays of a conversion; both
        # keep C order
        lo = [s.start for s in box]
        for x in (corner, nodes):
            for s in range(0, len(x), _CHUNK):
                at = np.unravel_index(x[s:s + _CHUNK], dims)
                x[s:s + _CHUNK] = np.ravel_multi_index(
                    tuple(i + a for i, a in zip(at, lo)), f.dims)
    return corner, nodes


def _cell_chunks(f, corner, nodes, a1, a2, lipschitz, chunk):
    """Gradients of the cells ``corner`` per chunk of ``chunk`` cells.

    ``a1``, ``a2`` hold the values of the sorted flat node indices
    ``nodes``.  Yields (s, mid, sep_ok, by_sheet) for the cells
    corner[s:s + c]: their midpoints, the flags of the cells whose corner
    and upper neighbours all have a ``trusted`` separation and, per sheet,
    the corner value p (c, k) and the forward-difference gradient g
    (c, n, k) under the ``crossed`` matching along each axis.
    """
    n, k, h = f.n, f.k, f.h
    step = [int(np.prod(f.dims[ax + 1:])) for ax in range(n)]
    for s in range(0, len(corner), chunk):
        at = corner[s:s + chunk]
        c = len(at)
        here = np.searchsorted(nodes, at)
        p1, p2 = a1[here], a2[here]
        sep_ok = trusted(np.linalg.norm(p1 - p2, axis=-1), lipschitz, h)
        g1 = np.empty((c, n, k))
        g2 = np.empty_like(g1)
        for ax in range(n):
            up = np.searchsorted(nodes, at + step[ax])
            b1, b2 = a1[up], a2[up]
            swap = crossed(p1, p2, b1, b2)[:, None]
            g1[:, ax] = (np.where(swap, b2, b1) - p1) / h
            g2[:, ax] = (np.where(swap, b1, b2) - p2) / h
            sep_ok &= trusted(np.linalg.norm(b1 - b2, axis=-1), lipschitz, h)
        yield s, _midpoints(f, at), sep_ok, ((p1, g1), (p2, g2))


def _graph_points(out, mid, p, g, h):
    """Write the graph points of cells with midpoints mid into out."""
    n = mid.shape[1]
    out[:, :n] = mid
    out[:, n:] = p + 0.5 * h * g.sum(axis=1)


def sample_graph(f, with_tangents=True, base_radius=np.inf):
    """Discretize a two-valued graph as a SampledVarifold.

    One sample per grid cell per sheet, placed at the cell-midpoint graph
    point reconstructed from forward-difference gradients (exact for linear
    sheets).  Per-cell gradients use the pairing of neighboring values that
    minimizes the pair metric (``twovalued.crossed``); cells with a node
    whose two values are not ``trusted``, at most 2 L h apart (pairing
    ambiguous), get tangent_ok = False.

    The whole cloud lists the m admissible cells (all corners inside the
    ball) in C order; sample i < m is sheet 0 of cell i and sample m + i
    is sheet 1.  A finite ``base_radius`` keeps the samples whose graph
    point X in R^(n+k) lies in the closed ball |X| <= base_radius: the
    cloud is, row for row and bit for bit, the rows of the whole cloud
    with |X| <= base_radius, in the same order (the kept sheet-0 samples,
    then the kept sheet-1 samples).  Since a sample's first n coordinates
    are its cell midpoint, |X| >= |midpoint|, and only the cells of the
    index box of the base ball whose midpoint lies in it are evaluated.
    The Lipschitz estimate, and with it the tangent_ok flags, is taken
    over the whole grid either way.
    The values the candidate cells read (their corners and upper
    neighbours) are gathered first (``f._node_values``), one grid slab (a
    range of flat node indices) at a time, from the slabs that hold them;
    a closed-form grid is evaluated slab by slab and never held whole.
    Cells are processed in chunks whose size falls as n and k grow
    (``_cells_per_chunk``), so a chunk's
    gradients and QR work stay about the same size in every dimension; the
    samples of a chunk are evaluated as ``geometry.by_rows`` does it, so a
    lone one gets the value it has in a batch.  With a finite radius a
    first pass over the chunks records which samples are kept, and the
    cells with no kept sample are dropped with the values only they read;
    the output arrays are then allocated once at their final size and
    filled over the kept cells, with QR tangents computed only for the
    kept samples.  The extra memory is the gathered values of the kept
    cells, the keep flags and one chunk's worth of gradients rather than
    a gradient per cell of the whole box.
    Tangents are stored as a (m', n+k, n) array and exposed as its
    (m', n, n+k) transpose: the layout of the batched QR output, which
    later einsum contractions over the tangents read in that stride order
    (a C-contiguous copy holds equal values but moves their last bit).
    """
    n, k, h = f.n, f.k, f.h
    lipschitz = lipschitz_estimate(f)
    corner, nodes = _candidate_cells(f, base_radius)
    a1, a2 = f._node_values(nodes)
    m = len(corner)
    chunk = _cells_per_chunk(n, k, with_tangents)
    keep = None
    if base_radius < np.inf:
        keep = np.empty((2, m), dtype=bool)
        X = np.empty((min(m, chunk), n + k))
        for s, mid, _, by_sheet in _cell_chunks(f, corner, nodes, a1, a2,
                                                lipschitz, chunk):
            for j, (p, g) in enumerate(by_sheet):
                out = X[:len(p)]
                _graph_points(out, mid, p, g, h)
                keep[j, s:s + len(p)] = (np.linalg.norm(out, axis=-1)
                                         <= base_radius)
        del X
        # the cells with no kept sample, and the values only they read,
        # are not needed to fill the cloud
        cells = keep.any(axis=0)
        corner, keep = corner[cells], keep[:, cells]
        sub = np.searchsorted(nodes, _cell_nodes(f, corner))
        nodes, a1, a2 = nodes[sub], a1[sub], a2[sub]
        del cells, sub
    counts = [m, m] if keep is None else keep.sum(axis=1).tolist()
    total = sum(counts)
    points = np.empty((total, n + k))
    weights = np.empty(total)
    tangent_ok = np.empty(total, dtype=bool)
    tangents = (np.empty((total, n + k, n)).transpose(0, 2, 1)
                if with_tangents else None)
    row = [0, counts[0]]
    for s, mid, sep_ok, by_sheet in _cell_chunks(f, corner, nodes, a1, a2,
                                                 lipschitz, chunk):
        for j, (p, g) in enumerate(by_sheet):
            mid_j, ok = mid, sep_ok
            if keep is not None:
                sel = keep[j, s:s + len(p)]
                mid_j, ok, p, g = mid[sel], sep_ok[sel], p[sel], g[sel]
            rows = slice(row[j], row[j] + len(p))
            row[j] = rows.stop
            _graph_points(points[rows], mid_j, p, g, h)
            weights[rows] = h ** n * by_rows(_area_factors, g)
            tangent_ok[rows] = ok
            if with_tangents:
                tangents[rows] = by_rows(_orthonormal_graph_tangents, g)
    return SampledVarifold(
        n, k, points, weights, tangents, tangent_ok,
        np.repeat(np.arange(2, dtype=np.int8), counts), resolution=h,
        patch_radius=h * np.sqrt(n))


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


def density_profile(V, X, rho, levels=4):
    """Ball-count density ratios at ``levels`` dyadic radii below rho.

    Returns (radii, ratios), two lists in order of decreasing radius; the
    radii rho / 2^j below three sample spacings are left out.
    """
    if not rho > 0:
        raise ValueError("rho must be positive, got %g" % rho)
    radii = [rho / 2 ** j for j in range(levels)]
    if V.resolution is not None:
        radii = [r for r in radii if r >= 3 * V.resolution]
    if not radii:
        raise ValueError("all dyadic radii fall below the resolution floor")
    ratios = [density_ratio(V, X, r) for r in radii]
    return radii, ratios


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
