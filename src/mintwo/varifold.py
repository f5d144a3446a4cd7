"""Graphs as weighted point clouds: mass, density, tangents, axis tilt.

A two-valued graph becomes a weighted sample cloud via the area formula:
one sample per grid cell per sheet, weighted by cell volume times the
Jacobian factor sqrt(det(I + G G^T)) from finite-difference gradients.
"""

import numpy as np

from .geometry import by_rows, unit_ball_volume
from .twovalued import crossed, lattice_edges, lipschitz_estimate, trusted


# samples per leaf box of a SampleIndex, and boxes per box of the level
# above
_LEAF = 32
_FANOUT = 8
# bits per coordinate of the Morton codes that order a SampleIndex
_MORTON_BITS = 16


def _spread_bits(d):
    """Table of the 256 bytes with bit j moved to bit j * d."""
    v = np.arange(256, dtype=np.uint64)
    out = np.zeros(256, dtype=np.uint64)
    for j in range(8):
        out |= ((v >> np.uint64(j)) & np.uint64(1)) << np.uint64(j * d)
    return out


class SampleIndex:
    """Nearest-sample and ball queries over the rows of a point array.

    A bounding-box hierarchy: the samples are ordered along a Morton
    (Z-order) curve, each run of ``_LEAF`` consecutive samples in that
    order is a leaf with its bounding box, and each box of a level above
    bounds ``_FANOUT`` consecutive boxes of the level below.  The index
    keeps the int32 order, the Morton code of each leaf's first sample and
    the boxes, not a sorted copy of the points.

    Distances are exact: the squared distance of a sample is accumulated
    coordinate by coordinate, ((dx0^2 + dx1^2) + dx2^2) + ..., and a query
    returns its square root, so a nearest distance equals bit for bit that
    of a KD-tree or a brute-force scan computing it in the same order.
    The lower and upper bounds of a box's squared distance are accumulated
    in the same order, so a box is skipped only when no sample in it can
    tie the best one found.  Queries walk the hierarchy depth first, in
    blocks of at most ``_CHUNK`` (query, box) or (query, sample) pairs, so
    their working set is a few blocks per level, whatever the distances.
    """

    def __init__(self, points):
        P = np.asarray(points, dtype=float)
        if P.ndim != 2:
            raise ValueError("points must have shape (m, d)")
        self.points = P
        m, d = P.shape
        self._m = m
        order = np.empty(m, dtype=np.uint64)
        self._extent = (P.min(axis=0), P.max(axis=0)) if m else None
        for s in range(0, m, _CHUNK):
            order[s:s + _CHUNK] = self._morton(P[s:s + _CHUNK])
        self.perm = np.argsort(order, kind="stable").astype(np.int32)
        self.leaf_code = order[self.perm[::_LEAF]]
        del order
        nleaf = -(-m // _LEAF)
        box_lo, box_hi = np.empty((d, nleaf)), np.empty((d, nleaf))
        step = _LEAF * max(1, _CHUNK // _LEAF)
        for s in range(0, m, step):
            pts = P[self.perm[s:s + step]]
            at = np.arange(0, len(pts), _LEAF)
            cols = slice(s // _LEAF, s // _LEAF + len(at))
            box_lo[:, cols] = np.minimum.reduceat(pts, at).T
            box_hi[:, cols] = np.maximum.reduceat(pts, at).T
        # self.boxes[j] = (lo, hi) of level j, leaves first, (d, count)
        self.boxes = [(box_lo, box_hi)]
        while box_lo.shape[1] > _FANOUT:
            at = np.arange(0, box_lo.shape[1], _FANOUT)
            box_lo = np.minimum.reduceat(box_lo, at, axis=1)
            box_hi = np.maximum.reduceat(box_hi, at, axis=1)
            self.boxes.append((box_lo, box_hi))

    @property
    def nbytes(self):
        """Bytes held by the index itself: its order, codes and boxes."""
        return (self.perm.nbytes + self.leaf_code.nbytes
                + sum(lo.nbytes + hi.nbytes for lo, hi in self.boxes))

    def _morton(self, Y):
        """Morton codes of the rows of Y, clipped to the samples' box, on a
        grid of 2^bits cells per axis."""
        lo, hi = self._extent
        d = len(lo)
        bits = min(_MORTON_BITS, 64 // d)
        span = np.where(hi > lo, hi - lo, 1.0)
        cell = ((np.clip(Y, lo, hi) - lo) * ((2.0 ** bits - 1) / span))
        cell = np.minimum(cell, 2.0 ** bits - 1).astype(np.uint64)
        spread = _spread_bits(d)
        code = np.zeros(len(Y), dtype=np.uint64)
        for byte in range(0, bits, 8):
            for i in range(d):
                b = (cell[:, i] >> np.uint64(byte)) & np.uint64(255)
                code |= spread[b] << np.uint64(byte * d + i)
        return code

    def _queries(self, Y):
        Y = np.asarray(Y, dtype=float)
        if Y.ndim != 2 or Y.shape[1] != self.points.shape[1]:
            raise ValueError("query points must have shape (q, %d)"
                             % self.points.shape[1])
        if not np.all(np.isfinite(Y)):
            raise ValueError("query points must be finite")
        return Y

    def _expand(self, Y, q, node, level, bound, nearest):
        """The children of the pairs (q, node) that may answer query q.

        ``node`` indexes the boxes of ``level`` (``len(self.boxes)`` is
        the root above the top level); the result pairs index the boxes of
        ``level - 1``.  A child is kept while the lower bound of its
        squared distance does not exceed ``bound[q]``.  For a nearest-
        sample query each child's upper bound first lowers ``bound``,
        since every box holds at least one sample.
        """
        lo, hi = self.boxes[level - 1]
        child = node[:, None] * _FANOUT + np.arange(_FANOUT)
        valid = child < lo.shape[1]
        child = np.minimum(child, lo.shape[1] - 1)
        Yq = Y[q]
        near = np.zeros(child.shape)
        far = np.zeros(child.shape)
        for i in range(Y.shape[1]):
            y = Yq[:, i, None]
            below = np.take(lo[i], child) - y
            above = y - np.take(hi[i], child)
            gap = np.maximum(np.maximum(below, above), 0.0)
            near += gap * gap
            if nearest:
                reach = np.maximum(-below, -above)
                far += reach * reach
        if nearest:
            np.minimum.at(bound, q, np.where(valid, far, np.inf).min(axis=1))
        rows, cols = np.nonzero(valid & (near <= bound[q][:, None]))
        return q[rows], child[rows, cols]

    def _walk(self, Y, q, node, level, bound, leaves, nearest):
        """Visit, depth first, the leaves that may answer the pairs (q, node).

        ``leaves(q, idx, d2)`` is called on blocks of the kept leaves
        (``_leaf_samples``); it may lower ``bound``, which prunes the
        blocks visited after it.
        """
        q, child = self._expand(Y, q, node, level, bound, nearest)
        if level == 1:
            step = max(1, _CHUNK // _LEAF)
            for s in range(0, len(q), step):
                leaves(q[s:s + step],
                       *self._leaf_samples(Y, q[s:s + step],
                                           child[s:s + step]))
        else:
            step = max(1, _CHUNK // _FANOUT)
            for s in range(0, len(q), step):
                self._walk(Y, q[s:s + step], child[s:s + step], level - 1,
                           bound, leaves, nearest)

    def _blocks(self, count):
        """Blocks of at most ``_CHUNK // _LEAF`` query rows, so that one
        leaf per row is a block of ``_leaf_samples``; none when the index
        is empty."""
        step = max(1, _CHUNK // _LEAF)
        for s in range(0, count if self._m else 0, step):
            yield np.arange(s, min(s + step, count))

    def _leaf_samples(self, Y, q, leaf):
        """Sample indices and squared distances of the leaves to Y[q].

        Both have shape (len(leaf), _LEAF); the positions past the end of
        a short last leaf repeat its last sample, at an infinite distance.
        """
        pos = leaf[:, None] * _LEAF + np.arange(_LEAF)
        idx = self.perm[np.minimum(pos, self._m - 1)]
        sq = np.take(self.points, idx, axis=0)
        sq -= Y[q][:, None]
        np.square(sq, out=sq)
        d2 = sq[..., 0].copy()
        for i in range(1, sq.shape[-1]):
            d2 += sq[..., i]
        d2[pos >= self._m] = np.inf
        return idx, d2

    def _seed_leaves(self, Y):
        """Per row of Y, the leaf whose Morton range holds its code."""
        at = np.searchsorted(self.leaf_code, self._morton(Y), side="right")
        return np.maximum(at - 1, 0)

    def query(self, Y):
        """Distance to and index of the nearest sample, per row of Y.

        Ties go to the lowest sample index.  An empty index returns inf
        and the sample count, as a KD-tree does.  The first bound of a
        query is its nearest sample in the leaf that holds its Morton code.
        """
        Y = self._queries(Y)
        m = self._m
        dist = np.full(len(Y), np.inf)
        arg = np.full(len(Y), m, dtype=np.intp)
        for rows in self._blocks(len(Y)):
            Yb = Y[rows]
            here = np.arange(len(rows))
            best = np.full(len(rows), np.inf)
            first = np.full(len(rows), m, dtype=np.intp)
            bound = best.copy()

            def leaves(q, idx, d2):
                # a strictly nearer sample resets ``first``; then each
                # leaf offers its lowest index at the (new) best distance
                low = d2.min(axis=1)
                new = best.copy()
                np.minimum.at(new, q, low)
                first[new < best] = m
                best[:] = new
                tie = low == best[q]
                at = np.where(d2[tie] == low[tie, None], idx[tie], m)
                np.minimum.at(first, q[tie], at.min(axis=1))
                np.minimum(bound, best, out=bound)

            leaves(here, *self._leaf_samples(Yb, here,
                                             self._seed_leaves(Yb)))
            self._walk(Yb, here, np.zeros(len(rows), dtype=np.intp),
                       len(self.boxes), bound, leaves, True)
            dist[rows] = np.sqrt(best)
            arg[rows] = first
        return dist, arg

    def query_ball_point(self, X, r):
        """Indices of the samples within distance r of X, in ascending order.

        X is one point (d,), or points (q, d), for which a list of one
        index array per row is returned.  A sample is in the ball when its
        squared distance is at most r * r.
        """
        X = np.asarray(X, dtype=float)
        Y = self._queries(np.atleast_2d(X))
        m = self._m
        r2 = float(r) * r
        found = [np.zeros(0, dtype=np.intp)]
        for rows in self._blocks(len(Y)):

            def leaves(q, idx, d2):
                # one sortable key per (query row, sample) pair
                inside = d2 <= r2
                found.append(np.repeat(rows[q], _LEAF)[inside.ravel()] * m
                             + idx[inside])

            self._walk(Y[rows], np.arange(len(rows)),
                       np.zeros(len(rows), dtype=np.intp), len(self.boxes),
                       np.full(len(rows), r2), leaves, False)
        q, idx = np.divmod(np.sort(np.concatenate(found)), m)
        if X.ndim == 1:
            return idx
        at = np.searchsorted(q, np.arange(len(Y) + 1))
        return [idx[a:b] for a, b in zip(at[:-1], at[1:])]


def cKDTree(points):
    """The nearest-sample index of a cloud's points.

    Every cloud builds its index through this module-level name, which
    ``bench/tracing.py`` patches to time and count the builds.
    """
    return SampleIndex(points)


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
        """The cloud's ``SampleIndex``, built on first use."""
        if self._tree is None:
            self._tree = cKDTree(self.points)
        return self._tree


class SimilarityView:
    """A cloud seen in the coordinates (X - center) / rho, without a copy.

    A rung of the decay ladder is the blow-up of one base cloud at a center
    by 1/rho.  The view gathers the samples of a region in its own
    coordinates, chunk by chunk, with weights divided by rho^n (the n-area
    scaling), and answers nearest-sample queries through the base cloud's
    single ``SampleIndex``.  Only samples whose first n view coordinates
    lie in the closed ball of radius ``cyl`` belong to the view.
    ``resolution`` and ``patch_radius`` are in view units; tangent planes
    are unchanged by a similarity, so ``tangents`` is the base cloud's
    array.
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
        sends center + rho Y to the base index and divides the distances
        by rho.  When rho is a power of two and the center is 0, every
        step is exact, so the distances equal bit for bit those of an index
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
    The weights in the ball are summed in ascending sample order.
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
