"""Graphs as weighted point clouds: mass, density, tangents, axis tilt.

A two-valued graph becomes a weighted sample cloud via the area formula:
one sample per grid cell per sheet, weighted by cell volume times the
Jacobian factor sqrt(det(I + G G^T)) from finite-difference gradients.
"""

import functools
import math

import numpy as np

from .geometry import by_rows, check_radius, unit_ball_volume
from .twovalued import (SlabWindow, crossed, index_dtype, lipschitz_estimate,
                        trusted)


# rows per block of the functionals and fits (``blocks``), samples per
# block of a SampleIndex build and query, and admissible cells per block
# of sample_graph on a surface in R^4 (``_cells_per_chunk``)
_CHUNK = 1 << 13


def blocks(count):
    """Slices of at most ``_CHUNK`` consecutive rows covering range(count).

    The one block size of the row-wise work on a cloud or a fit window:
    SimilarityView chunks, excess and fit distances, index builds.
    """
    return (slice(s, min(s + _CHUNK, count))
            for s in range(0, count, _CHUNK))


# NumPy's pairwise summation: runs of at most this many numbers are summed
# by one unrolled loop; longer ones are split in two
_PAIRWISE_RUN = 128


class _Numbers:
    """The numbers of a sequence of float arrays, read in order."""

    def __init__(self, parts):
        self._parts = iter(parts)
        self._buf, self._at = np.empty(0), 0

    def left(self, n):
        """Whether the next n numbers lie in one part; loads the next part
        when this one is used up."""
        while n and self._at == len(self._buf):
            self._buf, self._at = next(self._parts), 0
        return self._at + n <= len(self._buf)

    def take(self, n):
        """The next n numbers, as one array."""
        pieces = []
        while n > len(self._buf) - self._at:
            pieces.append(self._buf[self._at:])
            n -= len(self._buf) - self._at
            self._buf, self._at = next(self._parts), 0
        pieces.append(self._buf[self._at:self._at + n])
        self._at += n
        return np.concatenate(pieces) if len(pieces) > 1 else pieces[0]


def _pairwise(numbers, n):
    # NumPy's pairwise sum of the next n numbers
    if numbers.left(n) or n <= _PAIRWISE_RUN:
        return float(np.sum(numbers.take(n)))
    half = n // 2
    half -= half % 8
    return _pairwise(numbers, half) + _pairwise(numbers, n - half)


def pairwise_sum(parts, count):
    """``np.sum`` of the concatenation of the float arrays ``parts``
    (``count`` numbers in all), bit for bit, without building it.

    NumPy sums a float array pairwise: a run of more than
    ``_PAIRWISE_RUN`` numbers is split after half its length rounded
    down to a multiple of 8, and the sums of the halves are added.  This
    makes the same splits; a run that lies within one part is summed by
    ``np.sum`` there, and a short run across parts is joined first.
    (``np.sum`` adds its pairwise sum to 0.0, which changes at most the
    sign of a zero, and so only that of a zero result, which the final
    0.0 + fixes.)
    """
    return 0.0 + _pairwise(_Numbers(parts), count)


# samples per leaf box of a SampleIndex, and boxes per box of the level
# above
_LEAF = 32
_FANOUT = 8


@functools.cache
def _spread_bits(d):
    """Table of the 256 bytes with bit j moved to bit j * d."""
    v = np.arange(256, dtype=np.uint64)
    out = np.zeros(256, dtype=np.uint64)
    for j in range(8):
        out |= ((v >> np.uint64(j)) & np.uint64(1)) << np.uint64(j * d)
    return out


def _interleave(cell, bits):
    """Morton codes of the rows of ``cell`` (c, d), unsigned integers below
    2^bits with d * bits <= 64: bit j of column i goes to bit j * d + i."""
    d = cell.shape[1]
    spread = _spread_bits(d)
    code = np.zeros(len(cell), dtype=np.uint64)
    for byte in range(0, bits, 8):
        for i in range(d):
            b = (cell[:, i] >> np.uint64(byte)) & np.uint64(255)
            code |= spread[b] << np.uint64(byte * d + i)
    return code


def _squared_distances(P, Y, scratch=False):
    """Squared distances of the points P (..., d) to Y (broadcast against
    P), accumulated coordinate by coordinate, ((dx0^2 + dx1^2) + dx2^2)
    + ...: the one sum behind the index's distances and the ball masses.
    P is left as it is, as it may be a view of a cloud's stored points,
    unless ``scratch`` says that it is a copy the sum may overwrite."""
    sq = np.subtract(P, Y, out=P if scratch else None)
    np.square(sq, out=sq)
    d2 = sq[..., 0].copy()
    for i in range(1, sq.shape[-1]):
        d2 += sq[..., i]
    return d2


class GraphPoints:
    """The coordinates of a graph cloud's samples, stored by cell.

    A graph sample's first n coordinates are the midpoint of its cell,
    which the two sheets of a cell share.  So each sample keeps only its
    k graph values (``values``, (m, k)); row r reads its cell's flat
    lower-corner index at ``corners[r mod len(corners)]`` (int32 below
    2^31 nodes, ``twovalued.index_dtype``), one a cell of a whole cloud
    and one a row of a cut one; rows ``split`` on are sheet 1.  The rows
    share one midpoint table per axis (``mids[i] = axes[i] + h/2`` over a
    lattice of shape ``dims``): 18 bytes a sample of a surface in R^4 (20
    cut), where its four coordinates take 32.  ``points[rows]`` builds
    the rows (shape of ``corner_at(rows)``, n+k) of the samples ``rows``
    (an index, an index array of any shape, a slice or a mask) from
    ``mids[i]`` at each corner's lattice index i: the sums axes[i][j] +
    h/2 of an (m, n+k) array of the coordinates, bit for bit.
    """

    def __init__(self, mids, dims, corners, values, split=None):
        self.mids = mids
        self.dims = tuple(dims)
        self.corners = corners
        self.values = values
        self.split = len(values) if split is None else split
        n, k = len(mids), values.shape[1]
        self.shape = (len(values), n + k)
        # each row of values as one item, so that a gather copies rows
        # whole, and the layout that puts them after a row's midpoint.
        # Gathering the (m, 2) values of a surface in R^4 by index arrays,
        # as a SampleIndex's leaf reads do, this takes about 0.55 s of a
        # decay_ladder call (h = 1/256, 4,108 reads); values[rows] takes
        # about 1.4 s.
        self._items = values.view((np.void, values.itemsize * k)).reshape(-1)
        self._layout = np.dtype([("mid", float, (n,)),
                                 ("values", self._items.dtype)])

    def __len__(self):
        return self.shape[0]

    @property
    def nbytes(self):
        """Bytes the coordinates hold: cells, values and midpoint tables."""
        return (self.corners.nbytes + self.values.nbytes
                + sum(t.nbytes for t in self.mids))

    def corner_at(self, rows):
        """The corners of the samples ``rows``, unchecked for range; a
        view for a slice of step 1 within the stored corners."""
        if isinstance(rows, slice):
            start, stop, step = rows.indices(len(self))
            if step == 1 and stop <= len(self.corners):
                return self.corners[start:stop]
            rows = np.arange(start, stop, step)
        elif np.asarray(rows).dtype == bool:
            rows = np.flatnonzero(rows)
        return self.corners.take(rows, mode="wrap")

    def __getitem__(self, rows):
        out = self.mids_at(rows, self.shape[1])
        out.view(self._layout)[..., 0]["values"] = self._items[rows]
        return out

    def mids_at(self, rows, width):
        """An array (shape of ``corner_at(rows)``, width) whose first n
        columns are the midpoints of the cells of the samples ``rows``:
        ``points[rows]`` without the graph values when width is n."""
        corner = self.corner_at(rows)
        out = np.empty(np.shape(corner) + (width,))
        # each corner's lattice index along each axis, last axis first
        for i in range(len(self.mids) - 1, 0, -1):
            up = corner // self.dims[i]
            out[..., i] = np.take(self.mids[i], corner - up * self.dims[i])
            corner = up
        out[..., 0] = np.take(self.mids[0], corner)
        return out


def _tile_shape(n):
    """Cells per axis of a lattice tile, ``_LEAF`` cells in all: the
    shortest side doubled until there are, the later axis on a tie
    (4 x 8 in 2-d, 2 x 4 x 4 in 3-d, 2 x 2 x 2 x 4 in 4-d)."""
    shape = [1] * n
    while math.prod(shape) < _LEAF:
        shape[min(range(n - 1, -1, -1), key=shape.__getitem__)] *= 2
    return np.array(shape)


class _TileLeaves:
    """The leaves of a graph cloud's index: tiles of its lattice, one sheet
    each.

    A tile is a block of ``_tile_shape(n)`` cells, ``_LEAF`` in all.  The
    rows of a graph cloud form two sheets, split at ``GraphPoints.split``,
    each in C order (``sample_graph``), and a leaf is the rows of one
    sheet in one tile.  Within a sheet the cells of a tile
    that differ only in their last lattice index are consecutive rows, so
    a leaf is at most ``_LEAF / w`` runs of at most w consecutive rows (w
    the tile's last side), and the index keeps each run's first row
    (``starts``, int32 below 2^31 samples) and length (``lengths``,
    uint8), an empty run reading the leaf's first row.  A sheet's leaves
    follow the Morton order of their tile coordinates; the index keeps no
    code and no order per sample.  The build reads the cells one block of
    rows at a time and sorts the runs, not the samples.
    """

    def __init__(self, P):
        self.points = P
        self._shape, self._bits = _TileLeaves.tiling(P)
        dims = np.array(P.dims)
        per_line = -(-P.dims[-1] // self._shape[-1])
        width = int(self._shape[-1])
        m = len(P)
        # the runs: a run starts where the cell leaves the previous row's
        # run of w cells along the last axis, or where a sheet starts;
        # each keeps its first row, its tile's code and its place in it
        found, begins, runs, last = [], [], 0, None
        for rows in blocks(m):
            cell = P.corner_at(rows).astype(np.int64)
            line, col = np.divmod(cell, dims[-1])
            key = line * per_line + col // width
            sheet = np.isin(np.arange(rows.start, rows.stop), (0, P.split))
            new = np.ones(len(cell), dtype=bool)
            new[1:] = key[1:] != key[:-1]
            if last is not None:
                new[0] = key[0] != last
            last = key[-1]
            at = np.flatnonzero(new | sheet)
            begins += (runs + np.flatnonzero(sheet[at])).tolist()
            runs += len(at)
            lattice = self._lattice(cell[at])
            place = np.zeros(len(at), dtype=np.intp)
            for i in range(len(dims) - 1):
                place = place * self._shape[i] + lattice[:, i] % self._shape[i]
            found.append(((rows.start + at).astype(index_dtype(m)),
                          self._code(lattice // self._shape),
                          place.astype(np.uint8)))
        del last
        start, code, place = ([np.concatenate(a) for a in zip(*found)]
                              if found else [np.zeros(0, dtype=np.intp)] * 3)
        del found
        length = np.empty(len(start), dtype=np.uint8)
        length[:-1] = np.diff(start)
        length[-1:] = m - start[-1:]
        # each sheet's runs in the Morton order of their tiles, stably, so
        # that a tile's runs keep the order of their places; a leaf is the
        # runs of one tile
        starts, lengths, self._sheets = [], [], []
        count = 0
        for lo, hi in zip(begins, begins[1:] + [runs]):
            order = np.argsort(code[lo:hi], kind="stable")
            order += lo
            lead = np.ones(len(order), dtype=bool)
            lead[1:] = np.diff(code[order]) != 0
            first = start[order[lead]]
            # each run's flat position in its leaf's row of S and L
            pos = np.cumsum(lead)
            pos -= 1
            pos *= _LEAF // width
            pos += place[order]
            S = np.repeat(first[:, None], _LEAF // width, axis=1)
            S.reshape(-1)[pos] = start[order]
            L = np.zeros(S.shape, dtype=np.uint8)
            L.reshape(-1)[pos] = length[order]
            starts.append(S)
            lengths.append(L)
            self._sheets.append((count, count + len(S)))
            count += len(S)
            del order, pos  # before the next sheet's
        del start, code, place, length
        self.count = count
        self.starts = (np.concatenate(starts) if starts else
                       np.zeros((0, _LEAF // width), dtype=index_dtype(m)))
        del starts
        self.lengths = (np.concatenate(lengths) if lengths else
                        np.zeros(self.starts.shape, dtype=np.uint8))
        self._width = width

    @staticmethod
    def tiling(P):
        """The tile shape of a ``GraphPoints`` and the bits per tile
        coordinate of its codes, which hold n coordinates in 64 bits.
        ValueError for a lattice of more than 2^(64 // n) tiles along an
        axis: on a cubic lattice, more than 2^17 nodes a side in 4-d, 2^22
        in 3-d and 2^34 in 2-d, whose mask alone could not be allocated."""
        shape = _tile_shape(len(P.dims))
        tiles = -(-np.array(P.dims) // shape)
        bits = max(int(t - 1).bit_length() for t in tiles)
        if bits * len(P.dims) > 64:
            raise ValueError("lattice dims %s need tile codes of more "
                             "than 64 bits" % (P.dims,))
        return shape, bits

    @property
    def nbytes(self):
        return self.starts.nbytes + self.lengths.nbytes

    def _lattice(self, cell):
        """Lattice indices (c, n) of the flat cell indices ``cell``."""
        return np.stack(np.unravel_index(cell, self.points.dims), axis=1)

    def _code(self, tile):
        """Morton codes of the tile coordinates (c, n)."""
        return _interleave(tile.astype(np.uint64), self._bits)

    def _leaf_code(self, leaf):
        corner = self.points.corner_at(self.starts[leaf, 0])
        return self._code(self._lattice(corner) // self._shape)

    def rows(self, leaf):
        """Sample indices (len(leaf), _LEAF) of the leaves and the flags of
        the real ones: the positions past the end of a short run repeat
        its last row, and those of an empty run the leaf's first row."""
        col = np.arange(self._width)
        count = self.lengths[leaf][..., None]
        idx = self.starts[leaf][..., None] + np.minimum(
            col, np.maximum(count, 1) - 1)
        return (idx.reshape(len(leaf), _LEAF),
                (col < count).reshape(len(leaf), _LEAF))

    def seeds(self, Y):
        """Per sheet, per row of Y, the leaf of the tile of the row's
        lattice cell (the cell whose midpoint is nearest along each axis),
        or when the sheet has no sample there the leaf before where that
        tile would stand in the sheet's Morton order."""
        P = self.points
        cell = np.empty((len(Y), len(P.dims)), dtype=np.intp)
        for i, mid in enumerate(P.mids):
            y = Y[:, i]
            j = np.clip(np.searchsorted(mid, y), 1, len(mid) - 1)
            j -= y - mid[j - 1] < mid[j] - y
            cell[:, i] = np.minimum(j, len(mid) - 2)
        key = self._code(cell // self._shape)
        out = []
        for lo, hi in self._sheets:
            # the first leaf of [lo, hi) whose code exceeds the key, by a
            # bisection of the same steps for every row
            base, size = np.full(len(Y), lo), hi - lo
            while size > 1:
                half = size // 2
                base += half * (self._leaf_code(base + half) <= key)
                size -= half
            base += self._leaf_code(base) <= key
            out.append(np.maximum(base - 1, lo))
        return out


def _outward(x, toward):
    """x as float32, each number rounded toward -inf or inf (``toward``)."""
    with np.errstate(over="ignore"):  # past the float32 range: +-inf
        y = x.astype(np.float32)
    return np.nextafter(y, np.float32(toward), out=y,
                        where=y > x if toward < 0 else y < x)


def _query_rows(Y, d):
    """The query points Y as an (q, d) float array of finite numbers."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != d:
        raise ValueError("query points must have shape (q, %d)" % d)
    if not np.all(np.isfinite(Y)):
        raise ValueError("query points must be finite")
    return Y


class SampleIndex:
    """Nearest-sample queries over the samples of a graph cloud.

    A bounding-box hierarchy over a ``GraphPoints``, read by rows, one
    block of rows at a time: each leaf is a box around at most ``_LEAF``
    samples, and each box of a level above bounds ``_FANOUT`` consecutive
    boxes of the level below.  The leaves are tiles of the cloud's
    lattice, one sheet each (``_TileLeaves``): the index keeps each
    leaf's runs of consecutive rows and the float32 boxes (``_outward``),
    about 2 bytes a sample, and its build sorts nothing the size of the
    cloud.

    Distances are exact: the squared distance of a sample is accumulated
    coordinate by coordinate (``_squared_distances``), and a query returns
    its square root, so a nearest distance equals bit for bit that of a
    KD-tree or a brute-force scan computing it in the same order.  The
    lower and upper bounds of a box's squared distance are accumulated in
    the same order, so a box is skipped only when no sample in it can tie
    the best one found.  Queries walk the hierarchy depth first, in blocks
    of at most ``_CHUNK`` (query, box) or (query, sample) pairs, so their
    working set is a few blocks per level, whatever the distances.
    Ball masses need no index: ``density_ratio`` is one pass over the
    cloud.
    """

    def __init__(self, points):
        self.points = P = points
        self._m = len(P)
        self.leaves = _TileLeaves(P)
        shape = (P.shape[1], self.leaves.count)
        box_lo, box_hi = np.empty((2,) + shape, dtype=np.float32)
        # a leaf's unreal positions repeat one of its samples, so they
        # leave its box as it is
        for leaf in self._blocks(self.leaves.count):
            pts = P[self.leaves.rows(leaf)[0]]
            box_lo[:, leaf] = _outward(pts.min(axis=1).T, -np.inf)
            box_hi[:, leaf] = _outward(pts.max(axis=1).T, np.inf)
        # self.boxes[j] = (lo, hi) of level j, leaves first, (d, count)
        self.boxes = [(box_lo, box_hi)]
        while box_lo.shape[1] > _FANOUT:
            at = np.arange(0, box_lo.shape[1], _FANOUT)
            box_lo = np.minimum.reduceat(box_lo, at, axis=1)
            box_hi = np.maximum.reduceat(box_hi, at, axis=1)
            self.boxes.append((box_lo, box_hi))

    @property
    def nbytes(self):
        """Bytes held by the index itself: its leaves and boxes."""
        return self.leaves.nbytes + sum(lo.nbytes + hi.nbytes
                                        for lo, hi in self.boxes)

    def _expand(self, Y, q, node, level, bound):
        """The children of the pairs (q, node) that may hold the nearest
        sample to query q.

        ``node`` indexes the boxes of ``level`` (``len(self.boxes)`` is
        the root above the top level); the result pairs index the boxes of
        ``level - 1``.  Each child's upper bound first lowers ``bound[q]``,
        since every box holds at least one sample; a child is kept while
        the lower bound of its squared distance does not exceed it.
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
            reach = np.maximum(-below, -above)
            far += reach * reach
        np.minimum.at(bound, q, np.where(valid, far, np.inf).min(axis=1))
        rows, cols = np.nonzero(valid & (near <= bound[q][:, None]))
        return q[rows], child[rows, cols]

    def _walk(self, Y, q, node, level, bound, leaves):
        """Visit, depth first, the leaves that may answer the pairs (q, node).

        ``leaves(q, idx, d2)`` is called on blocks of the kept leaves
        (``_leaf_samples``); it may lower ``bound``, which prunes the
        blocks visited after it.
        """
        q, child = self._expand(Y, q, node, level, bound)
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
                           bound, leaves)

    @staticmethod
    def _blocks(count):
        """Blocks of at most ``_CHUNK // _LEAF`` rows, so that one leaf per
        row is a block of ``_leaf_samples``."""
        step = max(1, _CHUNK // _LEAF)
        for s in range(0, count, step):
            yield np.arange(s, min(s + step, count))

    def _leaf_samples(self, Y, q, leaf):
        """Sample indices and squared distances of the leaves to Y[q].

        Both have shape (len(leaf), _LEAF); the unreal positions of a
        leaf (``rows``) repeat one of its samples, at an infinite
        distance.
        """
        idx, real = self.leaves.rows(leaf)
        d2 = _squared_distances(self.points[idx], Y[q][:, None],
                                scratch=True)
        d2[~real] = np.inf
        return idx, d2

    def query(self, Y):
        """Distance to and index of the nearest sample, per row of Y.

        Ties go to the lowest sample index.  An empty index returns inf
        and the sample count, as a KD-tree does.  The first bound of a
        query is its nearest sample in its seed leaves (``seeds``): on
        each sheet, the leaf of its lattice cell's tile.
        """
        Y = _query_rows(Y, self.points.shape[1])
        m = self._m
        dist = np.full(len(Y), np.inf)
        arg = np.full(len(Y), m, dtype=np.intp)
        # the seeds of a group of _CHUNK rows at once, then its blocks
        for group in blocks(len(Y) if m else 0):
            seeds = self.leaves.seeds(Y[group])
            for rows in self._blocks(group.stop - group.start):
                Yb = Y[group.start + rows]
                here = np.arange(len(rows))
                best = np.full(len(rows), np.inf)
                first = np.full(len(rows), m, dtype=np.intp)
                bound = best.copy()

                def leaves(q, idx, d2):
                    # a strictly nearer sample resets ``first``; then each
                    # leaf offers its lowest index at the (new) best
                    # distance
                    low = d2.min(axis=1)
                    new = best.copy()
                    np.minimum.at(new, q, low)
                    first[new < best] = m
                    best[:] = new
                    tie = low == best[q]
                    at = np.where(d2[tie] == low[tie, None], idx[tie], m)
                    np.minimum.at(first, q[tie], at.min(axis=1))
                    np.minimum(bound, best, out=bound)

                for seed in seeds:
                    leaves(here, *self._leaf_samples(Yb, here, seed[rows]))
                self._walk(Yb, here, np.zeros(len(rows), dtype=np.intp),
                           len(self.boxes), bound, leaves)
                dist[group.start + rows] = np.sqrt(best)
                arg[group.start + rows] = first
        return dist, arg


class _Scan:
    """Nearest-sample queries over the rows of an (m, d) array, by an
    exact scan: the index of a cloud built from a point array.

    Each block of ``_LEAF`` queries reads the samples in blocks of
    ``_CHUNK // _LEAF`` rows, with the squared distances of
    ``_squared_distances``, so it answers as ``SampleIndex.query`` does,
    bit for bit: the square root of the least squared distance, ties to
    the lowest sample index, and inf and m for an empty array.
    """

    def __init__(self, points):
        self.points = np.asarray(points, dtype=float)

    def query(self, Y):
        P, m = self.points, len(self.points)
        Y = _query_rows(Y, P.shape[1])
        best = np.full(len(Y), np.inf)
        arg = np.full(len(Y), m, dtype=np.intp)
        step = max(1, _CHUNK // _LEAF)
        for q in range(0, len(Y), _LEAF):
            b, first = best[q:q + _LEAF], arg[q:q + _LEAF]
            for s in range(0, m, step):
                d2 = _squared_distances(P[s:s + step], Y[q:q + _LEAF, None])
                at = d2.argmin(axis=1)
                low = d2[np.arange(len(at)), at]
                # a strictly nearer sample: an earlier block keeps a tie
                nearer = low < b
                b[nearer], first[nearer] = low[nearer], s + at[nearer]
        return np.sqrt(best), arg


def cKDTree(points):
    """The nearest-sample index of a cloud's points: a ``SampleIndex`` of
    a graph cloud's ``GraphPoints``, or an exact scan of an array.

    Every cloud builds its index through this module-level name, which
    ``bench/tracing.py`` patches to time and count the builds.
    """
    return (SampleIndex(points) if isinstance(points, GraphPoints)
            else _Scan(points))


class SampledVarifold:
    """Weighted point cloud on an n-dimensional graph in R^(n+k).

    ``sample_graph`` builds every cloud of the program: its coordinates
    are a ``GraphPoints``, which stores cells and graph values, not
    midpoints, its tangent planes are its graph gradients and its nearest
    samples come from a ``SampleIndex``.  A cloud built from an (m, n+k)
    array of points (tests only) answers them by an exact scan, and may
    carry orthonormal frames where it is not a graph.

    Fields: the coordinates, read through ``points_at(rows)``; weights
    (m,); the optional tangent planes, either ``tangents`` (m, n, n+k),
    an orthonormal frame of rows per sample, or ``gradients`` (m, n, k),
    the graph gradient G of each sample, whose plane is spanned by the
    rows of [I_n | G] (a cloud carries one of the two, or neither);
    ``frames`` reads the frames of either.  tangent_ok flags, one per
    sample or per stored corner of a graph cloud (read as its corners);
    sheet labels, int8 (a graph cloud's 0 and 1, split at
    ``GraphPoints.split``, else -1); resolution (sample spacing scale);
    patch_radius (extent of a sample's flat patch).
    """

    def __init__(self, n, k, points, weights, tangents=None, tangent_ok=None,
                 resolution=None, patch_radius=None, gradients=None):
        self.n = int(n)
        self.k = int(k)
        if isinstance(points, GraphPoints):
            self._points, coords = points, points.values
        else:
            self._points = coords = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        if len(self._points.shape) != 2 or self._points.shape[1] != n + k:
            raise ValueError("points must have shape (m, n+k)")
        if self.weights.shape != (len(self._points),):
            raise ValueError("weights must be one per point")
        if not np.all(np.isfinite(coords)):
            raise ValueError("non-finite sample coordinates")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")
        if tangents is not None and gradients is not None:
            raise ValueError("a cloud carries tangents or gradients, "
                             "not both")
        self.tangents = None if tangents is None else np.asarray(tangents)
        self.gradients = (None if gradients is None
                          else np.asarray(gradients, dtype=float))
        flags = (len(points.corners) if isinstance(points, GraphPoints)
                 else len(self._points))
        self._tangent_ok = (np.ones(flags, dtype=bool) if tangent_ok is None
                            else np.asarray(tangent_ok, dtype=bool))
        if self._tangent_ok.shape != (flags,):
            raise ValueError("tangent_ok must be one flag per sample, or "
                             "per corner of a graph cloud")
        self.resolution = resolution
        self.patch_radius = patch_radius
        self._tree = None

    @property
    def tangent_ok(self):
        """The tangent reliability flag of every sample, (m,) bool."""
        return np.resize(self._tangent_ok, len(self.weights))

    @property
    def sheet(self):
        """The sheet label of every sample, (m,) int8, built on each read."""
        if not isinstance(self._points, GraphPoints):
            return np.full(len(self.weights), -1, dtype=np.int8)
        s = self._points.split
        return np.repeat(np.int8([0, 1]), (s, len(self.weights) - s))

    @property
    def points(self):
        """Every sample's coordinates, (m, n+k): the stored array, or all
        the rows of a graph cloud, built on each read."""
        return self.points_at(slice(None))

    def points_at(self, rows):
        """Coordinates of the samples ``rows`` (an index, an index array,
        a slice or a mask), the one way the program reads them.  A graph
        cloud builds the rows asked for (``GraphPoints``); a cloud built
        from points returns ``points[rows]``, a view for a slice."""
        return self._points[rows]

    def domain_at(self, rows):
        """The first n coordinates of the samples ``rows``, their points of
        the domain R^n: the columns :n of ``points_at(rows)``, which a
        graph cloud reads from its midpoint tables alone."""
        if isinstance(self._points, GraphPoints):
            return self._points.mids_at(rows, self.n)
        return self._points[rows][..., :self.n]

    @property
    def nbytes(self):
        """Bytes of the cloud's per-sample arrays as stored: coordinates
        (with a graph cloud's midpoint tables), weights, tangents or
        gradients and tangent_ok."""
        return sum(a.nbytes for a in (self._points, self.weights,
                                      self.tangents, self.gradients,
                                      self._tangent_ok)
                   if a is not None)

    def in_region(self, region):
        """Flags of the samples in ``region``, tested one block of rows at
        a time (``blocks``)."""
        flags = np.empty(len(self.weights), dtype=bool)
        for rows in blocks(len(flags)):
            flags[rows] = region.contains(self.points_at(rows))
        return flags

    @property
    def has_frames(self):
        """Whether the cloud carries tangent planes (``frames``)."""
        return self.tangents is not None or self.gradients is not None

    def frames(self, rows):
        """Orthonormal tangent frames of the samples ``rows``.

        ``rows`` indexes the samples (an index array or a slice); returns
        (len, n, n+k).  A cloud that carries frames returns
        ``tangents[rows]``.  A graph cloud orthonormalizes the rows of
        [I_n | G] of the asked gradients by batched QR and returns the
        (len, n, n+k) transpose of the QR output, without a copy: the
        einsum contractions over frames sum in the order of that stride
        layout (a C-contiguous copy holds equal values but moves the
        last bit of their sums).  Each frame depends only on its own
        gradient, not on the other rows asked.
        """
        if self.tangents is not None:
            return self.tangents[rows]
        if self.gradients is None:
            raise ValueError("the cloud carries no tangents")
        return by_rows(_orthonormal_graph_tangents, self.gradients[rows])

    @property
    def total_mass(self):
        return float(self.weights.sum())

    def tree(self):
        """The cloud's nearest-sample index (``cKDTree``), built on first
        use."""
        if self._tree is None:
            self._tree = cKDTree(self._points)
        return self._tree


class SimilarityView:
    """A cloud seen in the coordinates (X - center) / rho, without a copy.

    A rung of the decay ladder is the blow-up of one base cloud at a center
    by 1/rho.  The view reads the samples of a region in its own
    coordinates one chunk at a time (``chunks``), never gathered, with
    weights divided by rho^n (the n-area scaling), and answers nearest-
    sample queries through the base cloud's single ``SampleIndex``.  Only
    samples whose first n view coordinates lie in the closed ball of
    radius ``cyl`` belong to the view (one byte of marks a base sample,
    ``_flags``).  ``resolution`` and ``patch_radius`` are in view units;
    tangent planes are unchanged by a similarity, so ``frames`` are the
    base cloud's.
    """

    def __init__(self, base, center=None, rho=1.0, cyl=np.inf):
        self.base = base
        self.n, self.k = base.n, base.k
        self.center = (np.zeros(base.n + base.k) if center is None
                       else np.asarray(center, dtype=float))
        self.rho = rho
        self.cyl = cyl
        self.resolution = (None if base.resolution is None
                           else base.resolution / rho)
        self.patch_radius = (None if base.patch_radius is None
                             else base.patch_radius / rho)
        self._marks = None
        self._region = None

    def _flags(self, region):
        # the bit of a region in the view's marks, a byte per base sample:
        # bit 0 a member (region None), bit 1 one in the last region asked
        # (counted), so that counting and then reading it tests it once
        if self._marks is None:
            base, n = self.base, self.n
            self._marks = np.empty(len(base.weights), dtype=np.uint8)
            for rows in blocks(len(base.weights)):
                self._marks[rows] = np.linalg.norm(
                    (base.domain_at(rows) - self.center[:n])
                    / self.rho, axis=-1) <= self.cyl
        if region is None:
            return 1
        if self._region is None or self._region[0] is not region:
            marks, count = self._marks, 0
            marks &= 1
            for rows in blocks(len(marks)):
                sel = rows.start + np.flatnonzero(marks[rows])
                inside = sel[region.contains(self.points_at(sel))]
                marks[inside], count = 3, count + len(inside)
            self._region = (region, count)
        return 2

    def _rows(self, region):
        """Base indices of the view's samples in a region, one array per
        chunk of ``_CHUNK`` base samples, in base order, also when it is
        empty."""
        bit = self._flags(region)
        for rows in blocks(max(len(self._marks), 1)):
            yield rows.start + np.flatnonzero(self._marks[rows] & bit)

    def chunks(self, region=None):
        """(points, weights) in view coordinates of the samples in a region.

        Yields one pair per chunk of ``_CHUNK`` base samples, in base order,
        also when the pair is empty.  The values are
        ``(points[sel] - center) / rho`` and ``weights[sel] / rho**n``.
        """
        W = self.base.weights
        scale = self.rho ** self.n
        for sel in self._rows(region):
            yield self.points_at(sel), W[sel] / scale

    def count(self, region=None):
        """Number of the view's samples in a region (all of them for None):
        the rows of ``chunks(region)``, counted without reading them."""
        return (int(np.count_nonzero(self._marks))
                if self._flags(region) == 1 else self._region[1])

    def mass(self, region=None):
        """The sum of the weights of ``chunks(region)``, read chunk by
        chunk (``pairwise_sum``)."""
        W, scale = self.base.weights, self.rho ** self.n
        return pairwise_sum((W[sel] / scale for sel in self._rows(region)),
                            self.count(region))

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
        """View coordinates of the base samples ``idx``:
        ``(base.points_at(idx) - center) / rho``."""
        return (self.base.points_at(idx) - self.center) / self.rho

    @property
    def has_frames(self):
        return self.base.has_frames

    def frames(self, idx):
        """Tangent frames of the base samples ``idx`` (``base.frames``)."""
        return self.base.frames(idx)


def as_view(V):
    """V when it is a view; a plain cloud as its identity view (0, 1)."""
    return V if isinstance(V, SimilarityView) else SimilarityView(V)


# floats of work per cell of a surface in R^4 (n = k = 2): its n x k
# gradient and the n x n Gram matrix of its area factor
_SURFACE_CELL = 8


def _cells_per_chunk(n, k):
    """Admissible cells per chunk of ``sample_graph``.

    The n x k gradients and the n x n Gram matrices of the area factors
    grow with n and k, so a chunk holds ``_CHUNK`` cells of a surface in
    R^4 and proportionally fewer cells with more floats: 2,340 cells of a
    4-d graph in R^7 (n=4, k=3).  The rule holds without tangents too.
    """
    work = n * (n + k)  # floats of one cell's gradient and Gram matrix
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


# relative slack of the midpoint pre-filter, far above the rounding of a
# norm, so that the pre-filter keeps every cell of a sample with |X| <= r
_PREFILTER_SLACK = 1e-9


def _candidate_blocks(f, mids, window, span, chunk, reach):
    """The cells to sample once the slab ``span`` is in the window.

    These are the cells whose highest node, the upper neighbour of the
    lower corner along axis 0, lies in the slab: lower corners in
    [span.start - stride[0], span.stop - stride[0]).  Yields, in blocks of
    at most ``chunk``, the flat lattice indices, in C order, of the
    admissible cells (lower corner and its n upper neighbours, the nodes
    the forward differences read, inside the ball) whose midpoint lies
    within ``reach``.
    """
    s0 = window.strides[0]
    at = np.arange(max(span.start - s0, 0), span.stop - s0)
    index = np.unravel_index(at, f.dims)
    ok = np.ones(len(at), dtype=bool)
    for i, m in zip(index, f.dims):
        ok &= i < m - 1
    at, index = at[ok], [i[ok] for i in index]
    mask = f.mask.reshape(-1)
    ok = mask[at]
    for s in window.strides:
        ok &= mask[at + s]
    if reach < np.inf:
        ok &= sum(np.square(mid[i])
                  for mid, i in zip(mids, index)) <= reach * reach
    at = at[ok]
    for s in range(0, len(at), chunk):
        yield at[s:s + chunk]


def _cell_values(f, window, at, lipschitz=None):
    """Corner values and gradients of the cells ``at``, from the window.

    Returns (sep_ok, by_sheet): per sheet the corner value p (c, k) and
    the forward-difference gradient g (c, n, k) under the ``crossed``
    matching along each axis and, given ``lipschitz``, the flags of the
    cells whose corner and upper neighbours all have a ``trusted``
    separation (else None).
    """
    n, k, h = f.n, f.k, f.h
    p1, p2 = window.values(at)
    sep_ok = (None if lipschitz is None else
              trusted(np.linalg.norm(p1 - p2, axis=-1), lipschitz, h))
    g1 = np.empty((len(at), n, k))
    g2 = np.empty_like(g1)
    for ax, stride in enumerate(window.strides):
        b1, b2 = window.values(at + stride)
        swap = crossed(p1, p2, b1, b2)[:, None]
        g1[:, ax] = (np.where(swap, b2, b1) - p1) / h
        g2[:, ax] = (np.where(swap, b1, b2) - p2) / h
        if sep_ok is not None:
            sep_ok &= trusted(np.linalg.norm(b1 - b2, axis=-1), lipschitz, h)
    return sep_ok, ((p1, g1), (p2, g2))


def _graph_values(p, g, h):
    """Graph values at the cell midpoints, from corner values p (c, k) and
    forward-difference gradients g (c, n, k)."""
    return p + 0.5 * h * g.sum(axis=1)


def _in_ball(f, mids, window, at, radius):
    """Flags (2, len(at)) of the samples of the cells ``at``, one row per
    sheet, whose graph point lies in the closed ball |X| <= radius."""
    keep = np.empty((2, len(at)), dtype=bool)
    for j, (p, g) in enumerate(_cell_values(f, window, at)[1]):
        X = GraphPoints(mids, f.dims, at, _graph_values(p, g, f.h))[:]
        keep[j] = np.linalg.norm(X, axis=-1) <= radius
    return keep


def sample_graph(f, with_tangents=True, base_radius=np.inf):
    """Discretize a two-valued graph as a SampledVarifold.

    One sample per grid cell per sheet, placed at the cell-midpoint graph
    point reconstructed from forward-difference gradients (exact for linear
    sheets).  Per-cell gradients use the pairing of neighboring values that
    minimizes the pair metric (``twovalued.crossed``); cells with a node
    whose two values are not ``trusted``, at most 2 L h apart (pairing
    ambiguous), get tangent_ok = False.

    The cloud stores its coordinates by cell (``GraphPoints``): a
    sample's k graph values and the flat lattice index of its cell's
    lower corner, not its midpoint.  The whole cloud lists the m
    admissible cells (lower corner and its n upper neighbours, the nodes
    the forward differences read, inside the ball) in C order; sample
    i < m is sheet 0 of cell i and sample m + i is sheet 1, which share
    its corner and tangent_ok flag (26.5 bytes a sample of a surface in
    R^4 without tangents, 29 in a cut cloud).  A finite ``base_radius``
    keeps the samples whose graph point X in R^(n+k) lies in the closed
    ball |X| <= base_radius: the cloud is, row for row and bit for bit,
    the rows of the whole cloud with |X| <= base_radius, in the same
    order (the kept sheet-0 samples, then the kept sheet-1 samples).
    Since a sample's first n coordinates are its cell midpoint, |X| >=
    |midpoint|, and only the cells whose midpoint lies in the base ball
    are evaluated.  A ``TwoValuedGrid.box`` that covers the base ball by
    a cell gives the whole grid's samples; the Lipschitz estimate behind
    tangent_ok is taken over the nodes of ``f``, so on a box it can only
    be lower and tangent_ok gain samples.

    The grid is read in two walks over its slabs, each through a
    ``twovalued.SlabWindow``, and a cell is handled as soon as its highest
    node is in the window, in blocks of cells whose size falls as n and k
    grow (``_cells_per_chunk``), so a block's work stays about the same
    size in every dimension.  The first walk is the Lipschitz pass: it
    keeps the cells to sample, with a finite radius only those with a
    sample in the base ball and their keep flags, and marks the slabs
    that hold a node of a kept cell.  The output arrays are then allocated
    once at their final size, and the second walk reads the marked slabs
    again and fills them from the kept cells.  So each slab is evaluated
    at most twice, and beyond the cloud the call holds the window, one
    slab's evaluation, one block's work and the kept cells (4 bytes each
    below 2^31 nodes, ``twovalued.index_dtype``, and 2 bytes of flags with
    a finite radius); a closed-form grid is never held whole.  The samples
    of a block are evaluated as ``geometry.by_rows`` does it, so a lone
    one gets the value it has in a batch.
    With tangents, the cloud stores each sample's (n, k) gradient, the
    forward differences of its sheet along the n axes (12 floats a
    sample in 4-d, where a frame takes 28), and no frame:
    ``SampledVarifold.frames`` orthonormalizes only the rows it is asked
    for, by batched QR, and returns them as the (m', n, n+k) transpose of
    the QR output's (m', n+k, n) array, the stride layout whose order the
    einsum contractions over frames follow.
    """
    n, k, h = f.n, f.k, f.h
    mids = [ax + 0.5 * h for ax in f.axes]
    chunk = _cells_per_chunk(n, k)
    reach = base_radius * (1.0 + _PREFILTER_SLACK)
    finite = base_radius < np.inf
    index = index_dtype(math.prod(f.dims))
    counts = np.zeros(2, dtype=np.int64)
    needed = None
    kept = {}

    def first_walk(window, span):
        # keep the cells sampled at this slab and, with a finite radius,
        # only those with a sample in the base ball and their flags;
        # count their samples and mark the slabs that hold their nodes
        nonlocal needed
        if needed is None:
            needed = np.zeros(len(window.spans), dtype=bool)
        cells, flags = [], []
        for at in _candidate_blocks(f, mids, window, span, chunk, reach):
            if finite:
                keep = _in_ball(f, mids, window, at, base_radius)
                some = keep.any(axis=0)
                at = at[some]
                flags.append(keep[:, some])
            cells.append(at)
            for off in [0] + window.strides:
                needed[window.slab_of(at + off)] = True
            counts[:] += flags[-1].sum(axis=1) if finite else len(at)
        if cells:
            kept[span.start] = (np.concatenate(cells, dtype=index),
                                np.concatenate(flags, axis=1)
                                if finite else None)

    lipschitz = lipschitz_estimate(f, visit=first_walk)
    counts = counts.tolist() if finite else [int(counts[0])] * 2
    total = sum(counts)
    cells = total if finite else counts[0]  # corners and flags
    corners = np.empty(cells, dtype=index)
    values = np.empty((total, k))
    weights = np.empty(total)
    tangent_ok = np.empty(cells, dtype=bool)
    gradients = np.empty((total, n, k)) if with_tangents else None
    row = [0, counts[0]]
    window = SlabWindow(f)
    for span, need in zip(window.spans, needed):
        if not need:
            continue
        window.load(span)
        cells, flags = kept.pop(span.start, ((), None))
        for s in range(0, len(cells), chunk):
            at = cells[s:s + chunk]
            sep_ok, by_sheet = _cell_values(f, window, at, lipschitz)
            for j, (p, g) in enumerate(by_sheet):
                at_j, ok = at, sep_ok
                if flags is not None:
                    sel = flags[j, s:s + chunk]
                    at_j, ok, p, g = at[sel], sep_ok[sel], p[sel], g[sel]
                rows = slice(row[j], row[j] + len(p))
                row[j] = rows.stop
                if finite or j == 0:
                    corners[rows], tangent_ok[rows] = at_j, ok
                values[rows] = _graph_values(p, g, h)
                weights[rows] = h ** n * by_rows(_area_factors, g)
                if with_tangents:
                    gradients[rows] = g
    return SampledVarifold(
        n, k, GraphPoints(mids, f.dims, corners, values, counts[0]),
        weights, None, tangent_ok, resolution=h,
        patch_radius=h * np.sqrt(n), gradients=gradients)


def density_ratio(V, X, rho):
    """Mass of B_rho(X) divided by the n-volume of the flat n-ball.

    rho must be positive and finite and exceed three sample spacings
    when the resolution is known, and X must be a finite point of
    R^(n+k).  A sample is in the ball when its squared distance
    (``_squared_distances``) is at most rho * rho; the cloud is read in
    one pass of ``blocks``, with no index, and the weights in the ball
    are summed in ascending sample order.
    """
    check_radius(rho, "rho")
    if V.resolution is not None and rho < 3 * V.resolution:
        raise ValueError("rho %g below the resolution floor %g"
                         % (rho, 3 * V.resolution))
    X = np.asarray(X, dtype=float)
    if X.shape != (V.n + V.k,) or not np.all(np.isfinite(X)):
        raise ValueError("the centre must be a finite point of R^%d"
                         % (V.n + V.k))
    r2 = float(rho) * rho
    inside = np.empty(len(V.weights), dtype=bool)
    for rows in blocks(len(inside)):
        inside[rows] = _squared_distances(V.points_at(rows), X) <= r2
    m = float(V.weights[inside].sum())
    return m / (unit_ball_volume(V.n) * rho ** V.n)


def density_profile(V, X, rho):
    """Ball-count density ratios at the four dyadic radii rho / 2^j.

    Returns (radii, ratios), two lists in order of decreasing radius; the
    radii rho / 2^j below three sample spacings are left out.
    """
    check_radius(rho, "rho")
    radii = [rho / 2 ** j for j in range(4)]
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
    if not V.has_frames:
        raise ValueError("axis tilt requires per-sample tangents")
    if A.dim == 0:
        return 0.0
    keep = V.in_region(R)
    T = V.frames(keep)
    w = V.weights[keep]
    coeff = np.einsum("mnd,jd->mnj", T, A.basis)
    a2 = A.dim - np.einsum("mnj,mnj->m", coeff, coeff)
    return float(np.sum(w * np.maximum(a2, 0.0)))
