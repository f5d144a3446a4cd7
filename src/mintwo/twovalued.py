"""Two-valued functions on grids and the metric on unordered pairs.

A two-valued function takes values in unordered pairs of points of R^k.  The
natural metric is the minimum over the two pairings of the summed distances;
all moduli of continuity (Lipschitz, Holder) are measured in that metric.
"""

import functools
import json

import numpy as np

from .geometry import require_keys, require_types


def _distances(a, b):
    """|a - b| over the last axis, equal bit for bit to np.linalg.norm.

    Squares the difference in place, which saves the copy that norm makes
    of a real array (through ``conj``) before it squares it.
    """
    d = a - b
    d *= d
    return np.sqrt(np.add.reduce(d, axis=-1))


def _pairing_costs(a1, a2, b1, b2):
    """Summed distances of the straight and the crossed pairing.

    All inputs have shape (..., k).  Returns (straight, crossed) over the
    leading axes: |a1-b1| + |a2-b2| and |a1-b2| + |a2-b1|.
    """
    straight = _distances(a1, b1) + _distances(a2, b2)
    crossed = _distances(a1, b2) + _distances(a2, b1)
    return straight, crossed


def crossed(a1, a2, b1, b2):
    """Where the pair (b1, b2) matches (a1, a2) crossed: a1-b2, a2-b1.

    All inputs have shape (..., k); returns a bool mask over the leading
    axes, True where the crossed pairing is strictly cheaper than the
    straight one, so a tie keeps the straight pairing a1-b1, a2-b2.  This
    is the one matching rule of neighbouring values; ``trusted`` says
    where it is unambiguous.
    """
    straight, cross = _pairing_costs(a1, a2, b1, b2)
    return cross < straight


def trusted(sep, lipschitz, h):
    """Where a separation |a1 - a2| makes the matching unambiguous.

    Values of an L-Lipschitz two-valued function at nodes h apart move by
    at most L h each, so ``crossed`` follows the sheets wherever the two
    values are more than 2 L h apart.  Returns sep > 2 L h, elementwise: a
    separation at the floor itself is not trusted.
    """
    return sep > 2.0 * lipschitz * h


def metric_G(a, b):
    """Distance between two unordered pairs of R^k points.

    ``a`` and ``b`` are (2, k) arrays (or pairs of scalars for k = 1).
    Returns min over the two pairings of |a1-b1| + |a2-b2|.
    """
    a = np.asarray(a, dtype=float).reshape(2, -1)
    b = np.asarray(b, dtype=float).reshape(2, -1)
    return float(metric_G_many(a[0], a[1], b[0], b[1]))


def metric_G_many(a1, a2, b1, b2):
    """Vectorized pair metric over leading axes.

    All inputs have shape (..., k); the metric is evaluated elementwise over
    the leading axes.
    """
    return np.minimum(*_pairing_costs(a1, a2, b1, b2))


def lattice_edges(ndim, ax, others=slice(None)):
    """Slices of the lower and upper ends of the lattice edges along ``ax``.

    Indexing a grid array with the pair gives, elementwise, the two end
    nodes of every edge along axis ``ax``.  The other axes take ``others``:
    every node by default, or ``slice(None, -1)`` for cell corners.
    """
    lo = [others] * ndim
    hi = [others] * ndim
    lo[ax] = slice(None, -1)
    hi[ax] = slice(1, None)
    return tuple(lo), tuple(hi)


def canonical_pair(a1, a2):
    """Order the two values of each pair lexicographically.

    Makes equality and serialization deterministic without affecting the
    unordered-pair semantics.
    """
    out1 = np.array(a1, dtype=float, order="C")
    out2 = np.array(a2, dtype=float, order="C")
    _order_pairs(out1.reshape(-1, out1.shape[-1]),
                 out2.reshape(-1, out2.shape[-1]))
    return out1, out2


def _order_pairs(a1, a2):
    """``canonical_pair`` in place on two (m, k) arrays."""
    undecided = np.ones(a1.shape[0], dtype=bool)
    for j in range(a1.shape[1]):
        swap = undecided & (a1[:, j] > a2[:, j])
        undecided &= a1[:, j] == a2[:, j]
        a1[swap], a2[swap] = a2[swap], a1[swap]


# nodes per slab when a grid is built or scanned slab by slab.  At this
# size a 2-d slab's temporaries (about 100 bytes per node) stay under
# glibc's heap trim threshold, so the next slab reuses them; at 1 << 16
# they went back to the OS after each slab, and a decompose call at
# h=1/128 took 6,000 page faults instead of 2,900.  A grid whose rows hold
# more nodes (a 4-d row at h=1/16 holds 35,937) is cut into boxes of this
# size below one row (``_slabs``).
_SLAB_NODES = 1 << 14


def _slabs(dims):
    """Boxes of about _SLAB_NODES nodes that cover a grid, in C order.

    Yields the boxes one at a time.  A box is a tuple of slices of the
    leading axes, every later axis whole, so indexing a dims-shaped array
    with it gives a block of the grid whose nodes are one range of flat
    indices (``_flat_span``).  While a row (one index along axis 0) fits
    the budget, the boxes are slabs of whole rows along axis 0.
    Otherwise the first axis whose blocks (the later axes whole) fit is
    cut into runs of blocks, and every earlier axis is taken one index at
    a time.  The last axis is never cut, so a box holds at least one line
    along it (a 1-d grid is one box), never a lone node of a grid of more,
    and at most max(_SLAB_NODES, one such line) nodes.
    """
    n = len(dims)
    ax = next((a for a in range(n - 1)
               if np.prod(dims[a + 1:]) <= _SLAB_NODES), max(n - 2, 0))
    step = (max(1, _SLAB_NODES // int(np.prod(dims[ax + 1:]))) if n > 1
            else dims[0])
    runs = [slice(s, min(s + step, dims[ax]))
            for s in range(0, dims[ax], step)]
    for lead in np.ndindex(*dims[:ax]):
        for run in runs:
            yield tuple(slice(i, i + 1) for i in lead) + (run,)


def _flat_span(dims, box):
    """The flat (C order) indices of the nodes of ``box``, as a slice."""
    start = sum(s.start * int(np.prod(dims[a + 1:]))
                for a, s in enumerate(box))
    size = int(np.prod([s.stop - s.start for s in box] + list(
        dims[len(box):])))
    return slice(start, start + size)


def _lattice_points(axes, box=()):
    """Coordinates of the lattice nodes in ``box``, one of ``_slabs``.

    Returns an array of the box's shape + (n,); the empty box stands for
    the whole lattice.
    """
    parts = [ax[s] for ax, s in zip(axes, box)] + list(axes[len(box):])
    mesh = np.meshgrid(*parts, indexing="ij", copy=False)
    return np.stack(mesh, axis=-1)


class TwoValuedGrid:
    """A two-valued function sampled on a regular lattice over a ball.

    The lattice covers [-radius, radius]^n with spacing ``h``; ``axes``
    holds the n coordinate axes, and ``mask`` marks the nodes inside the
    closed ball B_radius(0).  Values are two arrays ``a1``, ``a2`` of shape
    dims + (k,), canonically ordered per node.  A grid of a closed-form
    function (``from_function``) stores only the function: ``a1`` and
    ``a2`` are filled on first access, and the scans that read the grid
    slab by slab (``lipschitz_estimate``, ``sample_graph``) evaluate one
    slab at a time and never fill them.  A slab is a box of about
    ``_SLAB_NODES`` nodes: whole rows along axis 0 while a row fits, and a
    piece of one row when rows hold more nodes, as in 4-d (``_slabs``).
    No node coordinates are stored: ``node_coords`` gathers them from
    ``axes``, and ``coords`` builds the full dims + (n,) array on each
    access.
    """

    def __init__(self, n, k, radius, h, a1, a2, canonicalize=True):
        a1 = np.asarray(a1, dtype=float)
        a2 = np.asarray(a2, dtype=float)
        if a1.shape != a2.shape or a1.shape[-1] != k or a1.ndim != n + 1:
            raise ValueError("value arrays must have shape dims + (k,)")
        if canonicalize:
            a1, a2 = canonical_pair(a1, a2)
        self._set_lattice(n, k, radius, h, a1.shape[:-1])
        self._fn = None
        self._values = (a1, a2)

    def _set_lattice(self, n, k, radius, h, dims):
        self.n = int(n)
        self.k = int(k)
        self.radius = float(radius)
        self.h = float(h)
        self.dims = tuple(dims)
        self.axes = [(-radius + h * np.arange(m)) for m in self.dims]
        self.mask = np.empty(self.dims, dtype=bool)
        for box in _slabs(self.dims):
            pts = _lattice_points(self.axes, box)
            self.mask[box] = np.linalg.norm(pts, axis=-1) <= radius + 1e-12

    @classmethod
    def from_function(cls, fn, n, k, radius, h):
        """Grid of a vectorized two-valued map ``fn(points) -> (v1, v2)``.

        ``fn`` takes an (m, n) array of points and returns two (m, k)
        arrays.  It is called on the nodes of one ``_slabs`` box at a
        time, and only when values are read, so a node's value does not
        depend on which scan asked for it; a box is never a lone node (a
        one-row product, which numpy sums in another order, see
        ``geometry.by_rows``) unless the grid is one.
        """
        m = int(round(2 * radius / h)) + 1
        grid = cls.__new__(cls)
        grid._set_lattice(n, k, radius, h, (m,) * n)
        grid._fn = fn
        return grid

    def _slab(self, box):
        """(a1, a2) of the slab ``box``, one of ``_slabs(dims)``.

        A stored or filled grid returns views of its arrays; a function
        grid evaluates ``fn`` on the box's nodes.  Both have the box's
        shape + (k,).
        """
        if self._fn is None or "_values" in self.__dict__:
            return self._values[0][box], self._values[1][box]
        v1 = np.empty(self.mask[box].shape + (self.k,))
        v2 = np.empty_like(v1)
        self._evaluate(box, v1.reshape(-1, self.k), v2.reshape(-1, self.k))
        return v1, v2

    def _evaluate(self, box, v1, v2):
        # fn on the nodes of the slab box, into the (nodes, k) arrays v1
        # and v2, each pair ordered
        pts = _lattice_points(self.axes, box).reshape(-1, self.n)
        v1[...], v2[...] = self._fn(pts)
        _order_pairs(v1, v2)

    def _node_values(self, nodes):
        """(a1, a2) of the nodes with sorted flat indices ``nodes``.

        Returns two (len(nodes), k) arrays.  Reads the slabs that hold one
        of the nodes, each once, and no other.
        """
        v1 = np.empty((len(nodes), self.k))
        v2 = np.empty_like(v1)
        for box in _slabs(self.dims):
            span = _flat_span(self.dims, box)
            lo, hi = np.searchsorted(nodes, [span.start, span.stop])
            if lo < hi:
                at = nodes[lo:hi] - span.start
                s1, s2 = self._slab(box)
                v1[lo:hi] = s1.reshape(-1, self.k)[at]
                v2[lo:hi] = s2.reshape(-1, self.k)[at]
        return v1, v2

    @functools.cached_property
    def _values(self):
        # a function grid's arrays, filled slab by slab on first access
        a1 = np.empty((self.mask.size, self.k))
        a2 = np.empty_like(a1)
        for box in _slabs(self.dims):
            span = _flat_span(self.dims, box)
            self._evaluate(box, a1[span], a2[span])
        shape = self.dims + (self.k,)
        return a1.reshape(shape), a2.reshape(shape)

    @property
    def a1(self):
        return self._values[0]

    @property
    def a2(self):
        return self._values[1]

    @property
    def coords(self):
        """Coordinates of every node, shape dims + (n,); built per access."""
        return _lattice_points(self.axes)

    def node_coords(self, index):
        """Coordinates of the nodes at ``index``, a tuple of n index arrays.

        Returns an array of the index arrays' shape + (n,).
        """
        return np.stack([ax[i] for ax, i in zip(self.axes, index)], axis=-1)

    def node_count(self):
        return int(self.mask.sum())

    def inside_indices(self):
        """Multi-indices of nodes inside the ball, as an (m, n) int array."""
        return np.argwhere(self.mask)

    def separation(self):
        """Per-node distance |a1 - a2| between the two values."""
        return np.linalg.norm(self.a1 - self.a2, axis=-1)

    # -- serialization -----------------------------------------------------

    def to_json(self):
        nodes = []
        for idx in self.inside_indices():
            t = tuple(idx)
            nodes.append({"index": [int(i) for i in idx],
                          "a1": self.a1[t].tolist(),
                          "a2": self.a2[t].tolist()})
        return json.dumps({"n": self.n, "k": self.k, "radius": self.radius,
                           "h": self.h, "nodes": nodes}, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        """Grid of a ``to_json`` text; ValueError names a missing key, an
        ``n`` or ``k`` that is not a positive integer, a ``radius`` or
        ``h`` that is not a number, a spacing h <= 0 or a node index
        outside the lattice (which numpy would wrap)."""
        d = require_keys(json.loads(text),
                         ("n", "k", "radius", "h", "nodes"), "grid JSON")
        require_types(d, "grid JSON", counts=("n", "k"),
                      reals=("radius", "h"))
        if not d["h"] > 0:
            raise ValueError("grid JSON h must be positive, got %r" % d["h"])
        m = int(round(2 * d["radius"] / d["h"])) + 1
        shape = (m,) * d["n"] + (d["k"],)
        a1 = np.zeros(shape)
        a2 = np.zeros(shape)
        for node in d["nodes"]:
            require_keys(node, ("index", "a1", "a2"), "grid JSON node")
            t = tuple(node["index"])
            if len(t) != d["n"] or not all(
                    isinstance(i, int) and 0 <= i < m for i in t):
                raise ValueError("grid JSON node index %s is outside the "
                                 "lattice [0, %d)^%d"
                                 % (node["index"], m, d["n"]))
            a1[t] = node["a1"]
            a2[t] = node["a2"]
        return cls(d["n"], d["k"], d["radius"], d["h"], a1, a2,
                   canonicalize=False)


class SingleValuedGrid:
    """A single-valued R^k map sampled on a regular box lattice.

    ``origin`` is the coordinate of the lattice corner; the box need not be
    centered (used for local patches, e.g. around a test-function support).
    """

    def __init__(self, n, k, origin, h, values):
        self.n = int(n)
        self.k = int(k)
        self.origin = np.asarray(origin, dtype=float)
        self.h = float(h)
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != n + 1 or self.values.shape[-1] != k:
            raise ValueError("values must have shape dims + (k,)")
        self.dims = self.values.shape[:-1]

    @classmethod
    def from_function(cls, fn, n, k, origin, h, dims):
        axes = [origin[i] + h * np.arange(dims[i]) for i in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack(mesh, axis=-1).reshape(-1, n)
        vals = fn(pts).reshape(tuple(dims) + (k,))
        return cls(n, k, origin, h, vals)

    def node_points(self):
        axes = [self.origin[i] + self.h * np.arange(self.dims[i])
                for i in range(self.n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)


def lipschitz_estimate(f):
    """Lower estimate of the Lipschitz constant of a two-valued grid function.

    Maximum over lattice-adjacent node pairs (both inside the ball) of the
    pair metric divided by the node distance.  Converges from below under
    refinement for Lipschitz f.  The grid is read one ``_slabs`` box at a
    time, so each node is read once and the per-edge work holds one box.
    An edge between two boxes uses what the scan carries: the last plane
    of the previous box along the axis the boxes run along (the last row
    of a slab, when the boxes are slabs of rows) and, when rows are cut
    into boxes, the boxes of the previous row, one index lower along each
    axis taken one index at a time.  ValueError when a value inside the
    ball is not finite (a NaN would otherwise drop out of the maximum) or
    when two finite values are too far apart for the metric to be finite.
    """
    if f.node_count() < 2:
        raise ValueError("Lipschitz estimate needs at least two nodes")
    best = 0.0
    above = None
    below = {}
    for box in _slabs(f.dims):
        mask = f.mask[box]
        v1, v2 = f._slab(box)
        finite = np.isfinite(v1).all(axis=-1) & np.isfinite(v2).all(axis=-1)
        if not finite[mask].all():
            raise ValueError("grid values are not finite")
        # (lower end, upper end) of every edge, each as (mask, a1, a2)
        here = (mask, v1, v2)
        lead = tuple(s.start for s in box[:-1])
        run = box[-1].start
        edges = [(below[lead[:ax] + (i - 1,) + lead[ax + 1:], run], here)
                 for ax, i in enumerate(lead) if i > 0]
        first = (slice(None),) * len(lead) + (0,)
        last = (slice(None),) * len(lead) + (-1,)
        if run > 0:
            edges.append((above, tuple(a[first] for a in here)))
        for ax in range(f.n):
            lo, hi = lattice_edges(f.n, ax)
            edges.append((tuple(a[lo] for a in here),
                          tuple(a[hi] for a in here)))
        for (m0, p1, p2), (m1, q1, q2) in edges:
            both = m0 & m1
            if both.any():
                g = metric_G_many(p1, p2, q1, q2)
                best = max(best, float(g[both].max()) / f.h)
        above = (mask[last], v1[last].copy(), v2[last].copy())
        if lead:
            # this box is the last to read its neighbour in the previous row
            below.pop(((lead[0] - 1,) + lead[1:], run), None)
            below[lead, run] = here
    if not np.isfinite(best):
        raise ValueError("grid values overflow the pair metric")
    return best


# node pairs per block in holder_seminorm
_PAIR_BLOCK = 1 << 14


def holder_seminorm(f, alpha, max_pairs=4_000_000):
    """Holder seminorm estimate [f]_alpha over all grid node pairs.

    ``f`` typically holds derivative samples.  alpha must lie in (0, 1].
    For very large grids a strided node subset keeps the pair count below
    ``max_pairs`` (the sup over a subset is still a lower estimate).
    """
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0, 1]")
    idx = f.inside_indices()
    m = idx.shape[0]
    if m * m > max_pairs:
        stride = int(np.ceil(np.sqrt(m * m / max_pairs)))
        idx = idx[::stride]
        m = idx.shape[0]
    pts = f.node_coords(tuple(idx.T))
    v1 = f.a1[tuple(idx.T)]
    v2 = f.a2[tuple(idx.T)]
    best = 0.0
    rows = max(1, _PAIR_BLOCK // max(m, 1))
    for s in range(0, m - 1, rows):
        # rows i of the block against every later node j > s, pairs j > i
        i = np.arange(s, min(s + rows, m - 1))[:, None]
        j = np.arange(s + 1, m)[None, :]
        d = np.linalg.norm(pts[j] - pts[i], axis=-1)
        g = metric_G_many(v1[j], v2[j], v1[i], v2[i])
        later = j > i
        q = np.divide(g, d ** alpha, out=np.zeros_like(g), where=later)
        best = max(best, float(q.max()))
    return best
