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


def pairing_costs(a1, a2, b1, b2):
    """Summed distances of the straight and the crossed pairing.

    All inputs have shape (..., k).  Returns (straight, crossed) over the
    leading axes: |a1-b1| + |a2-b2| and |a1-b2| + |a2-b1|.  The straight
    pairing is kept unless the crossed one is strictly closer.
    """
    straight = _distances(a1, b1) + _distances(a2, b2)
    crossed = _distances(a1, b2) + _distances(a2, b1)
    return straight, crossed


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
    return np.minimum(*pairing_costs(a1, a2, b1, b2))


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


# nodes per slab when a grid is built or scanned slab by slab along axis 0.
# At this size a 2-d slab's temporaries (about 100 bytes per node) stay
# under glibc's heap trim threshold, so the next slab reuses them; at
# 1 << 16 they went back to the OS after each slab, and a decompose call
# at h=1/128 took 6,000 page faults instead of 2,900.
_SLAB_NODES = 1 << 14


def _slabs(dims):
    """Slices of axis 0 that cover a grid in slabs of about _SLAB_NODES nodes.

    A slab holds at least one row (one index along axis 0).
    """
    rows = max(1, _SLAB_NODES // int(np.prod(dims[1:])))
    return [slice(s, min(s + rows, dims[0])) for s in range(0, dims[0], rows)]


def _lattice_points(axes, rows):
    """Coordinates of the lattice nodes in the slice ``rows`` of axis 0.

    For r rows, returns an array of shape (r,) + the other axes' lengths +
    (n,).
    """
    mesh = np.meshgrid(axes[0][rows], *axes[1:], indexing="ij", copy=False)
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
    slab at a time and never fill them.  No node coordinates are stored:
    ``node_coords`` gathers them from ``axes``, and ``coords`` builds the
    full dims + (n,) array on each access.
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
        for rows in _slabs(self.dims):
            pts = _lattice_points(self.axes, rows)
            self.mask[rows] = np.linalg.norm(pts, axis=-1) <= radius + 1e-12

    @classmethod
    def from_function(cls, fn, n, k, radius, h):
        """Grid of a vectorized two-valued map ``fn(points) -> (v1, v2)``.

        ``fn`` takes an (m, n) array of points and returns two (m, k)
        arrays.  It is called on the nodes of one ``_slabs`` slab at a
        time, and only when values are read, so a node's value does not
        depend on which scan asked for it.
        """
        m = int(round(2 * radius / h)) + 1
        grid = cls.__new__(cls)
        grid._set_lattice(n, k, radius, h, (m,) * n)
        grid._fn = fn
        return grid

    def _slab(self, rows):
        """(a1, a2) of the slab ``rows`` of axis 0, one of ``_slabs(dims)``.

        A stored or filled grid returns views of its arrays; a function
        grid evaluates ``fn`` on the slab's nodes.  Both have shape
        (rows,) + dims[1:] + (k,).
        """
        if self._fn is None or "_values" in self.__dict__:
            return self._values[0][rows], self._values[1][rows]
        v1 = np.empty((rows.stop - rows.start,) + self.dims[1:] + (self.k,))
        v2 = np.empty_like(v1)
        self._evaluate(rows, v1.reshape(-1, self.k), v2.reshape(-1, self.k))
        return v1, v2

    def _evaluate(self, rows, v1, v2):
        # fn on the nodes of the slab rows, into the (nodes, k) arrays v1
        # and v2, each pair ordered
        pts = _lattice_points(self.axes, rows).reshape(-1, self.n)
        v1[...], v2[...] = self._fn(pts)
        _order_pairs(v1, v2)

    def _node_values(self, nodes):
        """(a1, a2) of the nodes with sorted flat indices ``nodes``.

        Returns two (len(nodes), k) arrays.  Reads the slabs that hold one
        of the nodes, each once, and no other.
        """
        row = int(np.prod(self.dims[1:]))
        slabs = _slabs(self.dims)
        bounds = np.searchsorted(nodes, [r.start * row for r in slabs]
                                 + [self.dims[0] * row])
        v1 = np.empty((len(nodes), self.k))
        v2 = np.empty_like(v1)
        for rows, lo, hi in zip(slabs, bounds[:-1], bounds[1:]):
            if lo < hi:
                at = nodes[lo:hi] - rows.start * row
                s1, s2 = self._slab(rows)
                v1[lo:hi] = s1.reshape(-1, self.k)[at]
                v2[lo:hi] = s2.reshape(-1, self.k)[at]
        return v1, v2

    @functools.cached_property
    def _values(self):
        # a function grid's arrays, filled slab by slab on first access
        row = int(np.prod(self.dims[1:]))
        a1 = np.empty((self.dims[0] * row, self.k))
        a2 = np.empty_like(a1)
        for rows in _slabs(self.dims):
            nodes = slice(rows.start * row, rows.stop * row)
            self._evaluate(rows, a1[nodes], a2[nodes])
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
        return _lattice_points(self.axes, slice(None))

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
    refinement for Lipschitz f.  The grid is read one slab at a time along
    axis 0, and the last row of a slab is kept for the axis-0 edges to the
    next, so each node is read once.  ValueError when a value inside the
    ball is not finite (a NaN would otherwise drop out of the maximum) or
    when two finite values are too far apart for the metric to be finite.
    """
    if f.node_count() < 2:
        raise ValueError("Lipschitz estimate needs at least two nodes")
    best = 0.0
    above = None
    for rows in _slabs(f.dims):
        mask = f.mask[rows]
        v1, v2 = f._slab(rows)
        finite = np.isfinite(v1).all(axis=-1) & np.isfinite(v2).all(axis=-1)
        if not finite[mask].all():
            raise ValueError("grid values are not finite")
        # (lower end, upper end) of every edge, each as (mask, a1, a2)
        edges = []
        if above is not None:
            edges.append((above, (mask[0], v1[0], v2[0])))
        for ax in range(f.n):
            lo, hi = lattice_edges(f.n, ax)
            edges.append(((mask[lo], v1[lo], v2[lo]),
                          (mask[hi], v1[hi], v2[hi])))
        for (m0, p1, p2), (m1, q1, q2) in edges:
            both = m0 & m1
            if both.any():
                g = metric_G_many(p1, p2, q1, q2)
                best = max(best, float(g[both].max()) / f.h)
        above = (mask[-1], v1[-1].copy(), v2[-1].copy())
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
