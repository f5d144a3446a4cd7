"""Two-valued functions on grids and the metric on unordered pairs.

A two-valued function takes values in unordered pairs of points of R^k.  The
natural metric is the minimum over the two pairings of the summed distances;
all moduli of continuity (Lipschitz, Holder) are measured in that metric.
"""

import functools
import json

import numpy as np

from .geometry import require_keys, require_types


def distances(a, b):
    """|a - b| over the last axis, equal bit for bit to np.linalg.norm.

    Squares the difference in place, which saves the copy that norm makes
    of a real array (through ``conj``) before it squares it.  Of a node's
    two values it is their separation, which ``trusted`` reads.
    """
    d = a - b
    d *= d
    return np.sqrt(np.add.reduce(d, axis=-1))


def _pairing_costs(a1, a2, b1, b2):
    """Summed distances of the straight and the crossed pairing.

    All inputs have shape (..., k).  Returns (straight, crossed) over the
    leading axes: |a1-b1| + |a2-b2| and |a1-b2| + |a2-b1|.
    """
    straight = distances(a1, b1) + distances(a2, b2)
    crossed = distances(a1, b2) + distances(a2, b1)
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


def index_dtype(count):
    """int32 when it holds every integer in [-1, count], else int64: the
    dtype of lattice node indices (sheet-label forests, graph-cloud
    cells)."""
    return np.int32 if count <= np.iinfo(np.int32).max else np.int64


def lattice_edges(ndim, ax):
    """Slices of the lower and upper ends of the lattice edges along ``ax``.

    Indexing a grid array with the pair gives, elementwise, the two end
    nodes of every edge along axis ``ax``; the other axes take every node.
    """
    lo = [slice(None)] * ndim
    hi = [slice(None)] * ndim
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


# nodes per slab when a grid is built or scanned slab by slab.
# ``varifold.sample_graph`` fills its cloud while it evaluates the slabs of
# a closed-form grid, so one slab's evaluation (node coordinates, both
# values and the fixture's temporaries: about 240 bytes a node for the 4-d
# ``lo_two_valued``) comes on top of the cloud; at 1 << 14 nodes that was
# 3.9 MB, half the cloud of that grid at h=1/8.  Slab temporaries also
# stay under glibc's heap trim threshold, so the next slab reuses them; at
# 1 << 16 they went back to the OS after each slab, and a decompose call
# at h=1/128 took 6,000 page faults instead of 2,900.  A slab holds whole
# lines along the last axis (``_slabs``), so it can be bigger than this
# when one line is.
_SLAB_NODES = 1 << 12


def _slabs(dims):
    """Slices of flat (C order) node indices that cover a grid, in order.

    Yields the slabs one at a time.  Each holds as many whole lines along
    the last axis as fit _SLAB_NODES, and at least one, so a slab is never
    a lone node of a grid of more and holds at most max(_SLAB_NODES, one
    line) nodes.  In 2-d a slab is a run of rows along axis 0; in more
    dimensions it may start or end inside a row.
    """
    line = dims[-1]
    total = int(np.prod(dims))
    step = line * max(1, _SLAB_NODES // line)
    for start in range(0, total, step):
        yield slice(start, min(start + step, total))


class TwoValuedGrid:
    """A two-valued function sampled on a regular lattice over a ball.

    The lattice covers [-radius, radius]^n with spacing ``h``; ``axes``
    holds the n coordinate axes, and ``mask``, built on first read, marks
    the nodes inside the closed ball B_radius(0).  Values are two arrays
    ``a1``, ``a2`` of shape dims + (k,), canonically ordered per node.  A
    grid of a closed-form function (``from_function``) stores only the
    function: ``a1`` and ``a2`` are filled on first access, and the scans
    that read the grid slab by slab (``lipschitz_estimate``,
    ``sample_graph``, ``decompose.propagate_labels``) evaluate one slab
    at a time and never fill them; ``box`` keeps the part of its lattice
    that a region reads.  A slab is a range of flat (C order) node
    indices that holds whole lines along the last axis, about
    ``_SLAB_NODES`` nodes (``_slabs``); it indexes the flat views
    ``mask.reshape(-1)`` and ``a1.reshape(-1, k)``.  No node coordinates
    are stored: ``node_coords`` gathers them from ``axes``, and
    ``coords`` builds the full dims + (n,) array on each access.
    """

    def __init__(self, n, k, radius, h, a1, a2, canonicalize=True):
        a1 = np.ascontiguousarray(a1, dtype=float)
        a2 = np.ascontiguousarray(a2, dtype=float)
        if a1.shape != a2.shape or a1.shape[-1] != k or a1.ndim != n + 1:
            raise ValueError("value arrays must have shape dims + (k,)")
        if canonicalize:
            a1, a2 = canonical_pair(a1, a2)
        self._set_lattice(n, k, radius, h, a1.shape[:-1])
        self._fn = None
        self._values = (a1, a2)

    def _set_lattice(self, n, k, radius, h, dims, first=(0,)):
        # the nodes first[a], first[a] + 1, ... of the lattice along axis a
        # (one entry of first serves every axis)
        self.n = int(n)
        self.k = int(k)
        self.radius = float(radius)
        self.h = float(h)
        self.dims = tuple(dims)
        self._first = tuple(int(i) for i in np.broadcast_to(first, (n,)))
        self.axes = [(-radius + h * np.arange(i, i + m))
                     for i, m in zip(self._first, self.dims)]

    @functools.cached_property
    def mask(self):
        # the nodes inside the closed ball, built slab by slab on first read
        mask = np.empty(self.dims, dtype=bool)
        flat = mask.reshape(-1)
        for span in _slabs(self.dims):
            pts = self._slab_points(span)
            flat[span] = np.linalg.norm(pts, axis=-1) <= self.radius + 1e-12
        return mask

    @classmethod
    def from_function(cls, fn, n, k, radius, h):
        """Grid of a vectorized two-valued map ``fn(points) -> (v1, v2)``.

        ``fn`` takes an (m, n) array of points and returns two (m, k)
        arrays.  It is called on the nodes of one ``_slabs`` slab at a
        time, in C order, and only when values are read, so a node's value
        does not depend on which scan asked for it; a slab is never a lone
        node (a one-row product, which numpy sums in another order, see
        ``geometry.by_rows``) unless the grid is one.
        """
        m = int(round(2 * radius / h)) + 1
        grid = cls.__new__(cls)
        grid._set_lattice(n, k, radius, h, (m,) * n)
        grid._fn = fn
        return grid

    def box(self, reach, center=0.0):
        """The part of this lattice whose nodes cover center +- reach.

        ``reach`` and ``center`` are numbers or one entry per axis.  Along
        axis a it keeps the nodes lo..hi, lo = floor((radius + center[a]
        - reach[a]) / h) and hi = ceil((radius + center[a] + reach[a]) /
        h) clipped to this lattice.  Its function, ball and node
        expression -radius + h * i are this grid's, so its nodes, mask and
        values equal this grid's bit for bit at any h.  A stored grid is
        its own box.
        """
        first = np.array(self._first)
        last = first + np.array(self.dims) - 1
        lo = np.floor((self.radius + center - reach) / self.h)
        hi = np.ceil((self.radius + center + reach) / self.h)
        lo = np.clip(np.broadcast_to(lo, (self.n,)), first, last).astype(int)
        hi = np.clip(np.broadcast_to(hi, (self.n,)), first, last).astype(int)
        if self._fn is None or ((lo == first).all() and (hi == last).all()):
            return self
        box = type(self).__new__(type(self))
        box._set_lattice(self.n, self.k, self.radius, self.h, hi - lo + 1, lo)
        box._fn = self._fn
        return box

    def _slab_points(self, span):
        """Coordinates of the nodes of the slab ``span``, shape (nodes, n)."""
        at = np.arange(span.start, span.stop)
        return self.node_coords(np.unravel_index(at, self.dims))

    def _slab(self, span):
        """(a1, a2) of the slab ``span``, one of ``_slabs(dims)``.

        A stored or filled grid returns views of its arrays; a function
        grid evaluates ``fn`` on the slab's nodes.  Both have shape
        (nodes, k).
        """
        if self._fn is None or "_values" in self.__dict__:
            return tuple(a.reshape(-1, self.k)[span] for a in self._values)
        v1 = np.empty((span.stop - span.start, self.k))
        v2 = np.empty_like(v1)
        self._evaluate(span, v1, v2)
        return v1, v2

    def _evaluate(self, span, v1, v2):
        # fn on the nodes of the slab span, into the (nodes, k) arrays v1
        # and v2, each pair ordered
        v1[...], v2[...] = self._fn(self._slab_points(span))
        _order_pairs(v1, v2)

    @functools.cached_property
    def _values(self):
        # a function grid's arrays, filled slab by slab on first access
        a1 = np.empty((int(np.prod(self.dims)), self.k))
        a2 = np.empty_like(a1)
        for span in _slabs(self.dims):
            self._evaluate(span, a1[span], a2[span])
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
        mesh = np.meshgrid(*self.axes, indexing="ij", copy=False)
        return np.stack(mesh, axis=-1)

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


class SlabWindow:
    """The values of the nodes of a grid read last, by flat node index.

    A grid is read one ``_slabs`` slab at a time, in order (``load``).
    The window keeps the values of the last stride[0] + max(_SLAB_NODES,
    dims[-1]) nodes, addressed by flat index modulo that length: one row
    along axis 0 and one slab.  Once a slab is loaded, every node of every
    lattice edge and every cell whose highest node (the upper neighbour of
    its lower corner along axis 0) lies in the slab is in the window,
    provided the slabs holding those nodes were loaded too; ``values``
    reads them.  ``spans`` lists the slabs in order, and ``slab_of`` names
    the slab of a node.
    """

    def __init__(self, f):
        self.grid = f
        self.strides = [int(np.prod(f.dims[ax + 1:])) for ax in range(f.n)]
        self.spans = list(_slabs(f.dims))
        self.size = self.strides[0] + max(_SLAB_NODES, f.dims[-1])
        self._v1 = np.empty((self.size, f.k))
        self._v2 = np.empty_like(self._v1)

    def load(self, span):
        """Read the slab ``span`` into the window; returns its (v1, v2)."""
        v1, v2 = self.grid._slab(span)
        # the slab's slots: the window's tail from its first one, then
        # the window's head when the slab wraps around
        a = span.start % self.size
        tail = min(len(v1), self.size - a)
        self._v1[a:a + tail], self._v2[a:a + tail] = v1[:tail], v2[:tail]
        head = len(v1) - tail
        self._v1[:head], self._v2[:head] = v1[tail:], v2[tail:]
        return v1, v2

    def values(self, nodes):
        """(a1, a2) of the flat node indices ``nodes``, each (len, k).

        ``take`` gathers rows several times faster than indexing.
        """
        at = nodes % self.size
        return self._v1.take(at, 0), self._v2.take(at, 0)

    def slab_of(self, nodes):
        """Index in ``spans`` of the slab holding each flat node index."""
        return nodes // self.spans[0].stop


def lipschitz_estimate(f, visit=None, edges=None):
    """Lower estimate of the Lipschitz constant of a two-valued grid function.

    Maximum over lattice-adjacent node pairs (both inside the ball) of the
    pair metric divided by the node distance.  Converges from below under
    refinement for Lipschitz f.  The grid is read one ``_slabs`` slab at a
    time through a ``SlabWindow``, so each node is read once; for each
    slab, one axis at a time, the lower end of every edge whose upper end
    is in the slab is read from the window.  ``visit(window, span)``,
    when given, is called after each slab is scanned, so that a caller
    can read the window in the same pass (``varifold.sample_graph``
    does).  ``edges(ax, lo, straight, cross)``, when given, is called for
    each slab and axis that has such edges with both ends in the ball:
    ``lo`` holds the flat indices of their lower ends, and ``straight``
    and ``cross`` the pairing costs (``crossed`` compares the same two)
    whose minimum is the pair metric (``decompose`` reads the matchings
    there).  ValueError when a value inside the ball is not finite (a NaN
    would otherwise drop out of the maximum) or when two finite values are
    too far apart for the metric to be finite.
    """
    if f.node_count() < 2:
        raise ValueError("Lipschitz estimate needs at least two nodes")
    window = SlabWindow(f)
    mask = f.mask.reshape(-1)
    best = 0.0
    for span in window.spans:
        m = mask[span]
        v1, v2 = window.load(span)
        finite = np.isfinite(v1).all(axis=-1) & np.isfinite(v2).all(axis=-1)
        if not finite[m].all():
            raise ValueError("grid values are not finite")
        at = np.arange(span.start, span.stop)
        # the edges along one axis at a time whose upper end is a node of
        # the slab inside the ball, and whose lower end is inside too
        for ax, (index, stride) in enumerate(
                zip(np.unravel_index(at, f.dims), window.strides)):
            hi = np.flatnonzero(m & (index > 0))
            lo = at[hi] - stride
            both = mask[lo]
            hi, lo = hi[both], lo[both]
            if len(hi):
                straight, cross = _pairing_costs(
                    *window.values(lo), v1.take(hi, 0), v2.take(hi, 0))
                g = np.minimum(straight, cross)
                best = max(best, float(g.max()) / f.h)
                if edges is not None:
                    edges(ax, lo, straight, cross)
        del v1, v2, at, hi, lo  # freed before fn fills the next
        if visit is not None:
            visit(window, span)
    if not np.isfinite(best):
        raise ValueError("grid values overflow the pair metric")
    return best


# node pairs per block in holder_seminorm, and the most node pairs it reads
_PAIR_BLOCK = 1 << 14
_MAX_PAIRS = 4_000_000


def holder_seminorm(f, alpha):
    """Holder seminorm estimate [f]_alpha over all grid node pairs.

    ``f`` typically holds derivative samples.  alpha must lie in (0, 1].
    For very large grids a strided node subset keeps the pair count below
    ``_MAX_PAIRS`` (the sup over a subset is still a lower estimate).
    """
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0, 1]")
    idx = f.inside_indices()
    m = idx.shape[0]
    if m * m > _MAX_PAIRS:
        stride = int(np.ceil(np.sqrt(m * m / _MAX_PAIRS)))
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
