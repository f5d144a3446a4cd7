"""Two-valued functions on grids and the metric on unordered pairs.

A two-valued function takes values in unordered pairs of points of R^k.  The
natural metric is the minimum over the two pairings of the summed distances;
all moduli of continuity (Lipschitz, Holder) are measured in that metric.
"""

import json

import numpy as np


def pairing_costs(a1, a2, b1, b2):
    """Summed distances of the straight and the crossed pairing.

    All inputs have shape (..., k).  Returns (straight, crossed) over the
    leading axes: |a1-b1| + |a2-b2| and |a1-b2| + |a2-b1|.  The straight
    pairing is kept unless the crossed one is strictly closer.
    """
    straight = (np.linalg.norm(a1 - b1, axis=-1)
                + np.linalg.norm(a2 - b2, axis=-1))
    crossed = (np.linalg.norm(a1 - b2, axis=-1)
               + np.linalg.norm(a2 - b1, axis=-1))
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
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    flat1 = a1.reshape(-1, a1.shape[-1])
    flat2 = a2.reshape(-1, a2.shape[-1])
    out1, out2 = flat1.copy(), flat2.copy()
    undecided = np.ones(flat1.shape[0], dtype=bool)
    for j in range(a1.shape[-1]):
        swap = undecided & (flat1[:, j] > flat2[:, j])
        undecided &= flat1[:, j] == flat2[:, j]
        out1[swap], out2[swap] = flat2[swap], flat1[swap]
    return out1.reshape(a1.shape), out2.reshape(a2.shape)


class Pair2:
    """An unordered pair of R^k vectors with canonical storage order."""

    def __init__(self, a1, a2):
        a1 = np.atleast_1d(np.asarray(a1, dtype=float))
        a2 = np.atleast_1d(np.asarray(a2, dtype=float))
        if a1.shape != a2.shape:
            raise ValueError("pair components must share a codimension")
        c1, c2 = canonical_pair(a1[None], a2[None])
        self.a1, self.a2 = c1[0], c2[0]

    @property
    def codim(self):
        return self.a1.shape[0]

    def values(self):
        return np.stack([self.a1, self.a2])

    def __eq__(self, other):
        return (isinstance(other, Pair2)
                and np.array_equal(self.a1, other.a1)
                and np.array_equal(self.a2, other.a2))

    def __hash__(self):
        return hash((self.a1.tobytes(), self.a2.tobytes()))

    def __repr__(self):
        return "Pair2(%s, %s)" % (self.a1.tolist(), self.a2.tolist())


class TwoValuedGrid:
    """A two-valued function sampled on a regular lattice over a ball.

    The lattice covers [-radius, radius]^n with spacing ``h``; ``mask`` marks
    the nodes inside the closed ball B_radius(0).  Values are stored as two
    arrays ``a1``, ``a2`` of shape dims + (k,), canonically ordered per node.
    """

    def __init__(self, n, k, radius, h, a1, a2, canonicalize=True):
        self.n = int(n)
        self.k = int(k)
        self.radius = float(radius)
        self.h = float(h)
        a1 = np.asarray(a1, dtype=float)
        a2 = np.asarray(a2, dtype=float)
        if a1.shape != a2.shape or a1.shape[-1] != self.k or a1.ndim != n + 1:
            raise ValueError("value arrays must have shape dims + (k,)")
        if canonicalize:
            a1, a2 = canonical_pair(a1, a2)
        self.a1, self.a2 = a1, a2
        self.dims = a1.shape[:-1]
        axes = [(-radius + h * np.arange(m)) for m in self.dims]
        self.axes = axes
        mesh = np.meshgrid(*axes, indexing="ij")
        self.coords = np.stack(mesh, axis=-1)
        self.mask = np.linalg.norm(self.coords, axis=-1) <= radius + 1e-12

    @classmethod
    def from_function(cls, fn, n, k, radius, h):
        """Sample a vectorized two-valued map ``fn(points) -> (v1, v2)``."""
        m = int(round(2 * radius / h)) + 1
        axes = [(-radius + h * np.arange(m)) for _ in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack(mesh, axis=-1).reshape(-1, n)
        v1, v2 = fn(pts)
        shape = tuple(len(a) for a in axes) + (k,)
        return cls(n, k, radius, h, v1.reshape(shape), v2.reshape(shape))

    def node_count(self):
        return int(self.mask.sum())

    def inside_indices(self):
        """Multi-indices of nodes inside the ball, as an (m, n) int array."""
        return np.argwhere(self.mask)

    def node_point(self, idx):
        return self.coords[tuple(idx)]

    def node_pair(self, idx):
        t = tuple(idx)
        return self.a1[t], self.a2[t]

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
        d = json.loads(text)
        m = int(round(2 * d["radius"] / d["h"])) + 1
        shape = (m,) * d["n"] + (d["k"],)
        a1 = np.zeros(shape)
        a2 = np.zeros(shape)
        for node in d["nodes"]:
            t = tuple(node["index"])
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
    refinement for Lipschitz f.
    """
    if f.node_count() < 2:
        raise ValueError("Lipschitz estimate needs at least two nodes")
    best = 0.0
    for ax in range(f.n):
        lo, hi = lattice_edges(f.n, ax)
        both = f.mask[lo] & f.mask[hi]
        if not both.any():
            continue
        g = metric_G_many(f.a1[lo], f.a2[lo], f.a1[hi], f.a2[hi])
        best = max(best, float(g[both].max()) / f.h)
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
    pts = f.coords[tuple(idx.T)]
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
