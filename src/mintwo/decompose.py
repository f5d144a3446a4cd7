"""Sheet decomposition of two-valued grids and branch detection by monodromy.

Each lattice edge matches the two values of its end nodes by ``crossed``;
the matching is provably unambiguous wherever the separation is ``trusted``
(more than twice the Lipschitz constant times the spacing), so the other
nodes are excluded.  Sheet labels are the composed matchings along a
breadth-first spanning tree of each component.  A loop whose composed
matchings swap the sheets certifies a branch point in the region it
encloses.
"""

import numpy as np

from .twovalued import (crossed, distances, index_dtype, lattice_edges,
                        lipschitz_estimate, trusted)

# (conflict, double node) pairs per block of _responsible_clusters
_PAIR_BLOCK = 1 << 14


class SheetLabelling:
    """Result of label propagation.

    labels: int8 array over the grid; -9 unlabelled, -1 excluded,
    0 = storage order, 1 = swapped order relative to the canonical arrays.
    components: connected-component ids (-1 off-domain), int32 unless the
    grid is too large for it (``index_dtype``).  conflicts: an (m, n)
    int64 array of node indices (monodromy witnesses): each admissible
    lattice edge whose matching contradicts the labels of its end nodes,
    which come from the breadth-first trees, contributes both end nodes.
    """

    def __init__(self, grid, labels, components, conflicts, branch_points,
                 exclusion):
        self.grid = grid
        self.labels = labels
        self.components = components
        self.conflicts = conflicts
        self.branch_points = branch_points
        self.exclusion = exclusion
        self.decomposed = len(conflicts) == 0

    def sheets(self):
        """The two single-valued selections on labelled nodes (NaN off)."""
        f = self.grid
        s1 = np.full(f.a1.shape, np.nan)
        s2 = np.full(f.a2.shape, np.nan)
        lab0 = self.labels == 0
        lab1 = self.labels == 1
        s1[lab0], s2[lab0] = f.a1[lab0], f.a2[lab0]
        s1[lab1], s2[lab1] = f.a2[lab1], f.a1[lab1]
        return s1, s2

    def exclusion_volume(self):
        """n-volume of the excluded node set (reported, not hidden)."""
        return float(self.exclusion.sum()) * self.grid.h ** self.grid.n


def detect_doubles(f, edges=None):
    """Mask of the nodes in the ball whose separation is not ``trusted``.

    Their two values lie at most 2 L h apart, twice the Lipschitz estimate
    times the spacing, where adjacent-node matching may be ambiguous.  The
    separations are read in the Lipschitz walk, one slab at a time, so a
    closed-form grid is evaluated once and never filled; ``edges`` is the
    walk's edge hook (``lipschitz_estimate``).
    """
    sep = np.empty(f.dims)
    flat = sep.reshape(-1)

    def visit(window, span):
        flat[span] = distances(*window.values(np.arange(span.start,
                                                        span.stop)))
    lipschitz = lipschitz_estimate(f, visit=visit, edges=edges)
    return f.mask & ~trusted(sep, lipschitz, f.h)


def _inflate(mask):
    out = mask.copy()
    for ax in range(mask.ndim):
        lo, hi = lattice_edges(mask.ndim, ax)
        out[lo] |= mask[hi]
        out[hi] |= mask[lo]
    return out


def _spanning_forest(edge, stride, admissible, seed_node):
    """Breadth-first spanning forest of the admissible lattice graph.

    ``edge[ax]`` flags, at each flat lower end node, an admissible edge
    along axis ``ax``.  A node lists its neighbours in the order axis 0
    lower, axis 0 upper, axis 1 lower, ..., and the search is a queue
    search one level at a time: a node's parent is the first node of the
    previous level, in queue order, that lists it, and the level is queued
    in order of discovery.  Each component gets one tree, rooted at
    ``seed_node`` when given and admissible, else at its first node in C
    order; components are numbered in root order.  Returns flat arrays
    (parent, component): parent is the node itself at roots and off the
    admissible set, where component is -1.  Both are int32 unless the
    neighbour lists of all N nodes, 2 n N entries, overflow it
    (``index_dtype``).
    """
    n, N = edge.shape
    index = index_dtype(N * 2 * n)
    has = np.zeros((N, 2 * n), dtype=bool)
    for ax, s in enumerate(stride):
        has[s:, 2 * ax] = edge[ax, :N - s]
        has[:, 2 * ax + 1] = edge[ax]
    offset = np.repeat(stride, 2) * np.tile([-1, 1], n)
    parent = np.arange(N, dtype=index)
    component = np.full(N, -1, dtype=index)
    # flat position, in the previous level's neighbour lists, of the first
    # listing of each node; a node is listed only by the level before its own
    first_at = np.full(N, N * 2 * n, dtype=index)

    def grow(root, c):
        level = np.array([root])
        component[root] = c
        while level.size:
            # absent neighbours point back at their node, which is labelled
            nb = np.where(has[level], level[:, None] + offset,
                          level[:, None]).ravel()
            # in first_at's dtype: ufunc.at is slow when it must cast
            at = np.flatnonzero(component[nb] < 0).astype(index)
            found = nb[at]
            np.minimum.at(first_at, found, at)
            first = first_at[found] == at
            parent[found[first]] = level[at[first] // (2 * n)]
            level = found[first]
            component[level] = c

    roots = 0
    if seed_node is not None:
        seed = np.ravel_multi_index(tuple(seed_node), admissible.shape)
        if admissible.flat[seed]:
            grow(seed, 0)
            roots = 1
    # the next root is the first admissible node past the last root that
    # no tree holds yet, found with a byte a node, not an index
    admissible = admissible.reshape(-1)
    k = 0
    while True:
        free = admissible[k:] & (component[k:] < 0)
        k += int(np.argmax(free))
        if not admissible[k] or component[k] >= 0:
            return parent, component
        grow(k, roots)
        roots += 1


def propagate_labels(f, exclusion=None, seed_node=None):
    """Breadth-first sheet labelling on the complement of the exclusion set.

    Each connected component of admissible nodes is labelled along its
    breadth-first tree from one root: ``seed_node`` when given and
    admissible, else the component's first node in C order.  A node's
    label is the parity of crossed matchings on its tree path; admissible
    edges whose matching contradicts their end labels are conflicts
    (monodromy witnesses), and decomposed is true only without conflicts.
    ValueError when the exclusion set leaves no admissible node.
    The grid is read once, in the Lipschitz walk of ``detect_doubles``,
    whose edge hook keeps each in-ball edge's matching, crossed where
    ``cross < straight`` (the ``crossed`` rule, a tie straight); a
    closed-form grid is never filled.
    """
    n, dims = f.n, f.dims
    # per axis, at the lower end node of each in-ball edge: the edge's
    # matching is crossed
    flip = np.zeros((n,) + dims, dtype=bool)
    flat_flip = flip.reshape(n, -1)

    def matchings(ax, lo, straight, cross):
        flat_flip[ax, lo] = cross < straight
    doubles = detect_doubles(f, edges=matchings)
    if exclusion is None:
        exclusion = _inflate(doubles)
    if np.any(doubles & ~exclusion):
        raise ValueError("exclusion set must cover all near-double nodes")
    admissible = f.mask & ~exclusion
    if not admissible.any():
        raise ValueError("no admissible node: the exclusion set covers "
                         "every node of the ball")
    N = admissible.size
    stride = [int(np.prod(dims[ax + 1:])) for ax in range(n)]
    # per axis, on the lower end node: the edge is admissible
    edge = np.zeros((n,) + dims, dtype=bool)
    for ax in range(n):
        lo, hi = lattice_edges(n, ax)
        edge[ax][lo] = admissible[lo] & admissible[hi]

    parent, components = _spanning_forest(edge.reshape(n, N), stride,
                                          admissible, seed_node)

    # parity of crossed matchings: one bit per tree edge, then pointer
    # jumping accumulates the bits up to the roots.  A tree edge along
    # axis ax has step +-stride[ax]; its matching is kept at its lower end
    step = parent - np.arange(N, dtype=parent.dtype)
    bit = np.zeros(N, dtype=bool)
    for ax, s in enumerate(stride):
        bit ^= (step == -s) & flat_flip[ax, parent]
        bit ^= (step == s) & flat_flip[ax]
    del step
    while True:
        up = parent[parent]
        if np.array_equal(up, parent):
            break
        bit ^= bit[parent]
        parent = up
    del parent, up
    bit = bit.reshape(dims)

    # on admissible nodes the labels are the bits
    conflicts = []
    for ax in range(n):
        lo, hi = lattice_edges(n, ax)
        bad = np.argwhere(edge[ax][lo] & (bit[lo] ^ bit[hi] != flip[ax][lo]))
        upper = bad.copy()
        upper[:, ax] += 1
        conflicts += [bad, upper]
    del edge, flip, flat_flip
    conflicts = np.concatenate(conflicts)
    labels = np.full(dims, -9, dtype=np.int8)
    labels[exclusion & f.mask] = -1
    labels[admissible] = bit[admissible]
    branch_points = _responsible_clusters(f, doubles, conflicts)
    return SheetLabelling(f, labels, components.reshape(dims), conflicts,
                          branch_points, exclusion & f.mask)


def _responsible_clusters(f, doubles, conflicts):
    """Double-point coordinates of the clusters nearest to conflicts.

    Distances are Chebyshev distances in lattice steps; a tie goes to the
    first double node in C order.  They are computed for blocks of
    conflicts of at most ``_PAIR_BLOCK`` (conflict, double) pairs, so the
    work does not grow as the product of the two counts.  The doubles are
    returned in C order.
    """
    if not len(conflicts) or not doubles.any():
        return np.zeros((0, f.n))
    dbl = np.argwhere(doubles)
    nearest = np.zeros(len(dbl), dtype=bool)
    step = max(1, _PAIR_BLOCK // len(dbl))
    for s in range(0, len(conflicts), step):
        diff = conflicts[s:s + step, None, :] - dbl[None, :, :]
        nearest[np.abs(diff, out=diff).max(axis=2).argmin(axis=1)] = True
    return f.node_coords(tuple(dbl[nearest].T))


def monodromy_test(f, loop):
    """Sheet permutation from composing matchings around a closed loop.

    ``loop`` is an ordered cycle of grid multi-indices with consecutive
    nodes lattice-adjacent (the closing edge is implicit).  Returns
    "trivial" or "swap".  Any node on the loop whose separation is not
    ``trusted`` (at most 2 L h) makes the matching ambiguous and raises.
    """
    loop = np.asarray(loop, dtype=int)
    if np.array_equal(loop[0], loop[-1]):
        loop = loop[:-1]
    if len(loop) < 4:
        raise ValueError("loop too short")
    ahead = np.roll(loop, -1, axis=0)
    broken = np.abs(ahead - loop).sum(axis=1) != 1
    if broken.any():
        i = int(np.argmax(broken))
        raise ValueError("loop nodes %s -> %s are not adjacent"
                         % (loop[i].tolist(), ahead[i].tolist()))
    a, b = tuple(loop.T), tuple(ahead.T)
    a1, a2 = f.a1, f.a2  # filled first, so the Lipschitz pass reads them
    sep = np.linalg.norm(a1[a] - a2[a], axis=-1)
    if not trusted(sep, lipschitz_estimate(f), f.h).all():
        raise ValueError("ambiguous matching: separation at most 2 L h "
                         "on the loop")
    swaps = np.count_nonzero(crossed(a1[a], a2[a], a1[b], a2[b]))
    return "swap" if swaps % 2 else "trivial"


def ring_loop(f, center_index, r):
    """Ordered square ring of lattice nodes around a center (2-d grids).

    Chebyshev-radius-r ring traversed once; a convenient monodromy loop.
    """
    if f.n != 2:
        raise ValueError("ring loops are built for 2-d grids")
    ci, cj = center_index
    top = [(ci - r, cj + t) for t in range(-r, r)]
    right = [(ci + t, cj + r) for t in range(-r, r)]
    bottom = [(ci + r, cj - t) for t in range(-r, r)]
    left = [(ci - t, cj - r) for t in range(-r, r)]
    loop = top + right + bottom + left
    for i, j in loop:
        if not (0 <= i < f.dims[0] and 0 <= j < f.dims[1]):
            raise ValueError("ring leaves the grid")
    return loop
