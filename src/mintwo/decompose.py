"""Sheet decomposition of two-valued grids and branch detection by monodromy.

Each lattice edge matches the two values of its end nodes by the pairing of
smaller metric; the matching is provably unambiguous wherever the two values
are separated by more than twice the Lipschitz constant times the spacing,
so nodes below that separation are excluded.  Sheet labels are the composed
matchings along a breadth-first spanning tree of each component.  A loop
whose composed matchings swap the sheets certifies a branch point in the
region it encloses.
"""

import numpy as np

from .twovalued import lattice_edges, lipschitz_estimate, pairing_costs


class SheetLabelling:
    """Result of label propagation.

    labels: int array over the grid; -9 unlabelled, -1 excluded,
    0 = storage order, 1 = swapped order relative to the canonical arrays.
    components: connected-component ids (-1 off-domain).  conflicts: an
    (m, n) int array of node indices (monodromy witnesses): each admissible
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


def detect_doubles(f, lipschitz=None):
    """Mask of nodes where the two values are closer than 2 L h.

    2 L h, twice the Lipschitz estimate times the spacing, is the smallest
    separation at which adjacent-node matching is unambiguous.
    """
    if lipschitz is None:
        lipschitz = lipschitz_estimate(f)
    return f.mask & (f.separation() < 2.0 * lipschitz * f.h)


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
    admissible set, where component is -1.
    """
    n, N = edge.shape
    has = np.zeros((N, 2 * n), dtype=bool)
    for ax, s in enumerate(stride):
        has[s:, 2 * ax] = edge[ax, :N - s]
        has[:, 2 * ax + 1] = edge[ax]
    offset = np.repeat(stride, 2) * np.tile([-1, 1], n)
    parent = np.arange(N)
    component = np.full(N, -1)
    # flat position, in the previous level's neighbour lists, of the first
    # listing of each node; a node is listed only by the level before its own
    first_at = np.full(N, N * 2 * n)

    def grow(root, c):
        level = np.array([root])
        component[root] = c
        while level.size:
            # absent neighbours point back at their node, which is labelled
            nb = np.where(has[level], level[:, None] + offset,
                          level[:, None]).ravel()
            at = np.flatnonzero(component[nb] < 0)
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
    nodes = np.flatnonzero(admissible)
    k = 0
    while True:
        rest = np.flatnonzero(component[nodes[k:]] < 0)
        if not rest.size:
            return parent, component
        k += rest[0]
        grow(nodes[k], roots)
        roots += 1


def propagate_labels(f, exclusion=None, seed_node=None, lipschitz=None):
    """Breadth-first sheet labelling on the complement of the exclusion set.

    Each connected component of admissible nodes is labelled along its
    breadth-first tree from one root: ``seed_node`` when given and
    admissible, else the component's first node in C order.  A node's
    label is the parity of crossed matchings on its tree path; admissible
    edges whose matching contradicts their end labels are conflicts
    (monodromy witnesses), and decomposed is true only without conflicts.
    """
    if lipschitz is None:
        lipschitz = lipschitz_estimate(f)
    doubles = detect_doubles(f, lipschitz=lipschitz)
    if exclusion is None:
        exclusion = _inflate(doubles)
    if np.any(doubles & ~exclusion):
        raise ValueError("exclusion set must cover all near-double nodes")
    admissible = f.mask & ~exclusion
    n, dims, N = f.n, f.dims, admissible.size
    stride = [int(np.prod(dims[ax + 1:])) for ax in range(n)]
    # per axis, on the lower end node: admissible edge, crossed matching
    edge = np.zeros((n,) + dims, dtype=bool)
    flip = np.zeros((n,) + dims, dtype=bool)
    for ax in range(n):
        lo, hi = lattice_edges(n, ax)
        edge[ax][lo] = admissible[lo] & admissible[hi]
        straight, crossed = pairing_costs(f.a1[lo], f.a2[lo],
                                          f.a1[hi], f.a2[hi])
        flip[ax][lo] = crossed < straight

    parent, components = _spanning_forest(edge.reshape(n, N), stride,
                                          admissible, seed_node)

    # parity of crossed matchings: one bit per tree edge, then pointer
    # jumping accumulates the bits up to the roots
    node = np.arange(N)
    step = np.abs(node - parent)
    lower = np.minimum(node, parent)
    bit = np.zeros(N, dtype=bool)
    for ax, s in enumerate(stride):
        bit ^= (step == s) & flip.reshape(n, N)[ax, lower]
    while np.any(parent[parent] != parent):
        bit ^= bit[parent]
        parent = parent[parent]
    labels = np.where(admissible, bit.reshape(dims),
                      np.where(exclusion & f.mask, -1, -9))

    conflicts = []
    for ax in range(n):
        lo, hi = lattice_edges(n, ax)
        bad = np.argwhere(edge[ax][lo]
                          & (labels[lo] ^ labels[hi] != flip[ax][lo]))
        upper = bad.copy()
        upper[:, ax] += 1
        conflicts += [bad, upper]
    conflicts = np.concatenate(conflicts)
    branch_points = _responsible_clusters(f, doubles, conflicts)
    return SheetLabelling(f, labels, components.reshape(dims), conflicts,
                          branch_points, exclusion & f.mask)


def _responsible_clusters(f, doubles, conflicts):
    """Double-point coordinates of the clusters nearest to conflicts.

    Distances are Chebyshev distances in lattice steps; a tie goes to the
    first double node in C order.
    """
    if not len(conflicts) or not doubles.any():
        return np.zeros((0, f.n))
    dbl = np.argwhere(doubles)
    diff = conflicts[:, None, :] - dbl[None, :, :]
    nearest = np.unique(np.abs(diff, out=diff).max(axis=2).argmin(axis=1))
    return f.node_coords(tuple(dbl[nearest].T))


def monodromy_test(f, loop, lipschitz=None):
    """Sheet permutation from composing matchings around a closed loop.

    ``loop`` is an ordered cycle of grid multi-indices with consecutive
    nodes lattice-adjacent (the closing edge is implicit).  Returns
    "trivial" or "swap".  Any node with value separation at most 2 L h
    makes the matching ambiguous and raises.
    """
    if lipschitz is None:
        lipschitz = lipschitz_estimate(f)
    floor = 2.0 * lipschitz * f.h
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
    if np.any(f.separation()[a] <= floor):
        raise ValueError("ambiguous matching: separation below 2 L h "
                         "on the loop")
    straight, crossed = pairing_costs(f.a1[a], f.a2[a], f.a1[b], f.a2[b])
    return "swap" if np.count_nonzero(crossed < straight) % 2 else "trivial"


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
