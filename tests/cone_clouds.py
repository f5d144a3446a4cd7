"""Graph clouds of exact cones, the clouds the exact-cone tests read.

Every cone the tests sample is a two-valued graph over the first n
coordinates: a pair of planes that are graphs, or four half-planes that
are graphs over two half-spaces of R^n.  ``cone_grid`` builds the grid
of that graph over the ball of radius ``radius`` in R^n: the CLI's
fixture for a preset cone that has one (``pair_planes`` for
``transverse_pair_r4`` and ``pair_lines_r2``, ``four_half_planes`` for
``four_half_planes_r3``), else ``TwoValuedGrid.from_function`` of the
linear maps of the pieces (``four_half_planes_r4`` is the n = 1
four-half-plane function, constant along its axis line).
"""

import numpy as np

from mintwo.fixtures import FixtureSpec, cone_fixture, generate
from mintwo.geometry import complement_basis, orthonormalize
from mintwo.twovalued import TwoValuedGrid
from mintwo.varifold import sample_graph

# the preset cones that a fixture of the CLI samples: (id, params)
_FIXTURES = {
    "transverse_pair_r4": ("pair_planes", {"g1": [[0, 0], [0, 0]],
                                           "g2": [[1, 0], [0, 1]]}),
    "pair_lines_r2": ("pair_planes", {"g1": [[1]], "g2": [[-1]]}),
    "four_half_planes_r3": ("four_half_planes", {}),
}


def _slope(basis, n):
    """The (n, k) matrix M of the plane spanned by the rows of ``basis``
    as the graph x -> x M over the first n coordinates."""
    return np.linalg.solve(basis[:, :n], basis[:, n:])


def _graph_fn(C):
    n = C.n
    if C.kind == "pair":
        M1, M2 = (_slope(P.basis, n) for P in C.pieces)
        return lambda x: (x @ M1, x @ M2)
    # the half-planes over either side of the axis's shadow in R^n, two
    # on each; on the shadow itself the four agree
    A = C.axis().basis[:, :n]
    normal = complement_basis(orthonormalize(A), n)[0]
    frames = [rows for rows, _ in C.piece_frames()]
    side = [rows[0, :n] @ normal > 0 for rows in frames]
    if sorted(side) != [False, False, True, True]:
        raise ValueError("the half-planes are not a graph over R^%d" % n)
    lo, hi = ([_slope(rows, n) for rows, s in zip(frames, side) if s == up]
              for up in (False, True))

    def fn(x):
        below = (x @ normal <= 0)[:, None]
        return (np.where(below, x @ lo[0], x @ hi[0]),
                np.where(below, x @ lo[1], x @ hi[1]))
    return fn


def cone_grid(C, h, radius):
    """The grid of spt C, a preset cone's name or a Cone, as a two-valued
    graph over the ball of radius ``radius`` in R^n, at spacing h."""
    if isinstance(C, str):
        if C in _FIXTURES:
            fixture, params = _FIXTURES[C]
            return generate(FixtureSpec(fixture, h, radius, params))
        C = cone_fixture(C)
    return TwoValuedGrid.from_function(_graph_fn(C), C.n, C.k, radius, h)


def cone_cloud(C, h, radius):
    """``sample_graph`` of ``cone_grid(C, h, radius)``, with tangents."""
    return sample_graph(cone_grid(C, h, radius))
