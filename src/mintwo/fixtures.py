"""Analytic fixture generators: explicit two-valued graphs used throughout.

Each fixture has a closed-form generator, so grids at any resolution are
deterministic and exactly reproducible.  The square root of 5 over 2 in the
Hopf-cone graph is kept symbolic (np.sqrt(5.0) / 2.0), not a rounded float:
the stationarity residual is sensitive to this constant.
"""

import numpy as np

from .cones import Cone
from .geometry import Subspace
from .twovalued import TwoValuedGrid

LO_CONSTANT = np.sqrt(5.0) / 2.0

# (required, optional) parameter names of each fixture; see generate()
FIXTURE_PARAMS = {
    "pair_planes": (("g1", "g2"), ("c1", "c2")),
    "four_half_planes": ((), ()),
    "hopf_lo_cone": ((), ()),
    "lo_two_valued": ((), ()),
    "branched_w32": ((), ()),
    "holo_pair_curved": ((), ("a", "b")),
    "tilted_plane": ((), ("g", "slope")),
    "custom_grid": (("path",), ()),
}
FIXTURE_IDS = tuple(FIXTURE_PARAMS)


def hopf(z1, z2):
    """The Hopf map S^3 -> S^2: (|z1|^2 - |z2|^2, 2 z1 conj(z2)).

    Accepts scalars or arrays of complex numbers; inputs off the unit sphere
    are normalized first.  Returns real triples.
    """
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    norm = np.sqrt(np.abs(z1) ** 2 + np.abs(z2) ** 2)
    if np.any(norm == 0):
        raise ValueError("the Hopf map is undefined at the origin")
    z1, z2 = z1 / norm, z2 / norm
    w = 2.0 * z1 * np.conj(z2)
    return np.stack([np.abs(z1) ** 2 - np.abs(z2) ** 2,
                     w.real, w.imag], axis=-1)


def lo_map(x):
    """Degree-one homogeneous graph map R^4 -> R^3 built on the Hopf map.

    f(x) = (sqrt(5)/2) |x| eta(x/|x|) with eta the Hopf map; f(0) = 0.  The
    graph of f is a minimal cone with an isolated singularity at the origin.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r = np.linalg.norm(x, axis=-1)
    out = np.zeros(x.shape[:-1] + (3,))
    nz = r > 0
    if nz.any():
        z1 = x[nz, 0] + 1j * x[nz, 1]
        z2 = x[nz, 2] + 1j * x[nz, 3]
        out[nz] = LO_CONSTANT * r[nz, None] * hopf(z1, z2)
    return out


CONE_FIXTURE_IDS = ("pair_lines_r2", "transverse_pair_r4",
                    "four_half_planes_r3", "four_half_planes_r4")


def cone_fixture(name):
    """Named exact cones matching the analytic fixtures.

    pair_lines_r2: {y = x} union {y = -x} in R^2.
    transverse_pair_r4: {w = 0} union {w = z} over C = R^2 (graphical
        transverse pair with 0-dimensional axis).
    four_half_planes_r3: the graph of the n=1 four half-plane fixture.
    four_half_planes_r4: the same crossed with an axis line (n=2).
    """
    if name == "pair_lines_r2":
        s = 1.0 / np.sqrt(2.0)
        return Cone.pair(Subspace(np.array([[s, s]])),
                         Subspace(np.array([[s, -s]])))
    if name == "transverse_pair_r4":
        P1 = Subspace(np.eye(4)[:2])
        s = 1.0 / np.sqrt(2.0)
        # graph of w = z: rows (1,0,1,0)/sqrt2, (0,1,0,1)/sqrt2
        P2 = Subspace(np.array([[s, 0.0, s, 0.0], [0.0, s, 0.0, s]]))
        return Cone.pair(P1, P2)
    if name == "four_half_planes_r3":
        boundary = Subspace(np.zeros((0, 3)), ambient_dim=3)
        s = 1.0 / np.sqrt(2.0)
        sides = [(-s, -s, 0.0), (-s, s, 0.0), (s, 0.0, s), (s, 0.0, -s)]
        return Cone.four_half_planes(boundary, sides)
    if name == "four_half_planes_r4":
        boundary = Subspace(np.array([[0.0, 1.0, 0.0, 0.0]]))
        s = 1.0 / np.sqrt(2.0)
        sides = [(-s, 0.0, -s, 0.0), (-s, 0.0, s, 0.0),
                 (s, 0.0, 0.0, s), (s, 0.0, 0.0, -s)]
        return Cone.four_half_planes(boundary, sides)
    raise ValueError("unknown cone fixture %r" % name)


class FixtureSpec:
    """Identifier plus parameters, resolution and radius of a fixture.

    Raises ValueError for an ``h`` or ``radius`` that is not finite and
    positive, for a parameter the fixture does not take, for a missing
    required one and for one of the wrong type or shape or not finite.
    """

    def __init__(self, id, h, radius=1.0, params=None):
        if id not in FIXTURE_IDS:
            raise ValueError("unknown fixture id %r" % id)
        if not (0 < h < np.inf and 0 < radius < np.inf):
            raise ValueError("h and radius must be finite and positive, "
                             "got h=%r, radius=%r" % (h, radius))
        self.id = id
        self.h = float(h)
        self.radius = float(radius)
        self.params = dict(params or {})
        required, optional = FIXTURE_PARAMS[id]
        unknown = sorted(set(self.params) - set(required) - set(optional))
        if unknown:
            raise ValueError("fixture %s takes no parameter %s"
                             % (id, ", ".join(unknown)))
        missing = [key for key in required if key not in self.params]
        if missing:
            raise ValueError("fixture %s needs parameter %s"
                             % (id, ", ".join(missing)))
        _check_params(self.params)


def _shape(p, key, ndim):
    """Shape of p[key] as a finite numeric array of ``ndim`` axes, a
    scalar or a vector promoted as generate() promotes it; ValueError
    naming the parameter otherwise."""
    try:
        a = np.asarray(p[key])
    except ValueError:  # ragged nested lists
        a = np.asarray(None)
    if a.dtype.kind in "iuf" and np.isfinite(a).all():
        a = np.atleast_1d(a) if ndim == 1 else np.atleast_2d(a)
        if a.ndim == ndim and a.size:
            return a.shape
    raise ValueError("fixture parameter %s must be a numeric %s, got %r"
                     % (key, "vector" if ndim == 1 else "(k, n) matrix",
                        p[key]))


def _check_params(p):
    """ValueError naming the first parameter of a wrong type or shape.

    g1, g2 and g are numeric (k, n) matrices, g1 and g2 of one shape; c1
    and c2 are length-k vectors; slope is a number; a and b are numbers
    or strings that complex() reads.  Every entry is finite.  path is a
    string: ``open`` would read a number as a file descriptor.
    """
    shapes = {key: _shape(p, key, 2) for key in ("g1", "g2", "g")
              if key in p}
    if "g1" in shapes and shapes["g1"] != shapes["g2"]:
        raise ValueError("fixture parameters g1 and g2 must have one shape, "
                         "got %s and %s" % (shapes["g1"], shapes["g2"]))
    for key in ("c1", "c2"):
        if key in p:
            k = shapes["g1"][0]
            if _shape(p, key, 1) != (k,):
                raise ValueError("fixture parameter %s must be a length-%d "
                                 "vector, got %r" % (key, k, p[key]))
    if "slope" in p and not _is_number(p["slope"]):
        raise ValueError("fixture parameter slope must be a number, got %r"
                         % (p["slope"],))
    for key in ("a", "b"):
        if key in p and not (_is_number(p[key]) or _complex_string(p[key])):
            raise ValueError("fixture parameter %s must be a number or a "
                             "complex() string, got %r" % (key, p[key]))
    for key in ("slope", "a", "b"):
        if key in p and not _finite(p[key]):
            raise ValueError("fixture parameter %s must be finite, got %r"
                             % (key, p[key]))
    if "path" in p and not isinstance(p["path"], str):
        raise ValueError("fixture parameter path must be a file name, got %r"
                         % (p["path"],))


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _complex_string(v):
    if not isinstance(v, str):
        return False
    try:
        complex(v)
    except ValueError:
        return False
    return True


def _finite(v):
    """Whether a number or complex() string is finite."""
    try:
        return bool(np.isfinite(complex(v)))
    except OverflowError:  # an int too large for a float
        return False


def _complex(points):
    return points[..., 0] + 1j * points[..., 1]


def _embed(values):
    """Complex array -> trailing (…, 2) real array."""
    return np.stack([values.real, values.imag], axis=-1)


def _pair_planes_fn(g1, g2, c1, c2):
    g1, g2 = np.atleast_2d(g1), np.atleast_2d(g2)
    c1 = np.zeros(g1.shape[0]) if c1 is None else np.asarray(c1, float)
    c2 = np.zeros(g2.shape[0]) if c2 is None else np.asarray(c2, float)

    def fn(pts):
        return pts @ g1.T + c1, pts @ g2.T + c2
    return fn, g1.shape[1], g1.shape[0]


def generate(spec):
    """Build the TwoValuedGrid for a fixture spec.

    Fixture ids
    -----------
    pair_planes : two linear graphs, params g1, g2 ((k, n) gradients) and
        optional offsets c1, c2.
    four_half_planes : n=1 graph {(t,0),(-t,0)} for t <= 0 and
        {(0,t),(0,-t)} for t > 0; its graph is a union of four half-planes
        in R^3 and is minimal.
    hopf_lo_cone : the single-valued Hopf-cone graph stored with both values
        equal (a multiplicity-two sheet over R^4).
    lo_two_valued : x -> {f(x), -f(x)} with f the Hopf-cone map.
    branched_w32 : w -> {w^(3/2), -w^(3/2)} via the principal square root
        (branch cut on the negative real axis); the classical branch-point
        fixture.
    holo_pair_curved : {w = 0} union {w = a z + b z^2} over C, params a, b;
        two holomorphic sheets crossing transversely at 0.
    tilted_plane : multiplicity-two linear graph with gradient params g
        ((k, n) matrix) or slope (scalar, n=k=1 style embedding in (2, 2)).
    custom_grid : params path -> load a serialized grid.
    """
    p = spec.params
    if spec.id == "pair_planes":
        fn, n, k = _pair_planes_fn(p["g1"], p["g2"],
                                   p.get("c1"), p.get("c2"))
        return TwoValuedGrid.from_function(fn, n, k, spec.radius, spec.h)

    if spec.id == "four_half_planes":
        def fn(pts):
            t = pts[:, 0]
            v1 = np.where(t[:, None] <= 0,
                          np.stack([t, np.zeros_like(t)], axis=-1),
                          np.stack([np.zeros_like(t), t], axis=-1))
            v2 = -v1
            return v1, v2
        return TwoValuedGrid.from_function(fn, 1, 2, spec.radius, spec.h)

    if spec.id == "hopf_lo_cone":
        def fn(pts):
            v = lo_map(pts)
            return v, v.copy()
        return TwoValuedGrid.from_function(fn, 4, 3, spec.radius, spec.h)

    if spec.id == "lo_two_valued":
        def fn(pts):
            v = lo_map(pts)
            return v, -v
        return TwoValuedGrid.from_function(fn, 4, 3, spec.radius, spec.h)

    if spec.id == "branched_w32":
        def fn(pts):
            w = _complex(pts)
            # in place, so the rounding does not depend on the batch size:
            # NumPy turns w * np.sqrt(w) into this product only for large
            # arrays, and a complex product with FMA differs in the last
            # bit when its factors are swapped
            v = np.sqrt(w)
            v *= w
            return _embed(v), _embed(-v)
        return TwoValuedGrid.from_function(fn, 2, 2, spec.radius, spec.h)

    if spec.id == "holo_pair_curved":
        a = complex(p.get("a", 1.0))
        b = complex(p.get("b", 1.0))

        def fn(pts):
            z = _complex(pts)
            return _embed(np.zeros_like(z)), _embed(a * z + b * z * z)
        return TwoValuedGrid.from_function(fn, 2, 2, spec.radius, spec.h)

    if spec.id == "tilted_plane":
        if ("g" in p) == ("slope" in p):
            raise ValueError("fixture tilted_plane needs exactly one of the "
                             "parameters g, slope")
        if "g" in p:
            g = np.atleast_2d(np.asarray(p["g"], dtype=float))
        else:
            g = np.array([[float(p["slope"]), 0.0], [0.0, 0.0]])

        def fn(pts):
            v = pts @ g.T
            return v, v.copy()
        return TwoValuedGrid.from_function(fn, g.shape[1], g.shape[0],
                                           spec.radius, spec.h)

    if spec.id == "custom_grid":
        with open(p["path"]) as fh:
            return TwoValuedGrid.from_json(fh.read())

    raise ValueError("unknown fixture id %r" % spec.id)
