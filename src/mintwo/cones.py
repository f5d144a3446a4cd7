"""Cone supports: pairs of planes and unions of four half-planes.

Both kinds carry an axis (the common intersection / boundary), a
distance-to-support oracle, one chart frame per piece, and quasi-random
support sampling in a ball or a cylinder.  The quasi-random points are the
unscrambled Halton sequence: coordinate j of point i is the radical inverse
of i in the j-th prime base, computed in NumPy bit for bit as
``scipy.stats.qmc.Halton(d, scramble=False)`` does.  The sequence has no
randomness, so sampling takes no seed.
"""

import json

import numpy as np

from .geometry import (Subspace, complement_basis, require_keys,
                       require_types, unit_ball_volume)

# keys of a cone JSON object beyond kind, n and k, by kind
_JSON_KEYS = {"pair": ("planes",), "four_hp": ("boundary", "sides")}


class HalfPlane:
    """A closed half of an n-plane: boundary subspace + a side direction.

    ``boundary`` is an (n-1)-dimensional linear subspace and ``side`` a unit
    vector orthogonal to it; the half-plane is boundary + [0, inf) * side.
    """

    def __init__(self, boundary, side):
        self.boundary = boundary
        side = np.asarray(side, dtype=float)
        if abs(np.linalg.norm(side) - 1.0) > 1e-10:
            raise ValueError("side vector must be a unit vector")
        if boundary.dim and np.abs(boundary.basis @ side).max() > 1e-10:
            raise ValueError("side vector must be orthogonal to the boundary")
        self.side = side
        self.plane = Subspace(np.vstack([boundary.basis, side[None]]))

    @property
    def dim(self):
        return self.boundary.dim + 1

    def distance(self, X):
        """Distance from point(s) X to the closed half-plane."""
        X = np.asarray(X, dtype=float)
        w = X - self.plane.project(X)
        s = X @ self.side
        off = np.linalg.norm(w, axis=-1)
        return np.where(s >= 0, off, np.sqrt(s ** 2 + off ** 2))


class Cone:
    """Support of a cylindrical cone: two planes or four half-planes.

    kind "pair": two distinct n-dimensional planes (Subspace values);
    kind "four_hp": four distinct half-planes sharing one (n-1)-dimensional
    boundary.  Every piece passes through 0.  A multiplicity-two single
    plane is a pair of coinciding planes with ``multiplicity2`` set; its
    axis is the plane itself.
    """

    def __init__(self, kind, pieces, n, k, multiplicity2=False):
        self.kind = kind
        self.pieces = list(pieces)
        self.n = int(n)
        self.k = int(k)
        self.multiplicity2 = bool(multiplicity2)
        d = n + k
        if kind == "pair":
            P1, P2 = self.pieces
            if any(P.dim != n or P.ambient_dim != d for P in self.pieces):
                raise ValueError("planes must be n-dimensional in R^(n+k)")
            if (P1 == P2) != self.multiplicity2:
                raise ValueError("multiplicity2 needs coinciding planes"
                                 if self.multiplicity2 else
                                 "coinciding planes: degenerate pair")
        elif kind == "four_hp":
            if len(self.pieces) != 4:
                raise ValueError("four half-planes required")
            b0 = self.pieces[0].boundary
            for H in self.pieces:
                if H.dim != n or H.side.shape[0] != d:
                    raise ValueError("half-planes must be n-dimensional")
                if not (H.boundary == b0):
                    raise ValueError("half-planes must share one boundary")
            sides = np.array([H.side for H in self.pieces])
            gram = sides @ sides.T
            if np.any(gram[np.triu_indices(4, 1)] > 1 - 1e-10):
                raise ValueError("half-planes must be pairwise distinct")
        else:
            raise ValueError("unknown cone kind %r" % kind)

    # -- constructors ------------------------------------------------------

    @classmethod
    def pair(cls, P1, P2):
        n = P1.dim
        return cls("pair", [P1, P2], n, P1.ambient_dim - n)

    @classmethod
    def four_half_planes(cls, boundary, sides):
        hps = [HalfPlane(boundary, _unit(s)) for s in sides]
        n = boundary.dim + 1
        return cls("four_hp", hps, n, boundary.ambient_dim - n)

    @property
    def ambient_dim(self):
        return self.n + self.k

    # -- axis --------------------------------------------------------------

    def axis(self):
        """Common intersection (pair) or shared boundary (four_hp), a
        Subspace of dimension 0 or more.

        The intersection of two planes through 0 is the null space of
        their stacked normal bases.
        """
        if self.kind == "four_hp":
            return self.pieces[0].boundary
        P1, P2 = self.pieces
        if self.multiplicity2:
            return P1
        d = self.ambient_dim
        A = np.vstack([complement_basis(P.basis, d) for P in (P1, P2)])
        _, s, vt = np.linalg.svd(A)
        rank = int(np.sum(s > 1e-10 * max(1.0, s[0])))
        return Subspace(vt[rank:], ambient_dim=d)

    # -- distances ---------------------------------------------------------

    def dist_to_support(self, X):
        """Distance from point(s) X to the support, vectorized."""
        X = np.asarray(X, dtype=float)
        d = None
        for piece in self.pieces:
            dp = piece.distance(X)
            d = dp if d is None else np.minimum(d, dp)
        return d

    def r(self, X):
        """Distance from X to the axis (the radial coordinate r_C)."""
        return self.axis().distance(X)

    # -- sampling ----------------------------------------------------------

    def sample_support(self, count_per_piece, radius=2.0, region="ball"):
        """Quasi-random samples of the support inside a region.

        region "ball" is B_radius(0).  region "cylinder" is
        B_radius^n x R^k: each piece's chart ball is widened to
        min(radius / max(s, 0.1), 16 radius), with s the least singular
        value of the frame's first n columns, and samples with
        |X[:n]| > radius are dropped.  Returns (points, weights, piece):
        weights sum to the n-area of the support inside the region (QMC
        estimate), and piece holds each sample's piece index (int8, the
        dtype of ``SampledVarifold.sheet``).  Because each piece is linear
        and sampled in isometric coefficient coordinates, points lie
        exactly on the support.  Each piece is sampled twice, to count
        and then to write its samples in place.
        """
        if region not in ("ball", "cylinder"):
            raise ValueError("unknown sampling region %r" % region)

        def piece(basis, half):
            rc = radius
            if region == "cylinder":
                s = np.linalg.svd(basis[:, :self.n], compute_uv=False)
                rc = min(radius / max(s.min(), 0.1), 16.0 * radius)
            c, w = _ball_coefficients(basis.shape[0], count_per_piece, rc,
                                      half=half)
            X = c @ basis
            del c  # before the norms' temporaries
            if region == "cylinder":
                keep = np.linalg.norm(X[:, :self.n], axis=-1) <= radius
                X, w = X[keep], w[keep]
            return X, w

        frames = self.piece_frames()
        counts = [len(piece(*f)[1]) for f in frames]
        pts = np.empty((sum(counts), self.ambient_dim))
        wts = np.empty(sum(counts))
        for f, stop, count in zip(frames, np.cumsum(counts), counts):
            pts[stop - count:stop], wts[stop - count:stop] = piece(*f)
        return pts, wts, np.repeat(np.int8(range(len(counts))), counts)

    def piece_frames(self):
        """Isometric coefficient frames: the charts, samples and tangents
        of the pieces all come from here.

        Each entry is (basis, half): basis rows are an orthonormal tangent
        basis ([side; boundary] for a half-plane), and half=True means the
        first coefficient is restricted to [0, inf) (half-plane side
        coordinate).
        """
        if self.kind == "pair":
            return [(P.basis, False) for P in self.pieces]
        return [(np.vstack([H.side[None], H.boundary.basis]), True)
                for H in self.pieces]

    # -- serialization -----------------------------------------------------

    def to_json(self):
        # each plane keeps its "offset" key, always zero
        if self.kind == "pair":
            zero = [0.0] * self.ambient_dim
            body = {"kind": "pair", "n": self.n, "k": self.k,
                    "multiplicity2": self.multiplicity2,
                    "planes": [{"basis": P.basis.tolist(), "offset": zero}
                               for P in self.pieces]}
        else:
            body = {"kind": "four_hp", "n": self.n, "k": self.k,
                    "boundary": self.pieces[0].boundary.basis.tolist(),
                    "sides": [H.side.tolist() for H in self.pieces]}
        return json.dumps(body, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        """Cone of a ``to_json`` text; ValueError names a missing key, an
        ``n`` or ``k`` that is not a positive integer, a plane offset that
        is not zero and a ``multiplicity2`` that is not a boolean."""
        d = require_keys(json.loads(text), ("kind", "n", "k"), "cone JSON")
        require_types(d, "cone JSON", counts=("n", "k"))
        if d["kind"] not in _JSON_KEYS:
            raise ValueError("unknown cone kind %r" % d["kind"])
        require_keys(d, _JSON_KEYS[d["kind"]], "cone JSON")
        amb = d["n"] + d["k"]

        def subspace(rows):
            S = Subspace(np.array(rows), ambient_dim=amb)
            S.basis = _as_written(rows, S.basis)
            return S
        if d["kind"] == "pair":
            planes = []
            for p in d["planes"]:
                require_keys(p, ("basis", "offset"), "cone JSON plane")
                off = p["offset"]
                if np.shape(off) != (amb,) or np.any(np.asarray(off) != 0):
                    raise ValueError("cone JSON plane offset %r is not %d "
                                     "zeros: cone planes pass through 0"
                                     % (off, amb))
                planes.append(subspace(p["basis"]))
            mult = d.get("multiplicity2", False)
            if not isinstance(mult, bool):
                raise ValueError("cone JSON multiplicity2 must be true or "
                                 "false, got %r" % (mult,))
            return cls("pair", planes, d["n"], d["k"], multiplicity2=mult)
        boundary = subspace(d["boundary"])
        return cls("four_hp", [HalfPlane(boundary, _as_written(s, _unit(s)))
                               for s in d["sides"]], d["n"], d["k"])

    def __repr__(self):
        return "Cone(kind=%r, n=%d, k=%d)" % (self.kind, self.n, self.k)


def _unit(v):
    v = np.asarray(v, dtype=float)
    nv = np.linalg.norm(v)
    if nv < 1e-12:
        raise ValueError("side vector must be nonzero")
    return v / nv


def _as_written(rows, normalized):
    """The rows of a cone JSON as written where normalizing them only
    rounds them (by 1e-12 at most), else ``normalized``: a cone read from
    its ``to_json`` text writes that text again."""
    rows = np.asarray(rows, dtype=float).reshape(normalized.shape)
    if np.abs(rows - normalized).max(initial=0.0) <= 1e-12:
        return rows
    return normalized


def nu(C, D, samples=2000):
    """Hausdorff distance between the two supports inside B_2(0).

    Quasi-random support samples; converges to the exact cone distance as
    ``samples`` grows.  ``samples`` is the per-piece count and must be at
    least 100 for a meaningful estimate.  The samples are deterministic,
    so nu takes no seed.
    """
    if samples < 100:
        raise ValueError("nu needs at least 100 samples per piece")
    if C.ambient_dim != D.ambient_dim:
        raise ValueError("cones live in different ambient spaces")
    A, _, _ = C.sample_support(samples, radius=2.0)
    B, _, _ = D.sample_support(samples, radius=2.0)
    # directed distances to the other support are exact (both pieces are
    # convex sets through 0, so nearest points inside B_2 stay inside B_2);
    # only the sup is taken over a dense sample
    d_ab = float(D.dist_to_support(A).max())
    d_ba = float(C.dist_to_support(B).max())
    return max(d_ab, d_ba)


def _ball_coefficients(n, count, radius, half=False):
    """Quasi-random points in the n-ball (or half-ball) of given radius.

    Returns (coords, weights); weights are the QMC cube-rejection weights so
    that their sum estimates the (half-)ball volume.
    """
    # over-generate in the cube, then reject outside the ball
    ratio = 2.0 ** n / unit_ball_volume(n)
    total = max(int(np.ceil(count * ratio * 1.3)), count + 16)
    u = _halton(n, total)
    c = (2.0 * u - 1.0) * radius
    if half:
        c[:, 0] = np.abs(c[:, 0])
    keep = np.linalg.norm(c, axis=1) <= radius
    c = c[keep]
    cube_vol = (2.0 * radius) ** n / (2.0 if half else 1.0)
    w = np.full(c.shape[0], cube_vol / total)
    return c, w


def _halton(d, m):
    """First m points (m, d) of the unscrambled Halton sequence.

    Coordinate j of point i is the radical inverse of i in the j-th prime
    base, with digits summed from the least significant in the same
    floating-point order as scipy, so the result equals
    ``scipy.stats.qmc.Halton(d, scramble=False).random(m)`` bit for bit.
    Point 0 is the origin.
    """
    out = np.empty((m, d))
    for j, base in enumerate(_first_primes(d)):
        u = np.zeros(m)
        q = np.arange(m, dtype=np.int64)
        b2r = 1.0 / base
        while q.any():
            u += (q % base) * b2r
            b2r /= base
            q //= base
        out[:, j] = u
    return out


def _first_primes(d):
    primes = []
    k = 2
    while len(primes) < d:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes
