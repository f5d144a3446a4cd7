"""Cone supports: pairs of planes and unions of four half-planes.

Both kinds carry an axis (the common intersection / boundary), a spine, a
distance-to-support oracle, alignment into product form, and quasi-random
support sampling used by the Hausdorff-type cone distance ``nu``.
"""

import json

import numpy as np
from scipy.stats import qmc

from .geometry import Subspace, DEFAULT_TOL


class HalfPlane:
    """A closed half of an n-plane: boundary subspace + a side direction.

    ``boundary`` is an (n-1)-dimensional linear subspace and ``side`` a unit
    vector orthogonal to it; the half-plane is boundary + [0, inf) * side.
    """

    def __init__(self, boundary, side):
        self.boundary = boundary
        side = np.asarray(side, dtype=float)
        ns = np.linalg.norm(side)
        if ns < 1e-12:
            raise ValueError("side vector must be nonzero")
        side = side / ns
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

    kind "pair": two distinct n-dimensional planes (affine Subspace values);
    kind "four_hp": four distinct half-planes sharing one (n-1)-dimensional
    linear boundary.  A multiplicity-two single plane is representable via
    ``Cone.plane_with_multiplicity`` for density/spine bookkeeping.
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
            if P1.dim != n or P2.dim != n or P1.ambient_dim != d:
                raise ValueError("planes must be n-dimensional in R^(n+k)")
            if (P1 == P2) and not multiplicity2:
                raise ValueError("coinciding planes: degenerate pair")
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
    def plane_with_multiplicity(cls, P):
        n = P.dim
        return cls("pair", [P, P], n, P.ambient_dim - n, multiplicity2=True)

    @classmethod
    def four_half_planes(cls, boundary, sides):
        hps = [HalfPlane(boundary, s) for s in sides]
        n = boundary.dim + 1
        return cls("four_hp", hps, n, boundary.ambient_dim - n)

    @property
    def ambient_dim(self):
        return self.n + self.k

    # -- axis / spine ------------------------------------------------------

    def axis(self, tol=DEFAULT_TOL):
        """Common intersection (pair) or shared boundary (four_hp).

        Returns a Subspace, or None for disjoint planes (parallel distinct
        pairs have empty axis).
        """
        if self.kind == "four_hp":
            return self.pieces[0].boundary
        P1, P2 = self.pieces
        if self.multiplicity2:
            return P1
        # affine intersection: a common point (least squares over the two
        # normal-constraint stacks) plus the intersection of the linear parts
        N1, N2 = P1.complement_basis(), P2.complement_basis()
        A = np.vstack([N1, N2])
        b = np.concatenate([N1 @ P1.offset, N2 @ P2.offset])
        x0, *_ = np.linalg.lstsq(A, b, rcond=None)
        if np.linalg.norm(A @ x0 - b) > tol:
            return None
        _, s, vt = np.linalg.svd(A)
        rank = int(np.sum(s > 1e-10 * max(1.0, s[0])))
        direction = vt[rank:]
        return Subspace(direction, offset=x0 - direction.T @ (direction @ x0)
                        if direction.size else x0,
                        ambient_dim=self.ambient_dim)

    def axis_dim(self):
        A = self.axis()
        return -1 if A is None else A.dim

    def spine(self, tol=DEFAULT_TOL):
        """Set of points of maximal density, as a subspace.

        Requires the origin to lie on the support.  For a multiplicity-two
        plane this is the plane itself; for a transverse pair or a four
        half-plane union it is the axis.
        """
        if self.dist_to_support(np.zeros(self.ambient_dim)) > tol:
            raise ValueError("spine is defined for cones through the origin")
        if self.multiplicity2:
            return self.pieces[0]
        A = self.axis()
        if A is None:
            raise ValueError("spine undefined for cones with empty axis")
        return A

    # -- distances ---------------------------------------------------------

    def dist_to_support(self, X):
        """Distance from point(s) X to the support, vectorized."""
        X = np.asarray(X, dtype=float)
        d = None
        for piece in self.pieces:
            dp = piece.distance(X)
            d = dp if d is None else np.minimum(d, dp)
        return d

    def nearest_piece(self, X):
        """Index of the piece realizing dist_to_support, vectorized."""
        X = np.asarray(X, dtype=float)
        ds = np.stack([p.distance(X) for p in self.pieces])
        return np.argmin(ds, axis=0)

    def r(self, X):
        """Distance from X to the axis (the radial coordinate r_C)."""
        A = self.axis()
        if A is None:
            raise ValueError("r_C requires a nonempty axis")
        return A.distance(X)

    def piece_tangent_bases(self):
        """Orthonormal tangent basis (n, n+k) of each constituent piece."""
        if self.kind == "pair":
            return [P.basis for P in self.pieces]
        return [H.plane.basis for H in self.pieces]

    # -- alignment ---------------------------------------------------------

    def align(self):
        """Frame placing the axis in the last coordinates (product form).

        Returns an AlignmentFrame whose rotation rows are first an
        orthonormal basis of the axis complement, then of the axis; for an
        already-aligned cone the rotation is the identity.
        """
        A = self.axis()
        if A is None:
            raise ValueError("alignment requires a nonempty axis")
        d = self.ambient_dim
        m = A.dim
        # complement seeded from the coordinate axes so that an aligned cone
        # maps to itself under the identity
        comp = []
        for e in np.eye(d):
            w = e - A.basis.T @ (A.basis @ e) if m else e.copy()
            for b in comp:
                w = w - (w @ b) * b
            nw = np.linalg.norm(w)
            if nw > 1e-10 and len(comp) < d - m:
                comp.append(w / nw)
        rotation = np.vstack([np.array(comp), A.basis]) if m else np.array(comp)
        omegas = None
        if self.kind == "four_hp":
            omegas = np.array([H.side for H in self.pieces])
        return AlignmentFrame(rotation, m, self.n - m, omegas)

    # -- sampling ----------------------------------------------------------

    def sample_support(self, count_per_piece, radius=2.0, seed=0):
        """Quasi-random samples of the support inside B_radius(0).

        Returns (points, weights, piece): weights sum to the n-area of the
        support inside the ball (QMC estimate), and piece holds each
        sample's piece index.  Because each piece is linear and sampled in
        isometric coefficient coordinates, points lie exactly on the
        support.
        """
        pts, wts, piece = [], [], []
        for i, frame in enumerate(self.piece_frames()):
            basis, half = frame
            c, w = _ball_coefficients(basis.shape[0], count_per_piece,
                                      radius, seed + i, half=half)
            pts.append(c @ basis)
            wts.append(w)
            piece.append(np.full(len(w), i))
        return np.vstack(pts), np.concatenate(wts), np.concatenate(piece)

    def piece_frames(self):
        """Isometric coefficient frames of the pieces.

        Each entry is (basis, half): basis rows are an orthonormal tangent
        basis, and half=True means the first coefficient is restricted to
        [0, inf) (half-plane side coordinate).  Affine pairs are not
        supported here (sampling assumes pieces through the origin).
        """
        frames = []
        if self.kind == "pair":
            for P in self.pieces:
                if np.linalg.norm(P.offset) > 1e-12:
                    raise ValueError("support sampling needs linear planes")
                frames.append((P.basis, False))
        else:
            for H in self.pieces:
                rows = np.vstack([H.side[None], H.boundary.basis])
                frames.append((rows, True))
        return frames

    # -- serialization -----------------------------------------------------

    def to_json(self):
        if self.kind == "pair":
            body = {"kind": "pair", "n": self.n, "k": self.k,
                    "multiplicity2": self.multiplicity2,
                    "planes": [{"basis": P.basis.tolist(),
                                "offset": P.offset.tolist()}
                               for P in self.pieces]}
        else:
            body = {"kind": "four_hp", "n": self.n, "k": self.k,
                    "boundary": self.pieces[0].boundary.basis.tolist(),
                    "sides": [H.side.tolist() for H in self.pieces]}
        return json.dumps(body, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        amb = d["n"] + d["k"]
        if d["kind"] == "pair":
            planes = [Subspace(np.array(p["basis"]),
                               offset=np.array(p["offset"]),
                               ambient_dim=amb) for p in d["planes"]]
            return cls("pair", planes, d["n"], d["k"],
                       multiplicity2=d.get("multiplicity2", False))
        boundary = Subspace(np.array(d["boundary"]), ambient_dim=amb)
        return cls.four_half_planes(boundary,
                                    [np.array(s) for s in d["sides"]])

    def __repr__(self):
        return "Cone(kind=%r, n=%d, k=%d)" % (self.kind, self.n, self.k)


class AlignmentFrame:
    """Orthogonal frame putting a cone in product form C0 x R^m.

    ``rotation`` rows are the new basis vectors: the first l+k rows span the
    axis complement, the last m rows the axis.  ``omegas`` holds the four
    cross-section directions for four half-plane cones (unit vectors at
    {r_C = 1} orthogonal to the axis), in the original frame.
    """

    def __init__(self, rotation, m, l, omegas=None):
        self.rotation = np.asarray(rotation, dtype=float)
        g = self.rotation @ self.rotation.T - np.eye(self.rotation.shape[0])
        if np.abs(g).max() > 1e-12:
            raise ValueError("alignment rotation is not orthogonal")
        self.m = int(m)
        self.l = int(l)
        self.omegas = None if omegas is None else np.asarray(omegas, float)

    def to_aligned(self, X):
        """Coordinates of X in the aligned frame (axis part last)."""
        return np.asarray(X, dtype=float) @ self.rotation.T

    def from_aligned(self, Y):
        return np.asarray(Y, dtype=float) @ self.rotation

    def cross_section_radius(self, X):
        """|x|-part of X in the aligned frame (equals dist to the axis)."""
        Y = self.to_aligned(X)
        lk = self.rotation.shape[0] - self.m
        return np.linalg.norm(Y[..., :lk], axis=-1)


def nu(C, D, samples=2000, seed=0):
    """Hausdorff distance between the two supports inside B_2(0).

    Quasi-random support samples; converges to the exact cone distance as
    ``samples`` grows.  ``samples`` is the per-piece count and must be at
    least 100 for a meaningful estimate.
    """
    if samples < 100:
        raise ValueError("nu needs at least 100 samples per piece")
    if C.ambient_dim != D.ambient_dim:
        raise ValueError("cones live in different ambient spaces")
    A, _, _ = C.sample_support(samples, radius=2.0, seed=seed)
    B, _, _ = D.sample_support(samples, radius=2.0, seed=seed + 101)
    # directed distances to the other support are exact (both pieces are
    # convex sets through 0, so nearest points inside B_2 stay inside B_2);
    # only the sup is taken over a dense sample
    d_ab = float(D.dist_to_support(A).max())
    d_ba = float(C.dist_to_support(B).max())
    return max(d_ab, d_ba)


def _ball_coefficients(n, count, radius, seed, half=False):
    """Quasi-random points in the n-ball (or half-ball) of given radius.

    Returns (coords, weights); weights are the QMC cube-rejection weights so
    that their sum estimates the (half-)ball volume.
    """
    sampler = qmc.Halton(d=n, scramble=False, seed=seed)
    # over-generate in the cube, then reject outside the ball
    from .geometry import unit_ball_volume
    ratio = 2.0 ** n / unit_ball_volume(n)
    total = max(int(np.ceil(count * ratio * 1.3)), count + 16)
    u = sampler.random(total)
    c = (2.0 * u - 1.0) * radius
    if half:
        c[:, 0] = np.abs(c[:, 0])
    keep = np.linalg.norm(c, axis=1) <= radius
    c = c[keep]
    cube_vol = (2.0 * radius) ** n / (2.0 if half else 1.0)
    w = np.full(c.shape[0], cube_vol / total)
    return c, w
