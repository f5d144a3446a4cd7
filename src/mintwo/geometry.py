"""Affine subspaces, projections, balls, cylinders and toric regions.

Shared geometric substrate for the rest of the package.  Everything here is a
pure function over immutable numpy inputs.
"""

import numpy as np

DEFAULT_TOL = 1e-9
ORTHO_TOL = 1e-12


def orthonormalize(vectors, tol=ORTHO_TOL):
    """Orthonormalize the rows of ``vectors`` by modified Gram-Schmidt.

    A second re-orthogonalization pass is applied for numerical stability on
    near-degenerate spans.  Rows that collapse below ``tol`` are dropped.

    Parameters
    ----------
    vectors : (m, d) array_like
    tol : float
        Norm threshold under which a row counts as dependent.

    Returns
    -------
    (r, d) ndarray with pairwise orthonormal rows, r <= m.
    """
    v = np.atleast_2d(np.asarray(vectors, dtype=float)).copy()
    out = []
    for _ in range(2):
        basis = []
        for row in (out if out else v):
            w = row.copy()
            for b in basis:
                w = w - (w @ b) * b
            nw = np.linalg.norm(w)
            if nw > tol:
                basis.append(w / nw)
        out = basis
    return np.array(out).reshape(len(out), v.shape[1])


def by_rows(fn, X):
    """fn(X) for a row-wise fn, a lone row evaluated as in a batch.

    numpy sends a one-row matrix product to the BLAS matrix-vector
    product, which sums in another order than the matrix-matrix product.
    A lone row is therefore evaluated as two equal rows, so that a row's
    value does not depend on the other rows.
    """
    if len(X) == 1:
        return fn(np.repeat(X, 2, axis=0))[:1]
    return fn(X)


class Subspace:
    """An affine subspace of R^d given by an orthonormal basis and an offset.

    ``basis`` has shape (dim, ambient_dim); ``offset`` is the zero vector for
    linear subspaces.
    """

    def __init__(self, basis, offset=None, ambient_dim=None):
        basis = np.asarray(basis, dtype=float)
        if basis.size == 0:
            if ambient_dim is None:
                raise ValueError("empty basis needs an explicit ambient_dim")
            basis = np.zeros((0, ambient_dim))
        else:
            basis = np.atleast_2d(basis)
        self.ambient_dim = basis.shape[1]
        self.basis = orthonormalize(basis)
        if self.basis.shape[0] != basis.shape[0]:
            raise ValueError("basis rows are linearly dependent")
        self.offset = (np.zeros(self.ambient_dim) if offset is None
                       else np.asarray(offset, dtype=float))
        if self.offset.shape != (self.ambient_dim,):
            raise ValueError("offset dimension mismatch")
        g = self.basis @ self.basis.T - np.eye(self.dim)
        if self.dim and np.abs(g).max() > 1e-10:
            raise ValueError("orthonormalization failed")

    @property
    def dim(self):
        return self.basis.shape[0]

    @classmethod
    def span(cls, vectors, offset=None, ambient_dim=None):
        """Subspace spanned by possibly non-orthonormal ``vectors``."""
        return cls(orthonormalize(vectors) if np.asarray(vectors).size else vectors,
                   offset=offset, ambient_dim=ambient_dim)

    def project(self, p):
        """Orthogonal projection of point(s) ``p`` onto this subspace."""
        p = np.asarray(p, dtype=float)
        if p.shape[-1] != self.ambient_dim:
            raise ValueError("point dimension %d != ambient %d"
                             % (p.shape[-1], self.ambient_dim))
        q = p - self.offset
        return self.offset + (q @ self.basis.T) @ self.basis

    def perp(self, p):
        """Component of ``p - offset`` orthogonal to the subspace."""
        return np.asarray(p, dtype=float) - self.project(p)

    def distance(self, p):
        """Euclidean distance from point(s) to the subspace."""
        return np.linalg.norm(self.perp(p), axis=-1)

    def contains(self, p, tol=DEFAULT_TOL):
        return np.all(self.distance(p) <= tol)

    def complement_basis(self):
        """Orthonormal basis of the orthogonal complement (linear part)."""
        d = self.ambient_dim
        full = np.vstack([self.basis, np.eye(d)])
        comp = orthonormalize(full)[self.dim:]
        return comp

    def __eq__(self, other):
        if not isinstance(other, Subspace) or self.dim != other.dim:
            return False
        if self.ambient_dim != other.ambient_dim:
            return False
        # same linear part and the offsets differ along it
        p = self.basis - (self.basis @ other.basis.T) @ other.basis
        if self.dim and np.abs(p).max() > 1e-9:
            return False
        return other.distance(self.offset) < 1e-9

    def __repr__(self):
        return "Subspace(dim=%d, ambient=%d)" % (self.dim, self.ambient_dim)


def subspace_intersection(S1, S2, tol=1e-9):
    """Intersection of two linear subspaces (offsets must both contain 0).

    Returns a ``Subspace`` through the origin, possibly of dimension 0, or
    ``None`` if the affine subspaces do not meet.
    """
    if np.linalg.norm(S1.offset) > tol or np.linalg.norm(S2.offset) > tol:
        raise ValueError("subspace_intersection expects linear subspaces")
    # intersection = kernel of the stacked complement projections
    comps = np.vstack([S1.complement_basis(), S2.complement_basis()])
    if comps.shape[0] == 0:
        return Subspace(np.eye(S1.ambient_dim))
    _, s, vt = np.linalg.svd(comps)
    rank = int(np.sum(s > tol * max(1.0, s[0] if len(s) else 1.0)))
    kernel = vt[rank:]
    return Subspace(kernel, ambient_dim=S1.ambient_dim)


class Ball:
    """Open ball region."""

    kind = "ball"

    def __init__(self, center, radius):
        self.center = np.asarray(center, dtype=float)
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)

    def contains(self, p):
        p = np.asarray(p, dtype=float)
        d = np.linalg.norm(p - self.center, axis=-1)
        return d < self.radius


class Torus:
    """Toric region about an axis: (|x| - rho)^2 + |y - zeta|^2 < r^2.

    Here x is the component of the point orthogonal to ``axis`` and y the
    component along it.
    """

    kind = "torus"

    def __init__(self, axis, rho, r, zeta=None):
        if not (0 < r < rho):
            raise ValueError("Torus requires 0 < r < rho")
        self.axis = axis
        self.rho = float(rho)
        self.r = float(r)
        if zeta is None:
            zeta = np.zeros(axis.ambient_dim)
        self.zeta = axis.project(np.asarray(zeta, dtype=float))

    def contains(self, p):
        p = np.asarray(p, dtype=float)
        y = self.axis.project(p)
        x = p - y
        rx = np.linalg.norm(x, axis=-1)
        dy = np.linalg.norm(y - self.zeta, axis=-1)
        return (rx - self.rho) ** 2 + dy ** 2 < self.r ** 2


class Cylinder:
    """Cylinder over a ball in the first ``base_dim`` coordinates.

    Contains p iff the leading base_dim coordinates lie in the open ball of
    the given radius; the remaining coordinates are unconstrained.
    """

    kind = "cylinder"

    def __init__(self, base_dim, radius, center=None):
        self.base_dim = int(base_dim)
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)
        self.center = (np.zeros(self.base_dim) if center is None
                       else np.asarray(center, dtype=float))

    def contains(self, p):
        p = np.asarray(p, dtype=float)
        d = np.linalg.norm(p[..., :self.base_dim] - self.center, axis=-1)
        return d < self.radius


class Everything:
    """Trivial region containing every point (used as a default)."""

    kind = "all"

    def contains(self, p):
        p = np.asarray(p, dtype=float)
        return np.ones(p.shape[:-1], dtype=bool)


def unit_ball_volume(n):
    """Volume of the unit ball in R^n."""
    from scipy.special import gamma
    return float(np.pi ** (n / 2.0) / gamma(n / 2.0 + 1.0))


def rotation_fixing_axis(axis, angle_seed, rng=None):
    """Random rotation of the ambient space fixing ``axis`` pointwise.

    Used by tests to probe rotational invariance of toric regions.
    """
    rng = np.random.default_rng(angle_seed) if rng is None else rng
    d = axis.ambient_dim
    comp = axis.complement_basis()
    m = comp.shape[0]
    a = rng.standard_normal((m, m))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    rot = np.eye(d) + comp.T @ (q - np.eye(m)) @ comp
    return rot
