"""Linear subspaces, projections, balls and cylinders.

Shared geometric substrate for the rest of the package.  Everything here is a
pure function over immutable numpy inputs.  ``require_keys`` checks the JSON
objects that the ``from_json`` constructors read.
"""

import math

import numpy as np

ORTHO_TOL = 1e-12


def orthonormalize(vectors):
    """Orthonormalize the rows of ``vectors`` by modified Gram-Schmidt.

    A second re-orthogonalization pass is applied for numerical stability on
    near-degenerate spans.  Rows whose norm collapses to ``ORTHO_TOL`` or
    below count as dependent and are dropped.

    Parameters
    ----------
    vectors : (m, d) array_like

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
            if nw > ORTHO_TOL:
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


def central_differences(values, h):
    """Central differences of a node array (..., k) of spacing ``h`` along
    every axis, at the interior nodes: shape (..., n, k)."""
    n = values.ndim - 1
    grads = []
    inner = tuple(slice(1, -1) for _ in range(n))
    for ax in range(n):
        lo = list(inner)
        hi = list(inner)
        lo[ax] = slice(None, -2)
        hi[ax] = slice(2, None)
        grads.append((values[tuple(hi)] - values[tuple(lo)]) / (2.0 * h))
    return np.stack(grads, axis=-2)


def complement_basis(rows, d):
    """Orthonormal basis of the orthogonal complement in R^d of the span of
    the orthonormal ``rows``; the identity when there are no rows."""
    return orthonormalize(np.vstack([rows, np.eye(d)]))[len(rows):]


class Subspace:
    """A linear subspace of R^d given by an orthonormal basis.

    ``basis`` has shape (dim, ambient_dim).
    """

    def __init__(self, basis, ambient_dim=None):
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
        g = self.basis @ self.basis.T - np.eye(self.dim)
        if self.dim and np.abs(g).max() > 1e-10:
            raise ValueError("orthonormalization failed")

    @property
    def dim(self):
        return self.basis.shape[0]

    def project(self, p):
        """Orthogonal projection of point(s) ``p`` onto this subspace."""
        p = np.asarray(p, dtype=float)
        if p.shape[-1] != self.ambient_dim:
            raise ValueError("point dimension %d != ambient %d"
                             % (p.shape[-1], self.ambient_dim))
        return (p @ self.basis.T) @ self.basis

    def perp(self, p):
        """Component of ``p`` orthogonal to the subspace."""
        return np.asarray(p, dtype=float) - self.project(p)

    def distance(self, p):
        """Euclidean distance from point(s) to the subspace."""
        return np.linalg.norm(self.perp(p), axis=-1)

    def __eq__(self, other):
        if not isinstance(other, Subspace) or self.dim != other.dim:
            return False
        if self.ambient_dim != other.ambient_dim:
            return False
        p = self.basis - (self.basis @ other.basis.T) @ other.basis
        return not self.dim or np.abs(p).max() <= 1e-9

    def __repr__(self):
        return "Subspace(dim=%d, ambient=%d)" % (self.dim, self.ambient_dim)


def check_radius(radius, what="radius"):
    """Raise unless ``radius`` is positive and finite (NaN is neither)."""
    if not 0 < radius < math.inf:
        raise ValueError("%s must be positive and finite, got %g"
                         % (what, radius))


class Ball:
    """Open ball region."""

    def __init__(self, center, radius):
        self.center = np.asarray(center, dtype=float)
        check_radius(radius)
        self.radius = float(radius)

    def contains(self, p):
        p = np.asarray(p, dtype=float)
        d = np.linalg.norm(p - self.center, axis=-1)
        return d < self.radius


class Cylinder:
    """Cylinder over a ball in the first ``base_dim`` coordinates.

    Contains p iff the leading base_dim coordinates lie in the open ball of
    the given radius; the remaining coordinates are unconstrained.
    """

    def __init__(self, base_dim, radius):
        self.base_dim = int(base_dim)
        check_radius(radius)
        self.radius = float(radius)

    def contains(self, p):
        p = np.asarray(p, dtype=float)
        d = np.linalg.norm(p[..., :self.base_dim], axis=-1)
        return d < self.radius


def require_keys(doc, keys, what):
    """``doc`` if it is a JSON object holding ``keys``, else ValueError."""
    if not isinstance(doc, dict):
        raise ValueError("%s is not a JSON object" % what)
    for key in keys:
        if key not in doc:
            raise ValueError("%s has no key %r" % (what, key))
    return doc


def require_types(doc, what, counts=(), reals=()):
    """ValueError unless each key of ``counts`` holds a positive int and
    each key of ``reals`` a number (bool is neither)."""
    for key in counts:
        v = doc[key]
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise ValueError("%s %s must be a positive integer, got %r"
                             % (what, key, v))
    for key in reals:
        v = doc[key]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError("%s %s must be a number, got %r"
                             % (what, key, v))


def half_gamma(j):
    """Gamma(j / 2) for a positive integer j.

    At even j this is the factorial (j/2 - 1)!, equal bit for bit to
    ``scipy.special.gamma``.  At odd j it is the product
    sqrt(pi) * 1/2 * 3/2 * ... * (j/2 - 1), taken in that order, which is
    within 1 ulp of ``scipy.special.gamma`` for j <= 29 (no closed form in
    floating point equals it at every odd j).
    """
    if j % 2 == 0:
        return float(math.factorial(j // 2 - 1))
    out = math.sqrt(math.pi)
    for t in range(1, j - 1, 2):
        out *= t / 2
    return out


def unit_ball_volume(n):
    """Volume of the unit ball in R^n."""
    return float(np.pi ** (n / 2.0) / half_gamma(n + 2))
