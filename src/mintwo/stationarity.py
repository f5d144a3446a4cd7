"""Stationarity diagnostics: weak-form residual and first-variation defect.

Test fields are polynomial bumps with closed-form Jacobians; derivatives of
the surface, and of the scalar test functions in the weak form, are taken
with the same central-difference operator so that the residual cancels
exactly (summation by parts) on linear sheets.
"""

import numpy as np

from .geometry import by_rows, unit_ball_volume

# sup-norm bounds of the derivative of the bump profile (1 - u)^3, u = s^2:
# |d/ds (1-s^2)^3| <= 96 sqrt(5)/125 ~ 1.7173 on [0, 1]
_BUMP_GRAD_MAX = 96.0 * np.sqrt(5.0) / 125.0
# max of s^2 (1 - s^2)^2 on [0,1] is 4/27 (attained at s^2 = 1/3)
_RADIAL_JAC_MAX = 1.0 + 6.0 * 4.0 / 27.0


def bump(u):
    """Compactly supported C^2 profile (1 - u)^3 on u < 1, else 0."""
    return np.where(u < 1.0, (1.0 - np.minimum(u, 1.0)) ** 3, 0.0)


def bump_deriv(u):
    return np.where(u < 1.0, -3.0 * (1.0 - np.minimum(u, 1.0)) ** 2, 0.0)


class BumpField:
    """Compactly supported C^1 vector field with analytic Jacobian.

    kind "coordinate_bump": amplitude * (1 - |X-c|^2/r^2)^3 * direction;
    kind "radial_bump": amplitude * (1 - |X-c|^2/r^2)^3 * (X - c).
    ``unit_dphi_bound`` is the recorded sup-norm bound of the unit-amplitude
    Jacobian, used as the normalization scale of defects.
    """

    def __init__(self, kind, center, radius, direction=None, amplitude=1.0):
        if kind not in ("coordinate_bump", "radial_bump"):
            raise ValueError("unknown test field kind %r" % kind)
        self.kind = kind
        self.center = np.asarray(center, dtype=float)
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)
        self.amplitude = float(amplitude)
        if kind == "coordinate_bump":
            direction = np.asarray(direction, dtype=float)
            self.direction = direction / np.linalg.norm(direction)
            self.unit_dphi_bound = _BUMP_GRAD_MAX / self.radius
        else:
            self.direction = None
            self.unit_dphi_bound = _RADIAL_JAC_MAX

    def _u(self, X):
        q = np.asarray(X, dtype=float) - self.center
        return q, np.einsum("...d,...d->...", q, q) / self.radius ** 2

    def value(self, X):
        q, u = self._u(X)
        b = bump(u)[..., None]
        if self.kind == "coordinate_bump":
            return self.amplitude * b * self.direction
        return self.amplitude * b * q

    def jacobian(self, X):
        """DPhi with entries dPhi_i/dX_j, shape (..., d, d)."""
        q, u = self._u(X)
        db = bump_deriv(u) * 2.0 / self.radius ** 2
        if self.kind == "coordinate_bump":
            J = np.einsum("i,...j->...ij", self.direction, db[..., None] * q)
        else:
            d = q.shape[-1]
            J = (bump(u)[..., None, None] * np.eye(d)
                 + np.einsum("...i,...j->...ij", q, db[..., None] * q))
        return self.amplitude * J

    def supported(self, X):
        _, u = self._u(X)
        return u < 1.0


def check_max_unreliable(max_unreliable):
    """Raise unless the tolerated unreliable fraction lies in [0, 1]."""
    if not 0.0 <= max_unreliable <= 1.0:
        raise ValueError("max_unreliable must lie in [0, 1], got %g"
                         % max_unreliable)


# samples per chunk of the first-variation pass: a chunk of 4-d samples
# (d = 7) holds about 1.2 KiB of Jacobian and tangent work per sample
_CHUNK = 1 << 11


def _tangential_div(f, X, T):
    """div^T Phi = tr(P_T DPhi) at points X with tangent rows T (m, n, d)."""
    return np.einsum("mnd,mde,mne->m", T, f.jacobian(X), T)


def first_variation_defect(V, fields, max_unreliable=0.05):
    """Max over fields of the normalized tangential-divergence integral.

    For a stationary varifold the integral of div^T Phi vanishes for every
    compactly supported C^1 field; the defect is |sum w * tr(P_T DPhi)|
    divided by the field's unit-amplitude Jacobian bound (so the defect is
    linear in the field).  A field whose support holds no sample tests
    nothing, so it raises rather than add a defect of 0.

    The support mask and the divergences are computed over chunks of
    ``_CHUNK`` samples, each chunk evaluated as ``geometry.by_rows`` does
    it, so no pass holds a Jacobian per supported sample.  The
    divergences go into one array, and the sum is one ``np.sum`` over it:
    summing per chunk would pair the terms otherwise and move the last
    bit.
    """
    check_max_unreliable(max_unreliable)
    if V.tangents is None:
        raise ValueError("first variation needs per-sample tangents")
    P, T = V.points, V.tangents
    worst = 0.0
    for f in fields:
        sup = np.concatenate([by_rows(f.supported, P[s:s + _CHUNK])
                              for s in range(0, max(len(P), 1), _CHUNK)])
        idx = np.flatnonzero(sup)
        if not len(idx):
            raise ValueError("no sample in the support of a %s field"
                             % f.kind)
        bad = np.sum(~V.tangent_ok[idx]) / float(len(idx))
        if bad > max_unreliable:
            raise ValueError("unreliable tangents on %.1f%% of samples "
                             "in a field support" % (100 * bad))
        div = np.empty(len(idx))
        for s in range(0, len(idx), _CHUNK):
            at = idx[s:s + _CHUNK]
            div[s:s + len(at)] = by_rows(
                lambda i: _tangential_div(f, P[i], T[i]), at)
        defect = abs(float(np.sum(V.weights[idx] * div)))
        worst = max(worst, defect / f.unit_dphi_bound)
    return worst


def _central_diff(values, h):
    """Central differences of a node array along every axis (interior)."""
    n = values.ndim - 1
    grads = []
    inner = tuple(slice(1, -1) for _ in range(n))
    for ax in range(n):
        lo = list(inner)
        hi = list(inner)
        lo[ax] = slice(None, -2)
        hi[ax] = slice(2, None)
        grads.append((values[tuple(hi)] - values[tuple(lo)]) / (2.0 * h))
    return np.stack(grads, axis=-2)  # (..., n, k)


def mss_residual(f, bumps):
    """Weak minimal-surface-system residual of a single-valued sheet.

    ``f`` is a TwoValuedGrid whose two values coincide at every node of
    its lattice (ValueError otherwise), read as the one sheet ``a1``.
    For each bump (center, radius) and each codomain direction, evaluates
    |sum_nodes sqrt(g) g^{ij} D_i f^kappa D_j phi^kappa| * h^n, normalized
    by the test gradient bound times the support volume; the maximum over
    the family is returned.  Both f and phi are differenced with the same
    central stencil, so the residual cancels exactly for linear f.
    """
    n, k, h = f.n, f.k, f.h
    if not np.array_equal(f.a1, f.a2):
        raise ValueError("mss_residual needs a single-valued sheet, "
                         "but the two values of the grid differ")
    box_lo = np.array([ax[0] for ax in f.axes]) + h
    box_hi = np.array([ax[-1] for ax in f.axes]) - h
    nodes = f.coords
    Df = _central_diff(f.a1, h)  # interior nodes, (..., n, k)
    g = np.eye(n) + np.einsum("...ik,...jk->...ij", Df, Df)
    ginv = np.linalg.inv(g)
    sqrtg = np.sqrt(np.linalg.det(g))
    inner = tuple(slice(1, -1) for _ in range(n))
    X = nodes[inner]
    worst = 0.0
    for center, radius in bumps:
        center = np.asarray(center, dtype=float)
        if np.any(center - radius < box_lo) or np.any(center + radius
                                                      > box_hi):
            raise ValueError("test function support touches the patch "
                             "boundary")
        q = nodes - center
        u = np.einsum("...d,...d->...", q, q) / radius ** 2
        phi = bump(u)
        Dphi = _central_diff(phi[..., None], h)[..., 0]  # (..., n)
        coeff = np.einsum("...,...ij,...ik->...jk", sqrtg, ginv, Df)
        for kappa in range(k):
            val = abs(float(np.sum(coeff[..., kappa] * Dphi) * h ** n))
            scale = (_BUMP_GRAD_MAX / radius
                     * unit_ball_volume(n) * radius ** n)
            worst = max(worst, val / scale)
    return worst
