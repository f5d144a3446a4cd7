"""Stationarity diagnostics: weak-form residual and first-variation defect.

Test fields are polynomial bumps with closed-form Jacobians; derivatives of
the surface, and of the scalar test functions in the weak form, are taken
with the same central-difference operator so that the residual cancels
exactly (summation by parts) on linear sheets.
"""

import numpy as np

from .geometry import (by_rows, central_differences, check_radius,
                       unit_ball_volume)

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
        check_radius(radius)
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
# (d = 7) holds their frames, and per field a Jacobian and a divergence,
# about 0.8 KiB a sample
_CHUNK = 1 << 8


def _tangential_div(f, X, T):
    """div^T Phi = tr(P_T DPhi) at points X with tangent rows T (m, n, d)."""
    return np.einsum("mnd,mde,mne->m", T, f.jacobian(X), T)


def first_variation_defect(V, fields, max_unreliable=0.05):
    """Normalized tangential-divergence integral of each field, in order.

    For a stationary varifold the integral of div^T Phi vanishes for every
    compactly supported C^1 field; a field's defect is
    |sum w * tr(P_T DPhi)| divided by the field's unit-amplitude Jacobian
    bound (so the defect is linear in the field).  Returns the list of
    the fields' defects.  A field whose support holds no sample tests
    nothing, so it raises rather than add a defect of 0; so does a field
    whose support holds more than ``max_unreliable`` unreliable tangents.
    The fields are checked in order before any divergence is computed.

    Both passes run over chunks of ``_CHUNK`` samples: the first marks the
    support of each field, the second reads the frames of the chunk's
    samples that some field supports once (``V.frames``) and computes
    every field's divergences there, each chunk evaluated as
    ``geometry.by_rows`` does it.  Each field's weighted divergences go
    into one array of its own, and its sum is one ``np.sum`` over it:
    summing per chunk would pair the terms otherwise and move the last
    bit.
    """
    check_max_unreliable(max_unreliable)
    if not V.has_frames:
        raise ValueError("first variation needs per-sample tangents")
    W = V.weights
    spans = [slice(s, min(s + _CHUNK, len(W)))
             for s in range(0, max(len(W), 1), _CHUNK)]
    sup = np.empty((len(fields), len(W)), dtype=bool)
    for rows in spans:
        X = V.points_at(rows)
        for f, mask in zip(fields, sup):
            mask[rows] = by_rows(f.supported, X)
    terms, unreliable = [], ~V.tangent_ok
    for f, mask in zip(fields, sup):
        count = np.count_nonzero(mask)
        if not count:
            raise ValueError("no sample in the support of a %s field"
                             % f.kind)
        bad = np.count_nonzero(mask & unreliable) / float(count)
        if bad > max_unreliable:
            raise ValueError("unreliable tangents on %.1f%% of samples "
                             "in a field support" % (100 * bad))
        terms.append(np.empty(count))
    at = [0] * len(fields)
    for rows in spans:
        chunk = sup[:, rows]
        read = np.flatnonzero(chunk.any(axis=0))
        if not len(read):
            continue
        idx = rows.start + read
        X, T = V.points_at(idx), V.frames(idx)
        for j, f in enumerate(fields):
            sel = np.flatnonzero(chunk[j, read])
            div = by_rows(lambda i: _tangential_div(f, X[i], T[i]), sel)
            terms[j][at[j]:at[j] + len(sel)] = W[idx[sel]] * div
            at[j] += len(sel)
    return [abs(float(np.sum(t))) / f.unit_dphi_bound
            for f, t in zip(fields, terms)]


def mss_residual(f, bumps):
    """Weak minimal-surface-system residual of a single-valued sheet.

    ``f`` is a TwoValuedGrid whose two values coincide at every node that
    the bumps read (ValueError otherwise), read as the one sheet ``a1``.
    For each bump (center, radius) and each codomain direction, evaluates
    |sum_nodes sqrt(g) g^{ij} D_i f^kappa D_j phi^kappa| * h^n, normalized
    by the test gradient bound times the support volume; the maximum over
    the family is returned.  Both f and phi are differenced with the same
    central stencil, so the residual cancels exactly for linear f.

    A bump's support must keep one node from the boundary of ``f``'s
    lattice.  The sums run over the interior of the ``TwoValuedGrid.box``
    that covers every support and three cells more, since every other
    node adds an exact 0: D phi is non-zero up to one cell beyond a
    support, D f there reads one cell further, and the third cell absorbs
    rounding.  Only the box's values are computed.
    """
    n, k, h = f.n, f.k, f.h
    box_lo = np.array([ax[0] for ax in f.axes]) + h
    box_hi = np.array([ax[-1] for ax in f.axes]) - h
    bumps = [(np.asarray(c, dtype=float), r) for c, r in bumps]
    for center, radius in bumps:
        if np.any(center - radius < box_lo) or np.any(center + radius
                                                      > box_hi):
            raise ValueError("test function support touches the patch "
                             "boundary")
    lo = np.min([c - r for c, r in bumps], axis=0)
    hi = np.max([c + r for c, r in bumps], axis=0)
    f = f.box((hi - lo) / 2 + 3 * h, (hi + lo) / 2)
    if not np.array_equal(f.a1, f.a2):
        raise ValueError("mss_residual needs a single-valued sheet, "
                         "but the two values of the grid differ")
    nodes = f.coords
    Df = central_differences(f.a1, h)  # interior nodes, (..., n, k)
    g = np.eye(n) + np.einsum("...ik,...jk->...ij", Df, Df)
    ginv = np.linalg.inv(g)
    sqrtg = np.sqrt(np.linalg.det(g))
    coeff = np.einsum("...,...ij,...ik->...jk", sqrtg, ginv, Df)
    del g, ginv, sqrtg
    worst = 0.0
    for center, radius in bumps:
        q = nodes - center
        u = np.einsum("...d,...d->...", q, q) / radius ** 2
        phi = bump(u)
        Dphi = central_differences(phi[..., None], h)[..., 0]  # (..., n)
        for kappa in range(k):
            val = abs(float(np.sum(coeff[..., kappa] * Dphi) * h ** n))
            scale = (_BUMP_GRAD_MAX / radius
                     * unit_ball_volume(n) * radius ** n)
            worst = max(worst, val / scale)
    return worst
