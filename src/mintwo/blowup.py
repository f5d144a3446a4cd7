"""Linearized deformations of a cone and diagnostics for blow-up candidates.

The degree-one linearized class over a four half-plane cone consists of
axis-coordinate multiples of fixed normal vectors plus a radial multiple of
one normal value per half-plane; over a pair of planes it consists of one
affine map per plane into its normal bundle.  Dehomogenization is the
weighted L2 projection of a sampled normal field onto that
finite-dimensional space.
"""

import json

import numpy as np

from .cones import Cone
from .geometry import complement_basis, require_keys, require_types


def _piece_bases(C0):
    """Tangent rows (the chart frame) and normal basis of each piece."""
    tangents = [rows for rows, _ in C0.piece_frames()]
    return tangents, [complement_basis(T, C0.ambient_dim) for T in tangents]


class HElement:
    """Element of the linearized class over a cone.

    kind "four_hp": ``c`` is an (n-1, d) array of ambient vectors in the
    axis complement (one per axis coordinate) and ``phi`` a (4, d) array of
    per-piece values each orthogonal to its half-plane.  kind "pair":
    ``maps`` is a list of two (n+1, k) affine maps in plane/normal
    coordinates (last row the constant part).
    """

    def __init__(self, C0, c=None, phi=None, maps=None):
        self.C0 = C0
        self.kind = C0.kind
        d = C0.ambient_dim
        self.tangents, self.normals = _piece_bases(C0)
        if self.kind == "four_hp":
            A = C0.axis()
            self.axis = A
            self.c = np.zeros((max(C0.n - 1, 0), d)) if c is None \
                else np.asarray(c, dtype=float)
            if A.dim and self.c.size:
                if np.abs(self.c @ A.basis.T).max() > 1e-10:
                    raise ValueError("axis coefficients must lie in the "
                                     "axis complement")
            self.phi = np.zeros((4, d)) if phi is None \
                else np.asarray(phi, dtype=float)
            for j in range(4):
                if np.abs(self.tangents[j] @ self.phi[j]).max() > 1e-10:
                    raise ValueError("phi value %d is not orthogonal to "
                                     "its half-plane" % j)
        elif self.kind == "pair":
            self.axis = C0.axis()
            self.maps = ([np.zeros((C0.n + 1, C0.k)) for _ in range(2)]
                         if maps is None
                         else [np.asarray(m, dtype=float) for m in maps])
        else:
            raise ValueError("unsupported cone kind %r" % self.kind)

    def coefficient_vector(self):
        if self.kind == "four_hp":
            return np.concatenate([self.c.ravel(), self.phi.ravel()])
        return np.concatenate([m.ravel() for m in self.maps])


def eval_H(psi, X, piece):
    """Evaluate a linearized-class element at support points off the axis.

    Every point X lies on the piece of index ``piece`` (a chart lattice
    names its piece: ties on the axis would pick a wrong sheet).  Four
    half-planes: sum over axis coordinates y_p of the tangential-
    complement part of c_p, plus r times the piece's phi value.  Pair: the
    piece's affine map applied to in-plane coordinates, expressed in its
    normal basis.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    T = psi.tangents[piece]
    if psi.kind == "four_hp":
        r = psi.C0.r(X)
        if np.any(r < 1e-12):
            raise ValueError("evaluation point on the axis (r = 0)")
        y = X @ psi.axis.basis.T
        out = np.zeros_like(X)
        for p, cp in enumerate(psi.c):
            out += y[:, p, None] * (cp - T.T @ (T @ cp))
        return out + r[:, None] * psi.phi[piece]
    coords = X @ T.T
    feats = np.column_stack([coords, np.ones(len(coords))])
    return (feats @ psi.maps[piece]) @ psi.normals[piece]


class ConeField:
    """Normal vector field sampled on chart lattices of a cone support.

    One regular lattice per piece: half-plane charts use (r, axis)
    coordinates with r > 0; plane charts use in-plane coordinates.  Values
    are stored as coefficients in the piece's constant normal basis and
    must be orthogonal to the piece tangent to 1e-10.  Lattices span
    [-extent, extent]: 1 from ``from_function`` and ``from_element``.
    """

    def __init__(self, C0, h, extent=1.0):
        self.C0 = C0
        self.h = float(h)
        self.extent = float(extent)
        self.tangents, self.normals = _piece_bases(C0)
        self.charts = []
        full = np.arange(-extent, extent + h / 2, h)
        half_axis = h * np.arange(1, int(round(extent / h)) + 1)
        for frame, half in C0.piece_frames():
            axes = [half_axis if half else full] + [full] * (C0.n - 1)
            coords = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
            self.charts.append({"coords": coords, "X": coords @ frame,
                                "frame": frame,
                                "values": np.zeros(coords.shape[:-1]
                                                   + (C0.k,))})

    @classmethod
    def from_function(cls, C0, fn, h):
        """Sample an ambient-valued function; values must be normal."""
        field = cls(C0, h)
        for i, ch in enumerate(field.charts):
            X = ch["X"].reshape(-1, C0.ambient_dim)
            V = np.asarray(fn(X), dtype=float)
            tang = np.abs(V @ field.tangents[i].T)
            scale = max(1.0, float(np.abs(V).max()))
            if tang.size and tang.max() > 1e-10 * scale:
                raise ValueError("field values are not orthogonal to the "
                                 "cone tangent (piece %d)" % i)
            ch["values"] = (V @ field.normals[i].T).reshape(
                ch["coords"].shape[:-1] + (C0.k,))
        return field

    @classmethod
    def from_element(cls, psi, h):
        field = cls(psi.C0, h)
        C0 = psi.C0
        for i, ch in enumerate(field.charts):
            X = ch["X"].reshape(-1, C0.ambient_dim)
            V = eval_H(psi, X, piece=i)
            ch["values"] = (V @ field.normals[i].T).reshape(
                ch["coords"].shape[:-1] + (C0.k,))
        return field

    def to_json(self):
        return json.dumps({"cone": json.loads(self.C0.to_json()),
                           "h": self.h, "extent": self.extent,
                           "values": [ch["values"].tolist()
                                      for ch in self.charts]},
                          sort_keys=True)

    @classmethod
    def from_json(cls, text):
        """Field of a ``to_json`` text; ValueError names a missing key or
        an ``h`` or ``extent`` that is not a number."""
        d = require_keys(json.loads(text), ("cone", "h", "extent", "values"),
                         "cone-field JSON")
        require_types(d, "cone-field JSON", reals=("h", "extent"))
        C0 = Cone.from_json(json.dumps(d["cone"]))
        field = cls(C0, d["h"], d["extent"])
        if len(d["values"]) != len(field.charts):
            raise ValueError("cone-field JSON holds %d charts, its cone has "
                             "%d pieces" % (len(d["values"]),
                                            len(field.charts)))
        for ch, vals in zip(field.charts, d["values"]):
            arr = np.asarray(vals, dtype=float)
            if arr.shape != ch["values"].shape:
                raise ValueError("stored values do not match the chart "
                                 "lattice")
            ch["values"] = arr
        return field

    def max_norm(self):
        return max(float(np.abs(ch["values"]).max())
                   for ch in self.charts)


def harmonic_defect(v):
    """Max interior discrete-Laplacian magnitude, normalized by sup |v|.

    The charts are isometric, so the flat stencil applies per chart; the
    margin keeps two cells away from the axis and the chart boundary.
    """
    scale = v.max_norm()
    if scale == 0.0:
        return 0.0
    worst = 0.0
    for ch in v.charts:
        vals = ch["values"]
        n = vals.ndim - 1
        if any(s < 5 for s in vals.shape[:-1]):
            continue
        inner = tuple(slice(2, -2) for _ in range(n))
        lap = np.zeros(vals[inner].shape)
        for ax in range(n):
            lo = [slice(2, -2)] * n
            hi = [slice(2, -2)] * n
            lo[ax] = slice(1, -3)
            hi[ax] = slice(3, -1)
            lap += (vals[tuple(lo)] + vals[tuple(hi)]
                    - 2.0 * vals[inner]) / v.h ** 2
        if lap.size:
            worst = max(worst, float(np.linalg.norm(lap, axis=-1).max()))
    return worst / scale


def homogeneity_defect(v, degree=1.0):
    """Deviation of a cone field from radial homogeneity of given degree.

    Integrates R^(2-n) |d/dR (v/R^degree)|^2 with the radial derivative
    computed from chart-coordinate central differences (exact for planted
    homogeneous fields).
    """
    n = v.C0.n
    total = 0.0
    for ch in v.charts:
        vals = ch["values"]
        coords = ch["coords"]
        nd = vals.ndim - 1
        if any(s < 3 for s in vals.shape[:-1]):
            continue
        inner = tuple(slice(1, -1) for _ in range(nd))
        grad = np.zeros(vals[inner].shape + (nd,))
        for ax in range(nd):
            lo = [slice(1, -1)] * nd
            hi = [slice(1, -1)] * nd
            lo[ax] = slice(None, -2)
            hi[ax] = slice(2, None)
            grad[..., ax] = (vals[tuple(hi)] - vals[tuple(lo)]) \
                / (2.0 * v.h)
        c = coords[inner]
        R = np.linalg.norm(c, axis=-1)
        R = np.maximum(R, 1e-12)
        radial = (np.einsum("...kd,...d->...k", grad, c)
                  - degree * vals[inner])
        radial = radial / R[..., None] ** (degree + 1.0)
        w = v.h ** n * R ** (2.0 - n)
        total += float(np.sum(w * np.einsum("...k,...k->...",
                                            radial, radial)))
    return total


def _design(v, Z, masks):
    """Design matrix of the linearized-class basis on the masked nodes.

    Rows are (node, normal coordinate), the charts in order.  Columns
    are the basis fields: four half-planes, the axis fields (p, b) and
    then the cross fields (j, s); a pair, the fields (i, q, s) with the
    constant last.  Chart j fills its block as a Kronecker product and
    leaves the fields of other charts 0.
    """
    C0 = v.C0
    k = C0.k
    eye = np.eye(k)
    counts = [int(m.sum()) * k for m in masks]
    if C0.kind == "four_hp":
        A = C0.axis()
        comp = complement_basis(A.basis, C0.ambient_dim)
        na = A.dim * len(comp)
        D = np.zeros((sum(counts), na + 4 * k))
    else:
        width = (C0.n + 1) * k
        D = np.zeros((sum(counts), 2 * width))
    start = 0
    for j, (ch, m, cnt) in enumerate(zip(v.charts, masks, counts)):
        rows = D[start:start + cnt]
        start += cnt
        if C0.kind == "four_hp":
            X = ch["X"][m] - Z
            y = np.zeros((len(X), A.dim))
            for p, a in enumerate(A.basis):
                y[:, p] = X @ a
            N = np.stack([v.normals[j] @ e for e in comp], axis=1)
            rows[:, :na] = np.kron(y, N)
            rows[:, na + j * k:na + (j + 1) * k] = np.kron(
                ch["coords"][m][:, :1], eye)
        else:
            coords = ch["coords"][m] - Z @ ch["frame"].T
            feats = np.column_stack([coords, np.ones(len(coords))])
            rows[:, j * width:(j + 1) * width] = np.kron(feats, eye)
    return D


def dehomogenize(v, Z=None, rho=1.0):
    """L2-orthogonal projection of a cone field onto the linearized class.

    Returns (HElement, norms dict).  The residual is checked to be
    orthogonal to every basis field.  The least-squares system is solved
    by one SVD; degenerate sampling (its rank, with the cutoff
    max(rows, columns) eps s_max, below the basis dimension) raises
    instead of returning an ill-determined projection.
    """
    C0 = v.C0
    d = C0.ambient_dim
    Z = np.zeros(d) if Z is None else np.asarray(Z, dtype=float)
    masks = [np.linalg.norm(ch["X"] - Z, axis=-1) < rho
             for ch in v.charts]
    Amat = _design(v, Z, masks)
    m_total, nb = Amat.shape[0] // C0.k, Amat.shape[1]
    if m_total < 10 * nb:
        raise ValueError("need at least 10 samples per basis dimension "
                         "(%d < %d)" % (m_total, 10 * nb))
    b = np.concatenate([ch["values"][m].ravel()
                        for ch, m in zip(v.charts, masks)])
    coef, _, rank, _ = np.linalg.lstsq(Amat, b, rcond=None)
    if rank < nb:
        raise ValueError("degenerate sampling: basis rank %d < %d"
                         % (rank, nb))
    fitted = Amat @ coef
    resid = b - fitted
    ortho = np.abs(Amat.T @ resid)
    col_norms = np.linalg.norm(Amat, axis=0)
    scale = max(float(np.linalg.norm(b)), 1e-30)
    ortho_rel = float((ortho / np.maximum(col_norms * scale, 1e-30)).max())
    if ortho_rel > 1e-8:
        raise ValueError("projection failed the orthogonality post-check "
                         "(%.3g)" % ortho_rel)
    norms = {"field": float(np.linalg.norm(b)),
             "projection": float(np.linalg.norm(fitted)),
             "residual": float(np.linalg.norm(resid)),
             "orthogonality": ortho_rel}
    return _element(v, coef), norms


def _element(v, coef):
    """HElement of design coefficients in ``_design``'s column order."""
    C0 = v.C0
    if C0.kind == "pair":
        # + 0.0 turns a -0.0 coefficient into +0.0, as a sum onto zeros
        # does, so a report body never reads -0.0
        return HElement(C0, maps=list(coef.reshape(2, C0.n + 1, C0.k) + 0.0))
    A = C0.axis()
    comp = complement_basis(A.basis, C0.ambient_dim)
    cut = A.dim * len(comp)
    c = np.zeros((A.dim, C0.ambient_dim))
    phi = np.zeros((4, C0.ambient_dim))
    for (p, b), val in np.ndenumerate(coef[:cut].reshape(A.dim, len(comp))):
        c[p] += val * comp[b]
    for (j, s), val in np.ndenumerate(coef[cut:].reshape(4, C0.k)):
        phi[j] += val * v.normals[j][s]
    return HElement(C0, c=c, phi=phi)
