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

    def norm(self):
        return float(np.linalg.norm(self.coefficient_vector()))


def eval_H(psi, X, piece=None):
    """Evaluate a linearized-class element at support points off the axis.

    Four half-planes: sum over axis coordinates y_p of the tangential-
    complement part of c_p, plus r times the piece's phi value.  Pair: the
    piece's affine map applied to in-plane coordinates, expressed in its
    normal basis.  ``piece`` overrides the nearest-piece assignment (used
    for chart lattices, where ties on the axis would pick a wrong sheet).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    C0 = psi.C0
    if piece is None:
        piece = C0.nearest_piece(X)
    else:
        piece = np.full(len(X), int(piece))
    out = np.zeros_like(X)
    if psi.kind == "four_hp":
        r = C0.r(X)
        if np.any(r < 1e-12):
            raise ValueError("evaluation point on the axis (r = 0)")
        A = psi.axis
        y = X @ A.basis.T
        for j in range(4):
            sel = piece == j
            if not sel.any():
                continue
            T = psi.tangents[j]
            for p in range(psi.c.shape[0]):
                cp = psi.c[p]
                cperp = cp - T.T @ (T @ cp)
                out[sel] += y[sel, p, None] * cperp
            out[sel] += r[sel, None] * psi.phi[j]
    else:
        for i in range(2):
            sel = piece == i
            if not sel.any():
                continue
            B, N = psi.tangents[i], psi.normals[i]
            coords = X[sel] @ B.T
            feats = np.column_stack([coords, np.ones(len(coords))])
            out[sel] = (feats @ psi.maps[i]) @ N
    return out


class ConeField:
    """Normal vector field sampled on chart lattices of a cone support.

    One regular lattice per piece: half-plane charts use (r, axis)
    coordinates with r > 0; plane charts use in-plane coordinates.  Values
    are stored as coefficients in the piece's constant normal basis and
    must be orthogonal to the piece tangent to 1e-10.
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
    def from_function(cls, C0, fn, h, extent=1.0):
        """Sample an ambient-valued function; values must be normal."""
        field = cls(C0, h, extent)
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
    def from_element(cls, psi, h, extent=1.0):
        field = cls(psi.C0, h, extent)
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


def _basis_columns(v, Z, mask_per_chart):
    """Evaluate the linearized-class basis fields on the field's lattices.

    Returns (columns, labels): each column is the stacked normal-coefficient
    evaluation over all unmasked chart nodes.
    """
    C0 = v.C0
    d = C0.ambient_dim
    cols, labels = [], []
    flat_counts = [int(m.sum()) for m in mask_per_chart]
    k = C0.k

    def empty():
        return [np.zeros((cnt, k)) for cnt in flat_counts]

    if C0.kind == "four_hp":
        A = C0.axis()
        comp = complement_basis(A.basis, d)
        for p in range(A.dim):
            for b, e in enumerate(comp):
                blocks = empty()
                for j, ch in enumerate(v.charts):
                    m = mask_per_chart[j]
                    if not m.any():
                        continue
                    X = ch["X"][m] - Z
                    yp = X @ A.basis[p]
                    coeff = v.normals[j] @ e
                    blocks[j] = yp[:, None] * coeff[None, :]
                cols.append(blocks)
                labels.append(("axis", p, b))
        for j in range(4):
            for s in range(k):
                blocks = empty()
                m = mask_per_chart[j]
                if m.any():
                    r = v.charts[j]["coords"][m][:, 0]
                    e = np.zeros(k)
                    e[s] = 1.0
                    blocks[j] = r[:, None] * e[None, :]
                cols.append(blocks)
                labels.append(("cross", j, s))
    else:
        n = C0.n
        for i in range(2):
            for q in range(n + 1):  # n linear coordinates + constant
                for s in range(k):
                    blocks = empty()
                    m = mask_per_chart[i]
                    if m.any():
                        coords = v.charts[i]["coords"][m]
                        base = Z @ v.charts[i]["frame"].T
                        feat = (coords - base)[:, q] if q < n \
                            else np.ones(len(coords))
                        e = np.zeros(k)
                        e[s] = 1.0
                        blocks[i] = feat[:, None] * e[None, :]
                    cols.append(blocks)
                    labels.append(("plane", i, q, s))
    return cols, labels


def dehomogenize(v, Z=None, rho=1.0):
    """L2-orthogonal projection of a cone field onto the linearized class.

    Returns (HElement, residual blocks per chart, norms dict).  The
    residual is checked to be orthogonal to every basis field; degenerate
    sampling raises instead of returning an ill-determined projection.
    """
    C0 = v.C0
    d = C0.ambient_dim
    Z = np.zeros(d) if Z is None else np.asarray(Z, dtype=float)
    masks = [np.linalg.norm(ch["X"] - Z, axis=-1) < rho
             for ch in v.charts]
    cols, labels = _basis_columns(v, Z, masks)
    nb = len(cols)
    m_total = sum(int(m.sum()) for m in masks)
    if m_total < 10 * nb:
        raise ValueError("need at least 10 samples per basis dimension "
                         "(%d < %d)" % (m_total, 10 * nb))
    b = np.concatenate([ch["values"][m].ravel()
                        for ch, m in zip(v.charts, masks)])
    Amat = np.column_stack([np.concatenate([blk.ravel() for blk in col])
                            for col in cols])
    rank = np.linalg.matrix_rank(Amat)
    if rank < nb:
        raise ValueError("degenerate sampling: basis rank %d < %d"
                         % (rank, nb))
    coef, *_ = np.linalg.lstsq(Amat, b, rcond=None)
    fitted = Amat @ coef
    resid = b - fitted
    ortho = np.abs(Amat.T @ resid)
    col_norms = np.linalg.norm(Amat, axis=0)
    scale = max(float(np.linalg.norm(b)), 1e-30)
    ortho_rel = float((ortho / np.maximum(col_norms * scale, 1e-30)).max())
    if ortho_rel > 1e-8:
        raise ValueError("projection failed the orthogonality post-check "
                         "(%.3g)" % ortho_rel)
    psi = _element_from_coefficients(C0, v, labels, coef)
    residual_blocks = []
    offset = 0
    for ch, m in zip(v.charts, masks):
        cnt = int(m.sum()) * C0.k
        residual_blocks.append(resid[offset:offset + cnt]
                               .reshape(-1, C0.k))
        offset += cnt
    norms = {"field": float(np.linalg.norm(b)),
             "projection": float(np.linalg.norm(fitted)),
             "residual": float(np.linalg.norm(resid)),
             "orthogonality": ortho_rel}
    return psi, residual_blocks, norms


def _element_from_coefficients(C0, v, labels, coef):
    d = C0.ambient_dim
    k = C0.k
    if C0.kind == "four_hp":
        A = C0.axis()
        comp = complement_basis(A.basis, d)
        c = np.zeros((A.dim, d))
        phi = np.zeros((4, d))
        for lab, val in zip(labels, coef):
            if lab[0] == "axis":
                _, p, bidx = lab
                c[p] += val * comp[bidx]
            else:
                _, j, s = lab
                phi[j] += val * v.normals[j][s]
        return HElement(C0, c=c, phi=phi)
    maps = [np.zeros((C0.n + 1, k)) for _ in range(2)]
    for lab, val in zip(labels, coef):
        _, i, q, s = lab
        maps[i][q, s] += val
    return HElement(C0, maps=maps)
