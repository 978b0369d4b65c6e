"""Element operators of the weak Galerkin discretization.

For a cell fanned into triangles, the flux space is spanned by frame
vectors F = (outward normal, tangent) of each fan triangle's outer edge
times a P_k basis on that triangle: one basis on the reference triangle,
orthonormal in its mean inner product and led by the constant 1, mapped
affinely, so orthonormal in (1/|T|) int_T. K is constant on each cell:
the coefficient is sampled once, at the cell's star point, so a K that
jumps inside a cell takes the value on the star point's side. The flux
of a pair (u_0, u_b) is the field sigma = K G_w u with

    (K^{-1} sigma, tau)_K = (grad u_0, tau)_K + <u_b - u_0, tau . n>_dK

for every flux test field tau. Its coefficients are C B u with
B = [B_b, B_c] = [D_b, D_0] and M = C^{-1} the K^{-1}-weighted flux Gram
matrix, and the local stiffness is A_K = B^T C B. M is block-diagonal by
fan triangle, and its block |T| (F K^{-1} F^T (x) I) gives
C_T = F K F^T / |T| (x) I without a factorisation.

B_b is zero outside the normal rows of each face's own fan triangle, where
it is |e| orient^p times one reference table D_b, so it is never formed.
With C_T = R_T^T R_T, R_T upper triangular, the element layer keeps the
cell block as W = R B_c, stored by columns. Then A_cc = W^T W;
A_cf = r_00 |e| orient^p D_b^T W_0 on each fan triangle, from W's normal
row; and A_ff is block-diagonal by face, r_00^2 |e|^2 orient^(p+q)
(D_b^T D_b)[p, q], with r_00^2 = C_00. The flux coefficients of u are
R^T (W u_0 + R B_b u_b). Cells are taken in chunks whose largest array
holds at most _BLOCK_BUDGET floats.

Cells with the same number of edges m share one array layout, the mesh's
CellGroup, and the operators of such a valence group are stacks over its
g cells (one ElementGroup per m). Local DoFs are [face DoFs | cell DoFs];
flux coefficients are ordered (fan triangle, frame, basis function), the
order of frames[g, t, f], with the normal frame first, and functions on
distinct fan triangles have disjoint supports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .polymesh import CellGroup, PolyMesh, SubTriangulation
from .quadbasis import (derivative_table, edge_rule, face_monomials,
                        map_to_edge, map_to_triangle, monomials,
                        triangle_rule)

__all__ = [
    "CoefficientError",
    "CoefficientField",
    "identity_coefficient",
    "scalar_coefficient",
    "DofMap",
    "ElementGroup",
    "element_groups",
    "flux_basis",
    "outer_edge",
    "flux_values",
    "weak_gradient_coeffs",
    "weak_divergence",
    "face_projection_Qb",
    "cell_mass",
]


class CoefficientError(Exception):
    """Coefficient matrix is not symmetric positive definite."""


@dataclass(frozen=True)
class CoefficientField:
    """Symmetric positive definite 2x2 coefficient K(x).

    `fn` maps an (n, 2) array of points to (n, 2, 2) matrices. The element
    layer reads it once per cell, at the star point, and takes K as
    constant on the cell.
    """
    fn: Callable
    is_identity: bool = False

    def at(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        K = np.asarray(self.fn(pts), dtype=float)
        if K.shape != (len(pts), 2, 2):
            raise CoefficientError(f"coefficient returned shape {K.shape}")
        _check_spd(K)
        return K


def _check_spd(K, tol=1e-12):
    sym = np.abs(K[:, 0, 1] - K[:, 1, 0])
    scale = np.maximum(1.0, np.abs(K).max(axis=(1, 2)))
    if np.any(sym > tol * scale):
        raise CoefficientError("coefficient matrix is not symmetric")
    det = K[:, 0, 0] * K[:, 1, 1] - K[:, 0, 1] * K[:, 1, 0]
    if np.any(K[:, 0, 0] <= 0.0) or np.any(det <= 0.0):
        raise CoefficientError("coefficient matrix is not positive definite")


def identity_coefficient() -> CoefficientField:
    return scalar_coefficient(1.0)


def scalar_coefficient(kappa) -> CoefficientField:
    """K = kappa I; kappa may be a number or a callable on (n, 2) point
    arrays, which the element layer samples at each cell's star point."""
    const = not callable(kappa)
    if const:
        kappa = float(kappa)

    def fn(pts):
        vals = kappa if const else \
            np.asarray(kappa(pts), dtype=float).reshape(len(pts))
        K = np.zeros((len(pts), 2, 2))
        K[:, 0, 0] = vals
        K[:, 1, 1] = vals
        return K
    return CoefficientField(fn=fn, is_identity=const and kappa == 1.0)


@dataclass(frozen=True)
class DofMap:
    """Global DoF layout: all face DoFs first (edge-major, k+1 each), then
    all cell DoFs (cell-major, dim P_{k+1} each)."""
    k: int
    num_faces: int
    num_cells: int

    @property
    def face_block(self) -> int:
        return self.k + 1

    @property
    def cell_block(self) -> int:
        return (self.k + 2) * (self.k + 3) // 2

    @property
    def n_face_dofs(self) -> int:
        return self.num_faces * self.face_block

    @property
    def total(self) -> int:
        return self.n_face_dofs + self.num_cells * self.cell_block

    def face_dofs(self, e):
        """DoFs of edge(s) e, shape e.shape + (face_block,)."""
        return np.asarray(e)[..., None] * self.face_block \
            + np.arange(self.face_block)

    def cell_dofs(self, c):
        """DoFs of cell(s) c, shape c.shape + (cell_block,)."""
        return self.n_face_dofs + np.asarray(c)[..., None] * self.cell_block \
            + np.arange(self.cell_block)


@dataclass(frozen=True)
class ElementGroup(CellGroup):
    """Fans and local operators of the g cells with m edges: the mesh's
    CellGroup of these cells (its arrays, not copies) plus what depends on
    the star points and on k.

    Triangle t of row r is (star[r], loop[r, t], loop[r, t+1]), the image
    of the reference (0, 0), (1, 0), (0, 1), with outer edge edge_ids[r, t]
    and area areas[r, t] (the SubTriangulation's array). Cell monomials
    are centred at xbar[r] and scaled by h[r] = sqrt(|K|). R (g, m, 2, 2)
    is the upper triangular factor of C = F K F^T / |T| = R^T R on each fan
    triangle, and W (g, nc, m, 2, nm) the scaled cell block R B_c stored
    by columns: W[r, c] is column c of R B_c in (fan triangle, frame, basis
    function) order, nm = dim P_k and nc = dim P_{k+1}. Rb (g, m, k+1) is
    r_00 |e| orient^p, so that R B_b is Rb times D_b in the normal row of
    each fan triangle. blocks() gives the stiffness blocks of a chunk of
    rows, and A (g, n, n), n = m(k+1) + nc, the whole local stiffness,
    built on first use. dofs (g, n) are the global ids of the local DoFs.

    fan_quadrature and edge_quadrature keep the physical points of each
    rule they are asked for, one read-only table per kind and degree
    (triangle_rule and edge_rule give one rule per degree), for as long
    as the group lives; the weights are rebuilt from areas and lengths on
    each call, and nothing that depends on coefficients is kept.
    element_groups fills the tables of its volume rule, triangle_rule(2k),
    and of its outer-edge rule, edge_rule(k + 1), and assemble_system the
    one of its load rule, triangle_rule(2k + 2), which at k = 0 is the
    volume rule again; so these tables stay alive through the solve. At
    tri256 k = 0 the 3-point table is 131,072 x 3 x 3 x 2 floats, 19 MB.
    """
    k: int
    star: np.ndarray
    areas: np.ndarray
    h: np.ndarray
    R: np.ndarray
    Rb: np.ndarray
    W: np.ndarray
    dofs: np.ndarray
    _points: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    @property
    def n_mono(self) -> int:
        return (self.k + 1) * (self.k + 2) // 2

    @property
    def n_face_dofs(self) -> int:
        return self.n_edges * (self.k + 1)

    @property
    def triangles(self):
        """Fan triangle vertices (g, m, 3, 2)."""
        return _fan_triangles(self.star, self.loop)

    @property
    def jacobians(self):
        """Jacobians (g, m, 2, 2) of the maps from the reference triangle."""
        return np.swapaxes(self.triangles[:, :, 1:] - self.star[:, None, None],
                           -1, -2)

    def fan_quadrature(self, rule):
        """A reference triangle rule on every fan triangle: points
        (g, m, q, 2), kept read-only, and weights (g, m, q)."""
        # the fan triangles are positive, so |Jacobian| = 2 |T|
        return (self._keep("fan", rule),
                rule.weights * (2.0 * self.areas)[..., None])

    def edge_quadrature(self, rule):
        """A reference edge rule on every outer edge in loop direction:
        points (g, m, q, 2), kept read-only, and weights (g, m, q)."""
        return self._keep("edge", rule), rule.weights * self.lengths[..., None]

    def _keep(self, kind, rule, pts=None):
        """The kept read-only points (g, m, q, 2) of a rule on every fan
        triangle (kind "fan") or outer edge ("edge"), one table per kind and
        rule degree; pts, if given, are those points already mapped."""
        key = (kind, rule.degree)
        if key not in self._points:
            if pts is None and kind == "fan":
                pts = map_to_triangle(rule, self.triangles)[0]
            elif pts is None:
                pts = map_to_edge(rule, self.loop,
                                  np.roll(self.loop, -1, axis=1))[0]
            self._points[key] = _read_only(pts)
        return self._points[key]

    def face_basis(self, t):
        """Face basis (g, m, len(t), k+1) at reference points t of every
        outer edge in loop direction."""
        return face_monomials(self.orient[..., None] * (np.asarray(t) - 0.5),
                              self.k)

    def cell_basis(self, pts):
        """Cell basis P_{k+1} (scaled monomials about xbar) of each row at
        points (g, ..., 2); see quadbasis.monomials. Its first n_mono
        columns are P_k, which with derivative_table(k + 1) / h gives the
        gradient of every column."""
        shape = (len(self.cells),) + (1,) * (np.ndim(pts) - 2)
        return monomials(pts, self.xbar.reshape(shape + (2,)),
                         self.h.reshape(shape), self.k + 1)

    @property
    def chunks(self) -> list:
        """Row slices whose scaled cell blocks W hold at most _BLOCK_BUDGET
        floats."""
        step = max(1, _BLOCK_BUDGET // int(np.prod(self.W.shape[1:])))
        return [slice(i, i + step) for i in range(0, len(self.cells), step)]

    def blocks(self, rows=slice(None)) -> tuple:
        """Stiffness blocks of the rows: A_ff (c, m, k+1, k+1), one block
        per face and exactly symmetric, A_cf (c, nc, m(k+1)) and A_cc
        (c, nc, nc), whose lower triangle is what a Cholesky factor reads."""
        W = self.W[rows]
        (c, nc, m, _, nm), nf = W.shape, self.k + 1
        Db, DtD = _face_table(self.k)
        W2 = W.reshape(c, nc, -1)
        # R B_b is Rb D_b in the normal row, zero elsewhere; one product
        # with D_b gives A_cf in (cell column, face, p) order
        rb = self.Rb[rows]
        A_cf = np.dot(W[:, :, :, 0].reshape(-1, nm), Db).reshape(
            c, nc, m, nf) * rb[:, None]
        return (rb[..., :, None] * rb[..., None, :] * DtD,
                A_cf.reshape(c, nc, -1), W2 @ np.swapaxes(W2, 1, 2))

    @cached_property
    def A(self) -> np.ndarray:
        """Local stiffness (g, n, n) from blocks(), bitwise symmetric."""
        A_ff, A_cf, A_cc = self.blocks()
        nfl = self.n_face_dofs
        n = nfl + A_cc.shape[1]
        A = np.zeros((len(A_cc), n, n))
        A[:, nfl:, :nfl] = A_cf
        A[:, :nfl, nfl:] = np.swapaxes(A_cf, 1, 2)
        A[:, nfl:, nfl:] = 0.5 * (A_cc + np.swapaxes(A_cc, 1, 2))
        r, c = face_diagonal(self.n_edges, self.k + 1)
        A[:, r, c] = A_ff.reshape(len(A), -1)
        return A


# floats in the cell block of one chunk (2 MiB); 2^16 to 2^22 time alike
_BLOCK_BUDGET = 1 << 18


def face_diagonal(m: int, nf: int) -> tuple:
    """Row and column indices, (m nf nf,) each, of the m diagonal blocks of
    size nf in an (m nf, m nf) matrix, in (face, row, column) order."""
    rows = np.repeat(np.arange(m * nf), nf)
    return rows, rows - rows % nf + np.tile(np.arange(nf), m * nf)


def _read_only(a):
    a.setflags(write=False)
    return a


_REF_CENTROID = np.full(2, 1.0 / 3.0)


@lru_cache(maxsize=None)
def _flux_coefficients(k: int) -> np.ndarray:
    """Read-only monomial coefficients (nm, nm), about the reference
    centroid, of the P_k basis orthonormal in the reference triangle's
    mean product, from one QR on a rule exact to degree 2k."""
    rule = triangle_rule(2 * k)
    R = np.linalg.qr(np.sqrt(2.0 * rule.weights)[:, None]
                     * monomials(rule.points, _REF_CENTROID, 1.0, k), mode="r")
    # R[0, 0] is 1 in exact arithmetic: make the first function exactly 1
    R *= (np.sign(np.diagonal(R)) / abs(R[0, 0]))[:, None]
    return _read_only(np.linalg.inv(R))


def flux_basis(ref, k: int) -> np.ndarray:
    """P_k flux basis (..., nm) at reference points ref (..., 2). An affine
    map has a constant Jacobian, so it is orthonormal on every triangle."""
    return monomials(ref, _REF_CENTROID, 1.0, k) @ _flux_coefficients(k)


def outer_edge(rule) -> np.ndarray:
    """Reference points (q, 2) of an edge rule on the edge (1, 0) -> (0, 1),
    which every fan triangle maps onto its outer edge in loop direction."""
    return np.column_stack([1.0 - rule.points, rule.points])


def _fan_triangles(star, loop):
    star = np.broadcast_to(star[:, None, :], loop.shape)
    return np.stack([star, loop, np.roll(loop, -1, axis=1)], axis=2)


@lru_cache(maxsize=None)
def _face_table(k: int) -> tuple:
    """Read-only D_b (nm, k+1), the flux moments of the face basis on the
    reference outer edge, and D_b^T D_b, exactly symmetric."""
    erule = edge_rule(k + 1)
    ephi = flux_basis(outer_edge(erule), k) * erule.weights[:, None]
    Db = ephi.T @ face_monomials(erule.points - 0.5, k)
    DtD = Db.T @ Db
    return _read_only(Db), _read_only(0.5 * (DtD + DtD.T))


def _flux_factor(K, frames, areas) -> np.ndarray:
    """Upper triangular R (g, m, 2, 2) with R^T R = C = F K F^T / |T| on
    each fan triangle, for K (g, 2, 2) and frames F (g, m, 2, 2). By
    components, so that C_01 = n . K t is exactly 0 when K = I; r_11 comes
    from det C = det K / |T|^2, not from a difference."""
    K = K[:, None]
    n, t = frames[..., 0, :], frames[..., 1, :]
    Kn0 = K[..., 0, 0] * n[..., 0] + K[..., 0, 1] * n[..., 1]
    Kn1 = K[..., 1, 0] * n[..., 0] + K[..., 1, 1] * n[..., 1]
    Kt0 = K[..., 0, 0] * t[..., 0] + K[..., 0, 1] * t[..., 1]
    Kt1 = K[..., 1, 0] * t[..., 0] + K[..., 1, 1] * t[..., 1]
    R = np.zeros(frames.shape)
    r00 = R[..., 0, 0]
    np.sqrt((n[..., 0] * Kn0 + n[..., 1] * Kn1) / areas, out=r00)
    R[..., 0, 1] = (n[..., 0] * Kt0 + n[..., 1] * Kt1) / areas / r00
    R[..., 1, 1] = np.sqrt(K[..., 0, 0] * K[..., 1, 1]
                           - K[..., 0, 1] * K[..., 1, 0]) / (areas * r00)
    return R


def element_groups(mesh: PolyMesh, subtri: SubTriangulation, k: int,
                   coeff: CoefficientField) -> list:
    """One ElementGroup per cell valence, in ascending edge count.

    The columns of B_c realize (grad phi_0, tau)_K - <phi_0, tau . n>_dK
    for the cell basis functions phi_0; the face columns B_b are left
    implicit (see the module docstring). K is sampled once per cell, at
    the star point. W = R B_c is filled chunk by chunk
    (ElementGroup.chunks).
    """
    dofmap = DofMap(k=k, num_faces=mesh.num_edges, num_cells=mesh.num_cells)
    nm, nc = (k + 1) * (k + 2) // 2, dofmap.cell_block
    vol_rule, erule = triangle_rule(2 * k), edge_rule(k + 1)
    wphi = flux_basis(vol_rule.points, k) * vol_rule.weights[:, None]
    ephi = flux_basis(outer_edge(erule), k) * erule.weights[:, None]
    D = derivative_table(k + 1).reshape(nm, -1)
    groups = []
    for grp, areas in zip(mesh.groups, subtri.areas):
        frames = grp.frames
        g, m = grp.verts.shape
        star = subtri.star[grp.cells]
        h = np.sqrt(areas.sum(axis=1))
        R = _flux_factor(coeff.at(star), frames, areas)
        dofs = np.concatenate([dofmap.face_dofs(grp.edge_ids).reshape(g, -1),
                               dofmap.cell_dofs(grp.cells)], axis=1)
        Rb = (R[..., 0, 0] * grp.lengths)[..., None] \
            * grp.orient[..., None] ** np.arange(k + 1)
        group = ElementGroup(**vars(grp), k=k, star=star, areas=areas, h=h,
                             R=R, Rb=Rb, W=np.empty((g, nc, m, 2, nm)),
                             dofs=dofs)
        vpts, epts = group._keep("fan", vol_rule), group._keep("edge", erule)
        # (grad phi_0, tau)_T is (2 |T| / h) W_D (frames . D), W_D the flux
        # moments of the P_k monomials, as grad phi_0 is P_k times D / h;
        # the fan triangles are positive, so |Jacobian| = 2 |T|. Row f of
        # R B_c takes the frame combination (R F)_f.
        RF = (R[..., :, 0, None] * frames[..., None, 0, :]
              + R[..., :, 1, None] * frames[..., None, 1, :]) \
            * (2.0 * areas / h[:, None])[..., None, None]
        RF = RF[..., None, None, :]
        for rows in group.chunks:
            xbar, hq = grp.xbar[rows, None, None], h[rows, None, None]
            WD = np.dot((wphi.T @ monomials(vpts[rows], xbar, hq, k)).reshape(
                -1, nm), D).reshape(-1, m, 1, nm, nc, 2)
            W = np.moveaxis(group.W[rows], 1, -1)
            np.multiply(RF[rows, ..., 0], WD[..., 0], out=W)
            W += RF[rows, ..., 1] * WD[..., 1]
            W[:, :, 0] -= Rb[rows, :, :1, None] * np.einsum(
                "qa,gtqc->gtac", ephi, monomials(epts[rows], xbar, hq, k + 1))
        groups.append(group)
    return groups


def flux_values(group: ElementGroup, coeffs, ref):
    """Flux field with coefficients coeffs (g, d) at reference points ref
    (q, 2), mapped onto every fan triangle. Returns (g, m, q, 2)."""
    g, m, nm = len(group.cells), group.n_edges, group.n_mono
    c = np.asarray(coeffs, dtype=float).reshape(-1, nm)
    # each frame's scalar field (g, m, 2, q), by one product with the table;
    # at k = 0 the one function is exactly 1, so none is needed
    s = (c if nm == 1 else c @ flux_basis(ref, group.k).T).reshape(g, m, 2, -1)
    n, t = group.frames[..., 0, :], group.frames[..., 1, :]
    out = np.empty((g, m, len(ref), 2))
    for x in (0, 1):
        out[..., x] = s[:, :, 0] * n[..., x, None] \
            + s[:, :, 1] * t[..., x, None]
    return out


def weak_gradient_coeffs(group: ElementGroup, u_local) -> np.ndarray:
    """Flux coefficients (g, d) of the rows u_local (g, n) = [u_b | u_0],
    in (fan triangle, frame, basis function) order: R^T (W u_0 + R B_b u_b)."""
    u = np.asarray(u_local, dtype=float)
    g, m, nfl = len(group.cells), group.n_edges, group.n_face_dofs
    W, R = group.W, group.R
    v = np.einsum("gcd,gc->gd", W.reshape(g, W.shape[1], -1),
                  u[:, nfl:]).reshape(g, m, 2, -1)
    # np.dot, not @: one BLAS call for the (g m, k+1) x (k+1, nm) product
    v[:, :, 0] += np.dot((u[:, :nfl] * group.Rb.reshape(g, -1)).reshape(
        g * m, -1), _face_table(group.k)[0].T).reshape(g, m, -1)
    s = np.empty_like(v)
    np.multiply(R[..., 0, 0, None], v[:, :, 0], out=s[:, :, 0])
    np.multiply(R[..., 1, 1, None], v[:, :, 1], out=s[:, :, 1])
    s[:, :, 1] += R[..., 0, 1, None] * v[:, :, 0]
    return s.reshape(g, -1)


def cell_mass(group: ElementGroup) -> np.ndarray:
    """Gram matrices (g, nc, nc) of the cell bases integrated over the fans."""
    pts, wts = group.fan_quadrature(triangle_rule(2 * (group.k + 1)))
    phi = group.cell_basis(pts)
    return np.einsum("gtqa,gtqb->gab", phi * wts[..., None], phi)


def weak_divergence(group: ElementGroup, s) -> tuple:
    """Weak divergence of the flux fields with coefficients s (g, d).

    Returns the cell part in the cell basis (g, nc) and the coefficients
    of -h_F^{-1} (sigma . n) in the face basis of each outer edge
    (g, m, k+1). The cell part is defined by

        (div_w sigma, w)_K = sum_T (div sigma, w)_T - sum_spokes <[sigma . n], w>

    for w in the cell polynomial space; spoke jumps are oriented from
    triangle T_i into T_{i-1}.
    """
    s = np.asarray(s, dtype=float)
    k, g, m = group.k, len(group.cells), group.n_edges
    rule = triangle_rule(2 * (k + 1))
    pts, wts = group.fan_quadrature(rule)
    # flux basis gradients: reference gradients (h = 1) times J^-1
    mgrad = np.tensordot(monomials(rule.points, _REF_CENTROID, 1.0, k - 1),
                         derivative_table(k), 1)
    div = np.einsum("qby,ba,gtyx,gtfx,gtfa->gtq", mgrad, _flux_coefficients(k),
                    np.linalg.inv(group.jacobians), group.frames,
                    s.reshape(g, m, 2, group.n_mono), optimize=True)
    rhs = np.einsum("gtqc,gtq->gc", group.cell_basis(pts), div * wts)

    # spoke i runs from the star point to loop vertex i, shared by
    # triangles T_{i-1} and T_i; its normal points from T_i into T_{i-1}
    srule = edge_rule(k + 2)
    spts, swts = map_to_edge(srule, group.star[:, None, :], group.loop)
    dvec = group.loop - group.star[:, None, :]
    ne = np.stack([dvec[..., 1], -dvec[..., 0]], axis=-1) \
        / np.sqrt(dvec[..., 0] ** 2 + dvec[..., 1] ** 2)[..., None]
    # T_i meets spoke i at reference points (t, 0), T_{i-1} at (0, t)
    spoke = np.column_stack([srule.points, np.zeros(len(srule.points))])
    jump = flux_values(group, s, spoke) \
        - np.roll(flux_values(group, s, spoke[:, ::-1]), 1, axis=1)
    jump = np.einsum("gtqx,gtx->gtq", jump, ne)
    rhs -= np.einsum("gtqc,gtq->gc", group.cell_basis(spts), jump * swts)
    cell_part = np.linalg.solve(cell_mass(group), rhs[..., None])[..., 0]

    frule = edge_rule(k + 1)
    fwts = frule.weights * group.lengths[..., None]
    sig_n = np.einsum("gtqx,gtx->gtq", flux_values(
        group, s, outer_edge(frule)), group.frames[:, :, 0])
    psi = group.face_basis(frule.points)
    gram = np.einsum("gtqa,gtqb->gtab", psi * fwts[..., None], psi)
    mom = np.einsum("gtqa,gtq->gta", psi,
                    -sig_n / group.lengths[..., None] * fwts)
    return cell_part, np.linalg.solve(gram, mom[..., None])[..., 0]


def face_projection_Qb(a, b, k: int, trace) -> np.ndarray:
    """Discrete L2 projection of a trace function onto the face polynomial
    space, on k+1 Gauss points.

    a, b (..., 2) are the end points of edges in canonical direction;
    `trace` is a callable on (n, 2) point arrays. Returns coefficients
    (..., k+1). With as many points as coefficients the projection
    interpolates the trace at the Gauss points (the face midpoint at k = 0).
    """
    rule = edge_rule(k + 1)
    pts, _ = map_to_edge(rule, a, b)
    vals = np.asarray(trace(pts.reshape(-1, 2)), dtype=float).reshape(
        pts.shape[:-1])
    # the edge length scales the Gram matrix and the moments alike
    psi = face_monomials(rule.points - 0.5, k)
    gram = psi.T @ (psi * rule.weights[:, None])
    return (vals * rule.weights) @ psi @ np.linalg.inv(gram)
