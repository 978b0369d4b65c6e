import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stagpoly.quadbasis import (QuadratureError, edge_rule, face_monomials,
                                map_to_edge, map_to_triangle,
                                monomial_exponents, monomials, triangle_rule)
from stagpoly.assembly import (BoundarySpec, CondensationError,
                               assemble_system, batched_cholesky,
                               static_condensation)
from stagpoly.polymesh import gen_uniform_triangles
from stagpoly.postprocess import FluxField
from stagpoly.weakgrad import (
    CoefficientError,
    CoefficientField,
    _flux_coefficients,
    cell_mass,
    element_groups,
    face_projection_Qb,
    flux_basis,
    flux_values,
    identity_coefficient,
    scalar_coefficient,
    weak_divergence,
    weak_gradient_coeffs,
)

from conftest import (make_single_cell, monomial_gradients, subtriangulate,
                      weak_gradient_matrix)

RNG = np.random.default_rng(42)


def one_cell_group(vertices, k, coeff):
    """The single element group of a one-cell mesh (its row 0 is the cell)."""
    mesh = make_single_cell(vertices)
    sub = subtriangulate(mesh)
    [grp] = element_groups(mesh, sub, k, coeff or identity_coefficient())
    return mesh, sub, grp


def square_op(k=0, coeff=None):
    return one_cell_group([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
                          k, coeff)


def pentagon_op(k=0, coeff=None):
    ang = np.pi / 2 + 2.0 * np.pi * np.arange(5) / 5.0
    return one_cell_group(np.column_stack([np.cos(ang), np.sin(ang)]), k,
                          coeff)


# ---------------------------------------------------------------------------
# coefficient fields

def test_identity_coefficient():
    c = identity_coefficient()
    pts = RNG.random((4, 2))
    assert np.allclose(c.at(pts), np.eye(2))
    assert c.is_identity


def test_scalar_coefficient():
    c = scalar_coefficient(lambda pts: np.full(len(np.atleast_2d(pts)), 2.0))
    K = c.at(RNG.random((3, 2)))
    assert np.allclose(K, 2.0 * np.eye(2))


def test_matrix_coefficient_spd_check():
    def bad(pts):
        pts = np.atleast_2d(pts)
        return np.tile(np.diag([1.0, -1.0]), (len(pts), 1, 1))
    c = CoefficientField(bad)
    with pytest.raises(CoefficientError):
        c.at(np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# flux mass matrix, by quadrature of the flux basis

def flux_gram(op, r=0):
    """Plain L2 Gram matrix of the flux basis of group row r, from
    flux_values on a rule exact for the products."""
    d = weak_gradient_matrix(op).shape[1]
    rule = triangle_rule(max(2 * op.k, 2))
    wts = op.fan_quadrature(rule)[1]
    unit = np.zeros((d, len(op.cells), d))
    unit[:, r] = np.eye(d)
    vals = np.stack([flux_values(op, u, rule.points)[r] for u in unit])
    return np.einsum("jtqx,ltqx,tq->jl", vals, vals, wts[r])


def test_mass_unit_square_identity():
    _, _, op = square_op()
    assert np.allclose(flux_gram(op), 0.25 * np.eye(8), atol=1e-15)


def test_mass_pentagon_diag_areas():
    _, sub, op = pentagon_op()
    areas = sub.areas[0][0]
    assert np.allclose(flux_gram(op), np.diag(np.repeat(areas, 2)),
                       atol=1e-14)


def test_mass_scalar_scaling():
    # G = M^{-1} B with M the K^{-1}-weighted Gram matrix, so G(kappa K) =
    # kappa G(K); a callable kappa is sampled at the star point
    kappa = 1e-3
    for k in (0, 2):
        _, _, op1 = square_op(k)
        _, _, opk = square_op(k, coeff=scalar_coefficient(
            lambda pts: np.full(len(np.atleast_2d(pts)), kappa)))
        Gk, G1 = weak_gradient_matrix(opk), weak_gradient_matrix(op1)
        assert np.allclose(Gk, kappa * G1, rtol=1e-13,
                           atol=1e-13 * np.abs(kappa * G1).max())


def test_mass_k1_spd(pentagon_cell):
    # the k = 1 basis is orthonormal in the mean inner product of each fan
    # triangle: M = |T_t| delta for K = I
    sub = subtriangulate(pentagon_cell)
    [grp] = element_groups(pentagon_cell, sub, 1, identity_coefficient())
    M = flux_gram(grp)
    assert M.shape == (30, 30)
    areas = np.repeat(sub.areas[0][0], 2 * 3)
    assert np.allclose(M, np.diag(areas), atol=1e-15)
    assert np.linalg.eigvalsh(M).min() > 0


# ---------------------------------------------------------------------------
# weak-gradient operator G = [G_b | G_0], closed forms on the unit square;
# at k = 0 with K = I it is [D_b | D_0] / |T| row by row, and row
# 2 t + f is frame f (normal first) on triangle t

def test_db_closed_form():
    _, _, op = square_op()
    expected = np.zeros((4, 2, 4))
    expected[:, 0] = 4.0 * np.eye(4)
    assert np.allclose(weak_gradient_matrix(op)[0, :, :4],
                       expected.reshape(8, 4), atol=1e-14)


def test_d0_closed_form():
    _, _, op = square_op()
    loop = op.loop[0]
    # bottom edge is the one with midpoint (0.5, 0)
    i = int(np.argmin(np.abs(loop[:, 1] + np.roll(loop[:, 1], -1))))
    assert np.allclose(op.frames[0, i, 0], [0.0, -1.0], atol=1e-14)
    G = weak_gradient_matrix(op)
    assert np.allclose(G[0, 2 * i, 4:], [-4.0, 0.0, 1.0], atol=1e-14)
    assert np.allclose(G[0, 2 * i + 1, 4:], [0.0, 1.0, 0.0], atol=1e-14)


def test_d0_tangent_rows_general():
    _, _, op = pentagon_op()
    tangents, h = op.frames[0, :, 1], op.h[0]
    for i in range(5):
        row = weak_gradient_matrix(op)[0, 2 * i + 1, 5:]
        expected = [0.0, tangents[i, 0] / h, tangents[i, 1] / h]
        assert np.allclose(row, expected, atol=1e-13)


# ---------------------------------------------------------------------------
# stiffness

def test_stiffness_bitwise_symmetric():
    _, _, op = pentagon_op()
    assert np.array_equal(op.A[0], op.A[0].T)


def test_stiffness_psd_one_null():
    for build in (square_op, pentagon_op):
        _, _, op = build()
        w = np.linalg.eigvalsh(op.A[0])
        scale = np.abs(w).max()
        assert w[0] >= -1e-12 * scale
        assert w[1] > 1e-8 * scale  # exactly one null direction


def test_stiffness_constant_kernel():
    _, _, op = pentagon_op()
    A = op.A[0]
    const = np.concatenate([np.ones(5), [1.0, 0.0, 0.0]])
    assert np.allclose(A @ const, 0.0, atol=1e-12 * np.abs(A).max())


def test_stiffness_with_matrix_coefficient():
    def K(pts):
        pts = np.atleast_2d(pts)
        return np.tile([[2.0, 0.5], [0.5, 1.0]], (len(pts), 1, 1))
    _, _, op = pentagon_op(coeff=CoefficientField(K))
    A = op.A[0]
    w = np.linalg.eigvalsh(A)
    assert w[0] >= -1e-12 * np.abs(w).max()
    const = np.concatenate([np.ones(5), [1.0, 0.0, 0.0]])
    assert np.allclose(A @ const, 0.0, atol=1e-12 * np.abs(A).max())


# ---------------------------------------------------------------------------
# weak gradient

def test_weak_gradient_kills_constants():
    _, _, op = pentagon_op()
    const = np.concatenate([3.0 * np.ones(5), [3.0, 0.0, 0.0]])
    s = weak_gradient_coeffs(op, const[None])[0]
    assert np.allclose(s, 0.0, atol=1e-13)


def test_weak_gradient_exact_on_linears():
    _, _, op = pentagon_op()
    loop, h = op.loop[0], op.h[0]
    grad = np.array([0.7, -1.3])

    def u(p):
        return 0.2 + p @ grad

    u0 = np.array([u(op.xbar[0]), grad[0] * h, grad[1] * h])
    ub = u(0.5 * (loop + np.roll(loop, -1, axis=0)))
    s = weak_gradient_coeffs(op, np.concatenate([ub, u0])[None])[0]
    # k = 0: coefficient (triangle i, frame) sits at 2 * i + frame
    for i in range(5):
        assert s[2 * i] == pytest.approx(op.frames[0, i, 0] @ grad, abs=1e-12)
        assert s[2 * i + 1] == pytest.approx(op.frames[0, i, 1] @ grad,
                                             abs=1e-12)


def test_weak_gradient_defining_identity():
    # (grad_w u, zeta_j) = (grad u_0, zeta_j)_K + <u_b - u_0, zeta_j . n>_dK
    # verified by independent quadrature for random fields
    _, _, op = pentagon_op()
    xbar, h, loop = op.xbar[0], op.h[0], op.loop[0]
    vol = triangle_rule(4)
    eru = edge_rule(4)
    for _ in range(20):
        u = RNG.standard_normal(8)
        s = weak_gradient_coeffs(op, u[None])
        lhs = np.zeros(10)  # identity coefficient: the plain L2 product
        rhs = np.zeros(10)
        ub, u0 = u[:5], u[5:]
        # u_0 = u0[0] + u0[1] (x - xbar_x) / h + u0[2] (y - xbar_y) / h
        grad_u0 = u0[1:] / h
        for i in range(5):
            pts, wts = map_to_triangle(vol, op.triangles[0, i])
            sig = flux_values(op, s, vol.points)[0, i]
            epts, ewts = map_to_edge(eru, loop[i], loop[(i + 1) % 5])
            trace = ub[i] - u0[0] - (epts - xbar) @ grad_u0
            normal = op.frames[0, i, 0]
            for frame, zeta in enumerate(op.frames[0, i]):
                j = 2 * i + frame  # the constant on triangle i, k = 0
                lhs[j] += wts @ (sig @ zeta)
                rhs[j] += wts.sum() * (grad_u0 @ zeta)
                rhs[j] += ewts @ (trace * (zeta @ normal))
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_weak_gradient_defining_identity_tensor_K():
    # (K^{-1} sigma, zeta) = (grad u_0, zeta)_K + <u_b - u_0, zeta . n>_dK
    # for a full tensor K, whose C = F K F^T / |T| mixes the frames
    Kc = np.array([[2.0, 0.7], [0.7, 1.0]])
    coeff = CoefficientField(lambda p: np.broadcast_to(Kc, (len(p), 2, 2)))
    _, _, op = pentagon_op(coeff=coeff)
    xbar, h, loop = op.xbar[0], op.h[0], op.loop[0]
    vol, eru = triangle_rule(4), edge_rule(4)
    Kinv = np.linalg.inv(Kc)
    for _ in range(20):
        u = RNG.standard_normal(8)
        s = weak_gradient_coeffs(op, u[None])
        lhs, rhs = np.zeros(10), np.zeros(10)
        ub, u0 = u[:5], u[5:]
        grad_u0 = u0[1:] / h
        for i in range(5):
            pts, wts = map_to_triangle(vol, op.triangles[0, i])
            sig = flux_values(op, s, vol.points)[0, i]
            epts, ewts = map_to_edge(eru, loop[i], loop[(i + 1) % 5])
            trace = ub[i] - u0[0] - (epts - xbar) @ grad_u0
            normal = op.frames[0, i, 0]
            for frame, zeta in enumerate(op.frames[0, i]):
                j = 2 * i + frame
                lhs[j] += wts @ (sig @ Kinv @ zeta)
                rhs[j] += wts.sum() * (grad_u0 @ zeta)
                rhs[j] += ewts @ (trace * (zeta @ normal))
        assert np.allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# weak divergence

def test_weak_divergence_constant_flux():
    _, _, op = pentagon_op()
    vec = np.array([1.3, -0.4])
    # (triangle, frame) order: the normal and tangent parts of vec
    s = (op.frames[0] @ vec).ravel()
    cell_part, face_parts = weak_divergence(op, s[None])
    assert np.allclose(cell_part[0], 0.0, atol=1e-12)


def test_weak_divergence_adjointness():
    # (grad_w u, s)_K = -[(div_w s, u_0)_K + sum_F h_F <u_b, -h_F^-1 (s.n)>_F]
    for k in range(4):
        _, _, op = pentagon_op(k)
        Mc = cell_mass(op)[0]
        nfd = op.n_face_dofs
        rule = triangle_rule(max(2 * k, 2))
        wts = op.fan_quadrature(rule)[1]
        # Gram matrices of the face bases; at k = 0 the edge lengths
        erule = edge_rule(k + 1)
        psi = op.face_basis(erule.points)[0]
        gram = np.einsum("tqa,tqb,q,t->tab", psi, psi, erule.weights,
                         op.lengths[0])
        for _ in range(20):
            u = RNG.standard_normal(op.A.shape[1])
            s = RNG.standard_normal(weak_gradient_matrix(op).shape[1])
            w = weak_gradient_coeffs(op, u[None])
            lhs = np.sum(wts * np.sum(flux_values(op, w, rule.points)
                                      * flux_values(op, s[None], rule.points),
                                      axis=-1))
            cell_part, face_parts = weak_divergence(op, s[None])
            rhs = cell_part[0] @ (Mc @ u[nfd:])
            rhs += np.einsum("t,ta,tab,tb->", op.lengths[0],
                             u[:nfd].reshape(5, k + 1), gram, face_parts[0])
            assert lhs == pytest.approx(-rhs, abs=1e-12 * max(1.0, abs(lhs)))


def test_rules_beyond_the_cap_raise_at_k5():
    # element_groups itself accepts k = 5, but the degree-12 mass and
    # divergence rules exceed MAX_TRIANGLE_DEGREE; a lower rule would
    # under-integrate them silently
    mesh = gen_uniform_triangles(2)
    [grp] = element_groups(mesh, subtriangulate(mesh), 5, identity_coefficient())
    with pytest.raises(QuadratureError):
        cell_mass(grp)
    with pytest.raises(QuadratureError):
        weak_divergence(grp, np.zeros((len(grp.cells),
                                       weak_gradient_matrix(grp).shape[1])))


def test_batched_cholesky_names_failing_cell():
    mats = np.stack([np.eye(2), np.diag([1.0, -1.0]), np.eye(2)])
    with pytest.raises(CondensationError, match="cell 17: singular"):
        batched_cholesky(mats, np.array([4, 17, 9]))


# ---------------------------------------------------------------------------
# face projection

def edge_ends(mesh, e=0):
    return mesh.vertices[mesh.edges[e, 0]], mesh.vertices[mesh.edges[e, 1]]


def test_face_projection_midpoint_interpolation(tri4):
    a, b = edge_ends(tri4)

    def g(pts):
        pts = np.atleast_2d(pts)
        return np.sin(3.0 * pts[:, 0]) + pts[:, 1] ** 2

    got = face_projection_Qb(a, b, 0, g)[0]
    assert got == pytest.approx(float(g(0.5 * (a + b))[0]), abs=1e-14)


def test_face_projection_reproduces_polynomials(tri4):
    a, b = edge_ends(tri4)

    def g(pts):
        pts = np.atleast_2d(pts)
        return 2.0 + 3.0 * pts[:, 0] - pts[:, 1]

    c = face_projection_Qb(a, b, 1, g)
    s = np.linspace(-0.5, 0.5, 7)
    pts = 0.5 * (a + b) + s[:, None] * (b - a)
    assert np.allclose(c[0] + c[1] * s, g(pts), atol=1e-13)
    # a batch of edges projects each edge on its own
    ends = tri4.vertices[tri4.edges[:5]]
    batch = face_projection_Qb(ends[:, 0], ends[:, 1], 1, g)
    assert np.allclose(batch[0], c, atol=1e-14)
    for (a, b), ce in zip(ends, batch):
        assert np.allclose(ce, face_projection_Qb(a, b, 1, g),
                           atol=1e-14)


# ---------------------------------------------------------------------------
# property test: the orthonormal flux basis against the dense monomial
# formula on random star-shaped cells

def monomial_reference_stiffness(grp, coeff):
    """A = B^T M^{-1} B of row 0 in scaled monomials about each fan
    triangle's centroid, with the dense (d, d) flux mass matrix M of K
    sampled at the star point."""
    k, m, nm = grp.k, grp.n_edges, grp.n_mono
    nf, nc = k + 1, (k + 2) * (k + 3) // 2
    xbar, h = grp.xbar[0], grp.h[0]
    vol, erule = triangle_rule(2 * k + 2), edge_rule(k + 1)
    Kinv = np.linalg.inv(coeff.at(grp.star[:1])[0])
    M = np.zeros((2, m, nm, 2, m, nm))
    B = np.zeros((2, m, nm, m * nf + nc))
    for t in range(m):
        F, cent = grp.frames[0, t], grp.triangles[0, t].mean(axis=0)
        pts, wts = map_to_triangle(vol, grp.triangles[0, t])
        mono = monomials(pts, cent, h, k)
        M[:, t, :, :, t, :] = np.einsum("fi,ij,ej,qa,qb,q->faeb", F, Kinv, F,
                                        mono, mono, wts)
        gphi = monomial_gradients(pts, xbar, h, k + 1)
        B[:, t, :, m * nf:] += np.einsum("qa,qcx,fx,q->fac", mono, gphi, F,
                                         wts)
        epts, ewts = map_to_edge(erule, grp.loop[0, t],
                                 grp.loop[0, (t + 1) % m])
        emono = monomials(epts, cent, h, k) * ewts[:, None]
        psi = face_monomials(grp.orient[0, t] * (erule.points - 0.5), k)
        B[0, t, :, t * nf:(t + 1) * nf] = emono.T @ psi
        B[0, t, :, m * nf:] -= emono.T @ monomials(epts, xbar, h, k + 1)
    B = B.reshape(2 * m * nm, -1)
    return B.T @ np.linalg.solve(M.reshape(len(B), len(B)), B)


def fan_min_angle(tris):
    """Smallest interior angle (degrees) of triangles (..., 3, 2)."""
    a = np.roll(tris, -1, axis=-2) - tris
    b = np.roll(tris, 1, axis=-2) - tris
    cos = (a * b).sum(-1) / np.sqrt((a * a).sum(-1) * (b * b).sum(-1))
    return float(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))).min())


def convex_cell(gaps, ratio, turn, scale):
    ang = turn + 2.0 * np.pi * np.cumsum(gaps) / np.sum(gaps)
    return scale * np.column_stack([np.cos(ang), ratio * np.sin(ang)])


def l_shaped_cell(a, b, c, d, scale):
    # (0,0), (1,0), (1,b), (c,b), (c,1), (0,1) with b, c in (0, 1),
    # stretched by (a, d); the kernel is [0, c a] x [0, b d]
    return scale * np.array([(0, 0), (a, 0), (a, b * d), (c * a, b * d),
                             (c * a, d), (0, d)], dtype=float)


CELLS = st.one_of(
    st.builds(convex_cell,
              st.lists(st.floats(1.0, 3.0), min_size=3, max_size=8),
              st.floats(0.5, 1.0), st.floats(0.0, 2.0 * np.pi),
              st.floats(0.1, 10.0)),
    st.builds(l_shaped_cell, st.floats(0.5, 2.0), st.floats(0.3, 0.7),
              st.floats(0.3, 0.7), st.floats(0.5, 2.0), st.floats(0.1, 10.0)))

# a full tensor K that varies in space, read once per cell at the star point
ANISOTROPIC = CoefficientField(lambda p: np.stack([
    np.stack([2.0 + p[:, 0] ** 2, 0.5 * p[:, 1]], axis=-1),
    np.stack([0.5 * p[:, 1], 1.0 + p[:, 1] ** 2], axis=-1)], axis=-2))


@settings(max_examples=40, deadline=None)
@given(CELLS, st.integers(0, 3), st.booleans())
def test_orthonormal_basis_matches_monomial_formula(vertices, k, anisotropic):
    mesh = make_single_cell(vertices)
    sub = subtriangulate(mesh)
    coeff = ANISOTROPIC if anisotropic else identity_coefficient()
    [grp] = element_groups(mesh, sub, k, coeff)
    assume(fan_min_angle(grp.triangles) >= 10.0)
    A = grp.A[0]
    assert np.array_equal(A, A.T)
    const = np.zeros(len(A))
    const[:grp.n_face_dofs:k + 1] = 1.0
    const[grp.n_face_dofs] = 1.0
    assert np.abs(A @ const).max() <= 1e-12 * np.abs(A).max()
    # (1/|T|) int_T phi_a phi_b = delta_ab on a rule exact to degree 2k+2
    rule = triangle_rule(2 * k + 2)
    wts = grp.fan_quadrature(rule)[1]
    phi = flux_basis(rule.points, k)
    gram = np.einsum("qa,qb,gtq->gtab", phi, phi, wts) \
        / grp.areas[..., None, None]
    assert np.abs(gram - np.eye(grp.n_mono)).max() <= 1e-11
    if k <= 2:
        ref = monomial_reference_stiffness(grp, coeff)
        assert np.abs(A - ref).max() <= 1e-10 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# flux evaluation, and the quadrature points a group keeps

def reference_flux_values(grp, s, ref):
    """Per fan triangle: the field at its reference points ref (g, m, q, 2),
    as sum_f (monomials @ table @ s_f) frame_f, in extended precision so
    that the reference's own round-off plays no part."""
    g, m, nm = len(grp.cells), grp.n_edges, grp.n_mono
    ld = np.longdouble
    xi, eta = np.moveaxis(ref.astype(ld) - ld(1) / 3, -1, 0)
    mono = np.stack([xi ** a * eta ** b
                     for a, b in monomial_exponents(grp.k)], axis=-1)
    phi = mono @ _flux_coefficients(grp.k).astype(ld)
    return np.einsum("gtqa,gtfa,gtfx->gtqx", phi,
                     s.reshape(g, m, 2, nm).astype(ld),
                     grp.frames.astype(ld))


def reference_coordinates(grp, pts):
    """Reference coordinates (g, m, q, 2) of the physical points pts
    (g, m, q, 2) on their fan triangles, by Cramer's rule in extended
    precision."""
    tris = grp.triangles.astype(np.longdouble)[:, :, None]
    (ax, ay), (bx, by) = np.moveaxis(tris[..., 1:, :] - tris[..., :1, :],
                                     (-2, -1), (0, 1))
    dx, dy = np.moveaxis(pts.astype(np.longdouble) - tris[..., 0, :], -1, 0)
    det = ax * by - ay * bx
    return np.stack([dx * by - dy * bx, ax * dy - ay * dx], axis=-1) \
        / det[..., None]


def max_rel(a, ref):
    return float(np.abs(a - ref).max() / np.abs(ref).max())


@pytest.mark.parametrize("k", range(4))
def test_flux_values_paths_match_per_triangle_reference(voronoi64,
                                                        voronoi64_sub, k):
    def zero(p):
        return np.zeros(len(p))
    system = assemble_system(voronoi64, voronoi64_sub, k,
                             identity_coefficient(), zero,
                             BoundarySpec.dirichlet_everywhere(zero))
    assert len(system.groups) >= 3     # mixed valence
    rng = np.random.default_rng(k)
    flux = FluxField(system, [
        rng.standard_normal(weak_gradient_matrix(grp).shape[:2])
        for grp in system.groups])
    rule = triangle_rule(2 * k + 1)
    for grp, s in zip(system.groups, flux.coeffs):
        pts, _ = grp.fan_quadrature(rule)
        vals = flux_values(grp, s, rule.points)
        assert vals.shape == pts.shape
        ref = np.broadcast_to(rule.points, pts.shape)
        assert max_rel(vals, reference_flux_values(grp, s, ref)) <= 1e-13
        # one triangle of one cell at the mapped physical points, against
        # the field at their own reference coordinates: rounding a physical
        # point moves its reference coordinates by up to about 1e-14 on a
        # sliver fan triangle, where a random field changes by 1e-13 of
        # its maximum over that distance
        tri = np.array([[flux.tri_values(c, t, pts[r, t])
                         for t in range(grp.n_edges)]
                        for r, c in enumerate(grp.cells)])
        assert max_rel(tri, reference_flux_values(
            grp, s, reference_coordinates(grp, pts))) <= 1e-13


@pytest.mark.parametrize("k", [1, 2, 3])
def test_face_rows_are_one_reference_table(voronoi64, voronoi64_sub, k):
    # every outer edge is the reference edge from (1, 0) to (0, 1), and a
    # cell running against an edge's canonical direction sees the face
    # basis s^p as (-s)^p: with K = I the normal rows of G on the face
    # DoFs are |e| / |T| orient^p times one table
    rule = edge_rule(k + 1)
    s = rule.points
    phi = flux_basis(np.column_stack([1.0 - s, s]), k)
    table = (phi * rule.weights[:, None]).T @ (s[:, None] - 0.5) \
        ** np.arange(k + 1)
    for grp in element_groups(voronoi64, voronoi64_sub, k,
                              identity_coefficient()):
        g, m, nm = len(grp.cells), grp.n_edges, grp.n_mono
        Gb = weak_gradient_matrix(grp)[:, :, :grp.n_face_dofs].reshape(
            g, m, 2, nm, m, k + 1)
        scale = (grp.lengths / grp.areas)[..., None] \
            * grp.orient[..., None] ** np.arange(k + 1)
        want = np.zeros_like(Gb[:, :, 0])
        for t in range(m):
            want[:, t, :, t] = scale[:, t, None, :] * table
        assert max_rel(Gb[:, :, 0], want) <= 1e-13


def test_group_keeps_read_only_quadrature_points(voronoi64, voronoi64_sub):
    grp = element_groups(voronoi64, voronoi64_sub, 1,
                         identity_coefficient())[0]
    # element_groups keeps the points of its volume and outer-edge rules
    assert set(grp._points) == {("fan", 2), ("edge", 3)}
    pts, wts = grp.fan_quadrature(triangle_rule(0))
    again, wts_again = grp.fan_quadrature(triangle_rule(2))
    # triangle_rule(0..2) is one rule, so one table
    assert again is pts
    assert np.array_equal(wts_again, wts)
    # the same points and weights as a fresh map of the rule
    fresh_pts, fresh_wts = map_to_triangle(triangle_rule(2), grp.triangles)
    assert np.array_equal(pts, fresh_pts)
    assert np.array_equal(wts, fresh_wts)
    with pytest.raises(ValueError):
        pts[0, 0, 0, 0] = 0.0
    assert grp.fan_quadrature(triangle_rule(4))[0].shape[2] == 9

    epts, ewts = grp.edge_quadrature(edge_rule(2))
    assert grp.edge_quadrature(edge_rule(2))[0] is epts
    fresh_pts, fresh_wts = map_to_edge(edge_rule(2), grp.loop,
                                       np.roll(grp.loop, -1, axis=1))
    assert np.array_equal(epts, fresh_pts)
    assert np.array_equal(ewts, fresh_wts)
    with pytest.raises(ValueError):
        epts[...] = 0.0
    assert grp.edge_quadrature(edge_rule(3))[0].shape[2] == 3


def test_element_layer_and_fans_share_mesh_groups(voronoi64, voronoi64_sub):
    # the element groups and the fans are views of the mesh's one group
    # layout and of the subtriangulation's fan areas, not copies
    groups = element_groups(voronoi64, voronoi64_sub, 1,
                            identity_coefficient())
    for grp, cg, areas in zip(groups, voronoi64.groups, voronoi64_sub.areas):
        for f in dataclasses.fields(cg):
            assert np.shares_memory(getattr(grp, f.name), getattr(cg, f.name))
        assert np.shares_memory(grp.areas, areas)
    # each cell's fan is its group row, and views the group's arrays and
    # the subtriangulation's star points
    for gi, cg in enumerate(voronoi64.groups):
        for r, c in enumerate(cg.cells):
            fan = voronoi64_sub.fans[c]
            assert (fan.group, fan.row) == (gi, r)
            assert np.shares_memory(fan.loop, cg.loop)
            assert np.shares_memory(fan.normals, cg.frames)
            assert np.shares_memory(fan.star, voronoi64_sub.star)


def test_element_groups_memory_at_k3():
    # tri32 at k = 3 peaks near 21.6 MiB and keeps the scaled cell block W,
    # R, Rb and the volume and edge point tables, about 16.8 MiB: a further
    # kept table, a dense B or a stored G shows here. One call on the
    # two-triangle mesh first, so that the first k = 3 call's imports and
    # rule caches are not counted
    one = gen_uniform_triangles(1)
    element_groups(one, subtriangulate(one), 3, identity_coefficient())
    mesh = gen_uniform_triangles(32)
    sub = subtriangulate(mesh)
    tracemalloc.start()
    try:
        groups = element_groups(mesh, sub, 3, identity_coefficient())
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(groups) == 1
    assert peak <= 24 * 2 ** 20, peak
    assert kept <= 19 * 2 ** 20, kept


def test_condensed_solve_memory_at_k3():
    # assemble_system + static_condensation on tri32 at k = 3 peak near
    # 53.9 MiB, where forming the dense B, G and A peaked at 90.6 MiB: a
    # local stiffness matrix formed whole, or a chunk past the budget,
    # shows here. One solve on the two-triangle mesh first, as above
    def zero(p):
        return np.zeros(len(p))
    bc = BoundarySpec.dirichlet_everywhere(zero)
    one = gen_uniform_triangles(1)
    static_condensation(assemble_system(one, subtriangulate(one), 3,
                                        identity_coefficient(), zero, bc))
    mesh = gen_uniform_triangles(32)
    sub = subtriangulate(mesh)
    tracemalloc.start()
    try:
        cond = static_condensation(assemble_system(
            mesh, sub, 3, identity_coefficient(), zero, bc))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cond.S.shape[0] > 0
    assert peak <= 60 * 2 ** 20, peak
