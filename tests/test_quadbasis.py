import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagpoly.quadbasis import (
    QuadratureError,
    derivative_table,
    edge_rule,
    face_monomials,
    map_to_edge,
    map_to_triangle,
    monomial_exponents,
    monomials,
    triangle_rule,
)
from stagpoly.weakgrad import (cell_mass, element_groups, flux_basis,
                               identity_coefficient)

from conftest import make_single_cell, subtriangulate, weak_gradient_matrix


def groups_of(mesh, k):
    return element_groups(mesh, subtriangulate(mesh), k, identity_coefficient())


def ref_triangle_integral(a, b):
    # int_T x^a y^b over {x,y >= 0, x+y <= 1}
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


# ---------------------------------------------------------------------------
# triangle rules

def test_midpoint_rule_layout():
    rule = triangle_rule(2)
    assert len(rule.weights) == 3
    assert np.allclose(rule.weights, 1.0 / 6.0)
    mids = {(0.5, 0.0), (0.5, 0.5), (0.0, 0.5)}
    got = {tuple(np.round(p, 12)) for p in rule.points}
    assert got == mids


def test_midpoint_rule_values():
    rule = triangle_rule(2)
    assert rule.weights.sum() == pytest.approx(0.5, abs=1e-15)
    x2 = rule.points[:, 0] ** 2
    assert rule.weights @ x2 == pytest.approx(1.0 / 12.0, abs=1e-15)


@pytest.mark.parametrize("degree", range(11))
def test_triangle_rule_exactness(degree):
    rule = triangle_rule(degree)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            val = rule.weights @ (rule.points[:, 0] ** a * rule.points[:, 1] ** b)
            assert val == pytest.approx(ref_triangle_integral(a, b), abs=1e-13)


def test_triangle_rule_degree_cap():
    with pytest.raises(QuadratureError):
        triangle_rule(11)


def test_triangle_rule_points_inside():
    for degree in range(11):
        p = triangle_rule(degree).points
        assert np.all(p >= -1e-14)
        assert np.all(p.sum(axis=1) <= 1.0 + 1e-14)


# ---------------------------------------------------------------------------
# edge rules

def test_cached_rules_are_read_only():
    # one rule object serves every caller, so no caller may change it
    for rule in (triangle_rule(4), triangle_rule(2), edge_rule(3)):
        for arr in (rule.points, rule.weights):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
    assert triangle_rule(4) is triangle_rule(4)
    assert edge_rule(3) is edge_rule(3)


def test_edge_rule_one_point():
    rule = edge_rule(1)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert rule.weights @ rule.points == pytest.approx(0.5, abs=1e-15)


def test_edge_rule_two_point_cubic():
    rule = edge_rule(2)
    assert rule.weights @ rule.points ** 3 == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("npts", range(1, 7))
def test_edge_rule_exactness(npts):
    rule = edge_rule(npts)
    for p in range(2 * npts):
        assert rule.weights @ rule.points ** p == pytest.approx(
            1.0 / (p + 1), abs=1e-13)


@pytest.mark.parametrize("npts", [0, 7, -1])
def test_edge_rule_range(npts):
    with pytest.raises(QuadratureError):
        edge_rule(npts)


# ---------------------------------------------------------------------------
# mapped rules

def test_map_to_triangle_measures_area():
    tri = np.array([(0.2, 0.1), (0.9, 0.3), (0.4, 0.8)])
    u, v = tri[1] - tri[0], tri[2] - tri[0]
    area = 0.5 * abs(u[0] * v[1] - u[1] * v[0])
    pts, wts = map_to_triangle(triangle_rule(2), tri)
    assert wts.sum() == pytest.approx(area, abs=1e-14)
    assert pts.shape == (3, 2)


def test_map_to_edge_measures_length():
    a, b = np.array([0.1, 0.2]), np.array([0.7, 1.0])
    pts, wts = map_to_edge(edge_rule(3), a, b)
    assert wts.sum() == pytest.approx(np.linalg.norm(b - a), abs=1e-14)
    # integral of a linear function is exact
    f = pts[:, 0] + 2 * pts[:, 1]
    mid = 0.5 * (a + b)
    exact = (mid[0] + 2 * mid[1]) * np.linalg.norm(b - a)
    assert wts @ f == pytest.approx(exact, abs=1e-13)


def test_mapped_rules_batch():
    # a stack of shapes maps like each member on its own
    rng = np.random.default_rng(3)
    tris = rng.random((4, 2, 3, 2))
    pts, wts = map_to_triangle(triangle_rule(4), tris)
    q = len(triangle_rule(4).weights)
    assert pts.shape == (4, 2, q, 2) and wts.shape == (4, 2, q)
    p1, w1 = map_to_triangle(triangle_rule(4), tris[2, 1])
    assert np.array_equal(pts[2, 1], p1) and np.array_equal(wts[2, 1], w1)
    a, b = rng.random((5, 2)), rng.random((5, 2))
    pts, wts = map_to_edge(edge_rule(3), a, b)
    p1, w1 = map_to_edge(edge_rule(3), a[4], b[4])
    assert np.array_equal(pts[4], p1) and np.allclose(wts[4], w1, rtol=1e-15)


def test_monomial_exponents_graded_lex():
    assert monomial_exponents(2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


# ---------------------------------------------------------------------------
# cell basis: scaled monomials of degree k+1 about the vertex average

def test_cell_basis_k0_ordering(unit_square_cell):
    [grp] = groups_of(unit_square_cell, 0)
    xbar, h = grp.xbar[0], grp.h[0]
    vals = monomials(xbar[None, :], xbar, h, 1)
    assert vals.shape == (1, 3)
    assert np.allclose(vals[0], [1.0, 0.0, 0.0])
    vals = monomials(np.array([[1.0, 0.5]]), xbar, h, 1)[0]
    assert np.allclose(vals, [1.0, 0.5, 0.0])


def test_cell_basis_k1_dim(unit_square_cell):
    [grp] = groups_of(unit_square_cell, 1)
    assert grp.cell_basis(grp.loop).shape == (1, 4, 6)
    assert weak_gradient_matrix(grp).shape[2] - grp.n_face_dofs == 6


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
                min_size=5, max_size=5))
def test_cell_basis_first_component_one(pentagon_cell, pts):
    [grp] = pentagon_cell.groups
    vals = monomials(np.asarray(pts, dtype=float), grp.xbar[0],
                     np.sqrt(pentagon_cell.areas()[0]), 1)
    assert np.allclose(vals[:, 0], 1.0)


def test_cell_basis_gradient_matches_fd(pentagon_cell):
    # the gradients are the degree - 1 values over h times the derivative
    # table, as the norms and the weak divergence form them
    [grp] = groups_of(pentagon_cell, 0)
    xbar, h = grp.xbar[0], grp.h[0]
    x = np.array([[0.3, -0.2]])
    eps = 1e-6
    for degree in range(7):
        g = np.einsum("b,bcx->cx", monomials(x, xbar, h, degree - 1)[0] / h,
                      derivative_table(degree))
        for d, e in ((0, np.array([[eps, 0.0]])),
                     (1, np.array([[0.0, eps]]))):
            fd = (monomials(x + e, xbar, h, degree)[0]
                  - monomials(x - e, xbar, h, degree)[0]) / (2 * eps)
            assert np.allclose(g[:, d], fd, atol=1e-8), degree


@pytest.mark.parametrize("degree", range(7))
def test_derivative_table_holds_the_exponents(degree):
    # d/dx xi^a eta^b = a xi^(a-1) eta^b / h, and likewise along y
    lower = monomial_exponents(degree - 1)
    want = np.zeros((len(lower), len(monomial_exponents(degree)), 2))
    for c, (a, b) in enumerate(monomial_exponents(degree)):
        if a:
            want[lower.index((a - 1, b)), c, 0] = a
        if b:
            want[lower.index((a, b - 1)), c, 1] = b
    assert np.array_equal(derivative_table(degree), want)


def test_derivative_table_degree0_is_zero():
    assert derivative_table(0).shape == (0, 1, 2)
    low = monomials(np.array([[0.3, -0.2], [1.0, 2.0]]), np.zeros(2), 0.5, -1)
    assert low.shape == (2, 0)
    grad = np.einsum("pb,bcx->pcx", low, derivative_table(0))
    assert grad.shape == (2, 1, 2) and not grad.any()


def test_cell_basis_gram_conditioning(mesh_families):
    for mesh in mesh_families.values():
        for grp in groups_of(mesh, 0):
            assert np.linalg.cond(cell_mass(grp)).max() < 1e3


# ---------------------------------------------------------------------------
# face basis: monomials in the centered arclength parameter

def test_face_basis_k0_constant():
    s = np.linspace(-0.5, 0.5, 5)
    assert face_monomials(s, 0).shape == (5, 1)
    assert np.allclose(face_monomials(s, 0), 1.0)


def test_face_monomials_match_pow():
    # powers by products: exact up to s^1, within 1e-16 of pow up to s^6
    s = np.linspace(-0.5, 0.5, 20001)
    table = face_monomials(s, 6)
    assert np.array_equal(table[:, :2], s[:, None] ** np.arange(2))
    assert np.abs(table - s[:, None] ** np.arange(7)).max() <= 1e-16


def test_face_basis_param_endpoints(tri4):
    # both cells of an edge see the same parameter at the same point: -1/2
    # at the edge's lower vertex id, +1/2 at the higher one
    [grp] = groups_of(tri4, 1)
    assert grp.face_basis([0.0, 1.0]).shape == (32, 3, 2, 2)
    s = grp.face_basis([0.0, 1.0])[..., 1]
    loop_ids = np.array(tri4.cells)
    first = tri4.edges[grp.edge_ids, 0]
    assert np.allclose(s[..., 0], np.where(loop_ids == first, -0.5, 0.5))
    assert np.allclose(s[..., 1], -s[..., 0])


# ---------------------------------------------------------------------------
# flux basis: frame vectors times one reference P_k basis on each fan
# triangle

@pytest.mark.parametrize("k", range(5))
def test_flux_basis_reference_orthonormal(k):
    # (1/|T^|) int_T^ phi_a phi_b = delta_ab on a rule the basis was not
    # built from, and the first function is the constant 1
    rule = triangle_rule(2 * k + 2)
    phi = flux_basis(rule.points, k)
    assert phi.shape == (len(rule.points), (k + 1) * (k + 2) // 2)
    gram = 2.0 * (phi * rule.weights[:, None]).T @ phi
    assert np.abs(gram - np.eye(phi.shape[1])).max() <= 1e-13
    assert np.array_equal(phi[:, 0], np.ones(len(phi)))


def test_flux_basis_square_k0(unit_square_cell):
    [grp] = groups_of(unit_square_cell, 0)
    assert weak_gradient_matrix(grp).shape[:2] == (1, 8)
    assert np.array_equal(flux_basis(triangle_rule(0).points, 0),
                          np.ones((3, 1)))
    assert grp.n_mono == 1


def test_flux_basis_disjoint_support(unit_square_cell):
    from stagpoly.weakgrad import flux_values
    [grp] = groups_of(unit_square_cell, 0)
    # at the centroid of triangle T_3, the image of the reference
    # centroid, frame functions of T_1 evaluate to zero; coefficient
    # 2 t + f is frame f (normal first) on triangle t
    x = np.full((1, 2), 1 / 3)
    other = np.zeros((1, 8))
    other[0, 0] = 1.0
    assert np.allclose(flux_values(grp, other, x)[0, 2], 0.0)
    home = np.zeros((1, 8))
    home[0, 4] = 1.0
    assert np.allclose(flux_values(grp, home, x)[0, 2], grp.frames[0, 2, 0])


def test_flux_basis_frames(pentagon_cell):
    [grp] = groups_of(pentagon_cell, 0)
    verts = pentagon_cell.vertices
    for i in range(5):
        t = verts[(i + 1) % 5] - verts[i]
        t /= np.linalg.norm(t)
        assert np.allclose(grp.frames[0, i, 0], [t[1], -t[0]])
        assert np.allclose(grp.frames[0, i, 1], t)


def test_flux_basis_index_layout(pentagon_cell):
    [grp] = groups_of(pentagon_cell, 1)
    assert grp.n_mono == 3
    assert weak_gradient_matrix(grp).shape[1] == 2 * 5 * 3
    # (triangle, frame, basis function), normal frame first: a face DoF
    # moves the flux on its own fan triangle only, and with K = I only its
    # normal component
    Gb = weak_gradient_matrix(grp)[0, :, :grp.n_face_dofs].reshape(
        5, 2, 3, 5, 2)
    for t in range(5):
        for u in range(5):
            block = Gb[t, :, :, u, :]
            assert (np.abs(block).max() > 0) == (t == u)
    assert np.abs(Gb[:, 1]).max() == 0.0
    assert np.abs(Gb[:, 0]).max() > 0.0


def test_flux_basis_home_triangle(pentagon_cell):
    from stagpoly.postprocess import FluxField
    from stagpoly.assembly import BoundarySpec, assemble_system
    sub = subtriangulate(pentagon_cell)
    system = assemble_system(pentagon_cell, sub, 0, identity_coefficient(),
                             lambda p: np.zeros(len(p)),
                             BoundarySpec.dirichlet_everywhere(
                                 lambda p: np.zeros(len(p))))
    # normal component i on triangle i tells which triangle was evaluated
    coeffs = np.column_stack([np.arange(5.0), np.zeros(5)]).reshape(1, -1)
    flux = FluxField(system=system, coeffs=[coeffs])
    [grp] = system.groups
    cents = grp.triangles[0].mean(axis=1)
    vals = np.concatenate([flux.tri_values(0, i, cents[i:i + 1])
                           for i in range(5)])
    assert np.allclose(vals, np.arange(5.0)[:, None] * grp.frames[0, :, 0])
