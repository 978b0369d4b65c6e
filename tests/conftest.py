"""Shared fixtures: the three mesh families plus single-cell meshes."""

import numpy as np
import pytest
from hypothesis import settings

from stagpoly import polymesh
from stagpoly.assembly import face_diagonal
from stagpoly.quadbasis import monomial_exponents
from stagpoly.solver import solve_direct
from stagpoly.weakgrad import weak_gradient_coeffs

# `pytest --hypothesis-profile=ci` prints the blob that reproduces a
# failing example; every other setting stays at its default
settings.register_profile("ci", print_blob=True)


def make_single_cell(vertices):
    vertices = np.asarray(vertices, dtype=float)
    return polymesh.build_polymesh(vertices, [list(range(len(vertices)))])


def subtriangulate(mesh):
    stars = polymesh.compute_star_points(mesh)
    return polymesh.build_subtriangulation(mesh, star_points=stars)


def full_solve(system):
    """Every DoF from the uncondensed solve of the free-DoF system A x = b,
    with the Dirichlet values in place: the condensed solve's reference."""
    x = np.empty(system.dofmap.total)
    x[system.free] = solve_direct(system.A, system.b)[0]
    x[system.fixed_dofs] = system.fixed_values
    return x


def weak_gradient_matrix(grp):
    """G (g, d, n), the flux coefficients of every local unit vector: the
    matrix that weak_gradient_coeffs applies to each row of a group."""
    n = grp.dofs.shape[1]
    unit = np.broadcast_to(np.eye(n), (len(grp.cells), n, n))
    return np.stack([weak_gradient_coeffs(grp, unit[:, j]) for j in range(n)],
                    axis=-1)


def local_stiffness(grp):
    """Whole local stiffness matrices (g, n, n) of a group, the dense
    scatter of grp.blocks(): A_ff on each face's diagonal block, A_cf and
    its mirror, and A_cc symmetrised, so bitwise symmetric."""
    A_ff, A_cf, A_cc = grp.blocks()
    nfl = grp.n_face_dofs
    n = nfl + A_cc.shape[1]
    A = np.zeros((len(A_cc), n, n))
    A[:, nfl:, :nfl] = A_cf
    A[:, :nfl, nfl:] = np.swapaxes(A_cf, 1, 2)
    A[:, nfl:, nfl:] = 0.5 * (A_cc + np.swapaxes(A_cc, 1, 2))
    r, c = face_diagonal(grp.n_edges, grp.k + 1)
    A[:, r, c] = A_ff.reshape(len(A), -1)
    return A


def monomial_gradients(pts, center, h, degree):
    """Gradients (..., n, 2) of quadbasis.monomials(pts, center, h, degree)
    by the power rule on each exponent pair: the reference the derivative
    table is checked against."""
    h = np.asarray(h, dtype=float)
    d = (np.asarray(pts, dtype=float) - center) / h[..., None]
    xi, eta = d[..., 0], d[..., 1]
    grads = [np.stack([a * xi ** max(a - 1, 0) * eta ** b,
                       b * xi ** a * eta ** max(b - 1, 0)], axis=-1)
             for a, b in monomial_exponents(degree)]
    return np.stack(grads, axis=-2) / h[..., None, None]


@pytest.fixture(scope="session")
def tri4():
    return polymesh.gen_uniform_triangles(4)


@pytest.fixture(scope="session")
def tri4_sub(tri4):
    return subtriangulate(tri4)


@pytest.fixture(scope="session")
def squares4():
    return polymesh.gen_uniform_squares(4)


@pytest.fixture(scope="session")
def squares4_sub(squares4):
    return subtriangulate(squares4)


@pytest.fixture(scope="session")
def voronoi64():
    return polymesh.gen_voronoi_polygons(64, lloyd_iters=100, rng_seed=1)


@pytest.fixture(scope="session")
def voronoi64_sub(voronoi64):
    return subtriangulate(voronoi64)


@pytest.fixture(scope="session")
def unit_square_cell():
    return make_single_cell([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


@pytest.fixture(scope="session")
def pentagon_cell():
    ang = np.pi / 2 + 2.0 * np.pi * np.arange(5) / 5.0
    return make_single_cell(np.column_stack([np.cos(ang), np.sin(ang)]))


@pytest.fixture(scope="session")
def mesh_families(tri4, squares4, voronoi64):
    return {"triangles": tri4, "squares": squares4, "voronoi": voronoi64}
