import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from stagpoly import polymesh
from stagpoly.assembly import assemble_system, static_condensation
from stagpoly.problems import example1, example2, example3
from stagpoly.solver import (
    NotSPDError,
    SolverError,
    solve_cg,
    solve_direct,
    solve_system,
)

from conftest import full_solve, subtriangulate

RNG = np.random.default_rng(11)


def random_spd(n, seed=0):
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((n, n))
    return Q @ Q.T + n * np.eye(n)


def wg_system(mesh, k=0):
    prob = example1()
    sub = subtriangulate(mesh)
    return assemble_system(mesh, sub, k, prob.coeff, prob.f, prob.bc)


# ---------------------------------------------------------------------------
# conjugate gradient

def test_cg_matches_dense():
    A = random_spd(40, seed=1)
    b = RNG.standard_normal(40)
    x, report = solve_cg(A, b, tol=1e-12)
    assert report.converged
    assert np.abs(x - np.linalg.solve(A, b)).max() < 1e-8


def test_cg_sparse_input():
    A = sp.csr_matrix(random_spd(30, seed=2))
    b = RNG.standard_normal(30)
    x, report = solve_cg(A, b, tol=1e-12)
    assert np.abs(A @ x - b).max() < 1e-9


def test_cg_report_fields():
    A = random_spd(25, seed=3)
    b = RNG.standard_normal(25)
    x, report = solve_cg(A, b, tol=1e-10)
    assert report.method == "cg"
    assert report.n == 25
    assert report.iterations == len(report.residual_history) - 1
    assert report.residual <= 1e-10 * np.linalg.norm(b)


def test_cg_zero_rhs():
    A = random_spd(10, seed=4)
    x, report = solve_cg(A, np.zeros(10))
    assert np.array_equal(x, np.zeros(10))
    assert report.iterations == 0


def test_cg_indefinite_raises():
    # a positive diagonal passes the Jacobi check; the curvature guard fires
    A = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NotSPDError, match="curvature"):
        solve_cg(A, np.array([1.0, -1.0]))


def test_cg_nonpositive_diagonal_raises():
    A = np.diag([1.0, 0.0, 2.0])
    with pytest.raises(NotSPDError):
        solve_cg(A, np.ones(3))


def test_cg_maxiter_exhausted():
    A = random_spd(60, seed=5)
    with pytest.raises(SolverError, match="converge"):
        solve_cg(A, RNG.standard_normal(60), tol=1e-14, maxiter=2)


@pytest.mark.parametrize("tol", [0.0, 1e-300])
def test_cg_unreachable_tol_is_not_spd_error(tri4, tol):
    # the SPD tri4 face system: its residual underflows near 1e-162, where
    # p^T A p and r^T z round to 0 and say nothing about the matrix
    cond = static_condensation(wg_system(tri4))
    with pytest.raises(SolverError, match="cannot reach tol") as info:
        solve_cg(cond.S, cond.b, tol=tol)
    assert not isinstance(info.value, NotSPDError)


MESHES = {
    "tri3": lambda: polymesh.gen_uniform_triangles(3),
    "sq4": lambda: polymesh.gen_uniform_squares(4),
    "sq8": lambda: polymesh.gen_uniform_squares(8),
    "vor8": lambda: polymesh.gen_voronoi_polygons(8, rng_seed=1),
}


@pytest.mark.parametrize("mesh, k", [
    ("tri3", 2), ("sq4", 2), ("sq8", 2), ("vor8", 2)])
def test_cg_tol_zero_is_unreachable(mesh, k):
    # r^T z underflows to 0 on these face systems, which must end in a
    # solver error that names the tolerance, not a division by zero
    mesh = MESHES[mesh]()
    cond = static_condensation(wg_system(mesh, k))
    with pytest.raises(SolverError, match="cannot reach tol") as info:
        solve_cg(cond.S, cond.b, tol=0.0)
    assert not isinstance(info.value, NotSPDError)


@pytest.mark.parametrize("tol", [1e-8, 1e-12, 1e-14, 1e-15, 1e-16])
def test_cg_converged_on_true_residual(tri4, tol):
    # a converged report is a statement about b - A x, not about the
    # updated residual, which drifts from it by round-off
    cond = static_condensation(wg_system(tri4, 1))
    try:
        x, report = solve_cg(cond.S, cond.b, tol=tol)
    except SolverError as exc:
        assert "cannot reach tol" in str(exc)
        return
    true = np.linalg.norm(cond.b - cond.S @ x)
    assert report.converged and report.residual == true
    assert true <= tol * np.linalg.norm(cond.b)


# ---------------------------------------------------------------------------
# direct solver

# SuperLU's default panel and panels of one face block at k = 0, 1 and 4
BLOCKS = (None, 1, 2, 5)


def test_direct_matches_dense():
    A = random_spd(35, seed=7)
    b = RNG.standard_normal(35)
    for matrix, block in itertools.product((A, sp.csr_matrix(A)), BLOCKS):
        x, report = solve_direct(matrix, b, block)
        assert report.method == "direct"
        assert np.abs(x - np.linalg.solve(A, b)).max() < 1e-10


def test_direct_solves_the_matrix_it_is_given():
    # positive diagonal pivots but not symmetric: A x = b, not A^T x = b
    A = np.array([[2.0, 1.0], [0.0, 2.0]])
    b = np.array([1.0, 2.0])
    for matrix, block in itertools.product(
            (A, sp.csr_matrix(A), sp.csc_matrix(A)), BLOCKS):
        x, _ = solve_direct(matrix, b, block)
        assert np.allclose(A @ x, b, rtol=0.0, atol=1e-14)


def test_direct_singular_raises():
    A = np.zeros((3, 3))
    for block in BLOCKS:
        with pytest.raises(SolverError):
            solve_direct(A, np.ones(3), block)


def test_direct_indefinite_raises():
    A = np.diag([1.0, -1.0])
    for block in BLOCKS:
        with pytest.raises(SolverError):
            solve_direct(A, np.ones(2), block)


def test_direct_zero_diagonal_raises():
    # indefinite, yet the row-swapped LU has positive pivots
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    for block in BLOCKS:
        with pytest.raises(SolverError):
            solve_direct(A, np.ones(2), block)


@pytest.mark.parametrize("case, k", [
    ("tri8", 0), ("tri8", 1), ("tri8", 2), ("tri8", 3), ("tri8", 4),
    ("voronoi64", 1), ("voronoi64", 2), ("squares8", 0)])
def test_face_block_panel_matches_default_panel(case, k, voronoi64):
    # the panel width changes how SuperLU sweeps the columns, not the
    # factorization: the face DoFs are those of SuperLU's default panel.
    # The cell DoFs recovered from them are compared no further: at k = 3
    # a random 1.8e-15 change of the face DoFs moves them by 4.8e-12
    mesh, prob = {
        "tri8": lambda: (polymesh.gen_uniform_triangles(8), example1()),
        "voronoi64": lambda: (voronoi64, example2()),
        "squares8": lambda: (polymesh.gen_uniform_squares(8), example3()),
    }[case]()
    system = assemble_system(mesh, subtriangulate(mesh), k, prob.coeff,
                             prob.f, prob.bc, flux_sign=prob.flux_sign)
    dofs, _ = solve_system(system, method="direct")
    cond = static_condensation(system)
    lu = splu(cond.S.T, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})
    ref = cond.recover(lu.solve(cond.b))
    faces = slice(system.dofmap.n_face_dofs)
    assert np.abs(dofs[faces] - ref[faces]).max() \
        <= 1e-12 * np.abs(ref[faces]).max()


# ---------------------------------------------------------------------------
# assembled systems: condensed and full paths agree

def test_solve_system_condensed_vs_full(tri4):
    system = wg_system(tri4)
    x_c, _ = solve_system(system, method="direct")
    x_f = full_solve(system)
    assert np.abs(x_c - x_f).max() < 1e-10


def test_solve_system_cg_vs_direct(squares4):
    system = wg_system(squares4)
    x_cg, rep = solve_cg_path = solve_system(system, method="cg", tol=1e-12)
    x_d, _ = solve_system(system, method="direct")
    assert rep.method == "cg"
    assert np.abs(x_cg - x_d).max() < 1e-8


def test_solve_system_unknown_method(tri4):
    with pytest.raises(SolverError):
        solve_system(wg_system(tri4), method="multigrid")


def test_solution_satisfies_full_equations(tri4):
    system = wg_system(tri4)
    dofs, _ = solve_system(system, method="direct")
    resid = system.A_full @ dofs - system.b_full
    free_scale = max(1.0, np.abs(system.b_full).max())
    assert np.abs(resid[system.free]).max() < 1e-11 * free_scale
