import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from stagpoly import assembly
from stagpoly.assembly import (
    AssemblyError,
    BoundarySpec,
    CondensationError,
    DofMap,
    assemble_system,
    build_dof_map,
    static_condensation,
    write_matrix_market,
)
from stagpoly.polymesh import gen_uniform_squares, gen_uniform_triangles
from stagpoly.problems import example1, example2, example3, patch_linear
from stagpoly.solver import solve_system
from stagpoly.weakgrad import CoefficientField

from conftest import full_solve, subtriangulate
from test_postprocess import l_shaped_mesh


def zero(pts):
    return np.zeros(len(np.atleast_2d(pts)))


def build(problem, mesh, k=0, **kw):
    sub = subtriangulate(mesh)
    return assemble_system(mesh, sub, k, problem.coeff, problem.f, problem.bc,
                           flux_sign=problem.flux_sign, **kw)


# ---------------------------------------------------------------------------
# DoF map

def test_dofmap_k0_counts(tri4):
    dm = build_dof_map(tri4, 0)
    assert dm.face_block == 1
    assert dm.cell_block == 3
    assert dm.n_face_dofs == 56
    assert dm.total == 56 + 3 * 32


def test_dofmap_k1_counts(tri4):
    dm = build_dof_map(tri4, 1)
    assert dm.face_block == 2
    assert dm.cell_block == 6
    assert dm.total == 2 * 56 + 6 * 32


def test_dofmap_degree_range(tri4):
    # the load rule of degree 2(k+1) must exist: k = 4 is the last degree
    assert build_dof_map(tri4, 4).face_block == 5
    for k in (-1, 5):
        with pytest.raises(AssemblyError, match="0..4"):
            build_dof_map(tri4, k)


def test_dofmap_blocks_disjoint(squares4):
    dm = build_dof_map(squares4, 1)
    seen = []
    for e in range(squares4.num_edges):
        seen.extend(dm.face_dofs(e).tolist())
    for c in range(squares4.num_cells):
        seen.extend(dm.cell_dofs(c).tolist())
    assert sorted(seen) == list(range(dm.total))


# ---------------------------------------------------------------------------
# boundary specs

def test_boundary_spec_everywhere():
    bc = BoundarySpec.dirichlet_everywhere(zero)
    kind, g = bc.condition_for(3)
    assert kind == "dirichlet"


def test_boundary_spec_mixed():
    bc = BoundarySpec(dirichlet={1: zero}, neumann={2: zero, 3: zero, 4: zero})
    assert bc.condition_for(1)[0] == "dirichlet"
    assert bc.condition_for(4)[0] == "neumann"


def test_boundary_spec_uncovered_marker():
    bc = BoundarySpec(dirichlet={1: zero})
    with pytest.raises(AssemblyError):
        bc.condition_for(2)


def test_boundary_spec_duplicate_marker():
    with pytest.raises(AssemblyError):
        BoundarySpec(dirichlet={1: zero}, neumann={1: zero})


# ---------------------------------------------------------------------------
# global system structure

def test_system_bitwise_symmetric(tri4):
    system = build(example1(), tri4)
    assert (system.A_full - system.A_full.T).nnz == 0
    assert (system.A - system.A.T).nnz == 0


@pytest.mark.parametrize("case", ["squares8-example3-k0",
                                  "voronoi64-example2-k1"])
def test_assembled_matrices_store_no_zero(case, voronoi64):
    # _symmetric_csr prunes the triplet sums that cancel exactly; a
    # COO-to-CSR build without eliminate_zeros would store them
    if case.startswith("squares8"):
        system = build(example3(), gen_uniform_squares(8), 0)
    else:
        system = build(example2(), voronoi64, 1)
    for A in (static_condensation(system).S, system.A_full):
        assert A.nnz > 0
        assert np.count_nonzero(A.data == 0.0) == 0


def _upper_and_mirror(n, rows, cols, vals):
    """Reference symmetric CSR: accumulate the upper triangle with the
    diagonal triplets halved, then add its mirror."""
    rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
    keep = (0 <= rows) & (rows <= cols)
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    vals[rows == cols] *= 0.5
    upper = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return upper + upper.T.tocsr()


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("case", ["tri8", "squares4", "voronoi64",
                                  "l_shaped8"])
def test_symmetric_csr_is_the_upper_and_mirror_sum(case, k, squares4,
                                                   voronoi64, monkeypatch):
    # every entry of S and A_full receives at most two triplets, so one
    # COO-to-CSR pass sums the same two numbers into (i, j) and (j, i)
    mesh = {"tri8": lambda: gen_uniform_triangles(8),
            "squares4": lambda: squares4, "voronoi64": lambda: voronoi64,
            "l_shaped8": lambda: l_shaped_mesh(8)}[case]()
    calls = []
    one_pass = assembly._symmetric_csr

    def record(n, rows, cols, vals):
        calls.append((n, rows, cols, vals))
        return one_pass(n, rows, cols, vals)
    monkeypatch.setattr(assembly, "_symmetric_csr", record)
    system = build(example1(), mesh, k)
    static_condensation(system)
    assert system.A_full.nnz > 0
    assert len(calls) == 2
    for n, rows, cols, vals in calls:
        r, c = np.concatenate(rows), np.concatenate(cols)
        keep = (r >= 0) & (c >= 0)
        assert np.unique(r[keep] * n + c[keep],
                         return_counts=True)[1].max() <= 2
        A = one_pass(n, rows, cols, vals)
        ref = _upper_and_mirror(n, rows, cols, vals)
        ref.sort_indices()
        assert A.has_sorted_indices
        assert np.array_equal(A.indptr, ref.indptr)
        assert np.array_equal(A.indices, ref.indices)
        assert np.array_equal(A.data, ref.data)
        assert (A - A.T).nnz == 0


def test_pre_bc_kernel_is_constants(tri4):
    system = build(example1(), tri4)
    dm = system.dofmap
    const = np.zeros(dm.total)
    const[:dm.n_face_dofs] = 1.0
    for c in range(tri4.num_cells):
        const[dm.cell_dofs(c)[0]] = 1.0
    resid = system.A_full @ const
    assert np.abs(resid).max() < 1e-12 * np.abs(system.A_full.data).max()
    w = np.linalg.eigvalsh(system.A_full.toarray())
    scale = w.max()
    assert w[0] > -1e-12 * scale
    assert w[1] > 1e-10 * scale  # kernel dimension exactly 1


def test_reduced_system_spd(tri4):
    system = build(example1(), tri4)
    w = np.linalg.eigvalsh(system.A.toarray())
    assert w[0] > 0


def test_rhs_degree_default(tri4):
    assert build(example1(), tri4).rhs_degree == 2
    assert build(example1(), tri4, k=1).rhs_degree == 4


def test_dirichlet_default_is_midpoint_at_k0(tri4):
    prob = example1()
    system = build(prob, tri4)
    for e, val in zip(system.fixed_dofs, system.fixed_values):
        edge = int(np.searchsorted(
            np.arange(system.dofmap.n_face_dofs), e))
        a, b = tri4.vertices[tri4.edges[edge]]
        mid = 0.5 * (a + b)
        assert val == pytest.approx(float(prob.u(mid[None, :])[0]), abs=1e-14)


def test_neumann_loads_enter_rhs(squares4):
    # flux data g on a Neumann face lands in that face's load entry
    bc = BoundarySpec(dirichlet={1: zero, 2: zero, 3: zero},
                      neumann={4: lambda p: np.ones(len(np.atleast_2d(p)))})
    prob = example1()
    sub = subtriangulate(squares4)
    system = assemble_system(squares4, sub, 0, prob.coeff, zero, bc)
    dm = system.dofmap
    top = np.concatenate([dm.face_dofs(e) for e in range(squares4.num_edges)
                          if squares4.edge_markers[e] == 4
                          and squares4.edge_cells[e, 1] < 0])
    assert np.allclose(system.b_full[top], 0.25)  # face length 1/4, g = 1
    others = np.setdiff1d(np.arange(dm.n_face_dofs), top)
    assert np.allclose(system.b_full[others], 0.0)


def test_reduced_system_built_on_demand(tri4):
    system = build(example1(), tri4)
    assert "A" not in vars(system) and "b" not in vars(system)
    assert "A_full" not in vars(system)
    solve_system(system, method="direct")
    assert "A" not in vars(system) and "b" not in vars(system)
    assert "A_full" not in vars(system)
    free, fixed = system.free, system.fixed_dofs
    expected = system.b_full[free] \
        - system.A_full.toarray()[np.ix_(free, fixed)] @ system.fixed_values
    assert np.allclose(system.b, expected, atol=1e-13)
    assert system.A is system.A


# ---------------------------------------------------------------------------
# static condensation

def test_condensation_matches_full(tri4):
    system = build(example1(), tri4)
    x_full = full_solve(system)
    x_cond, _ = solve_system(system, method="direct")
    assert np.abs(x_full - x_cond).max() < 1e-11


def test_condensed_schur_spd(tri4):
    cond = static_condensation(build(example1(), tri4))
    S = cond.S.toarray()
    assert np.allclose(S, S.T, atol=1e-14)
    assert np.linalg.eigvalsh(S).min() > 0


def test_condensation_cell_rows_exact(squares4):
    # interior recovery satisfies the cell equations to machine precision
    system = build(example3(), squares4)
    dofs, _ = solve_system(system, method="direct")
    resid = system.A_full @ dofs - system.b_full
    dm = system.dofmap
    cell_rows = np.concatenate([dm.cell_dofs(c)
                                for c in range(squares4.num_cells)])
    assert np.abs(resid[cell_rows]).max() < 1e-12 * max(
        1.0, np.abs(system.b_full).max())


def _tensor_K_system(mesh, k):
    # a full tensor K that varies in space, sampled once per cell at the
    # star point
    def K(pts):
        return (1.0 + pts[:, 0] ** 2)[:, None, None] \
            * np.array([[2.0, 0.5], [0.5, 1.0]])
    bc = BoundarySpec.dirichlet_everywhere(lambda p: p[:, 0] + p[:, 1] ** 2)
    return assemble_system(mesh, subtriangulate(mesh), k, CoefficientField(K),
                           lambda p: np.ones(len(p)), bc)


def _condensation_cases(voronoi64):
    for k in range(4):
        yield f"k={k}", build(example1(), voronoi64, k)
    yield "tensor K, k=1", _tensor_K_system(voronoi64, 1)


def test_condensed_system_is_dense_schur_complement(voronoi64):
    # mixed valence 4-8 at k = 0..3, and a tensor K that varies in space
    assert len({len(c) for c in voronoi64.cells}) >= 4
    for name, system in _condensation_cases(voronoi64):
        cond = static_condensation(system)
        nF = len(cond.free_faces)
        assert np.array_equal(system.free[:nF], cond.free_faces)
        A, b = system.A.toarray(), system.b
        X = np.linalg.solve(A[nF:, nF:], np.column_stack([A[nF:, :nF],
                                                          b[nF:]]))
        S = A[:nF, :nF] - A[:nF, nF:] @ X[:, :nF]
        b_S = b[:nF] - A[:nF, nF:] @ X[:, nF]
        assert abs(cond.S.toarray() - S).max() <= 1e-12 * abs(S).max(), name
        assert abs(cond.b - b_S).max() <= 1e-12 * abs(b_S).max(), name


def test_recover_solves_interior_equations(voronoi64):
    # for any face values, A_cc u_c = b_c - A_cf u_f in every cell
    rng = np.random.default_rng(3)
    for name, system in _condensation_cases(voronoi64):
        cond = static_condensation(system)
        full = cond.recover(rng.standard_normal(len(cond.free_faces)))
        assert np.array_equal(full[system.fixed_dofs], system.fixed_values)
        cells = np.arange(system.dofmap.n_face_dofs, system.dofmap.total)
        A = system.A_full[cells]
        resid = A @ full - system.b_full[cells]
        scale = abs(A) @ abs(full) + abs(system.b_full[cells])
        assert abs(resid).max() <= 1e-13 * scale.max(), name


# ---------------------------------------------------------------------------
# matrix market export

def test_matrix_market_roundtrip(tmp_path, tri4):
    system = build(example1(), tri4)
    path = tmp_path / "system.mtx"
    write_matrix_market(system, path)
    A = scipy.io.mmread(path).tocsr()
    assert A.shape == system.A.shape
    assert abs(A - system.A).max() < 1e-15
