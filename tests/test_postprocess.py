import tracemalloc

import numpy as np
import pytest

from stagpoly.assembly import BoundarySpec, assemble_system
from stagpoly.cli import convergence_study, solve_problem
from stagpoly.polymesh import (build_polymesh, gen_uniform_squares,
                               gen_uniform_triangles, gen_voronoi_polygons)
from stagpoly.postprocess import (
    ConvergenceReport,
    FluxField,
    PostprocessError,
    SolutionField,
    conservation_residuals,
    cr_equivalence,
    error_norms,
    flux_jump_report,
    h1h_distance,
    recover_flux,
    scaled_conservation_residuals,
    write_vtk,
    _at,
    _face_jump_sq,
    _normal_part,
    _split,
)
from stagpoly.problems import (example1, example2, example3, patch_linear,
                               patch_quadratic)
from stagpoly.quadbasis import (edge_rule, face_monomials, map_to_edge,
                                map_to_triangle, triangle_rule)
from stagpoly.solver import solve_system
from stagpoly.weakgrad import (ElementGroup, flux_values, outer_edge,
                               scalar_coefficient)

from conftest import (monomial_gradients, subtriangulate,
                      weak_gradient_matrix)

RNG = np.random.default_rng(23)


# ---------------------------------------------------------------------------
# fields

def test_solution_field_length_check(tri4):
    sol = solve_problem(example1(), tri4)[1]
    with pytest.raises(PostprocessError):
        SolutionField(sol.system, sol.dofs[:-1])


@pytest.mark.parametrize("k", range(4))
def test_u0_values_is_the_cell_basis_expansion(voronoi64, k):
    # at the star point and the fan corners of every cell
    sol = solve_problem(example2(), voronoi64, k)[1]
    for grp in sol.system.groups:
        uc = _split(grp, sol.dofs)[0]
        pts = np.concatenate([grp.star[:, None], grp.loop], axis=1)
        want = np.einsum("gpc,gc->gp", grp.cell_basis(pts), uc)
        got = np.array([sol.u0_values(c, p) for c, p in zip(grp.cells, pts)])
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), k


def test_patch_flux_is_constant(mesh_families):
    prob = patch_linear()
    for name, mesh in mesh_families.items():
        _, sol, flux, _ = solve_problem(prob, mesh)
        # at the centroid of every fan triangle of every cell
        for gi, grp in enumerate(sol.system.groups):
            vals = flux_values(grp, flux.coeffs[gi], np.full((1, 2), 1 / 3))
            assert np.abs(vals - [2.0, -3.0]).max() < 1e-10, name


# ---------------------------------------------------------------------------
# error norms

def test_patch_errors_machine_zero(mesh_families):
    prob = patch_linear()
    for name, mesh in mesh_families.items():
        _, sol, flux, _ = solve_problem(prob, mesh)
        errs = error_norms(sol, prob.u, prob.grad_u, flux=flux, mode="high")
        for key, val in errs.items():
            assert val < 1e-10, (name, key, val)


def test_quadratic_patch_1h_error_is_finite(mesh_families):
    # the face term of e_1h is a sum of squares: on a reproduced solution it
    # reads round-off, never a negative number whose root is NaN
    prob = patch_quadratic()
    for name, mesh in mesh_families.items():
        _, sol, flux, _ = solve_problem(prob, mesh, k=1)
        e1h = error_norms(sol, prob.u, prob.grad_u, flux=flux,
                          mode="high")["e_1h"]
        assert np.isfinite(e1h) and e1h <= 1e-9, (name, e1h)
        assert h1h_distance(sol.system, sol.dofs, sol.dofs) == 0.0, name


def _linear(pts):
    pts = np.atleast_2d(pts)
    return 1.0 + 2.0 * pts[:, 0] - 3.0 * pts[:, 1]


def _linear_grad(pts):
    return np.tile([2.0, -3.0], (len(np.atleast_2d(pts)), 1))


@pytest.mark.parametrize("k", [0, 1], ids=["2-k0", "2-k1"])
def test_linear_solution_norms_with_scaled_K(squares4, voronoi64, k):
    # K = 2 I, so the exact flux is K grad u; u = 1 + 2x - 3y and its flux
    # K grad u lie in the discrete spaces, so every norm reads round-off
    coeff = scalar_coefficient(2.0)
    assert not coeff.is_identity
    for mesh in (squares4, voronoi64):
        system = assemble_system(mesh, subtriangulate(mesh), k, coeff,
                                 lambda pts: np.zeros(len(pts)),
                                 BoundarySpec.dirichlet_everywhere(_linear))
        sol = SolutionField(system, solve_system(system, method="direct")[0])
        flux = recover_flux(sol)
        for mode in ("paper", "high"):
            errs = error_norms(sol, _linear, _linear_grad, flux, mode=mode)
            assert max(errs.values()) < 1e-12, (mesh.num_cells, mode, errs)


def _kappa_jump(pts):
    return np.where(np.atleast_2d(pts)[:, 0] < 0.5, 1.0, 2.0)


def _kink(pts):
    x = np.atleast_2d(pts)[:, 0]
    return np.where(x < 0.5, x, 0.5 + 0.5 * (x - 0.5))


def _kink_grad(pts):
    x = np.atleast_2d(pts)[:, 0]
    return np.column_stack([np.where(x < 0.5, 1.0, 0.5), np.zeros(len(x))])


@pytest.mark.parametrize("k", [0, 1])
def test_callable_K_jump_on_a_mesh_line_reproduces_kinked_u(k):
    # K = 1 left of x = 1/2 and 2 right of it, as a plain callable: every
    # cell reads K at its star point, so u = x | 1/2 + (x - 1/2)/2, whose
    # flux K grad u = (1, 0) is continuous, is reproduced on squares that
    # have x = 1/2 as a mesh line
    coeff = scalar_coefficient(_kappa_jump)
    for n in (4, 8):
        mesh = gen_uniform_squares(n)
        system = assemble_system(mesh, subtriangulate(mesh), k, coeff,
                                 lambda pts: np.zeros(len(pts)),
                                 BoundarySpec.dirichlet_everywhere(_kink))
        sol = SolutionField(system, solve_system(system, method="direct")[0])
        errs = error_norms(sol, _kink, _kink_grad, recover_flux(sol),
                           mode="high")
        assert max(errs.values()) < 1e-12, (n, errs)


def test_unknown_quadrature_mode(tri4):
    prob = example1()
    _, sol, flux, _ = solve_problem(prob, tri4)
    with pytest.raises(PostprocessError):
        error_norms(sol, prob.u, prob.grad_u, flux=flux, mode="adaptive")


def test_error_norm_keys(tri4):
    prob = example1()
    _, sol, flux, _ = solve_problem(prob, tri4)
    full = error_norms(sol, prob.u, prob.grad_u, flux=flux)
    assert set(full) == {"e_L2", "e_1h", "e_sigma_L2", "e_sigma_0h"}


# ---------------------------------------------------------------------------
# flux norms and norm equivalence

def flux_norms(flux: FluxField) -> tuple:
    """(augmented 0h-norm, plain L2 norm) of a flux field."""
    system = flux.system
    k = system.k
    vol_rule = triangle_rule(max(2 * k, 2))
    erule = edge_rule(k + 1)
    vol_sq = 0.0
    face_sq = 0.0
    diam = system.mesh.diameters
    for gi, grp in enumerate(system.groups):
        _, wts = grp.fan_quadrature(vol_rule)
        sv = flux_values(grp, flux.coeffs[gi], vol_rule.points)
        vol_sq += float(np.sum(wts * (sv ** 2).sum(axis=-1)))
        _, wts = grp.edge_quadrature(erule)
        sn = _normal_part(flux_values(grp, flux.coeffs[gi],
                                      outer_edge(erule)), grp)
        face_sq += float(np.sum(diam[grp.cells]
                                * np.sum(wts * sn ** 2, axis=(1, 2))))
    return float(np.sqrt(vol_sq + face_sq)), float(np.sqrt(vol_sq))


def test_flux_norm_ordering(mesh_families):
    # the 0h norm dominates the L2 norm and stays within a mesh-quality
    # factor of it (norm equivalence on shape-regular fans)
    for name, mesh in mesh_families.items():
        sub = subtriangulate(mesh)
        prob = example1()
        system = assemble_system(mesh, sub, 0, prob.coeff, prob.f, prob.bc)
        for trial in range(10):
            coeffs = [RNG.standard_normal(weak_gradient_matrix(grp).shape[:2])
                      for grp in system.groups]
            flux = FluxField(system=system, coeffs=coeffs)
            n0h, nl2 = flux_norms(flux)
            assert n0h >= nl2 > 0
            assert n0h / nl2 < 10.0, name


def test_solved_flux_jump_small(tri4):
    _, sol, flux, _ = solve_problem(example1(), tri4)
    report = flux_jump_report(flux)
    assert report["max_scaled_jump"] < 1e-9
    assert report["face"] >= 0


def test_random_flux_jump_large(tri4):
    prob = example1()
    sub = subtriangulate(tri4)
    system = assemble_system(tri4, sub, 0, prob.coeff, prob.f, prob.bc)
    coeffs = [RNG.standard_normal(weak_gradient_matrix(grp).shape[:2])
              for grp in system.groups]
    report = flux_jump_report(FluxField(system=system, coeffs=coeffs))
    assert report["max_scaled_jump"] > 1e-3


def test_flux_jump_without_interior_faces(unit_square_cell):
    # a one-cell mesh has no interior face to jump across
    zero = BoundarySpec.dirichlet_everywhere(lambda pts: np.zeros(len(pts)))
    system = assemble_system(unit_square_cell,
                             subtriangulate(unit_square_cell), 0,
                             example1().coeff, example1().f, zero)
    rng = np.random.default_rng(3)
    coeffs = [rng.standard_normal(weak_gradient_matrix(grp).shape[:2])
              for grp in system.groups]
    report = flux_jump_report(FluxField(system=system, coeffs=coeffs))
    assert report == {"max_scaled_jump": 0.0, "face": -1}


# ---------------------------------------------------------------------------
# conservation

def test_conservation_solved_system(squares4):
    prob = example3()
    mesh = gen_uniform_squares(8)
    _, sol, flux, _ = solve_problem(prob, mesh)
    resid = conservation_residuals(flux, prob.f)
    assert np.abs(resid).max() < 1e-11


def test_conservation_detects_wrong_flux(squares4):
    prob = example1()
    _, sol, flux, _ = solve_problem(prob, squares4)
    flux.coeffs = [c + RNG.standard_normal(c.shape) for c in flux.coeffs]
    resid = conservation_residuals(flux, prob.f)
    assert np.abs(resid).max() > 1e-3


def _scaled_conservation_per_cell(flux, f):
    """Reference: |K| |r_K| / (|int_K f| + int_dK |sigma.n|), one cell and
    one fan triangle at a time, with the rules of conservation_residuals."""
    system = flux.system
    rhs_rule = triangle_rule(system.rhs_degree)
    erule = edge_rule(system.k + 1)
    raw = conservation_residuals(flux, f)
    out = np.empty(system.mesh.num_cells)
    for c, fan in enumerate(system.subtri.fans):
        load = boundary = 0.0
        for i in range(fan.n_edges):
            pts, wts = map_to_triangle(rhs_rule, fan.triangle(i))
            load += wts @ f(pts)
            pts, wts = map_to_edge(erule, fan.loop[i],
                                   fan.loop[(i + 1) % fan.n_edges])
            boundary += wts @ np.abs(flux.tri_values(c, i, pts)
                                     @ fan.normals[i])
        out[c] = fan.area * abs(raw[c]) / (abs(load) + boundary)
    return out


@pytest.mark.parametrize("name, k", [("tri8", 0), ("tri8", 1), ("tri8", 2),
                                     ("tri8", 3), ("voronoi64", 1)])
def test_scaled_conservation_matches_per_cell_loop(request, name, k):
    mesh = gen_uniform_triangles(8) if name == "tri8" \
        else request.getfixturevalue(name)
    prob = example1()
    flux = solve_problem(prob, mesh, k)[2]
    scaled = scaled_conservation_residuals(flux, prob.f)
    # the solved flux balances to round-off, and the metric is already
    # relative to the terms it balances
    assert np.abs(scaled - _scaled_conservation_per_cell(flux, prob.f)).max() \
        <= 1e-12
    assert scaled.max() <= 1e-10
    # a perturbed flux does not balance: compare cell by cell
    wrong = FluxField(flux.system, [c + RNG.standard_normal(c.shape)
                                    for c in flux.coeffs])
    ref = _scaled_conservation_per_cell(wrong, prob.f)
    assert ref.min() > 1e-6
    assert np.all(np.abs(scaled_conservation_residuals(wrong, prob.f) - ref)
                  <= 1e-12 * ref)


# ---------------------------------------------------------------------------
# discrete distance

def test_h1h_distance_zero_on_equal(tri4):
    sol = solve_problem(example1(), tri4)[1]
    assert h1h_distance(sol.system, sol.dofs, sol.dofs) == 0.0


def test_h1h_distance_positive_and_homogeneous(tri4):
    sol = solve_problem(example1(), tri4)[1]
    other = sol.dofs + RNG.standard_normal(len(sol.dofs))
    d = h1h_distance(sol.system, sol.dofs, other)
    assert d > 0
    scaled = sol.dofs + 2.0 * (other - sol.dofs)
    assert h1h_distance(sol.system, sol.dofs, scaled) == pytest.approx(
        2.0 * d, rel=1e-12)


# ---------------------------------------------------------------------------
# convergence reports

def test_report_rates_and_csv():
    report = ConvergenceReport(problem="demo", k=0, columns=["e_L2"])
    report.add(h=0.5, n_cells=8, errors={"e_L2": 4.0e-2})
    report.add(h=0.25, n_cells=32, errors={"e_L2": 1.0e-2})
    assert report.rows[0].rates == {}
    assert report.rows[1].rates["e_L2"] == pytest.approx(2.0)
    csv = report.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "h,N_K,e_L2,e_L2_rate"
    assert lines[1] == "5.000000e-01,8,4.000000e-02,"
    assert lines[2] == "2.500000e-01,32,1.000000e-02,2.00"
    table = report.format_table()
    assert "--" in table.split("\n")[1]


def test_convergence_study_example1():
    meshes = [gen_uniform_triangles(n) for n in (4, 8)]
    report = convergence_study(example1(), meshes, k=0)
    assert report.columns == ["e_sigma_L2", "e_L2"]
    row = report.rows[1]
    assert 0.9 < row.rates["e_sigma_L2"] < 1.1
    assert 1.9 < row.rates["e_L2"] < 2.1
    assert report.rows[0].h == 0.25


@pytest.mark.parametrize("k", [2, 3])
def test_convergence_rates_high_order(k):
    meshes = [gen_uniform_triangles(n) for n in (4, 8, 16)]
    report = convergence_study(example1(), meshes, k=k)
    rates = report.rows[-1].rates
    assert rates["e_sigma_L2"] >= k + 1 - 0.1
    assert rates["e_L2"] >= k + 2 - 0.2


def l_shaped_mesh(n: int):
    """n x n grid (n even) in which each 2 x 2 block is its upper-right unit
    square plus one L-shaped cell: 6 corners and the 2 grid points on its
    long edges, so two of its edge pairs are collinear."""
    assert n % 2 == 0
    idx = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)   # [x, y]
    cells = []
    for i in range(0, n, 2):
        for j in range(0, n, 2):
            cells.append([idx[i, j], idx[i + 1, j], idx[i + 2, j],
                          idx[i + 2, j + 1], idx[i + 1, j + 1],
                          idx[i + 1, j + 2], idx[i, j + 2], idx[i, j + 1]])
            cells.append([idx[i + 1, j + 1], idx[i + 2, j + 1],
                          idx[i + 2, j + 2], idx[i + 1, j + 2]])
    xs = np.linspace(0.0, 1.0, n + 1)
    vertices = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
    return build_polymesh(vertices.reshape(-1, 2), cells)


@pytest.mark.parametrize("k", [2, 3])
def test_l_shaped_rates_high_order(k):
    # non-convex cells with two collinear edge pairs each; measured last
    # rates e_sigma_L2 3.04 / 4.00, e_L2 4.08 / 5.00 at k = 2 / 3
    meshes = [l_shaped_mesh(n) for n in (4, 8, 16)]
    assert {len(c) for c in meshes[0].cells} == {4, 8}
    report = convergence_study(example1(), meshes, k=k, mode="high")
    rates = report.rows[-1].rates
    assert rates["e_sigma_L2"] >= k + 1 - 0.1
    assert rates["e_L2"] >= k + 2 - 0.1


@pytest.fixture(scope="module")
def voronoi_ladder(voronoi64):
    return [gen_voronoi_polygons(16, lloyd_iters=100, rng_seed=1), voronoi64,
            gen_voronoi_polygons(256, lloyd_iters=100, rng_seed=1)]


@pytest.mark.parametrize("k", [2, 3])
def test_voronoi_rates_high_order(voronoi_ladder, k):
    # h = N^(-1/2); measured rates over the two refinements are
    # e_1h 2.95, 2.97 / 4.19, 4.08, e_sigma_L2 3.36, 3.15 / 4.21, 4.16 and
    # e_L2 4.20, 4.08 / 5.24, 5.15 at k = 2 / 3
    report = convergence_study(example2(), voronoi_ladder, k=k)
    for coarse, fine in zip(report.rows, report.rows[1:]):
        log_h = 0.5 * np.log(fine.n_cells / coarse.n_cells)
        for key, order in (("e_1h", k + 0.8), ("e_sigma_L2", k + 0.8),
                           ("e_L2", k + 1.8)):
            rate = np.log(coarse.errors[key] / fine.errors[key]) / log_h
            assert rate >= order, (key, fine.n_cells, rate)


def test_convergence_study_needs_meshes():
    with pytest.raises(PostprocessError):
        convergence_study(example1(), [])


# ---------------------------------------------------------------------------
# nonconforming equivalence

def test_cr_equivalence_triangles(tri4):
    assert cr_equivalence(tri4) < 1e-12


def test_cr_equivalence_polygons(squares4):
    assert cr_equivalence(squares4) <= 1e-13


@pytest.mark.parametrize("case", ["voronoi64", "l_shaped8"])
def test_cr_equivalence_voronoi_and_nonconvex(case, voronoi64):
    # mixed valence, and non-convex cells with collinear edges
    mesh = voronoi64 if case == "voronoi64" else l_shaped_mesh(8)
    assert cr_equivalence(mesh) <= 1e-13


def test_cr_equivalence_memory_is_sparse():
    # one dense n_CR x n_CR array at tri16 (2,336 CR DoFs) takes 44 MB
    mesh = gen_uniform_triangles(16)
    tracemalloc.start()
    try:
        gap = cr_equivalence(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gap < 1e-12
    assert peak < 16e6, peak


# ---------------------------------------------------------------------------
# VTK output

def test_write_vtk(tmp_path, tri4):
    _, sol, flux, _ = solve_problem(example1(), tri4)
    path = tmp_path / "out.vtk"
    write_vtk(path, sol, flux)
    text = path.read_text()
    ntri = 3 * tri4.num_cells
    assert text.startswith("# vtk DataFile Version 2.0")
    assert f"POINTS {3 * ntri} double" in text
    assert f"CELLS {ntri} {4 * ntri}" in text
    assert f"CELL_TYPES {ntri}" in text
    assert "SCALARS u0 double 1" in text
    assert "VECTORS sigma double" in text
    assert list(tmp_path.iterdir()) == [path]


def test_write_vtk_without_flux(tmp_path, tri4):
    sol = solve_problem(example1(), tri4)[1]
    path = tmp_path / "plain.vtk"
    write_vtk(path, sol)
    assert "VECTORS" not in path.read_text()


# ---------------------------------------------------------------------------
# the post stage on the quadrature points the groups keep

def fresh_quadrature(monkeypatch):
    """Map every fan and edge rule anew on each call, keeping nothing."""
    monkeypatch.setattr(ElementGroup, "fan_quadrature", lambda self, rule:
                        map_to_triangle(rule, self.triangles))
    monkeypatch.setattr(ElementGroup, "edge_quadrature", lambda self, rule:
                        map_to_edge(rule, self.loop,
                                    np.roll(self.loop, -1, axis=1)))


def reference_jump_report(flux):
    """flux_jump_report from the canonical points of every edge, each side
    evaluated on the points of the edge itself, one fan triangle at a
    time."""
    system = flux.system
    mesh = system.mesh
    erule = edge_rule(system.k + 1)
    ends = mesh.vertices[mesh.edges]
    pts, wts = map_to_edge(erule, ends[:, 0], ends[:, 1])
    sides = np.zeros((mesh.num_edges, 2) + pts.shape[1:])
    for grp in system.groups:
        for r, c in enumerate(grp.cells):
            for i, e in enumerate(grp.edge_ids[r]):
                sides[e, int(grp.orient[r, i] < 0)] = \
                    flux.tri_values(c, i, pts[e])
    inner = np.flatnonzero(mesh.edge_cells[:, 1] >= 0)
    s0, s1 = sides[inner, 0], sides[inner, 1]
    t = ends[inner, 1] - ends[inner, 0]
    length = np.linalg.norm(t, axis=1)
    n = np.column_stack([t[:, 1], -t[:, 0]]) / length[:, None]
    jump_n = np.einsum("eqx,ex->eq", s0 - s1, n)
    psi = (erule.points - 0.5)[:, None] ** np.arange(system.k + 1)
    moments = (jump_n * wts[inner]) @ psi
    scale = np.maximum(np.abs(s0).max(axis=(1, 2)),
                       np.abs(s1).max(axis=(1, 2)))
    rel = np.abs(moments).max(axis=1) / (length * scale)
    return {"max_scaled_jump": float(rel.max()),
            "face": int(inner[np.argmax(rel)])}


def post_reports(sol, flux, prob):
    norms = [error_norms(sol, prob.u, prob.grad_u, flux=flux, mode=mode)
             for mode in ("paper", "high")]
    return (norms, conservation_residuals(flux, prob.f),
            scaled_conservation_residuals(flux, prob.f))


def test_post_stage_on_kept_points_matches_fresh_quadrature(voronoi64,
                                                           monkeypatch):
    prob = example2()
    _, sol, flux, _ = solve_problem(prob, voronoi64, k=2)
    kept = post_reports(sol, flux, prob)
    kept_again = post_reports(sol, flux, prob)
    with monkeypatch.context() as patch:
        fresh_quadrature(patch)
        fresh = post_reports(sol, flux, prob)
    # the load, the outflow and their defect scale with max |f| per area
    load = np.abs(prob.f(sol.system.subtri.star)).max()
    for norms, raw, scaled in (kept, kept_again):
        for mine, ref in zip(norms, fresh[0]):
            assert mine.keys() == ref.keys()
            for key in ref:
                assert abs(mine[key] - ref[key]) <= 1e-13 * ref[key], key
        assert np.abs(raw - fresh[1]).max() <= 1e-13 * load
        assert np.abs(scaled - fresh[2]).max() <= 1e-13


@pytest.mark.parametrize("case, k", [("voronoi64", 2), ("tri8", 0),
                                     ("tri8", 3), ("squares8", 0)])
def test_flux_jump_report_matches_canonical_points(case, k, voronoi64):
    prob, mesh = {
        "voronoi64": lambda: (example2(), voronoi64),
        "tri8": lambda: (example1(), gen_uniform_triangles(8)),
        "squares8": lambda: (example3(), gen_uniform_squares(8)),
    }[case]()
    _, sol, flux, _ = solve_problem(prob, mesh, k)
    # each side's moments in its own loop direction, turned by orient^p:
    # the solved flux keeps its P_k normal moments across faces, and
    # moments out of step with the edge's direction would break that
    mine, ref = flux_jump_report(flux), reference_jump_report(flux)
    assert mine["max_scaled_jump"] <= 1e-11
    assert abs(mine["max_scaled_jump"] - ref["max_scaled_jump"]) <= 1e-13
    # the jump of a random flux is O(1) on every face
    rng = np.random.default_rng(5)
    rough = FluxField(sol.system, [rng.standard_normal(c.shape)
                                   for c in flux.coeffs])
    mine, ref = flux_jump_report(rough), reference_jump_report(rough)
    assert mine["face"] == ref["face"]
    assert abs(mine["max_scaled_jump"] - ref["max_scaled_jump"]) \
        <= 1e-13 * ref["max_scaled_jump"]


def reference_e1h(sol, grad_u):
    """e_1h in mode "paper" with grad u_0 by the power rule at every
    point."""
    system = sol.system
    total = 0.0
    for grp in system.groups:
        uc, ub = _split(grp, sol.dofs)
        pts, wts = grp.fan_quadrature(triangle_rule(2))
        gphi = monomial_gradients(pts, grp.xbar[:, None, None],
                                  grp.h[:, None, None], system.k + 1)
        dg = _at(grad_u, pts, (2,)) - np.einsum("gtqcx,gc->gtqx", gphi, uc)
        total += np.sum(wts * (dg ** 2).sum(axis=-1))
        total += np.sum(_face_jump_sq(grp, uc, ub, edge_rule(system.k + 1))
                        / system.mesh.diameters[grp.cells])
    return np.sqrt(total)


def test_face_jump_matches_projector(voronoi64):
    # the Legendre moments against the projector W psi G^-1 psi^T W of the
    # face monomials, on random coefficients, in every rule the norms use
    rng = np.random.default_rng(7)
    prob = example2()
    sub = subtriangulate(voronoi64)
    for k in range(4):
        system = assemble_system(voronoi64, sub, k, prob.coeff, prob.f,
                                 prob.bc)
        dofs = rng.standard_normal(system.dofmap.total)
        for npoints in sorted({k + 1, k + 2, max(4, k + 2)}):
            rule = edge_rule(npoints)
            psi = face_monomials(rule.points - 0.5, k)
            wpsi = psi * rule.weights[:, None]
            proj = wpsi @ np.linalg.solve(psi.T @ wpsi, wpsi.T)
            for grp in system.groups:
                uc, ub = _split(grp, dofs)
                pts, _ = grp.edge_quadrature(rule)
                d = np.einsum("gtqc,gc->gtq", grp.cell_basis(pts), uc) \
                    - np.einsum("gtqp,gtp->gtq", grp.face_basis(rule.points),
                                ub)
                ref = np.einsum("gtq,qr,gtr,gt->g", d, proj, d, grp.lengths)
                got = _face_jump_sq(grp, uc, ub, rule)
                assert np.allclose(got, ref, rtol=1e-12, atol=0), (k, npoints)


@pytest.mark.parametrize("case", ["tri8-k0", "tri8-k1", "tri8-k2", "tri8-k3",
                                  "voronoi64-k1"])
def test_kept_tables_match_fresh_evaluation(case, voronoi64, monkeypatch):
    # the load reads the points element_groups keeps (at k = 0 its volume
    # points), and e_1h the P_k columns of the basis it evaluates for e_L2
    name, k = case.split("-k")
    mesh = voronoi64 if name == "voronoi64" else gen_uniform_triangles(8)
    prob = example2() if name == "voronoi64" else example1()
    sol = solve_problem(prob, mesh, k=int(k))[1]
    with monkeypatch.context() as patch:
        fresh_quadrature(patch)
        fresh = assemble_system(mesh, sol.system.subtri, int(k), prob.coeff,
                                prob.f, prob.bc, flux_sign=prob.flux_sign)
    assert np.array_equal(sol.system.b_full, fresh.b_full)
    e1h = error_norms(sol, prob.u, prob.grad_u,
                      flux=recover_flux(sol))["e_1h"]
    ref = reference_e1h(sol, prob.grad_u)
    assert abs(e1h - ref) <= 1e-13 * ref


def test_reassigned_flux_coefficients_are_read(voronoi64):
    prob = example2()
    _, sol, flux, _ = solve_problem(prob, voronoi64, k=1)

    def no_load(pts):
        return np.zeros(len(pts))

    before = conservation_residuals(flux, no_load)
    grp = sol.system.groups[0]
    ref = outer_edge(edge_rule(2))
    vals = flux_values(grp, flux.coeffs[0], ref)
    flux.coeffs = [2.0 * c for c in flux.coeffs]
    assert np.array_equal(conservation_residuals(flux, no_load), 2.0 * before)
    assert np.array_equal(flux_values(grp, flux.coeffs[0], ref), 2.0 * vals)
