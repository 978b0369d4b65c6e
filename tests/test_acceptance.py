"""End-to-end acceptance checks.

One test per release criterion. Each test prints a single verdict line
(criterion number, PASS or FAIL, the measured quantities) before its
assertions, so the log always carries the numbers behind the outcome.
"""

import time

import numpy as np
import pytest

from stagpoly.assembly import assemble_system, static_condensation
from stagpoly.cli import TABLE1_REFERENCE
from stagpoly.polymesh import (
    gen_delaunay_triangles,
    gen_uniform_squares,
    gen_uniform_triangles,
    gen_voronoi_polygons,
)
from stagpoly.postprocess import (
    SolutionField,
    conservation_residuals,
    convergence_study,
    cr_equivalence,
    error_norms,
    flux_jump_report,
    h1h_distance,
    recover_flux,
)
from stagpoly.problems import (
    example1,
    example2,
    example3,
    patch_linear,
    patch_quadratic,
)
from stagpoly.quadbasis import (edge_rule, map_to_edge, map_to_triangle,
                                triangle_rule)
from stagpoly.solver import solve_system
from stagpoly.weakgrad import (cell_mass, flux_values, weak_divergence,
                               weak_gradient_coeffs)

from conftest import full_solve, subtriangulate

RNG = np.random.default_rng(2024)

# Published coarsest-level magnitudes for example2 on Voronoi meshes.
TABLE2_LEVEL1 = {"e_1h": 4.18367e-01, "e_L2": 9.86917e-03,
                 "e_sigma_0h": 8.15496e-01}


def solve_problem(problem, mesh, k=0, **solver_opts):
    sub = subtriangulate(mesh)
    system = assemble_system(mesh, sub, k, problem.coeff, problem.f,
                             problem.bc, flux_sign=problem.flux_sign)
    dofs, report = solve_system(system, **solver_opts)
    return system, SolutionField(system, dofs), report


def verdict(num, label, ok, detail):
    print(f"criterion {num} {label}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------

def test_criterion_1_reference_convergence_triangles():
    t0 = time.perf_counter()
    meshes = [gen_uniform_triangles(n) for n in (4, 8, 16, 32, 64)]
    report = convergence_study(example1(), meshes, k=0)
    elapsed = time.perf_counter() - t0

    # sigma is checked per value. The u column is checked up to one constant:
    # e_L2 is this package's discrete norm (edge-midpoint rule on the fan
    # around the star point), which is sensitive to that convention, and the
    # published column carries a different one. u_ratios[-1] (finest level)
    # is that constant; u_shape is how far each level departs from it, i.e.
    # whether every published reduction factor is reproduced.
    sig_devs, u_ratios = [], []
    for row, (_, nk, sig_ref, u_ref) in zip(report.rows, TABLE1_REFERENCE):
        assert row.n_cells == nk
        sig_devs.append(abs(row.errors["e_sigma_L2"] - sig_ref) / sig_ref)
        u_ratios.append(row.errors["e_L2"] / u_ref)
    u_const = u_ratios[-1]
    u_shape = [r / u_const - 1.0 for r in u_ratios]
    sig_rates = [r.rates["e_sigma_L2"] for r in report.rows[1:]]
    u_rates = [r.rates["e_L2"] for r in report.rows[1:]]

    ok = (max(sig_devs) <= 0.01 and abs(u_const - 1.0) <= 0.01
          and max(abs(d) for d in u_shape) <= 0.01
          and all(abs(r - 1.0) <= 0.02 for r in sig_rates)
          and all(abs(r - 2.0) <= 0.05 for r in u_rates)
          and elapsed < 60.0)
    verdict(1, "reference table, triangles", ok,
            f"max dev sigma {100 * max(sig_devs):.3f}%, tol 1%; "
            f"u/ref {' '.join('%.5f' % r for r in u_ratios)}, "
            f"shape {' '.join('%+.3f%%' % (100 * d) for d in u_shape)}, "
            f"const {u_const:.5f}, tol 1%; "
            f"rates {sig_rates[-1]:.3f}/{u_rates[-1]:.3f}; {elapsed:.1f}s")

    assert elapsed < 60.0
    for r in sig_rates:
        assert abs(r - 1.0) <= 0.02, f"sigma rate {r}"
    for r in u_rates:
        assert abs(r - 2.0) <= 0.05, f"u rate {r}"
    assert max(sig_devs) <= 0.01, sig_devs
    u_errors = [row.errors["e_L2"] for row in report.rows]
    u_detail = (f"measured u errors {['%.5e' % e for e in u_errors]}, "
                f"measured/published {['%.5f' % r for r in u_ratios]}")
    assert abs(u_const - 1.0) <= 0.01, (
        f"finest-level u ratio {u_const:.5f} is more than 1% from 1: the u "
        f"norm convention no longer matches the published column to within "
        f"a constant near 1; {u_detail}")
    assert max(abs(d) for d in u_shape) <= 0.01, (
        f"u ratio per level relative to the finest "
        f"{['%+.3f%%' % (100 * d) for d in u_shape]} (tolerance 1%): the "
        f"published level-to-level reduction of the u error is not "
        f"reproduced; {u_detail}")


def test_criterion_2_reference_convergence_voronoi():
    t0 = time.perf_counter()
    meshes = [gen_voronoi_polygons(n, lloyd_iters=100, rng_seed=1)
              for n in (64, 256, 1024, 4096)]
    report = convergence_study(example2(), meshes, k=0)
    elapsed = time.perf_counter() - t0

    targets = {"e_1h": 1.0, "e_L2": 2.0, "e_sigma_0h": 1.0}
    final = {key: report.rows[-1].rates[key] for key in targets}
    ratios = {key: report.rows[0].errors[key] / TABLE2_LEVEL1[key]
              for key in targets}
    monotone = all(report.rows[i].errors[key] > report.rows[i + 1].errors[key]
                   for key in targets for i in range(len(report.rows) - 1))

    ok = (all(abs(final[k] - targets[k]) <= 0.10 for k in targets)
          and all(1.0 / 3.0 <= ratios[k] <= 3.0 for k in targets)
          and monotone and elapsed < 120.0)
    verdict(2, "reference convergence, Voronoi", ok,
            f"final rates e_1h {final['e_1h']:.2f}, e_L2 {final['e_L2']:.2f}, "
            f"e_sigma_0h {final['e_sigma_0h']:.2f}; level-1 ratios "
            f"{ratios['e_1h']:.2f}/{ratios['e_L2']:.2f}/"
            f"{ratios['e_sigma_0h']:.2f}; {elapsed:.1f}s")

    assert elapsed < 120.0
    assert monotone, "errors must decrease at every refinement"
    for key, target in targets.items():
        assert abs(final[key] - target) <= 0.10, (key, final[key])
    for key, ratio in ratios.items():
        assert 1.0 / 3.0 <= ratio <= 3.0, (key, ratio)


def test_criterion_3_local_conservation():
    t0 = time.perf_counter()
    prob = example3()
    mesh = gen_uniform_squares(32)
    system, sol, report = solve_problem(prob, mesh, method="cg", tol=1e-10)
    flux = recover_flux(sol)
    resid = conservation_residuals(flux, prob.f)
    elapsed = time.perf_counter() - t0
    worst = float(np.abs(resid).max())

    ok = worst <= 1e-10 and elapsed < 10.0
    verdict(3, "local conservation", ok,
            f"max |r_K| {worst:.3e}, tol 1e-10; cg {report.iterations} "
            f"iterations; {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_4_nonconforming_equivalence():
    meshes = [gen_uniform_triangles(4)]
    meshes += [gen_delaunay_triangles(60, rng_seed=s) for s in range(1, 6)]
    gaps = []
    for mesh in meshes:
        assert mesh.num_cells <= 200
        gaps.append(cr_equivalence(mesh))
    worst = max(gaps)

    ok = worst <= 1e-12
    verdict(4, "nonconforming equivalence", ok,
            f"max scaled gap {worst:.3e} over {len(meshes)} triangle meshes, "
            f"tol 1e-12")
    assert worst <= 1e-12, gaps


def test_criterion_5_linear_reproduction(mesh_families):
    prob = patch_linear()
    worst = 0.0
    for name, mesh in mesh_families.items():
        system, sol, _ = solve_problem(prob, mesh, method="direct")
        errs = error_norms(sol, prob.u, prob.grad_u,
                           flux=recover_flux(sol), mode="high")
        for key, val in errs.items():
            worst = max(worst, val)
            assert val <= 1e-10, (name, key, val)

    verdict(5, "linear reproduction", worst <= 1e-10,
            f"max error norm {worst:.3e} across "
            f"{len(mesh_families)} families, tol 1e-10")
    assert worst <= 1e-10


def group_row(groups, c):
    """The valence group among groups that holds cell c, and its row."""
    for grp in groups:
        (rows,) = np.nonzero(grp.cells == c)
        if len(rows):
            return grp, int(rows[0])
    raise KeyError(c)


def identity_residual(grp, r, u):
    """Defining-identity gap of the weak gradient, by quadrature, for row r
    of element group grp (k = 0)."""
    m = grp.n_edges
    vol = triangle_rule(4)
    eru = edge_rule(4)
    U = np.zeros((len(grp.cells), len(u)))
    U[r] = u
    s = weak_gradient_coeffs(grp, U)
    lhs = np.zeros(2 * m)  # identity coefficient: the plain L2 product
    rhs = np.zeros(2 * m)
    ub, u0 = u[:m], u[m:]
    xbar, h, loop = grp.xbar[r], grp.h[r], grp.loop[r]
    # u_0 = u0[0] + u0[1] (x - xbar_x) / h + u0[2] (y - xbar_y) / h
    grad_u0 = u0[1:] / h
    for i in range(m):
        pts, wts = map_to_triangle(vol, grp.triangles[r, i])
        sig = flux_values(grp, s, vol.points)[r, i]
        a, b = loop[i], loop[(i + 1) % m]
        epts, ewts = map_to_edge(eru, a, b)
        trace = ub[i] - u0[0] - (epts - xbar) @ grad_u0
        normal = grp.frames[r, i, 0]
        for frame, zeta in enumerate(grp.frames[r, i]):
            j = frame * m + i  # the constant on triangle i
            lhs[j] += wts @ (sig @ zeta)
            rhs[j] += wts.sum() * (grad_u0 @ zeta)
            rhs[j] += ewts @ (trace * (zeta @ normal))
    return float(np.abs(lhs - rhs).max())


def adjointness_residual(grp, r, u, s):
    """Duality gap between the weak gradient and weak divergence (k = 0)."""
    m = grp.n_edges
    U = np.zeros((len(grp.cells), len(u)))
    S = np.zeros((len(grp.cells), len(s)))
    U[r], S[r] = u, s
    w = weak_gradient_coeffs(grp, U)
    rule = triangle_rule(2)
    wts = grp.fan_quadrature(rule)[1]
    lhs = np.sum(wts[r] * np.sum(flux_values(grp, w, rule.points)[r]
                                 * flux_values(grp, S, rule.points)[r],
                                 axis=-1))
    cell_part, face_parts = weak_divergence(grp, S)
    rhs = cell_part[r] @ (cell_mass(grp)[r] @ u[m:])
    eru = edge_rule(3)
    loop = grp.loop[r]
    for i in range(m):
        a, b = loop[i], loop[(i + 1) % m]
        _, ewts = map_to_edge(eru, a, b)
        gram = ewts.sum()  # the k = 0 face basis is 1
        rhs += grp.lengths[r, i] * (u[i] * gram * face_parts[r, i, 0])
    return abs(lhs + rhs)


def test_criterion_6_structural_invariants(mesh_families):
    problems = {"triangles": example1(), "squares": example1(),
                "voronoi": example2()}
    id_max = 0.0
    adj_max = 0.0
    jump_max = 0.0
    for name, mesh in mesh_families.items():
        prob = problems[name]
        system, sol, _ = solve_problem(prob, mesh, method="direct")

        for grp in system.groups:
            assert np.array_equal(grp.A, np.swapaxes(grp.A, 1, 2)), name
            for w in np.linalg.eigvalsh(grp.A):
                scale = w[-1]
                assert w[0] > -1e-12 * scale, (name, "cell matrix indefinite")
                assert w[1] > 1e-8 * scale, (name, "cell kernel too large")

        dm = system.dofmap
        const = np.zeros(dm.total)
        const[:dm.n_face_dofs] = 1.0
        for c in range(mesh.num_cells):
            const[dm.cell_dofs(c)[0]] = 1.0
        A = system.A_full
        assert np.abs(A @ const).max() < 1e-12 * np.abs(A.data).max(), name
        w = np.linalg.eigvalsh(A.toarray())
        assert w[0] > -1e-12 * w[-1], name
        assert w[1] > 1e-10 * w[-1], (name, "global kernel dim > 1")

        cells = RNG.integers(0, mesh.num_cells, size=20)
        for c in cells:
            grp, r = group_row(system.groups, c)
            u = RNG.standard_normal(grp.n_edges + 3)
            s = RNG.standard_normal(2 * grp.n_edges)
            id_max = max(id_max, identity_residual(grp, r, u))
            adj_max = max(adj_max, adjointness_residual(grp, r, u, s))

        jump = flux_jump_report(recover_flux(sol))["max_scaled_jump"]
        jump_max = max(jump_max, jump)

    ok = id_max <= 1e-12 and adj_max <= 1e-12 and jump_max <= 1e-9
    verdict(6, "structural invariants", ok,
            f"cell matrices PSD with one null each; global kernel dim 1; "
            f"gradient identity {id_max:.1e}, adjointness {adj_max:.1e} "
            f"(tol 1e-12); flux jump {jump_max:.1e} (tol 1e-9)")
    assert id_max <= 1e-12
    assert adj_max <= 1e-12
    assert jump_max <= 1e-9


def test_criterion_7_condensation_consistency():
    prob = example1()
    mesh = gen_uniform_triangles(16)
    sub = subtriangulate(mesh)
    system = assemble_system(mesh, sub, 0, prob.coeff, prob.f, prob.bc)
    x_cond, _ = solve_system(system, method="direct")
    x_full = full_solve(system)
    rel = h1h_distance(system, x_cond, x_full) / h1h_distance(
        system, x_full, np.zeros_like(x_full))

    ok = rel <= 1e-10
    verdict(7, "condensation consistency", ok,
            f"relative 1,h gap {rel:.3e}, tol 1e-10")
    assert rel <= 1e-10


def test_criterion_8_second_order_elements(mesh_families):
    prob = patch_quadratic()
    patch_worst = 0.0
    for name, mesh in mesh_families.items():
        system, sol, _ = solve_problem(prob, mesh, k=1, method="direct")
        errs = error_norms(sol, prob.u, prob.grad_u,
                           flux=recover_flux(sol), mode="high")
        for key, val in errs.items():
            patch_worst = max(patch_worst, val)
            assert val <= 1e-9, (name, key, val)

    meshes = [gen_uniform_triangles(n) for n in (4, 8, 16)]
    report = convergence_study(example1(), meshes, k=1)
    sig_rate = report.rows[-1].rates["e_sigma_L2"]
    u_rate = report.rows[-1].rates["e_L2"]

    ok = patch_worst <= 1e-9 and sig_rate >= 1.9 and u_rate >= 2.8
    verdict(8, "second-order elements", ok,
            f"quadratic patch max {patch_worst:.3e} (tol 1e-9); "
            f"triangle rates sigma {sig_rate:.2f} (>= 1.9), "
            f"u {u_rate:.2f} (>= 2.8)")
    assert patch_worst <= 1e-9
    assert sig_rate >= 1.9
    assert u_rate >= 2.8
