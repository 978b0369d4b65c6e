"""Command-line interface.

Subcommands: mesh (gen/info), solve, convergence, conserve, cr-check.
Exit codes: 0 success, 1 configuration error, 2 mesh error, 3 solver
failure or a failed conservation or CR check. All file outputs are
written to a temp file and renamed into place so a failure never leaves
a partial file.

`solve_problem` runs the solve chain (star points, fan, assembly,
condensed solve, flux recovery) for every command and for
`convergence_study`. It lives here and calls the layers through this
module's names because the benchmark marks its stage boundaries by
patching `cli.build_subtriangulation` and `cli.solve_system`.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import polymesh
from .assembly import (AssemblyError, CondensationError, assemble_system,
                       write_matrix_market)
from .polymesh import (MeshError, PolyMesh, build_subtriangulation,
                       compute_star_points, quality_report, read_mesh,
                       mesh_document)
from .postprocess import (ConvergenceReport, PostprocessError, SolutionField,
                          conservation_residuals, cr_equivalence, error_norms,
                          flux_jump_report, recover_flux,
                          scaled_conservation_residuals, write_vtk)
from .problems import get_problem
from .solver import SolverError, solve_system

EXIT_CONFIG = 1
EXIT_MESH = 2
EXIT_SOLVER = 3

# Published reference values for example1 on structured triangle meshes:
# (h, N_K, sigma error, u error)
TABLE1_REFERENCE = [
    (2.500e-01, 32, 6.03095e-01, 2.54911e-02),
    (1.250e-01, 128, 3.02359e-01, 6.33303e-03),
    (6.250e-02, 512, 1.51292e-01, 1.58159e-03),
    (3.125e-02, 2048, 7.56601e-02, 3.95307e-04),
    (1.562e-02, 8192, 3.78319e-02, 9.88212e-05),
]


class ConfigError(Exception):
    pass


def _atomic_write(path, text: str) -> None:
    os.makedirs(os.path.dirname(str(path)) or ".", exist_ok=True)
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, str(path))


def _timestamp_line(args) -> str:
    if args.no_timestamp:
        return ""
    now = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    return f"# generated {now}\n"


def _build_mesh(args) -> PolyMesh:
    """Mesh from --mesh FILE or one of the generator flags."""
    sources = [args.mesh is not None, args.triangles is not None,
               args.squares is not None, args.voronoi is not None,
               args.delaunay is not None]
    if sum(sources) != 1:
        raise ConfigError("give exactly one of --mesh, --triangles, "
                          "--squares, --voronoi, --delaunay")
    if args.mesh is not None:
        return read_mesh(args.mesh)
    if args.triangles is not None:
        return polymesh.gen_uniform_triangles(args.triangles)
    if args.squares is not None:
        return polymesh.gen_uniform_squares(args.squares)
    if args.voronoi is not None:
        return polymesh.gen_voronoi_polygons(args.voronoi,
                                             lloyd_iters=args.lloyd_iters,
                                             rng_seed=args.seed)
    return polymesh.gen_delaunay_triangles(args.delaunay, rng_seed=args.seed)


def _add_mesh_source_flags(p):
    p.add_argument("--mesh", help="mesh document to load")
    p.add_argument("--triangles", type=int, metavar="N",
                   help="structured triangle mesh on an N x N grid")
    p.add_argument("--squares", type=int, metavar="N",
                   help="uniform square mesh on an N x N grid")
    p.add_argument("--voronoi", type=int, metavar="NSEEDS",
                   help="Lloyd-relaxed Voronoi mesh with NSEEDS cells")
    p.add_argument("--delaunay", type=int, metavar="NPTS",
                   help="random Delaunay triangle mesh")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--lloyd-iters", type=int, default=100)


def _add_solve_flags(p):
    p.add_argument("-k", "--degree", type=int, default=0)
    p.add_argument("--method", choices=["direct", "cg"], default="direct")
    p.add_argument("--cg-tol", type=float, default=1e-10, help="cg tolerance")


def _add_quadrature_flag(p):
    p.add_argument("--quadrature", choices=["paper", "high"], default="paper",
                   help="error-norm quadrature mode")


def cmd_mesh_gen(args) -> int:
    mesh = _build_mesh(args)
    _atomic_write(args.output, mesh_document(mesh))
    print(f"wrote {args.output}: {mesh.num_cells} cells, "
          f"{mesh.num_vertices} vertices, {mesh.num_edges} edges")
    return 0


def cmd_mesh_info(args) -> int:
    mesh = read_mesh(args.file)
    rep = quality_report(mesh)
    print(f"cells      {mesh.num_cells}")
    print(f"vertices   {mesh.num_vertices}")
    print(f"edges      {mesh.num_edges} ({len(mesh.boundary_edges)} boundary)")
    print(f"area       {mesh.areas().sum():.12f}")
    print(f"max chunkiness (diam/rho)   {rep.max_chunkiness:.3f}")
    print(f"max face ratio (diam/minF)  {rep.max_face_ratio:.3f}")
    print("star points   all valid")
    return 0


def solve_problem(problem, mesh, k=0, method="direct", tol=1e-10):
    """Solve a problem on a mesh at degree k; returns (system, solution,
    flux, SolveReport)."""
    stars = compute_star_points(mesh)
    subtri = build_subtriangulation(mesh, star_points=stars)
    system = assemble_system(mesh, subtri, k, problem.coeff, problem.f,
                             problem.bc, flux_sign=problem.flux_sign)
    dofs, report = solve_system(system, method=method, tol=tol)
    sol = SolutionField(system, dofs)
    flux = recover_flux(sol)
    return system, sol, flux, report


def _solve_problem(problem, mesh, args):
    return solve_problem(problem, mesh, args.degree, args.method, args.cg_tol)


def convergence_study(problem, meshes, k=0, mode="paper", method="direct",
                      tol=1e-10) -> ConvergenceReport:
    """Solve a problem on a mesh family and tabulate errors with rates."""
    if len(meshes) < 1:
        raise PostprocessError("need at least one mesh level")
    report = ConvergenceReport(problem=problem.name, k=k,
                               columns=list(problem.table_columns))
    for level, mesh in enumerate(meshes, start=1):
        try:
            _, sol, flux, _ = solve_problem(problem, mesh, k, method, tol)
        except (SolverError, CondensationError) as exc:
            # same type, so the CLI still reports a solver failure
            raise type(exc)(f"solve failed at level {level}: {exc}") from exc
        errs = error_norms(sol, problem.u, problem.grad_u, flux=flux, mode=mode)
        report.add(h=mesh.h_report, n_cells=mesh.num_cells, errors=errs)
    return report


def cmd_solve(args) -> int:
    problem = get_problem(args.problem)
    mesh = _build_mesh(args)
    t0 = time.perf_counter()
    system, sol, flux, report = _solve_problem(problem, mesh, args)
    elapsed = time.perf_counter() - t0

    lines = [
        f"problem     {problem.name}",
        f"mesh        {mesh.num_cells} cells, h = {mesh.h_report}",
        f"degree      k = {args.degree}",
        f"dofs        {system.dofmap.total} "
        f"({len(system.free)} free after elimination)",
        f"solver      {report.method}, {report.iterations} iterations, "
        f"residual {report.residual:.3e}",
    ]
    # wall time would make --no-timestamp output differ run to run
    if not args.no_timestamp:
        lines.append(f"time        {elapsed:.2f} s")
    if problem.has_exact:
        errs = error_norms(sol, problem.u, problem.grad_u, flux=flux,
                           mode=args.quadrature)
        for key in sorted(errs):
            lines.append(f"{key:12s}{errs[key]:.6e}")
    res = conservation_residuals(flux, problem.f)
    lines.append(f"conservation max|r_K|  {np.abs(res).max():.3e}")
    jump = flux_jump_report(flux)
    lines.append(f"flux jump (scaled)     {jump['max_scaled_jump']:.3e}")
    text = _timestamp_line(args) + "\n".join(lines) + "\n"
    print(text, end="")

    os.makedirs(args.outdir, exist_ok=True)
    _atomic_write(os.path.join(args.outdir, "report.txt"), text)
    if args.vtk:
        write_vtk(os.path.join(args.outdir, "solution.vtk"), sol, flux)
    if args.matrix_market:
        tmp = os.path.join(args.outdir, "system.mtx.tmp")
        write_matrix_market(system, tmp)
        os.replace(tmp, os.path.join(args.outdir, "system.mtx"))
    return 0


def _convergence_meshes(args):
    """--cells: Voronoi meshes; --levels: squares for example3, triangles
    otherwise; neither: Voronoi for example2, structured otherwise."""
    if args.cells is not None or (args.levels is None
                                  and args.problem == "example2"):
        return [polymesh.gen_voronoi_polygons(n, lloyd_iters=args.lloyd_iters,
                                              rng_seed=args.seed)
                for n in args.cells or [64, 256, 1024, 4096]]
    gen = (polymesh.gen_uniform_squares if args.problem == "example3"
           else polymesh.gen_uniform_triangles)
    return [gen(n) for n in args.levels or [4, 8, 16, 32, 64]]


def cmd_convergence(args) -> int:
    problem = get_problem(args.problem)
    if not problem.has_exact:
        raise ConfigError(f"{problem.name} has no exact solution to "
                          "measure convergence against")
    meshes = _convergence_meshes(args)
    report = convergence_study(problem, meshes, k=args.degree,
                               mode=args.quadrature, method=args.method,
                               tol=args.cg_tol)
    print(report.format_table())
    if args.compare_paper:
        if args.problem != "example1":
            raise ConfigError("--compare-paper applies to example1 only")
        print("\nreference comparison (sigma, u):")
        for row in report.rows:
            match = [r for r in TABLE1_REFERENCE if r[1] == row.n_cells]
            if not match:
                continue
            _, _, sig_ref, u_ref = match[0]
            dsig = abs(row.errors["e_sigma_L2"] - sig_ref) / sig_ref
            du = abs(row.errors["e_L2"] - u_ref) / u_ref
            print(f"  N_K={row.n_cells:6d}  sigma {row.errors['e_sigma_L2']:.5e}"
                  f" vs {sig_ref:.5e} ({100 * dsig:.3f}%)   "
                  f"u {row.errors['e_L2']:.5e} vs {u_ref:.5e}"
                  f" ({100 * du:.3f}%)")
    if args.output:
        _atomic_write(args.output, _timestamp_line(args) + report.to_csv())
        print(f"\nwrote {args.output}")
    return 0


def cmd_conserve(args) -> int:
    problem = get_problem(args.problem)
    mesh = _build_mesh(args)
    system, sol, flux, report = _solve_problem(problem, mesh, args)
    res = conservation_residuals(flux, problem.f)
    worst = int(np.abs(res).argmax())
    scaled = scaled_conservation_residuals(flux, problem.f)
    lines = [
        f"problem   {problem.name}",
        f"mesh      {mesh.num_cells} cells",
        f"solver    {report.method}",
        f"max |r_K| {np.abs(res).max():.6e}  (cell {worst})",
        f"mean |r_K| {np.abs(res).mean():.6e}",
        f"max scaled {scaled.max():.6e}  (cell {int(scaled.argmax())})",
        f"mean scaled {scaled.mean():.6e}",
        f"tolerance {args.tol:.1e}",
    ]
    ok = np.abs(res).max() <= args.tol
    lines.append("status    PASS" if ok else "status    FAIL")
    text = _timestamp_line(args) + "\n".join(lines) + "\n"
    print(text, end="")
    if args.output:
        _atomic_write(args.output, text)
    return 0 if ok else EXIT_SOLVER


def cmd_crcheck(args) -> int:
    mesh = _build_mesh(args)
    disc = cr_equivalence(mesh)
    print(f"cells {mesh.num_cells}  discrepancy {disc:.3e}  "
          f"(tolerance {args.tol:.1e})")
    return 0 if disc <= args.tol else EXIT_SOLVER


def _make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stagpoly",
        description="Hybridized staggered DG solver for elliptic problems "
                    "on polygonal meshes")
    sub = ap.add_subparsers(dest="cmd", required=True)

    pm = sub.add_parser("mesh", help="generate or inspect meshes")
    msub = pm.add_subparsers(dest="mesh_cmd", required=True)
    pg = msub.add_parser("gen", help="generate a mesh document")
    _add_mesh_source_flags(pg)
    pg.add_argument("-o", "--output", required=True)
    pg.set_defaults(run=cmd_mesh_gen)
    pi = msub.add_parser("info", help="counts, quality, star validity")
    pi.add_argument("file")
    pi.set_defaults(run=cmd_mesh_info)

    ps = sub.add_parser("solve", help="solve one problem instance")
    ps.add_argument("--problem", default="example1")
    _add_mesh_source_flags(ps)
    _add_solve_flags(ps)
    _add_quadrature_flag(ps)
    ps.add_argument("--outdir", default="out")
    ps.add_argument("--vtk", action="store_true", help="write solution.vtk")
    ps.add_argument("--matrix-market", action="store_true",
                    help="write the reduced system matrix")
    ps.add_argument("--no-timestamp", action="store_true")
    ps.set_defaults(run=cmd_solve)

    pc = sub.add_parser("convergence", help="mesh refinement study")
    pc.add_argument("--problem", default="example1")
    ladder = pc.add_mutually_exclusive_group()
    ladder.add_argument("--levels", type=_int_list,
                        help="comma list of grid sizes n (structured meshes)")
    ladder.add_argument("--cells", type=_int_list,
                        help="comma list of Voronoi cell counts")
    pc.add_argument("--seed", type=int, default=1)
    pc.add_argument("--lloyd-iters", type=int, default=100)
    _add_solve_flags(pc)
    _add_quadrature_flag(pc)
    pc.add_argument("--compare-paper", action="store_true",
                    help="diff example1 results against published values")
    pc.add_argument("-o", "--output", help="CSV output path")
    pc.add_argument("--no-timestamp", action="store_true")
    pc.set_defaults(run=cmd_convergence)

    po = sub.add_parser("conserve", help="local conservation report")
    po.add_argument("--problem", default="example3")
    _add_mesh_source_flags(po)
    _add_solve_flags(po)
    po.add_argument("--tol", type=float, default=1e-10,
                    help="pass threshold on max |r_K|")
    po.add_argument("-o", "--output", help="report output path")
    po.add_argument("--no-timestamp", action="store_true")
    po.set_defaults(run=cmd_conserve)

    pr = sub.add_parser("cr-check",
                        help="compare against the nonconforming P1 matrix")
    _add_mesh_source_flags(pr)
    pr.add_argument("--tol", type=float, default=1e-10)
    pr.set_defaults(run=cmd_crcheck)
    return ap


def _int_list(text: str):
    try:
        values = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"not a comma list of ints: {text!r}")
    return values


def main(argv=None) -> int:
    try:
        args = _make_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0

    try:
        return args.run(args)
    except (ConfigError, AssemblyError, PostprocessError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MeshError as exc:
        print(f"mesh error: {exc}", file=sys.stderr)
        return EXIT_MESH
    except (SolverError, CondensationError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
