"""Workloads of the stagpoly benchmark and the reasons they were chosen.

Each workload is one `stagpoly solve` run: mesh -> star points -> fan ->
assembly -> condensed solve -> flux recovery -> error norms (when the
problem has an exact solution) -> conservation and flux-jump reports.

Mesh sizes are chosen so that one pipeline pass takes a few seconds on a
2-core machine: a run then holds several passes and reports their median,
and every workload still runs the same layers as at the published sizes
(the per-cell Python loops scale linearly with the cell count).

This module is plain data; it imports nothing from the program.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class Workload:
    """One benchmark input.

    mesh is "triangles" or "squares" (an n x n grid, size = n) or
    "voronoi" (size = number of cells, Lloyd-relaxed lloyd_iters times,
    generator seeded with the workload seed). reference_tol is the
    relative tolerance against the published example1 row with the same
    cell count (cli.TABLE1_REFERENCE); norm_band maps an error norm to the
    (low, high) range it must fall in for any seed.
    """
    name: str
    problem: str
    mesh: str
    size: int
    k: int
    why: str
    lloyd_iters: int = 0
    reference_tol: float | None = None
    norm_band: dict = field(default_factory=dict)

    @property
    def uses_seed(self) -> bool:
        return self.mesh == "voronoi"


WORKLOADS = {w.name: w for w in [
    Workload(
        name="tri-example1",
        problem="example1", mesh="triangles", size=32, k=0,
        reference_tol=0.01,
        # Measured 7.5748e-02 / 3.9192e-04 / 8.5664e-02 / 7.5810e-02; the
        # mesh is structured, so the band only has to absorb round-off.
        norm_band={"e_sigma_L2": (0.07, 0.08), "e_L2": (3.7e-4, 4.1e-4),
                   "e_1h": (0.08, 0.09), "e_sigma_0h": (0.07, 0.08)},
        why=("Per-cell Python overhead peaks here: element kernels and "
             "norms take most of the time, star points are the closed-form "
             "incenter. Exercises the batched element layer (ROADMAP item "
             "2), bypasses the mesh front end (item 3). The published "
             "N_K = 2048 row lets the benchmark check accuracy; the face "
             "system (N = 3008) goes to CG."),
    ),
    Workload(
        name="voronoi-example2",
        problem="example2", mesh="voronoi", size=256, k=1, lloyd_iters=100,
        # Seeds 1-11 give e_L2 5.0e-5..5.2e-5, e_1h 7.5e-3..7.6e-3,
        # e_sigma_L2 3.8e-3..4.1e-3 and e_sigma_0h 5.4e-3..5.9e-3: the
        # band is a factor of two either way.
        norm_band={"e_L2": (2.5e-5, 1.0e-4), "e_1h": (3.7e-3, 1.5e-2),
                   "e_sigma_L2": (1.9e-3, 8.0e-3),
                   "e_sigma_0h": (2.7e-3, 1.1e-2)},
        why=("Lloyd relaxation takes over half of the time, so this "
             "exercises the mesh front end (ROADMAP item 3). Valence is "
             "mixed (4 to 8 edges), so a valence-grouped kernel runs "
             "several groups; at k = 1 the local blocks are larger. The "
             "face system (N ~ 1420) takes the dense direct path."),
    ),
    Workload(
        name="squares-example3",
        problem="example3", mesh="squares", size=32, k=0,
        why=("The per-cell star-point LP takes about a third of the time. "
             "Covers the Neumann load, the discontinuous non-identity "
             "coefficient and the Darcy flux sign. No exact solution, so a "
             "norms-only change is predicted not to move it."),
    ),
]}

# The same pipelines on inputs small enough for the harness self-check.
# Triangles use n = 8: the published n = 4 row is the documented
# criterion-1 misprint and would fail the reference gate.
TINY = {
    "tri-example1": replace(
        WORKLOADS["tri-example1"], size=8,
        norm_band={"e_sigma_L2": (0.28, 0.33), "e_L2": (5.9e-3, 6.9e-3),
                   "e_1h": (0.3, 0.4), "e_sigma_0h": (0.28, 0.33)}),
    "voronoi-example2": replace(
        WORKLOADS["voronoi-example2"], size=16, lloyd_iters=5,
        norm_band={"e_L2": (1.5e-3, 1e-2), "e_1h": (0.05, 0.3),
                   "e_sigma_L2": (0.03, 0.2), "e_sigma_0h": (0.05, 0.3)}),
    "squares-example3": replace(WORKLOADS["squares-example3"], size=4),
}

# Per-layer metric -> (how it is measured from outside the program,
# end-to-end metrics it should move, workloads it mainly shows on).
# A layer's *_s is self time: its spans minus their child spans.
LAYERS = {
    "polymesh.generate_s": (
        "gen_uniform_triangles / gen_uniform_squares / gen_voronoi_polygons",
        "setup_s, total_s", "voronoi-example2 (bypass: the other two)"),
    "polymesh.star_points_s": (
        "compute_star_points as bound in cli", "setup_s, total_s",
        "squares-example3, then voronoi-example2 (bypass: tri-example1)"),
    "polymesh.fan_s": (
        "build_subtriangulation as bound in cli", "setup_s", "all, small"),
    "polymesh.cells": ("mesh.num_cells", "-", "all"),
    "polymesh.edges": ("mesh.num_edges", "-", "all"),
    "polymesh.valence_groups": (
        "distinct edge counts over cells", "-", "all"),
    "quadbasis.basis_build_s": (
        "flux_basis / cell_basis / face_basis as bound in weakgrad",
        "solve_s", "tri-example1"),
    "quadbasis.basis_build_calls": ("span count", "-", "tri-example1"),
    "weakgrad.element_operator_s": (
        "element_operator as bound in assembly", "solve_s, total_s",
        "tri-example1, squares-example3"),
    "weakgrad.element_operator_calls": ("span count", "-", "all"),
    "weakgrad.weak_gradient_s": (
        "weak_gradient_coeffs as bound in postprocess", "post_s",
        "tri-example1"),
    "weakgrad.weak_gradient_calls": ("span count", "-", "all"),
    "assembly.assemble_self_s": (
        "assemble_system as bound in cli, minus children", "solve_s",
        "tri-example1"),
    "assembly.condense_s": (
        "static_condensation as bound in solver", "solve_s", "tri-example1"),
    "assembly.recover_s": (
        "CondensedSystem.recover", "solve_s", "tri-example1"),
    "assembly.dofs": ("system.dofmap.total", "-", "all"),
    "assembly.nnz_full": ("system.A_full.nnz", "-", "all"),
    "assembly.schur_n": ("condensed system dimension", "-", "all"),
    "assembly.nnz_schur": ("condensed system S.nnz", "-", "all"),
    "solver.solve_self_s": (
        "solve_system as bound in cli, minus condense and recover",
        "solve_s", "tri-example1"),
    "solver.iterations": ("SolveReport.iterations", "-", "all"),
    "solver.final_residual": ("SolveReport.residual", "-", "all"),
    "postprocess.recover_flux_s": (
        "recover_flux as bound in cli", "post_s, total_s", "tri-example1"),
    "postprocess.error_norms_s": (
        "the error-norm step: error_norms as bound in cli when the problem "
        "has an exact solution, else only the check that skips it",
        "post_s, total_s",
        "tri-example1, then voronoi-example2 (bypass: squares-example3)"),
    "postprocess.conservation_s": (
        "conservation_residuals as bound in cli", "post_s", "all"),
    "postprocess.flux_jump_s": (
        "flux_jump_report as bound in cli", "post_s", "all"),
    "postprocess.conservation_max": (
        "raw max |r_K| as the program reports it", "-", "all"),
    "postprocess.conservation_scaled_max": (
        "max |K r_K| / (|int_K f| + int_dK |sigma.n|)", "-", "all"),
    "postprocess.flux_jump_max": (
        "flux_jump_report max_scaled_jump", "-", "all"),
    "problems.callback_s": (
        "the problem's f, u, grad_u and coefficient callables",
        "solve_s, post_s", "tri-example1"),
    "problems.callback_calls": ("span count", "-", "tri-example1"),
    "cli.solve_problem_self_s": (
        "cli._solve_problem minus children (solution field, glue)",
        "solve_s, post_s", "all, small"),
    "bench.glue_s": (
        "pass time outside every span above", "total_s", "all, small"),
    "trace.traced_total_s": (
        "total_s of the median traced pass", "-", "all"),
    "trace.untraced_total_s": (
        "median total_s of untraced passes in the same run", "-", "all"),
    "trace.overhead_s": (
        "trace.traced_total_s - trace.untraced_total_s", "-", "all"),
    "bench.wall_total_s": (
        "median raw wall total_s of untraced passes, not scaled by the "
        "speed probe", "total_s", "all"),
    "bench.probe_us": (
        "median duration of the speed probe's kernel: the machine's "
        "speed during the run, not the program's", "-", "all"),
}
