"""One `stagpoly solve` pass, timed by stage, and a run of such passes.

A pass calls the program in the order `stagpoly solve` does: mesh
generation, `cli._solve_problem` (star points, fan, assembly, condensed
solve, flux recovery), then `error_norms` when the problem has an exact
solution, `conservation_residuals` and `flux_jump_report`. Stage
boundaries inside `_solve_problem` are read off the return of two cli
bindings, so an untraced pass carries two extra function calls and
nothing else.

Times are taken on the speed probe's clock (probe time excluded) and
reported scaled to the probe's reference speed (see probe.py): each
stage of an untraced pass by the probes taken during that stage, each
layer of a traced pass by the probes taken during the pass. The raw
times are kept in the run record as "wall".
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from stagpoly import assembly, cli, polymesh, postprocess, solver, weakgrad
from stagpoly.problems import get_problem

import gates
from probe import NoProbe
from tracing import Patches, Tracer

END_TO_END = {"setup_s": "s", "solve_s": "s", "post_s": "s", "total_s": "s",
              "peak_rss_mb": "MB"}

# cli bindings whose return ends the setup and the solve stage.
SETUP_ENDS, SOLVE_ENDS = "build_subtriangulation", "solve_system"

# (module, binding the caller uses, layer, keep the return value)
TRACED = [
    (cli, "compute_star_points", "polymesh.star_points", False),
    (cli, "build_subtriangulation", "polymesh.fan", False),
    (cli, "assemble_system", "assembly.assemble_self", False),
    (assembly, "element_operator", "weakgrad.element_operator", False),
    (weakgrad, "flux_basis", "quadbasis.basis_build", False),
    (weakgrad, "cell_basis", "quadbasis.basis_build", False),
    (weakgrad, "face_basis", "quadbasis.basis_build", False),
    (cli, "solve_system", "solver.solve_self", False),
    (solver, "static_condensation", "assembly.condense", True),
    (assembly, "CondensedSystem.recover", "assembly.recover", False),
    (cli, "recover_flux", "postprocess.recover_flux", False),
    (postprocess, "weak_gradient_coeffs", "weakgrad.weak_gradient", False),
]
# Layers that get a self-time metric "<layer>_s"; the ones in CALLS also
# get "<layer>_calls".
SELF_TIMED = ["polymesh.generate", "polymesh.star_points", "polymesh.fan",
              "quadbasis.basis_build", "weakgrad.element_operator",
              "weakgrad.weak_gradient", "assembly.assemble_self",
              "assembly.condense", "assembly.recover", "solver.solve_self",
              "postprocess.recover_flux", "postprocess.error_norms",
              "postprocess.conservation", "postprocess.flux_jump",
              "problems.callback", "cli.solve_problem_self", "bench.glue"]
CALLS = ["quadbasis.basis_build", "weakgrad.element_operator",
         "weakgrad.weak_gradient", "problems.callback"]
OUTPUT_COUNTS = {
    "polymesh.cells": "count", "polymesh.edges": "count",
    "polymesh.valence_groups": "count", "assembly.dofs": "count",
    "assembly.nnz_full": "count", "assembly.schur_n": "count",
    "assembly.nnz_schur": "count", "solver.iterations": "count",
    "solver.final_residual": "1", "postprocess.conservation_max": "1",
    "postprocess.conservation_scaled_max": "1",
    "postprocess.flux_jump_max": "1"}
PER_LAYER = {**{f"{name}_s": "s" for name in SELF_TIMED},
             **{f"{name}_calls": "count" for name in CALLS},
             **OUTPUT_COUNTS,
             "trace.traced_total_s": "s", "trace.untraced_total_s": "s",
             "trace.overhead_s": "s", "bench.wall_total_s": "s",
             "bench.probe_us": "us"}


@dataclass
class Outputs:
    mesh: object
    system: object
    sol: object
    flux: object
    report: object
    norms: dict
    residuals: np.ndarray
    jump: dict
    scaled_residuals: np.ndarray | None = None

    @property
    def dofs(self) -> np.ndarray:
        return self.sol.dofs


def make_mesh(workload, seed: int):
    if workload.mesh == "triangles":
        return polymesh.gen_uniform_triangles(workload.size)
    if workload.mesh == "squares":
        return polymesh.gen_uniform_squares(workload.size)
    return polymesh.gen_voronoi_polygons(workload.size,
                                         lloyd_iters=workload.lloyd_iters,
                                         rng_seed=seed)


def solve_args(workload):
    """The options `stagpoly solve -k K` runs with."""
    return cli._make_parser().parse_args(["solve", "-k", str(workload.k)])


def _no_span(_layer):
    return contextlib.nullcontext()


def post(problem, sol, flux, quadrature, span=_no_span):
    """The reports `stagpoly solve` prints after the solve."""
    with span("postprocess.error_norms"):
        norms = cli.error_norms(sol, problem.u, problem.grad_u, flux=flux,
                                mode=quadrature) if problem.has_exact else {}
    with span("postprocess.conservation"):
        residuals = cli.conservation_residuals(flux, problem.f)
    with span("postprocess.flux_jump"):
        jump = cli.flux_jump_report(flux)
    return norms, residuals, jump


@contextlib.contextmanager
def stage_marks(clock=time.perf_counter):
    """Record when the stage-ending cli bindings return."""
    marks = {}
    patches = Patches()
    for name in (SETUP_ENDS, SOLVE_ENDS):
        def marked(*args, _fn=getattr(cli, name), _name=name, **kwargs):
            out = _fn(*args, **kwargs)
            marks[_name] = clock()
            return out
        patches.set(cli, name, marked)
    try:
        yield marks
    finally:
        patches.undo()


def traced_problem(problem, tracer):
    def wrap(fn):
        return None if fn is None else tracer.wrap(fn, "problems.callback")
    coeff = dataclasses.replace(problem.coeff, fn=wrap(problem.coeff.fn))
    return dataclasses.replace(problem, coeff=coeff, f=wrap(problem.f),
                               u=wrap(problem.u), grad_u=wrap(problem.grad_u))


def run_pass(workload, problem, seed, args, marks, tracer=None,
             clock=time.perf_counter):
    """One pipeline pass; returns (stage [start, end] on clock, Outputs)."""
    span = tracer.span if tracer is not None else _no_span
    marks.clear()
    t0 = clock()
    with span("bench.glue"):
        with span("polymesh.generate"):
            mesh = make_mesh(workload, seed)
        with span("cli.solve_problem_self"):
            system, sol, flux, report = cli._solve_problem(problem, mesh,
                                                           args)
        norms, residuals, jump = post(problem, sol, flux, args.quadrature,
                                      span)
    t1 = clock()
    stages = {"setup_s": (t0, marks[SETUP_ENDS]),
              "solve_s": (marks[SETUP_ENDS], marks[SOLVE_ENDS]),
              "post_s": (marks[SOLVE_ENDS], t1)}
    return stages, Outputs(mesh, system, sol, flux, report, norms, residuals,
                          jump)


def output_counts(out) -> dict:
    mesh, system = out.mesh, out.system
    return {
        "polymesh.cells": mesh.num_cells,
        "polymesh.edges": mesh.num_edges,
        "polymesh.valence_groups": len({len(c) for c in mesh.cells}),
        "assembly.dofs": system.dofmap.total,
        "assembly.nnz_full": system.A_full.nnz,
        "solver.iterations": out.report.iterations,
        "solver.final_residual": out.report.residual,
        "postprocess.conservation_max": float(np.abs(out.residuals).max()),
        "postprocess.conservation_scaled_max":
            float(np.max(out.scaled_residuals)),
        "postprocess.flux_jump_max": out.jump["max_scaled_jump"],
    }


def _median_pass(passes):
    """The pass whose total_s is the (lower) median: the traced pass whose
    self times a traced run reports, so that they sum to its total_s."""
    ranked = sorted(passes, key=lambda p: p["times"]["total_s"])
    return ranked[(len(ranked) - 1) // 2]


def _median(passes, key, kind="times"):
    return statistics.median(p[kind][key] for p in passes) \
        if passes else 0.0


def stage_times(stages, probe, traced):
    """(scaled, raw) stage seconds of one pass and its whole-pass scale.

    An untraced pass scales each stage by the probes taken during it; a
    traced pass scales everything by the probes of the whole pass, as
    its layer self times are. The scaled total_s sums the scaled stages.
    """
    t0, t1 = stages["setup_s"][0], stages["post_s"][1]
    whole = probe.scale(t0, t1)
    raw = {key: b - a for key, (a, b) in stages.items()}
    scaled = {key: raw[key] * (whole if traced else probe.scale(a, b))
              for key, (a, b) in stages.items()}
    raw["total_s"], scaled["total_s"] = t1 - t0, sum(scaled.values())
    return scaled, raw, whole


def run(workload, seed: int, seconds: float, trace: bool, log=print,
        probe=None):
    """Passes of one workload within `seconds`; returns the run record.

    With trace, untraced and traced passes alternate, so the run measures
    its own tracing overhead. The first pass that passes every gate is
    the reference; later passes must repeat its DoF vector. The first
    untraced pass warms caches and is left out of the medians when at
    least two more untraced passes ran. `probe` (a running SpeedProbe)
    supplies the clock and the speed scale; without one, times are raw.
    """
    probe = probe or NoProbe()
    clock = probe.clock
    problem = get_problem(workload.problem)
    args = solve_args(workload)
    tracer = Tracer(clock) if trace else None
    passes = []
    ref_dofs, ref_counts = None, {}
    start = clock()
    with stage_marks(clock) as marks:
        while True:
            traced = trace and len(passes) % 2 == 1
            rec = {"pass": f"{workload.name}-seed{seed}-pass{len(passes)}",
                   "traced": traced, "ok": False}
            out = None
            # A user's solve starts in a fresh process: collect the last
            # pass's garbage before the clock starts, not during the pass.
            gc.collect()
            try:
                if traced:
                    tracer.pass_id = rec["pass"]
                    for module, path, layer, keep in TRACED:
                        tracer.patch(module, path, layer, keep)
                    stages, out = run_pass(workload,
                                           traced_problem(problem, tracer),
                                           seed, args, marks, tracer, clock)
                else:
                    stages, out = run_pass(workload, problem, seed, args,
                                           marks, clock=clock)
            except Exception:  # a pass that raises is a failed run
                rec["error"] = traceback.format_exc()
                print(rec["error"], file=sys.stderr)
            finally:
                if traced:
                    tracer.unpatch()
            if out is not None:
                rec["times"], rec["wall"], rec["speed"] = stage_times(
                    stages, probe, traced)
                rec["stages"] = stages
                if ref_dofs is None:
                    out.scaled_residuals = gates.scaled_conservation(
                        out.flux, problem.f, out.residuals)
                    rec["gates"] = gates.check(workload, problem, out)
                else:
                    rec["gates"] = [gates.same_outputs(out.dofs, ref_dofs)]
                rec["ok"] = all(g[1] for g in rec["gates"])
                if rec["ok"] and ref_dofs is None:
                    ref_dofs, ref_counts = out.dofs.copy(), output_counts(out)
                if traced:
                    rec["layers"] = tracer.layer_totals(rec["pass"],
                                                        rec["speed"])
                    cond = tracer.results.pop("assembly.condense", None)
                    if cond is not None:
                        rec["schur"] = (cond.S.shape[0], cond.S.nnz)
            out = None
            passes.append(rec)
            log(_pass_line(rec))
            # Start another pass only if it should end within `seconds`.
            durations = [p["wall"]["total_s"] for p in passes
                         if "wall" in p] or [0.0]
            if clock() - start + statistics.median(durations) \
                    > seconds and len(passes) >= (2 if trace else 1):
                break

    timed = [p for p in passes if "times" in p]
    good = [p for p in timed if p["ok"]] or timed
    untraced = [p for p in good if not p["traced"]]
    if len(untraced) > 2:
        untraced = untraced[1:]
    failed = sum(not p["ok"] for p in passes)
    record = {"workload": workload.name, "seed": seed,
              "seed_used": workload.uses_seed, "trace": trace,
              "attempted": len(passes), "failed": failed,
              "correct": failed == 0, "passes": passes, "absent": []}
    if not trace:
        metrics = {key: _median(untraced, key) for key in END_TO_END
                   if key != "peak_rss_mb"}
        metrics["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["metrics"] = metrics
        record["wall_medians"] = {key: _median(untraced, key, "wall")
                                  for key in metrics if key.endswith("_s")}
        return record

    traced_passes = [p for p in good if p["traced"]]
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(ref_counts)
    if traced_passes:
        best = _median_pass(traced_passes)
        self_s, calls = best["layers"]
        for layer in SELF_TIMED:
            metrics[f"{layer}_s"] = self_s.get(layer, 0.0)
        for layer in CALLS:
            metrics[f"{layer}_calls"] = calls.get(layer, 0)
        n, nnz = best.get("schur", (0, 0))
        metrics["assembly.schur_n"], metrics["assembly.nnz_schur"] = n, nnz
        metrics["trace.traced_total_s"] = best["times"]["total_s"]
        metrics["trace.untraced_total_s"] = _median(untraced, "total_s")
        metrics["trace.overhead_s"] = (metrics["trace.traced_total_s"]
                                       - metrics["trace.untraced_total_s"])
        metrics["bench.wall_total_s"] = _median(untraced, "total_s", "wall")
        record["self_time_sum_s"] = sum(self_s.values())
        record["median_traced_pass"] = best["pass"]
    metrics["bench.probe_us"] = 1e6 * probe.median_duration()
    record["metrics"] = metrics
    record["absent"] = tracer.absent
    record["tracer"] = tracer
    return record


def _pass_line(rec) -> str:
    mode = "traced  " if rec["traced"] else "untraced"
    if "times" not in rec:
        return f"  {rec['pass']:36s} {mode} raised"
    t = rec["times"]
    bad = [g[0] for g in rec["gates"] if not g[1]]
    status = "ok" if not bad else "FAILED " + ",".join(bad)
    return (f"  {rec['pass']:36s} {mode} setup {t['setup_s']:7.3f} s  "
            f"solve {t['solve_s']:7.3f} s  post {t['post_s']:7.3f} s  "
            f"total {t['total_s']:7.3f} s  {status}")
