import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.io

from stagpoly import cli
from stagpoly.assembly import assemble_system
from stagpoly.cli import EXIT_CONFIG, EXIT_MESH, EXIT_SOLVER, main
from stagpoly.polymesh import build_subtriangulation, compute_star_points
from stagpoly.postprocess import SolutionField, recover_flux
from stagpoly.problems import example1, get_problem
from stagpoly.solver import solve_system


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# mesh gen / info

def test_mesh_gen_and_info(tmp_path, capsys):
    path = tmp_path / "tri.json"
    code, out, _ = run(capsys, "mesh", "gen", "--triangles", "4",
                       "-o", str(path))
    assert code == 0
    assert "32 cells" in out
    assert path.exists()
    doc = json.loads(path.read_text())
    assert len(doc["cells"]) == 32

    code, out, _ = run(capsys, "mesh", "info", str(path))
    assert code == 0
    assert "cells      32" in out
    assert "all valid" in out


def test_mesh_info_solves_the_star_point_lp_once(tmp_path, capsys,
                                                 monkeypatch):
    from stagpoly import polymesh
    path = tmp_path / "vor.json"
    run(capsys, "mesh", "gen", "--voronoi", "16", "--seed", "1",
        "-o", str(path))
    calls = []
    lp = polymesh._kernel_chebyshev
    monkeypatch.setattr(polymesh, "_kernel_chebyshev",
                        lambda mesh: calls.append(mesh) or lp(mesh))
    code, out, _ = run(capsys, "mesh", "info", str(path))
    assert code == 0
    assert "all valid" in out
    assert len(calls) == 1


def test_mesh_gen_needs_one_source(tmp_path, capsys):
    code, _, err = run(capsys, "mesh", "gen", "--triangles", "4",
                       "--squares", "4", "-o", str(tmp_path / "m.json"))
    assert code == EXIT_CONFIG
    assert "exactly one" in err


def test_mesh_info_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "mesh", "info", str(tmp_path / "nope.json"))
    assert code == EXIT_MESH


@pytest.mark.parametrize("change", [{"cells": [[0, 1.7, 2]]}, {"cells": 5},
                                    {"h": "abc"}],
                         ids=["float-index", "cells-int", "h-string"])
def test_mesh_info_malformed_document(tmp_path, capsys, change):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [0, 1]],
                                "cells": [[0, 1, 2]], **change}))
    code, _, err = run(capsys, "mesh", "info", str(path))
    assert code == EXIT_MESH
    assert "mesh error" in err


@pytest.mark.parametrize("flags", [
    ["--voronoi", "16", "--seed", "-1"],
    ["--voronoi", "16", "--lloyd-iters", "-3"],
    ["--delaunay", "16", "--seed", "-2"],
], ids=["voronoi-seed", "voronoi-iters", "delaunay-seed"])
def test_mesh_gen_negative_arguments(tmp_path, capsys, flags):
    code, _, err = run(capsys, "mesh", "gen", *flags,
                       "-o", str(tmp_path / "m.json"))
    assert code == EXIT_MESH
    assert ">= 0" in err


# ---------------------------------------------------------------------------
# solve

def test_solve_reports_errors_and_outputs(tmp_path, capsys):
    outdir = tmp_path / "out"
    code, out, _ = run(capsys, "solve", "--problem", "example1",
                       "--triangles", "4", "--outdir", str(outdir),
                       "--vtk", "--matrix-market", "--no-timestamp")
    assert code == 0
    assert "e_L2" in out and "e_sigma_L2" in out
    assert "conservation max|r_K|" in out
    report = (outdir / "report.txt").read_text()
    assert report in out or out.endswith(report)
    assert (outdir / "solution.vtk").exists()
    A = scipy.io.mmread(outdir / "system.mtx")
    assert A.shape[0] == A.shape[1]
    assert not list(outdir.glob("*.tmp"))


def test_solve_no_exact_solution(tmp_path, capsys):
    code, out, _ = run(capsys, "solve", "--problem", "example3",
                       "--squares", "8", "--outdir", str(tmp_path / "o"),
                       "--no-timestamp")
    assert code == 0
    assert "e_L2" not in out
    assert "conservation" in out


def test_solve_no_timestamp_report_is_reproducible(tmp_path, capsys):
    # the wall time is left out, so two runs write the same bytes
    reports = []
    for name in ("a", "b"):
        outdir = tmp_path / name
        code, _, _ = run(capsys, "solve", "--triangles", "8",
                         "--outdir", str(outdir), "--no-timestamp")
        assert code == 0
        reports.append((outdir / "report.txt").read_bytes())
    assert reports[0] == reports[1]
    assert b"time" not in reports[0]


def test_solve_mesh_document_without_h_reports_a_size(tmp_path, capsys):
    path = tmp_path / "square.json"
    path.write_text(json.dumps({
        "vertices": [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]],
        "cells": [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]}))
    code, out, _ = run(capsys, "solve", "--mesh", str(path),
                       "--outdir", str(tmp_path / "o"), "--no-timestamp")
    assert code == 0
    assert "mesh        4 cells, h = 1.0\n" in out


@pytest.mark.parametrize("case", ["tri4-example1-0", "squares4-example3-0",
                                  "voronoi64-example2-1"])
def test_solve_problem_is_the_layer_chain(request, case):
    # example3 has flux_sign -1 and Neumann walls
    name, problem, k = case.split("-")
    mesh, prob, k = request.getfixturevalue(name), get_problem(problem), int(k)
    system, sol, flux, _ = cli.solve_problem(prob, mesh, k)
    subtri = build_subtriangulation(mesh, star_points=compute_star_points(mesh))
    ref = assemble_system(mesh, subtri, k, prob.coeff, prob.f, prob.bc,
                          flux_sign=prob.flux_sign)
    dofs, _ = solve_system(ref, method="direct", tol=1e-10)
    ref_flux = recover_flux(SolutionField(ref, dofs))
    assert system.flux_sign == prob.flux_sign
    assert np.array_equal(sol.dofs, dofs)
    assert len(flux.coeffs) == len(ref_flux.coeffs)
    for got, want in zip(flux.coeffs, ref_flux.coeffs):
        assert np.array_equal(got, want)


def test_stage_boundaries_go_through_cli_bindings(tri4, monkeypatch):
    # the benchmark ends its setup and solve stages on these two bindings
    calls = []
    for name in ("build_subtriangulation", "solve_system"):
        def counted(*args, _fn=getattr(cli, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    args = cli._make_parser().parse_args(["solve", "--triangles", "4"])
    cli._solve_problem(example1(), tri4, args)
    assert sorted(calls) == ["build_subtriangulation", "solve_system"]


def test_solve_unknown_problem(tmp_path, capsys):
    code, _, err = run(capsys, "solve", "--problem", "example9",
                       "--triangles", "2", "--outdir", str(tmp_path / "o"))
    assert code == EXIT_CONFIG
    assert "unknown problem" in err


def test_solve_degree_out_of_range(tmp_path, capsys):
    code, _, err = run(capsys, "solve", "--triangles", "2", "-k", "5",
                       "--outdir", str(tmp_path / "o"))
    assert code == EXIT_CONFIG
    assert err.startswith("error:") and "0..4" in err
    code, out, _ = run(capsys, "solve", "--triangles", "2", "-k", "4",
                       "--outdir", str(tmp_path / "o"), "--no-timestamp")
    assert code == 0
    assert "k = 4" in out


def test_solve_cg_path(tmp_path, capsys):
    code, out, _ = run(capsys, "solve", "--problem", "patch-linear",
                       "--triangles", "4", "--method", "cg",
                       "--cg-tol", "1e-12", "--outdir", str(tmp_path / "o"),
                       "--no-timestamp")
    assert code == 0
    assert "cg" in out


def test_solve_cg_unreachable_tol_exits_solver(tmp_path, capsys):
    code, _, err = run(capsys, "solve", "--triangles", "4", "-k", "2",
                       "--method", "cg", "--cg-tol", "0",
                       "--outdir", str(tmp_path / "o"))
    assert code == EXIT_SOLVER
    assert "cannot reach tol" in err


# ---------------------------------------------------------------------------
# convergence

def test_convergence_csv_deterministic(tmp_path, capsys):
    csv1 = tmp_path / "a.csv"
    csv2 = tmp_path / "b.csv"
    for path in (csv1, csv2):
        code, out, _ = run(capsys, "convergence", "--problem", "example1",
                           "--levels", "4,8", "-o", str(path),
                           "--no-timestamp")
        assert code == 0
    assert csv1.read_bytes() == csv2.read_bytes()
    lines = csv1.read_text().strip().split("\n")
    assert lines[0] == "h,N_K,e_sigma_L2,e_sigma_L2_rate,e_L2,e_L2_rate"
    assert lines[1].endswith(",")  # first level has no rate
    rate = float(lines[2].split(",")[-1])
    assert 1.8 < rate < 2.2


def test_convergence_levels_build_triangles_for_example2(tmp_path, capsys):
    path = tmp_path / "t.csv"
    code, _, _ = run(capsys, "convergence", "--problem", "example2",
                     "--levels", "2,4", "-o", str(path), "--no-timestamp")
    assert code == 0
    rows = path.read_text().strip().split("\n")[1:]
    assert [row.split(",")[1] for row in rows] == ["8", "32"]


def test_convergence_empty_levels_is_a_config_error(capsys):
    code, _, err = run(capsys, "convergence", "--levels", ",")
    assert code == EXIT_CONFIG
    assert "comma list" in err


def test_convergence_levels_and_cells_exclude_each_other(capsys):
    code, _, err = run(capsys, "convergence", "--levels", "2",
                       "--cells", "16")
    assert code == EXIT_CONFIG
    assert "not allowed with" in err


def test_convergence_degree_out_of_range(capsys):
    code, _, err = run(capsys, "convergence", "--levels", "2,4", "-k", "5")
    assert code == EXIT_CONFIG
    assert err.startswith("error:") and "0..4" in err


def test_convergence_compare_paper(capsys):
    code, out, _ = run(capsys, "convergence", "--problem", "example1",
                       "--levels", "4", "--compare-paper", "--no-timestamp")
    assert code == 0
    assert "reference comparison" in out
    assert "N_K=    32" in out


def test_convergence_compare_paper_wrong_problem(capsys):
    code, _, err = run(capsys, "convergence", "--problem", "patch-linear",
                       "--levels", "4", "--compare-paper")
    assert code == EXIT_CONFIG


def test_convergence_solver_failure_exits_solver(capsys):
    # tol 0 is out of reach at level 1: a solver failure, not a config error
    code, _, err = run(capsys, "convergence", "--levels", "2,4",
                       "--method", "cg", "--cg-tol", "0")
    assert code == EXIT_SOLVER
    assert "level 1" in err and "cannot reach tol" in err


def test_convergence_without_exact_solution(capsys):
    code, _, err = run(capsys, "convergence", "--problem", "example3",
                       "--levels", "4")
    assert code == EXIT_CONFIG
    assert "exact solution" in err


# ---------------------------------------------------------------------------
# conserve

def test_conserve_passes_at_default_tol(capsys):
    code, out, _ = run(capsys, "conserve", "--squares", "8", "--no-timestamp")
    assert code == 0
    assert "status    PASS" in out


def test_conserve_reports_scaled_residual(capsys):
    code, out, _ = run(capsys, "conserve", "--squares", "8", "--no-timestamp")
    assert code == 0
    scaled = [line for line in out.splitlines()
              if line.startswith(("max scaled", "mean scaled"))]
    assert len(scaled) == 2
    assert all(float(line.split()[2]) < 1e-12 for line in scaled)


def test_conserve_fails_at_tiny_tol(capsys):
    code, out, _ = run(capsys, "conserve", "--squares", "8",
                       "--tol", "1e-30", "--no-timestamp")
    assert code == EXIT_SOLVER
    assert "status    FAIL" in out


def test_conserve_delaunay(capsys):
    code, out, _ = run(capsys, "conserve", "--delaunay", "40",
                       "--no-timestamp")
    assert code == 0
    assert "status    PASS" in out


def test_conserve_needs_mesh_source(capsys):
    code, _, err = run(capsys, "conserve")
    assert code == EXIT_CONFIG
    assert "exactly one" in err


def test_conserve_report_file(tmp_path, capsys):
    path = tmp_path / "conserve.txt"
    code, out, _ = run(capsys, "conserve", "--squares", "8",
                       "-o", str(path), "--no-timestamp")
    assert code == 0
    assert "max |r_K|" in path.read_text()


# ---------------------------------------------------------------------------
# cr-check

def test_crcheck_triangles(capsys):
    code, out, _ = run(capsys, "cr-check", "--triangles", "4")
    assert code == 0
    assert "discrepancy" in out


def test_crcheck_fails_at_tiny_tol(capsys):
    # a discrepancy above --tol is a failed check, like conserve's
    code, out, _ = run(capsys, "cr-check", "--triangles", "4", "--tol", "1e-30")
    assert code == EXIT_SOLVER
    assert "discrepancy" in out


def test_crcheck_squares(capsys):
    # the CR bridge holds on every polygon mesh, not only on triangles
    code, out, _ = run(capsys, "cr-check", "--squares", "2", "--tol", "1e-13")
    assert code == 0
    assert "discrepancy" in out


def test_crcheck_polygon_mesh(tmp_path, capsys):
    path = tmp_path / "sq.json"
    run(capsys, "mesh", "gen", "--squares", "2", "-o", str(path))
    code, out, _ = run(capsys, "cr-check", "--mesh", str(path),
                       "--tol", "1e-13")
    assert code == 0
    assert "discrepancy" in out


# ---------------------------------------------------------------------------
# argument errors

def test_unknown_flag(tmp_path, capsys):
    # unknown options, the removed --no-condense and --config among them
    (tmp_path / "c.json").write_text("{}")
    out = str(tmp_path)
    for argv in (["solve", "--does-not-exist"],
                 ["solve", "--triangles", "2", "--no-condense",
                  "--outdir", out],
                 ["--config", str(tmp_path / "c.json"), "solve",
                  "--triangles", "2", "--outdir", out]):
        code, _, _ = run(capsys, *argv)
        assert code == EXIT_CONFIG, argv


def test_help_exits_zero(capsys):
    code, _, _ = run(capsys, "--help")
    assert code == 0


# ---------------------------------------------------------------------------
# import budget

IMPORT_BUDGET_SCRIPT = """
import json, sys
WATCHED = ("scipy.spatial", "scipy.special", "scipy.io", "scipy.sparse.linalg")
def loaded():
    return [m for m in WATCHED if m in sys.modules]
stages = {}
from stagpoly import cli
stages["import"] = loaded()
out = sys.argv[1]
assert cli.main(["solve", "--problem", "example1", "--triangles", "4",
                 "--no-timestamp", "--outdir", out + "/k0"]) == 0
stages["k0 solve"] = loaded()
from stagpoly.quadbasis import triangle_rule
triangle_rule(3)
stages["degree-3 rule"] = loaded()
from stagpoly.polymesh import gen_voronoi_polygons
gen_voronoi_polygons(16, lloyd_iters=5, rng_seed=1)
stages["voronoi"] = loaded()
assert cli.main(["solve", "--problem", "example1", "--triangles", "4",
                 "--no-timestamp", "--matrix-market",
                 "--outdir", out + "/mm"]) == 0
stages["matrix market"] = loaded()
print(json.dumps(stages))
"""


def test_scipy_subpackages_load_on_first_use(tmp_path):
    # a fresh interpreter: this process has imported them all already
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", IMPORT_BUDGET_SCRIPT,
                           str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    stages = json.loads(proc.stdout.splitlines()[-1])
    assert stages["import"] == []
    assert stages["k0 solve"] == ["scipy.sparse.linalg"]
    assert stages["degree-3 rule"] == ["scipy.special", "scipy.sparse.linalg"]
    # scipy.spatial may bring scipy.special along
    assert "scipy.spatial" in stages["voronoi"]
    assert "scipy.io" in stages["matrix market"]
