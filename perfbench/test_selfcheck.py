"""Self-check of the benchmark harness on tiny inputs.

    python3 -m pytest perfbench -q

Runs every workload's pipeline on tiny meshes, checks that every metric
BENCHMARK.json names is emitted, and that every correctness gate fails
when fed a deliberately perturbed DoF vector.
"""

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gates  # noqa: E402
import pipeline  # noqa: E402
from stagpoly import cli  # noqa: E402
from stagpoly.postprocess import SolutionField  # noqa: E402
from stagpoly.problems import get_problem  # noqa: E402
from probe import (ELASTICITY, MIN_SAMPLES, REFERENCE_S,  # noqa: E402
                   SpeedProbe)
from tracing import Tracer  # noqa: E402
from workloads import LAYERS, TINY, WORKLOADS  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _quiet(_line):
    pass


def test_definitions_agree():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} \
        == pipeline.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} \
        == pipeline.PER_LAYER
    assert set(LAYERS) == set(pipeline.PER_LAYER)


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_runs_emit_every_metric(name):
    plain = pipeline.run(TINY[name], 1, 0, trace=False, log=_quiet)
    assert (plain["attempted"], plain["failed"]) == (1, 0)
    assert set(plain["metrics"]) == set(pipeline.END_TO_END)
    assert all(v > 0 for v in plain["metrics"].values())

    traced = pipeline.run(TINY[name], 1, 0, trace=True, log=_quiet)
    assert (traced["attempted"], traced["failed"]) == (2, 0)
    assert set(traced["metrics"]) == set(pipeline.PER_LAYER)
    assert traced["absent"] == []
    best = [p for p in traced["passes"] if p["traced"]][0]
    assert traced["self_time_sum_s"] == pytest.approx(
        best["times"]["total_s"], abs=1e-3)


@pytest.mark.parametrize("name", list(TINY))
def test_every_gate_fails_on_perturbed_dofs(name):
    w = TINY[name]
    problem = get_problem(w.problem)
    args = pipeline.solve_args(w)
    with pipeline.stage_marks() as marks:
        _, out = pipeline.run_pass(w, problem, 1, args, marks)

    def outputs(dofs):
        sol = SolutionField(out.system, dofs)
        flux = cli.recover_flux(sol)
        again = pipeline.Outputs(out.mesh, out.system, sol, flux, out.report,
                                 *pipeline.post(problem, sol, flux,
                                                args.quadrature))
        again.scaled_residuals = gates.scaled_conservation(
            flux, problem.f, again.residuals)
        return again

    clean = outputs(out.dofs)
    checked = gates.check(w, problem, clean)
    assert all(g[1] for g in checked), checked

    rng = np.random.default_rng(0)
    noisy = out.dofs + 0.5 * np.abs(out.dofs).max() \
        * rng.standard_normal(out.dofs.shape)
    failed = {g[0] for g in gates.check(w, problem, outputs(noisy))
              if not g[1]}
    # The program refuses NaN input, so give the gates a NaN DoF vector
    # next to the clean derived outputs.
    nan = out.dofs.copy()
    nan[0] = np.nan
    with_nan = dataclasses.replace(clean, sol=SolutionField(out.system, nan))
    failed_nan = {g[0] for g in gates.check(w, problem, with_nan)
                  if not g[1]}
    assert "outputs_finite" in failed_nan
    assert {g[0] for g in checked} - {"outputs_finite"} <= failed
    assert not gates.same_outputs(noisy, out.dofs)[1]
    assert gates.same_outputs(out.dofs.copy(), out.dofs)[1]


def test_missing_binding_is_listed_absent():
    module = types.ModuleType("fake")
    tracer = Tracer()
    tracer.patch(module, "element_operator", "weakgrad.element_operator")
    tracer.patch(module, "CondensedSystem.recover", "assembly.recover")
    assert tracer.absent == ["fake.element_operator",
                             "fake.CondensedSystem.recover"]


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.pass_id = "p"
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    self_s, calls = tracer.layer_totals("p")
    outer = [s for s in tracer.spans if s[2] == "outer"][0]
    assert self_s["outer"] + self_s["inner"] == pytest.approx(
        outer[4] - outer[3], abs=1e-12)
    assert calls == {"outer": 1, "inner": 1}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "tri-example1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_probe_time_is_left_out_and_scales_stages():
    probe = SpeedProbe(period=0.01)
    with probe:
        c0, w0, spent0 = probe.clock(), time.perf_counter(), probe.spent
        while time.perf_counter() - w0 < 0.3:
            pass
        c1, w1, spent1 = probe.clock(), time.perf_counter(), probe.spent
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.durations) >= MIN_SAMPLES
    assert spent1 > spent0
    assert (c1 - c0) == pytest.approx((w1 - w0) - (spent1 - spent0),
                                      abs=1e-3)
    inside = [REFERENCE_S / d for t, d in zip(probe.times, probe.durations)
              if c0 <= t <= c1]
    assert len(inside) >= MIN_SAMPLES
    assert probe.scale(c0, c1) == pytest.approx(
        (sum(inside) / len(inside)) ** ELASTICITY)
    # A window with too few probes in it takes the nearest MIN_SAMPLES.
    last = [REFERENCE_S / d for d in probe.durations[-MIN_SAMPLES:]]
    assert probe.scale(c1 + 10, c1 + 11) == pytest.approx(
        (sum(last) / MIN_SAMPLES) ** ELASTICITY)
