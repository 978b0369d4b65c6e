"""stagpoly benchmark: time `stagpoly solve` end to end and per layer.

    python3 perfbench/run.py --workload tri-example1 --seed 1 --seconds 35
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root. The benchmark imports the program from
./src, runs passes of one workload within --seconds, checks every pass's
outputs, and prints as its last line one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1. The
full record (every pass, every gate, the environment stamp) goes to
perfbench/results/, and a traced run also writes its spans there.
Times are scaled to the speed probe's reference speed (probe.py); the
raw wall times are in the record. BLAS runs on one thread unless
OPENBLAS_NUM_THREADS says otherwise, so that the run stays on one core.
`--workload all` runs each workload in turn in a child process, so
that each gets its own peak RSS, and prints a summary table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

# Before numpy is imported anywhere.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))
from probe import REFERENCE_S, SpeedProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _import_program():
    """Import stagpoly from ./src, never from an installed copy."""
    if not (SRC / "stagpoly" / "__init__.py").is_file():
        raise SystemExit(f"error: no program at {SRC / 'stagpoly'}; run "
                         "from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import stagpoly
    if Path(stagpoly.__file__).resolve().parent != SRC / "stagpoly":
        raise SystemExit(f"error: imported stagpoly from {stagpoly.__file__}")


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "stagpoly").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas() -> list:
    """Every OpenBLAS this process loaded: config string and threads."""
    import ctypes
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path and ".so" in path:
                libs.add(path)
    out = []
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}",
                              None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                entry["config"] = config().decode()
                entry["threads"] = threads()
                break
        out.append(entry)
    return out


def environment(seed: int, workload, probe) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "seed_used": workload.uses_seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "probe": {"period_s": probe.period, "reference_s": REFERENCE_S,
                  "median_s": probe.median_duration(),
                  "samples": len(probe.durations)},
    }


def _summary_line(result) -> str:
    metrics = {k: {"value": v, "unit": u}
               for k, (v, u) in result["metrics"].items()}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    _import_program()
    import pipeline

    workload = WORKLOADS[name]
    print(f"workload {name}: {workload.why}")
    with SpeedProbe() as probe:
        record = pipeline.run(workload, seed, seconds, trace, probe=probe)
    units = pipeline.PER_LAYER if trace else pipeline.END_TO_END
    tracer = record.pop("tracer", None)
    record["environment"] = environment(seed, workload, probe)
    record["probes"] = {"start": probe.times, "duration": probe.durations}
    record["metrics"] = {k: (v, units[k]) for k, v in
                         record["metrics"].items()}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if tracer is not None:
        tracer.write_csv(RESULTS / f"{stem}-spans.csv.gz")
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    ok_runs = sum(p["ok"] for p in record["passes"])
    print(f"{name}: {ok_runs} of {record['attempted']} passes correct; "
          f"medians over {'traced' if trace else 'untraced'} passes, "
          f"scaled to the probe's reference speed (probe median "
          f"{1e6 * probe.median_duration():.0f} us, reference "
          f"{1e6 * REFERENCE_S:.0f} us)")
    for key, (value, unit) in record["metrics"].items():
        print(f"  {key:40s} {value:14.6g} {unit}")
    if "wall_medians" in record:
        print("  raw wall medians: " + ", ".join(
            f"{k} {v:.4f} s" for k, v in record["wall_medians"].items()))
    if trace:
        print(f"  absent bindings: {', '.join(record['absent']) or 'none'}")
        if "self_time_sum_s" in record:
            m = record["metrics"]
            print(f"  self times sum to {record['self_time_sum_s']:.4f} s; "
                  f"untraced total {m['trace.untraced_total_s'][0]:.4f} s, "
                  f"overhead {m['trace.overhead_s'][0]:.4f} s")
    print(f"  environment: {json.dumps(record['environment'])}")
    print(_summary_line(record))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own child process, one after another."""
    rows, combined = [], {"correct": True, "attempted": 0, "failed": 0,
                          "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        rows.append((name, result))
        for key in ("attempted", "failed"):
            combined[key] += result[key]
        combined["correct"] &= result["correct"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric

    keys = list(rows[0][1]["metrics"]) if not trace else \
        ["trace.untraced_total_s", "trace.traced_total_s", "trace.overhead_s"]
    print("\nsummary (medians; runs = passes attempted / failed)")
    print(f"  {'workload':18s} {'runs':>7s} " + " ".join(
        f"{k + ' [' + rows[0][1]['metrics'][k]['unit'] + ']':>24s}"
        for k in keys))
    for name, result in rows:
        runs = f"{result['attempted']}/{result['failed']}"
        print(f"  {name:18s} {runs:>7s} " + " ".join(
            f"{result['metrics'][k]['value']:24.4f}" for k in keys))
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1,
                    help="drives the Voronoi generator; structured meshes "
                         "ignore it and record that they do")
    ap.add_argument("--seconds", type=float, default=35.0,
                    help="run passes that end within this many seconds "
                         "(at least one pass, two when tracing)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="1: alternate traced and untraced passes and "
                         "report per-layer metrics")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
