"""Benchmark of the ebcred CLI: one workload per invocation.

    python3 bench/run.py --workload radius --seed 1 --seconds 20 --trace 0

Without tracing it first measures setup_s, the median time to import
ebcred.cli in a fresh process, then runs the workload in its own
single-threaded process (worker.py) and prints every end-to-end metric with
its unit and sample count.  With --trace 1 it prints the per-layer metrics
instead.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 1 if any output check
failed, and 2, with no result line, if the benchmark could not run at all.

Everything it writes goes under .bench_work/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_IMPORTS = 5
SETUP_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 160

THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
    "radius_rel_se": "ratio",
    "op_fail_frac": "ratio",
}
# Printed with the others; the result line carries it as failed / attempted.
FAIL_FRAC = "op_fail_frac"

_IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import ebcred.cli; "
    "print(time.perf_counter() - start, ebcred.cli.__file__)"
)


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from the last part of its name."""
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_per_s"):
        return "1/s"
    if last.endswith("_s"):
        return "s"
    if last in ("bytes", "bytes_computed"):
        return "B"
    if last in ("share", "accept_ratio", "overhead_frac"):
        return "ratio"
    return "count"


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup() -> list[float]:
    """Import ebcred.cli in fresh processes; the first one (which may compile
    bytecode) is discarded, the rest are timed inside the child."""
    times = []
    for attempt in range(SETUP_IMPORTS + 1):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=child_env(), cwd=WORK,
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        seconds, origin = out.stdout.split(maxsplit=1)
        if not Path(origin.strip()).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"ebcred.cli imported from {origin.strip()}, not from {SRC}")
        if attempt:
            times.append(float(seconds))
    return times


def provenance(args, worker: dict) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "thread_env": THREAD_ENV,
        "git_commit": commit,
        **worker["provenance"],
    }


def run_worker(args) -> dict:
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        result_path = Path(tmp) / "result.json"
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--outdir", tmp, "--result", str(result_path)],
            env=child_env(), cwd=WORK, stdout=sys.stderr, timeout=WORKER_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"workload process exited with code {proc.returncode}")
        return json.loads(result_path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ebcred CLI benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("radius", "fpfn_eb", "curves", "eb_fit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ebcred" / "cli.py").is_file():
        print(f"error: no ebcred sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        setup = [] if args.trace else measure_setup()
        if setup:
            print(f"setup_s {statistics.median(setup):.6f} s (n={len(setup)})", flush=True)
        worker = run_worker(args)
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rows = []  # (name, value, unit, samples)
    if args.trace:
        for name, value in worker["layers"].items():
            rows.append((name, value, layer_unit(name), worker["provenance"]["passes"] // 2))
    else:
        rows.append(("setup_s", statistics.median(setup), "s", len(setup)))
        for name, (value, samples) in worker["metrics"].items():
            rows.append((name, value, END_TO_END_UNITS[name], samples))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"{'metric':48s} {'value':>16s} {'unit':6s} samples")
    for name, value, unit, samples in rows:
        print(f"{name:48s} {value:16.6g} {unit:6s} {samples}")
    for problem in worker["problems"]:
        print(f"FAILED {problem}")
    print("provenance " + json.dumps(provenance(args, worker), sort_keys=True))

    # A metric with no finite sample (all its operations failed) reads null.
    metrics = {name: {"value": value if math.isfinite(value) else None, "unit": unit}
               for name, value, unit, _ in rows if name != FAIL_FRAC}
    correct = worker["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": worker["attempted"],
                      "failed": worker["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
