"""Workload process: runs one workload's operation list through ebcred.cli.run.

Started by run.py in a fresh single-threaded process.  Each operation is one
in-process call of `ebcred.cli.run(argv)` with stdout captured and --outdir
in a scratch directory; only that call is timed.  Its outputs are checked
right after, outside the timed region.  The operation list is repeated until
the timed calls add up to --seconds, and each pass's times are scaled by a
calibration kernel timed around it.  With --trace 1 untraced and traced
passes alternate over the same inputs, and the traced ones give the
per-layer metrics.  Findings go to --result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import shutil
import sys
import time
import traceback
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import ebcred  # noqa: E402
from ebcred import cli  # noqa: E402
from ebcred.sequence_model import TruncationWarning  # noqa: E402

import workloads  # noqa: E402
from tracer import TARGETS, Tracer, layer_metrics  # noqa: E402

# Stop starting passes after this much wall-clock time, checks included, so
# the whole benchmark ends well inside its 180 s budget on a slow machine.
WALL_CAP_S = 120.0

# On a shared host the speed of one core drifts by 10-15% within minutes, so
# raw pass times spread that much from run to run.  A fixed kernel is timed
# before and after every pass, and reported times are scaled to the kernel
# time of the machine the benchmark was calibrated on (README.md).
KERNEL_REF_S = 0.08
_KERNEL_GRID = np.linspace(0.0, 1.0, 512)
_KERNEL_FREQ = (np.arange(1, 1025) - 0.5) * np.pi
_KERNEL_COEF = 1.0 / np.arange(1, 1025)


def kernel_seconds():
    """Time a fixed mix of float32 normal draws and cosine sums (no ebcred code)."""
    rng = np.random.Generator(np.random.PCG64(12345))
    start = time.perf_counter()
    for _ in range(2):
        z = rng.standard_normal((1000, 1000), dtype=np.float32)
        np.multiply(z, z, out=z)
        z.sum(axis=1)
    for _ in range(4):
        np.cos(np.outer(_KERNEL_GRID, _KERNEL_FREQ)) @ _KERNEL_COEF
    return time.perf_counter() - start


def call_cli(argv, outdir):
    """Time one in-process CLI call; returns (failure, seconds, stdout, warnings).

    failure is None for exit code 0, else a description of what went wrong.
    """
    out = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out):
            start = time.perf_counter()
            try:
                code = cli.run(argv + ["--outdir", outdir])
                failure = None if code == 0 else f"exit code {code}"
            except Exception as exc:  # an uncaught program error fails this call only
                failure = f"raised {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
    warned = sum(issubclass(w.category, TruncationWarning) for w in caught)
    return failure, seconds, out.getvalue(), warned


def execute(op, scratch):
    if scratch.exists():
        shutil.rmtree(scratch)
    failure, seconds, stdout, warned = call_cli(op.argv(), str(scratch))
    record = {"label": op.label, "seconds": seconds, "warnings": warned, "problems": []}
    if failure:
        record["problems"].append(failure)
        return record
    try:
        json.loads(stdout)  # the manifest must be valid JSON
        problems, seen = workloads.CHECKS[op.command](op, scratch)
    except Exception as exc:  # a check that crashes is a failed check, not a crashed run
        where = traceback.extract_tb(exc.__traceback__)[-1]
        problems, seen = [f"{type(exc).__name__}: {exc} ({where.name}:{where.lineno})"], {}
    record["problems"] = problems
    record.update(seen)
    return record


def median(values):
    return float(np.median(values)) if values else float("nan")


def run(workload_name, seed, seconds, trace, outdir):
    workload = workloads.WORKLOADS[workload_name]
    seeds = random.Random(seed)
    seed_iter = iter(lambda: seeds.randrange(2**31), None)
    scratch = Path(outdir) / "op"
    tracer = Tracer()
    records = []  # every checked call
    passes = {False: [], True: []}  # traced? -> (calibrated, raw) pass seconds
    timed = 0.0
    wall_start = time.perf_counter()
    op_list = None
    index = 0
    kernel = [kernel_seconds()]
    while True:
        traced = trace and index % 2 == 1
        if not traced:
            op_list = workload.ops(seed_iter)  # a traced pass repeats the inputs before it
        # Untraced runs wrap only eb_fit, to count EB boundary hits for the
        # provenance; the untraced passes of a traced run wrap nothing.
        hooks = TARGETS if traced else () if trace else ("sequence_model.eb_fit",)
        patches = tracer.install(hooks)
        try:
            wall = 0.0
            for op in op_list:
                tracer.request = len(records)
                record = execute(op, scratch)
                record["traced"] = traced
                records.append(record)
                wall += record["seconds"]
        finally:
            Tracer.uninstall(patches)
        kernel.append(kernel_seconds())
        scale = 2.0 * KERNEL_REF_S / (kernel[-2] + kernel[-1])
        for record in records[-len(op_list):]:
            record["scaled"] = record["seconds"] * scale
        passes[traced].append((wall * scale, wall))
        timed += wall
        index += 1
        done = timed >= seconds or time.perf_counter() - wall_start > WALL_CAP_S
        if done and (not trace or index % 2 == 0):
            break
    if not trace and workload_name != "radius":
        for op in workloads.probe_ops(seed_iter):
            record = execute(op, scratch)
            record["probe"] = True
            records.append(record)
    if scratch.exists():
        shutil.rmtree(scratch)

    untraced = [r for r in records if not r.get("traced") and not r.get("probe")]
    op_seconds = [r["scaled"] for r in untraced]
    scaled = {key: [p[0] for p in value] for key, value in passes.items()}
    rel_se = [r["rel_se"] for r in records if "rel_se" in r and not r.get("traced")]
    failed = [r for r in records if r["problems"]]
    warned = sum(r["warnings"] for r in records if r.get("traced") == trace)
    result = {
        "attempted": len(records),
        "failed": len(failed),
        "problems": [f"{r['label']}: {p}" for r in failed for p in r["problems"]][:20],
        "metrics": {
            "wall_s": (median(scaled[False]), len(scaled[False])),
            "op_p50_s": (median(op_seconds), len(op_seconds)),
            "op_p90_s": (float(np.percentile(op_seconds, 90)), len(op_seconds)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
            "radius_rel_se": (median(rel_se), len(rel_se)),
            "op_fail_frac": (len(failed) / len(records), len(records)),
        },
        "provenance": {
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "ebcred": ebcred.__version__,
            "passes": len(passes[False]) + len(passes[True]),
            "kernel_s": median(kernel),
            "kernel_ref_s": KERNEL_REF_S,
            "raw_wall_s": median([p[1] for p in passes[False]]),
            "raw_op_p50_s": median([r["seconds"] for r in untraced]),
            "truncation_warnings": warned,
            "eb_boundary_hits": int(tracer.summary()[2]["sequence_model.eb_fit"]),
            "eb_fit_below_log_grid": sum(r.get("below_log_grid", 0) for r in records),
            "sizes": workload.sizes,
        },
    }
    if trace:
        missing = [name for name in workload.expected
                   if not any(span[1] == name for span in tracer.spans)]
        if missing:
            raise SystemExit(f"traced run recorded no calls of {', '.join(missing)} "
                             f"on workload {workload_name}")
        tracer.write(Path(outdir).parent / f"spans-{workload_name}-seed{seed}.csv")
        result["layers"] = layer_metrics(
            tracer, len(passes[True]), median(scaled[True]), median(scaled[False]), warned)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    if not Path(ebcred.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"ebcred imported from {ebcred.__file__}, not from {SRC}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.outdir)
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
