"""Regenerate bench/reference.json, the reference radii of the radius workload.

    PYTHONPATH=src python3 bench/make_reference.py

Each case is one `ebcred radius` call with a large Monte Carlo sample and a
seed the benchmark never draws (its op seeds are below 2**31).  The file
records the value, its standard error and the exact command, so a reference
can be re-derived or replaced by an exact quantile later.  Takes a few
minutes on one core.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from ebcred import cli  # noqa: E402

import workloads  # noqa: E402

M = 500_000
SEED = 2**40 + 17


def main():
    cases = {}
    work = BENCH.parent / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for spectrum, n in workloads.RADIUS_CASES:
            op = workloads.Op("radius", {**workloads.radius_op(spectrum, n, SEED).params, "m": M})
            argv = op.argv() + ["--outdir", tmp]
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.run(argv) != 0:
                    raise SystemExit(f"reference run failed: {argv}")
            out = json.loads((Path(tmp) / "radius.json").read_text())
            cases[f"{spectrum} n={n}"] = {
                "value": out["value"],
                "std_error": out["std_error"],
                "i_max": out["i_max"],
                "m": M,
                "seed": SEED,
                "command": "ebcred " + " ".join(op.argv()),
            }
            print(spectrum, n, out["value"], out["std_error"], file=sys.stderr)
    payload = {
        "recipe": "precise radius (ebcred radius, KDE standard error) at m = "
                  f"{M} per case; regenerate with bench/make_reference.py",
        "cases": cases,
    }
    (BENCH / "reference.json").write_text(json.dumps(payload, indent=2) + "\n")


if __name__ == "__main__":
    main()
