"""Run the golden set of CLI calls into a directory, or compare two such runs.

    python scripts/golden_set.py run OUTDIR [--src SRC]
    python scripts/golden_set.py compare DIR_A DIR_B

`run` makes one fresh `python -m ebcred.cli` process per call in CALLS, with
SRC (default: this checkout's src/) first on PYTHONPATH, so a second copy
of the repository can be run with this script.  Call k writes its output
files to OUTDIR/kk/, its stdout manifest to OUTDIR/kk/manifest.json, its
stderr to OUTDIR/kk/stderr.txt and its exit code to OUTDIR/kk/exit_code.

`compare` checks two runs byte for byte and reports every differing file,
and within JSON files every differing key with both values.  The run-
dependent manifest keys duration_seconds, config.outdir and outputs are
ignored, and so is stderr.txt, whose warnings name source file paths.  A
differing CSV is reported column by column, with the number of rows that
differ and the largest relative difference of numeric cells.
Exits 1 when anything differs, else 0.
"""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

CALLS = [
    "radius --n 1000 --m 5000 --seed 3",
    "radius --n 1e6 --spectrum identity --m 5000 --seed 1",
    "radius --variant scaled_power_law --alpha 1.5 --tau 2 --n 1e4 --m 4000 --imax 2000",
    "radius --variant exponential --t 0.5 --q 2 --n 1000 --m 4000",
    "radius --variant exponential --t 1 --imax 100 --n 1000 --m 3000",
    "radius --n 1e12 --m 2000",
    "radius --n 1e8 --imax 30 --m 2000 --alpha 0.5",
    "eb-fit --n 1000 --seed 3",
    "eb-fit --variant scaled_power_law --alpha 1 --n 1e4 --imax 2000 --seed 2",
    "eb-fit --variant exponential --q 1.5 --n 1e3 --imax 1000 --spectrum identity --seed 4",
    "eb-fit --truth zero --noiseless --imax 200",
    "fpfn --n 1000 --draws 100,200 --reps 3 --imax 400 --m 5000",
    "fpfn --n 1e3,1e6 --draws 100 --reps 2 --eb --imax 500 --m 3000 --spectrum identity",
    "coverage --n 1000 --reps 4 --alpha 1 --imax 300 --m 2000",
    "coverage --n 1000 --reps 3 --imax 300 --m 2000 --seed 2",
    "rate --n 1e3,1e4,1e5,1e6 --reps 1 --alpha 1 --imax 2000 --m 2000",
    "rate --n 1e3,1e4,1e5,1e6 --reps 1 --eb --imax 500 --m 2000 --spectrum identity",
    "curves --n 1000 --count 3 --alpha 1 --imax 256 --m 2000 --grid-points 64 --seed 5",
    "curves --n 1000,1e6 --count 2 --imax 256 --m 2000 --grid-points 32 --laws posterior",
    "check-truncation --n 1000 --imax 100",
    "check-truncation --n 1000 --imax 4096 --variant scaled_power_law --tau 3",
    "check-truncation --variant exponential --t 1 --imax 100 --spectrum identity",
    "check-truncation --n 1e12 --imax 100",
    "check-truncation --n 1e12 --imax 100 --alpha 0.3 --variant scaled_power_law --tau 0.5",
    # reversed n and draw lists check the row sort of the report writer
    "fpfn --n 1e6,1e3 --draws 200,100 --reps 2 --eb --imax 500 --m 3000 --spectrum identity",
    "rate --n 1e6,1e5,1e4,1e3 --reps 2 --eb --imax 500 --m 2000 --spectrum identity",
    "coverage --n 1000,1e4 --reps 3 --imax 300 --m 2000 --seed 2",
    "curves --n 1e6 --count 2 --imax 256 --m 2000 --grid-points 32 --laws lawmu --alpha 1",
    "fpfn --n 1e6,1e3 --draws 200,100 --reps 2 --imax 400 --m 3000",
    "rate --n 1e6,1e3 --reps 2 --alpha 1 --imax 1000 --m 2000",
]

MANIFEST = "manifest.json"
EXIT_CODE = "exit_code"
STDERR = "stderr.txt"


def run(outdir: Path, src: Path) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src.resolve())] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for k, call in enumerate(CALLS):
        out = outdir / f"{k:02d}"
        out.mkdir(parents=True, exist_ok=True)
        argv = [sys.executable, "-m", "ebcred.cli", *call.split(), "--outdir", str(out)]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        (out / MANIFEST).write_text(proc.stdout)
        (out / STDERR).write_text(proc.stderr)
        (out / EXIT_CODE).write_text(f"{proc.returncode}\n")
        print(f"{k:02d} exit {proc.returncode}  {call}", flush=True)


def _manifest(text: str):
    if not text.strip():
        return {}
    data = json.loads(text)
    data.pop("duration_seconds", None)
    data.pop("outputs", None)
    data.get("config", {}).pop("outdir", None)
    return data


def _rel(a, b) -> str:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) and a != b:
        return f"  (relative difference {abs(a - b) / max(abs(a), abs(b)):.3g})"
    return ""


def _json_diffs(a, b, path: str = "") -> list[str]:
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b)):
            where = f"{path}.{key}" if path else str(key)
            if key not in a or key not in b:
                side = "second" if key not in a else "first"
                out.append(f"{where}: only in the {side} run")
            else:
                out += _json_diffs(a[key], b[key], where)
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for j, (x, y) in enumerate(zip(a, b)) for d in _json_diffs(x, y, f"{path}[{j}]")]
    return [] if a == b else [f"{path}: {a!r} != {b!r}{_rel(a, b)}"]


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _csv_diffs(a: Path, b: Path) -> list[str]:
    rows_a = list(csv.reader(a.read_text().splitlines()))
    rows_b = list(csv.reader(b.read_text().splitlines()))
    if len(rows_a) != len(rows_b):
        return [f"{len(rows_a)} lines != {len(rows_b)} lines"]
    head_a, head_b = rows_a[0], rows_b[0]
    out = [] if head_a == head_b else [f"header {head_a} != {head_b}"]
    for col in dict.fromkeys(head_a + head_b):
        if col not in head_a or col not in head_b:
            out.append(f"column {col}: only in the {'first' if col in head_a else 'second'} run")
            continue
        ja, jb = head_a.index(col), head_b.index(col)
        differ, worst = 0, 0.0
        for ra, rb in zip(rows_a[1:], rows_b[1:]):
            if ra[ja] == rb[jb]:
                continue
            differ += 1
            x, y = _number(ra[ja]), _number(rb[jb])
            if x is not None and y is not None and math.isfinite(x + y):
                worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
            else:
                worst = math.inf
        if differ:
            out.append(f"column {col}: {differ} rows differ, largest relative "
                       f"difference {worst:.3g}")
    return out


def compare(first: Path, second: Path) -> int:
    diffs = []
    calls = sorted({p.name for d in (first, second) for p in d.iterdir() if p.is_dir()})
    for call in calls:
        da, db = first / call, second / call
        names = sorted({p.name for d in (da, db) if d.is_dir() for p in d.iterdir()} - {STDERR})
        for name in names:
            fa, fb = da / name, db / name
            label = f"{call}/{name}"
            if not (fa.is_file() and fb.is_file()):
                diffs.append(f"{label}: only in the {'first' if fa.is_file() else 'second'} run")
            elif name == MANIFEST:
                diffs += [f"{label}: {d}" for d in
                          _json_diffs(_manifest(fa.read_text()), _manifest(fb.read_text()))]
            elif fa.read_bytes() == fb.read_bytes():
                continue
            elif name.endswith(".json"):
                diffs += [f"{label}: {d}" for d in
                          _json_diffs(json.loads(fa.read_text()), json.loads(fb.read_text()))]
            elif name.endswith(".csv"):
                diffs += [f"{label}: {d}" for d in _csv_diffs(fa, fb)]
            else:
                diffs.append(f"{label}: bytes differ")
    for line in diffs:
        print(line)
    print(f"{len(calls)} calls compared, {len(diffs)} differences")
    return 1 if diffs else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="action", required=True)
    r = sub.add_parser("run", help="run every call into OUTDIR")
    r.add_argument("outdir", type=Path)
    r.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                   help="directory holding the ebcred package to run")
    c = sub.add_parser("compare", help="compare two run directories")
    c.add_argument("first", type=Path)
    c.add_argument("second", type=Path)
    args = ap.parse_args()
    if args.action == "run":
        run(args.outdir, args.src)
        return 0
    return compare(args.first, args.second)


if __name__ == "__main__":
    sys.exit(main())
