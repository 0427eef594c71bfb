"""Smoke self-test of the benchmark: every workload once, traced and untraced.

    python3 bench/selftest.py

Runs run.py with --seconds 1 (one pass of each operation list, two with
tracing) and checks that each run is correct, that its result line names
exactly the metrics BENCHMARK.json lists, with their units, and that every
name matches [A-Za-z0-9_.-]+.  Exits 1 on the first mismatch.  Takes about
a minute.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def fail(message):
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = [w["name"] for w in spec["workloads"]] + [n for e in expected.values() for n in e]
    for name in names:
        if not NAME.fullmatch(name):
            fail(f"name {name!r} does not match {NAME.pattern}")
    if len(names) != len(set(names)):
        fail("a name is used twice")
    for workload in spec["workloads"]:
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", workload["name"], "--seed", "0",
                                     "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            tag = f"{workload['name']} trace={trace}"
            if proc.returncode != 0:
                fail(f"{tag} exited {proc.returncode}: {proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                fail(f"{tag}: correct={result['correct']} attempted={result['attempted']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                fail(f"{tag}: metrics differ from BENCHMARK.json: "
                     f"{sorted(set(got.items()) ^ set(expected[trace].items()))}")
            for name, metric in result["metrics"].items():
                if not (UNIT.fullmatch(metric["unit"]) and isinstance(metric["value"], (int, float))):
                    fail(f"{tag}: metric {name} has unit {metric['unit']!r}, "
                         f"value {metric['value']!r}")
            print(f"ok {tag}: {len(got)} metrics, {result['attempted']} operations")
    print("selftest passed")


if __name__ == "__main__":
    main()
