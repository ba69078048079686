"""Smoke self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload once with small inputs (``--smoke``), untraced and
traced, and fails (exit 1) if a metric named in BENCHMARK.json is missing,
has no unit or another unit than declared, is not a positive finite number
(end-to-end metrics), or was not verified: the run must report
``correct: true``, no failures, and at least one checked output.  Takes
about a minute.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import run
import workloads

TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}


def check_spec(spec):
    problems = []
    if set(spec) != TOP_KEYS:
        problems.append(f"BENCHMARK.json keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    if names != list(workloads.WORKLOADS):
        problems.append(f"workloads {names} != {list(workloads.WORKLOADS)}")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if max(bounds.values()) > 0.25 or bounds.get("setup_s") != max(bounds.values()):
        problems.append("bounds above 0.25 or setup_s not the largest")
    return problems


def check_run(spec, name, trace):
    where = f"{name} trace={trace}"
    res = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", name,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300,
    )
    if res.returncode != 0:
        return [f"{where}: exit {res.returncode}: {res.stderr.strip()[-500:]}"]
    lines = res.stdout.strip().splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: unverified: {record['failures']}")
    if trace and record.get("checks", 0) < 1:
        problems.append(f"{where}: no traced output was checked")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        problems.append(f"{where}: metric names differ: "
                        f"{sorted(set(got) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        val = got.get(m["name"], {})
        if not val.get("unit") or val["unit"] != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {val.get('unit')!r}")
        x = val.get("value")
        if not isinstance(x, (int, float)) or not math.isfinite(x):
            problems.append(f"{where}: {m['name']} value {x!r}")
        elif not trace and x <= 0:
            problems.append(f"{where}: {m['name']} is {x}, not positive")
    return problems


def main():
    spec = run.load_spec()
    problems = check_spec(spec)
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            found = check_run(spec, name, trace)
            print(f"{name} trace={trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
