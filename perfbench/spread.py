"""Run-to-run spread of the end-to-end metrics, next to their bounds.

    python3 perfbench/spread.py [--runs 10] [--seed0 1] [--workloads a,b]
                                [--traced] [--out FILE]

Runs ``run.py`` ``--runs`` times per workload, each with another seed, at
BENCHMARK.json's ``run_seconds``, and reports per workload and metric the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` beside the metric's bound.  A later change whose
difference from this baseline is within the spread is unresolved, not
unchanged.  ``--traced`` adds one traced run per workload, so the file also
holds a per-layer baseline.  ``--out`` writes everything as JSON (the
committed ``perfbench/baseline.json`` was made this way at the seed commit).
"""

from __future__ import annotations

import argparse
import json
import platform
import os
import statistics
import subprocess
import sys

import run
import workloads


def one_run(name, seed, seconds, trace):
    res = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=900,
    )
    if res.returncode != 0:
        run.fail(f"{name} seed {seed}: exit {res.returncode}: {res.stderr[-500:]}")
    record, result = (json.loads(x) for x in res.stdout.splitlines()[-2:])
    if not result["correct"]:
        run.fail(f"{name} seed {seed}: unverified: {record['failures']}")
    return record, result


def summarize(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med
    return {
        "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
        "within_bound": spread <= bound, "below_third": spread < bound / 3,
        "values": values,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    spec = run.load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    doc = {"runs": args.runs, "run_seconds": seconds, "workloads": {}}
    for name in args.workloads.split(","):
        values, record = {m: [] for m in bounds}, None
        for k in range(args.runs):
            record, result = one_run(name, args.seed0 + k, seconds, 0)
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        entry = {
            "params": record["params"],
            "seeds": [args.seed0 + k for k in range(args.runs)],
            "end_to_end": {m: summarize(v, bounds[m]) for m, v in values.items()},
        }
        for m, s in entry["end_to_end"].items():
            flag = "" if s["below_third"] else (
                "  above bound/3" if s["within_bound"] else "  ABOVE BOUND")
            print(f"{name:15} {m:12} median {s['median']:12.4f}  spread "
                  f"{s['spread']:.4f}  bound {s['bound']}{flag}", flush=True)
        if args.traced:
            record, result = one_run(name, args.seed0, seconds, 1)
            entry["per_layer"] = {
                m: v["value"] for m, v in result["metrics"].items()}
            entry["probe_metrics"] = record["probe_metrics"]
        doc["workloads"][name] = entry
    doc.update({
        "commit": record["commit"],
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
    })
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    bad = [(w, m) for w, e in doc["workloads"].items()
           for m, s in e["end_to_end"].items() if not s["within_bound"]]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
