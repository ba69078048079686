"""latmodel benchmark: pinned workloads driven through ``latmodel.cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/`` of the
same tree, never from an installed copy.  With ``--trace 0`` the run times
whole passes of the workload for ``--seconds`` seconds and reports the
end-to-end metrics; with ``--trace 1`` it replays the workload as traced calls
into the library's public functions and reports the per-layer metrics.
Every output is verified.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it is the full results record, which is also appended to
``perfbench/out/results.jsonl``.  ``--smoke`` swaps in small inputs for the
self-check (``perfbench/selfcheck.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 8  # taken before the passes, and as many again after
SETUP_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (benchmark module next to this file)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_library():
    """Import latmodel from this tree's src/ and refuse any other copy."""
    if not (SRC / "latmodel" / "__init__.py").is_file():
        fail(f"no latmodel sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import latmodel
    import latmodel.cli

    if Path(latmodel.__file__).resolve().parent != (SRC / "latmodel").resolve():
        fail(f"imported latmodel from {latmodel.__file__}, not from {SRC}")
    return latmodel


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail("BENCHMARK.json not found at the repository root")
    return json.loads(path.read_text(encoding="utf-8"))


def source_id():
    """Commit from .git when present, else a digest of the library sources
    (benchmark checkouts carry no .git)."""
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                return ref_file.read_text().strip()
        else:
            return ref
    h = hashlib.sha256()
    for p in sorted((SRC / "latmodel").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def measure_setup(fields):
    """Set-up times of fresh processes: import latmodel (and its CLI) and
    build the workload's contexts, small_field, rational_ctx and
    truncated_ctx for every field size.  Interpreter start-up is excluded."""
    qs = ",".join(str(q) for q in sorted({q for _, q in fields}))
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import latmodel, latmodel.cli\n"
        f"for q in ({qs},):\n"
        "    F = latmodel.small_field(q)\n"
        "    latmodel.rational_ctx(F); latmodel.truncated_ctx(F)\n"
        "print(time.perf_counter() - t0)\n"
    )
    samples = []
    for _ in range(SETUP_SAMPLES):
        res = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True,
            text=True, timeout=SETUP_TIMEOUT_S,
        )
        if res.returncode != 0:
            fail(f"set-up probe failed: {res.stderr.strip()}")
        samples.append(float(res.stdout.strip()))
    return samples


def percentile(values, p):
    """Nearest-rank percentile."""
    s = sorted(values)
    k = max(0, min(len(s) - 1, -(-p * len(s) // 100) - 1))
    return s[int(k)]


def untraced(workload, main, checker, seconds):
    """Passes for ``seconds``, with set-up probes before and after them so
    that set-up time samples the same stretch of host load as the passes."""
    setup = measure_setup(workload.fields)
    passes = workloads.run_timed(workload, main, checker, seconds)
    setup += measure_setup(workload.fields)
    # A batch workload's pass is one to three long CLI calls, too few for a
    # stable median; its request latency is that of the whole pass.
    lat_ms = [1000 * x for p in passes
              for x in ([p.wall_s] if workload.batch else p.latencies_s)]
    busy = sum(p.wall_s for p in passes)
    metrics = {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
        "req_p50_ms": (statistics.median(lat_ms), "ms"),
        "req_p90_ms": (percentile(lat_ms, 90), "ms"),
        "items_per_s": (sum(p.items for p in passes) / busy, "1/s"),
    }
    extra = {
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "requests": sum(len(p.latencies_s) for p in passes),
        "latency_samples": len(lat_ms),
        "samples_beyond_p90": sum(x > metrics["req_p90_ms"][0] for x in lat_ms),
        "setup_samples_s": setup,
        "item_unit": workloads.ITEM_UNIT[workload.name],
    }
    if workload.name == "poset-e4q2":
        extra["certified_ratio"] = min(
            workloads.certified_ratio(text)
            for p in passes for rc, text in p.outputs
        )
    failures = [f for p in passes for f in p.failures]
    return metrics, extra, extra["requests"], failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs, for the self-check only")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")

    spec = load_spec()
    latmodel = load_library()
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)

    workload = workloads.build(
        args.workload, args.seed, args.smoke, latmodel, OUT / "chains"
    )
    checker = workloads.Checker(workload, expected["outputs"])
    if args.trace:
        import tracing

        metrics, extra, attempted, failures = tracing.traced(
            workload, latmodel, checker, args.seed, OUT
        )
        wanted = spec["per_layer"]
    else:
        metrics, extra, attempted, failures = untraced(
            workload, latmodel.cli.main, checker, args.seconds
        )
        wanted = spec["end_to_end"]

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    wrong_unit = [
        m["name"] for m in wanted
        if m["name"] in metrics and metrics[m["name"]][1] != m["unit"]
    ]
    if missing or wrong_unit:
        fail(f"metrics missing {missing} or with a wrong unit {wrong_unit}")

    failed = len(failures)
    record = {
        "workload": workload.name,
        "trace": args.trace,
        "smoke": args.smoke,
        "seed": args.seed,
        "seconds": args.seconds,
        "params": workload.params,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": source_id(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": failures[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }
    line = json.dumps(record, sort_keys=True)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
