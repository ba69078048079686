"""Record the expected exit code and output sha256 of every benchmark request.

    python3 perfbench/record_expected.py

Run at the commit whose outputs are the reference (the seed commit of the
benchmark); it rewrites ``perfbench/expected.json``.  It covers every fixed
invocation, full-size and smoke-size, and ``deform --recipe hodge-raise`` on
every non-maximal chain the raise-requests stream can draw, whatever the
seed.  Per-chain digests are kept to their first 16 hex digits.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main():
    latmodel = run.load_library()
    main_fn = latmodel.cli.main
    outputs = {}

    def record(argv, key, digits=64):
        rc, text, _ = workloads.call_cli(main_fn, argv)
        if rc is None:
            run.fail(f"{key}: the request raised")
        outputs[key] = {"exit": rc, "sha256": workloads.sha256(text)[:digits]}
        print(f"{key}: exit {rc}", file=sys.stderr)

    for table in (workloads.INVOCATIONS, workloads.SMOKE_INVOCATIONS):
        for argvs in table.values():
            for argv in argvs:
                record(argv + ["--jobs", workloads.JOBS],
                       workloads.invocation_key(argv))
    chain_dir = run.OUT / "chains"
    chain_dir.mkdir(parents=True, exist_ok=True)
    for e, q in workloads.RAISE_FIELDS + workloads.SMOKE_RAISE_FIELDS:
        chains, cand = workloads.raise_candidates(latmodel, e, q)
        for i in cand:
            path = chain_dir / f"chain_e{e}_q{q}_{i}.json"
            path.write_text(json.dumps(chains[i].serialize()), encoding="utf-8")
            record(["deform", "--chain", str(path), "--recipe", "hodge-raise",
                    "--jobs", workloads.JOBS],
                   workloads.raise_key(e, q, i), digits=16)
    lines = [
        f"  {json.dumps(k)}: {json.dumps(outputs[k], sort_keys=True)}"
        for k in sorted(outputs)
    ]
    (run.HERE / "expected.json").write_text(
        f'{{"commit": {json.dumps(run.source_id())},\n"outputs": {{\n'
        + ",\n".join(lines) + "\n}}\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    main()
