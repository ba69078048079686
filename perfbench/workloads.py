"""The pinned latmodel workloads: their inputs, one timed pass, and its checks.

Every workload is a closed loop with one client: the next ``cli.main``
request starts when the previous one has returned.  Each request's output
is checked against the exit code and sha256 recorded at the seed commit
(``expected.json``), against the first pass of the same run (outputs must
repeat byte for byte), and by a workload-specific semantic check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import time
from dataclasses import dataclass, field

JOBS = "1"  # every request pins --jobs; the load is one single-threaded process

# (e, q) pairs of the request stream, chains drawn per pair, and the
# smoke-sized variants used by the self-check.
RAISE_FIELDS = ((4, 3), (4, 4), (5, 2))
RAISE_PER_FIELD = 40
SMOKE_RAISE_FIELDS = ((3, 2), (3, 3))
SMOKE_RAISE_PER_FIELD = 3

INVOCATIONS = {
    "census-fields": [
        ["census", "--e", "4", "--q", "4,5,7"],
        ["census", "--e", "3", "--q", "8,9"],
    ],
    "verify-lemmas": [
        ["verify", "--suite", s, "--e", "4", "--q", "2"]
        for s in ("hodge", "hasse", "flatness")
    ],
    "poset-e4q2": [["poset", "--e", "4", "--q", "2", "--format", "json"]],
}
SMOKE_INVOCATIONS = {
    "census-fields": [
        ["census", "--e", "2", "--q", "4,5"],
        ["census", "--e", "2", "--q", "8"],
    ],
    "verify-lemmas": [
        ["verify", "--suite", s, "--e", "3", "--q", "2"]
        for s in ("hasse", "flatness")
    ],
    "poset-e4q2": [["poset", "--e", "3", "--q", "2", "--format", "json"]],
}
WORKLOADS = ("census-fields", "verify-lemmas", "poset-e4q2", "raise-requests")

# Unit of work behind items_per_s, per workload.
ITEM_UNIT = {
    "census-fields": "chains counted",
    "verify-lemmas": "checks passed",
    "poset-e4q2": "edge points certified",
    "raise-requests": "requests answered",
}


@dataclass
class Request:
    argv: list
    key: str  # key of the expected exit code and digest
    label: str = ""  # input chain label (raise-requests only)
    chain: object = None  # input chain (raise-requests only)


@dataclass
class Workload:
    name: str
    requests: list
    params: dict
    fields: list  # (e, q) pairs whose contexts the workload builds
    batch: bool = True  # a pass is a few long calls, not a request stream


@dataclass
class PassResult:
    wall_s: float
    latencies_s: list
    outputs: list  # (rc, stdout text) per request
    items: int = 0
    failures: list = field(default_factory=list)


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def invocation_key(argv):
    return " ".join(argv)


def raise_key(e, q, index):
    return f"deform hodge-raise e={e} q={q} chain={index}"


# fields the verify suites sample for their degree fits, whatever --q says
SUITE_FIELDS = {"hodge": {2, 3, 4, 5, 7}, "flatness": {2, 3, 4, 5}}


def fields_of(argv):
    """(e, q) pairs a request works over."""
    e = int(argv[argv.index("--e") + 1])
    qs = {int(q) for q in argv[argv.index("--q") + 1].split(",")}
    if argv[0] == "verify":
        qs |= SUITE_FIELDS.get(argv[argv.index("--suite") + 1], set())
    return [(e, q) for q in sorted(qs)]


def raise_candidates(latmodel, e, q):
    """Chains at (e, q) in enumeration order and the indices of the
    non-maximal ones (hodge pair below (e, 0)), which hodge-raise accepts."""
    chains = latmodel.enumerate_chains(e, latmodel.small_field(q))
    return chains, [
        i for i, c in enumerate(chains) if latmodel.hodge(c.top) != (e, 0)
    ]


def _stratified_sample(rng, cand, labels, k):
    """k indices drawn so that each stratum label keeps its share of the
    candidates (largest remainder).  The cost of a request depends mostly
    on the label, so the stream's total work hardly varies with the seed."""
    by_label = {}
    for i in cand:
        by_label.setdefault(labels[i], []).append(i)
    quota = {lab: k * len(ix) / len(cand) for lab, ix in by_label.items()}
    take = {lab: int(x) for lab, x in quota.items()}
    rest = sorted(quota, key=lambda lab: (int(quota[lab]) - quota[lab], lab))
    for lab in rest[: k - sum(take.values())]:
        take[lab] += 1
    return sorted(
        i for lab in sorted(by_label) for i in rng.sample(by_label[lab], take[lab])
    )


def build(name, seed, smoke, latmodel, workdir):
    """The workload's requests.  Only raise-requests depends on the seed:
    it picks its chains per (e, q) and shuffles the stream, and writes the
    chain files under ``workdir`` before anything is timed."""
    if name != "raise-requests":
        table = SMOKE_INVOCATIONS if smoke else INVOCATIONS
        argvs = [list(a) for a in table[name]]
        fields = sorted({f for a in argvs for f in fields_of(a)})
        return Workload(
            name,
            [Request(a + ["--jobs", JOBS], invocation_key(a)) for a in argvs],
            {"invocations": [" ".join(a) for a in argvs], "jobs": int(JOBS)},
            fields,
        )
    pairs = SMOKE_RAISE_FIELDS if smoke else RAISE_FIELDS
    per = SMOKE_RAISE_PER_FIELD if smoke else RAISE_PER_FIELD
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    requests = []
    for e, q in pairs:
        chains, cand = raise_candidates(latmodel, e, q)
        labels = {i: latmodel.stratum_label(chains[i]).serialize() for i in cand}
        for i in _stratified_sample(rng, cand, labels, per):
            chain = chains[i]
            path = workdir / f"chain_e{e}_q{q}_{i}.json"
            path.write_text(json.dumps(chain.serialize()), encoding="utf-8")
            requests.append(
                Request(
                    ["deform", "--chain", str(path), "--recipe", "hodge-raise",
                     "--jobs", JOBS],
                    raise_key(e, q, i),
                    labels[i],
                    chain,
                )
            )
    rng.shuffle(requests)
    return Workload(
        name, requests,
        {"request_mix": {f"e={e},q={q}": per for e, q in pairs},
         "requests": len(requests), "jobs": int(JOBS)},
        list(pairs),
        batch=False,
    )


def call_cli(main, argv):
    """One request through ``cli.main``: (exit code, stdout, seconds).
    An exception escaping ``main`` is a failed request, reported as rc None."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception as exc:  # counted as a failure, never re-raised
            rc = None
            err.write(f"{type(exc).__name__}: {exc}")
    return rc, out.getvalue(), time.perf_counter() - t0


_LAMBDA = re.compile(r"lambda=\((\d+),(\d+)\)")


def _semantic_check(name, req, text):
    """Workload-specific check of one output; returns (items, error)."""
    if name == "census-fields":
        totals = {}
        for line in text.splitlines()[1:]:
            cols = line.split(",")
            e, q, n = int(cols[0]), int(cols[1]), int(cols[-1])
            totals[(e, q)] = totals.get((e, q), 0) + n
        bad = [k for k, n in totals.items() if n != (k[1] + 1) ** k[0]]
        return sum(totals.values()), (f"census mass wrong at {bad}" if bad else "")
    obj = json.loads(text)
    if name == "verify-lemmas":
        checks = sum(
            len(c.get("fits", [])) or 1
            for s in obj["suites"] for c in s["checks"]
        )
        return checks, ("" if obj["ok"] else "suite reported failure")
    if name == "poset-e4q2":
        points = sum(e["points"] for e in obj["linear"]["edges"])
        cert = sum(e["certified"] for e in obj["linear"]["edges"])
        if not obj["ok"] or cert != points:
            return cert, f"certified {cert} of {points} edge points"
        return cert, ""
    # raise-requests
    if obj["specialization_label"] != req.label:
        return 0, "specialization label differs from the input label"
    i, j = map(int, _LAMBDA.match(req.label).groups())
    gi, gj = map(int, _LAMBDA.match(obj["generic_label"]).groups())
    if (gi, gj) != (i + 1, j - 1):
        return 0, f"generic lambda ({gi},{gj}) is not ({i + 1},{j - 1})"
    return 1, ""


def certified_ratio(text):
    obj = json.loads(text)
    points = sum(e["points"] for e in obj["linear"]["edges"])
    return sum(e["certified"] for e in obj["linear"]["edges"]) / points


class Checker:
    """Verifies every output of a run against the seed-commit record and
    against the first pass of the same run."""

    def __init__(self, workload, expected):
        self.workload = workload
        self.expected = expected
        self.first = {}

    def check(self, req, rc, text):
        """Returns (items, error); error is '' when the output verified."""
        exp = self.expected.get(req.key)
        if exp is None:
            return 0, f"no recorded digest for {req.key!r}"
        if rc != exp["exit"]:
            return 0, f"exit code {rc}, expected {exp['exit']}"
        digest = sha256(text)
        if not digest.startswith(exp["sha256"]):
            return 0, "output differs from the seed-commit digest"
        if self.first.setdefault(req.key, digest) != digest:
            return 0, "output differs between repetitions"
        return _semantic_check(self.workload.name, req, text)


def run_pass(workload, main, checker):
    """One closed-loop pass; outputs are checked after the clock stops."""
    latencies, outputs = [], []
    t0 = time.perf_counter()
    for req in workload.requests:
        rc, text, dt = call_cli(main, req.argv)
        latencies.append(dt)
        outputs.append((rc, text))
    wall = time.perf_counter() - t0
    result = PassResult(wall, latencies, outputs)
    for req, (rc, text) in zip(workload.requests, outputs):
        n, err = checker.check(req, rc, text)
        result.items += n
        if err:
            result.failures.append(f"{req.key}: {err}")
    return result


def run_timed(workload, main, checker, seconds):
    """Passes until the next one would end past ``seconds``; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, main, checker))
        typical = sorted(p.wall_s for p in passes)[len(passes) // 2]
        if time.perf_counter() - start + typical > seconds:
            return passes
