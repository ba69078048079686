"""Traced run: the workload replayed as spans around library calls.

A traced run has these phases; each tags its spans with a run id:

* an ordinary pass through ``cli.main``, untraced and verified; its wall
  time is the reference for the tracing overhead;
* ``replay`` -- the same requests as calls into the public functions the
  CLI handlers call, one span per call, compared with the pass's outputs
  (raise-requests gives each request its own id, ``replay:<n>``);
* ``drill`` -- the workload's inputs taken one layer down: chain enumeration
  per (e, q) and, for poset-e4q2, a witness search on every lower point of
  each edge whose reported method includes ``search``;
* ``sample`` -- single-layer calls on operands, levels and chains the seed
  samples from the workload's own values;
* ``probe`` -- layers the workload never reaches, measured on a small fixed
  input so that every per-layer metric exists on every workload.  Metrics
  taken only from probe spans are listed under ``probe_metrics``.

Spans are (name, start, end, parent, run id, ops), kept in memory and
written to ``perfbench/out/`` when the run ends.  The first dotted part of a
span name is its layer, one of the library's modules.  No library code is
patched: every span wraps a call made here.  Timings inside a span include
the loop and call overhead of this file, at most a few hundred ns per op.
Import this module only after ``run.load_library()`` has put the tree's
``src/`` on the path.
"""

from __future__ import annotations

import contextlib
import json
import random
import statistics
import time

import workloads
from latmodel import strata
from latmodel.chains import group_generators, orbit_transports
from latmodel.cli import FIT_SAMPLE_Q
from latmodel.deform import with_precision_retry
from latmodel.errors import DegenerateF, NotFound
from latmodel.strata import census_csv, fiber_constancy
from latmodel.umod import Subspace

LAYERS = ("scalars", "umod", "chains", "invariants", "dieudonne", "deform",
          "strata", "cli")
SCALAR_PAIRS = 400
SCALAR_BATCHES = 5
SAMPLE_CHAINS = 40
SAMPLE_LEVELS = 60
SAMPLE_REQUESTS = 6
FIBER_CALLS = 10
PROBE_FIELD = (3, 2)  # (e, q) of the fixed input for layers a workload skips


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.run_id = None

    @contextlib.contextmanager
    def span(self, name, ops=1):
        parent = self.stack[-1] if self.stack else None
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.run_id, ops)

    @contextlib.contextmanager
    def phase(self, run_id):
        prev, self.run_id = self.run_id, run_id
        try:
            yield
        finally:
            self.run_id = prev

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def named(self, name):
        return [s for s in self.spans if s[0] == name]

    def self_times(self):
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] is not None:
                child[s[3]] += s[2] - s[1]
        out = dict.fromkeys(LAYERS, 0.0)
        for i, s in enumerate(self.spans):
            out[s[0].split(".")[0]] += s[2] - s[1] - child[i]
        return out

    def coverage(self, t0, t1):
        """Share of [t0, t1] covered by root spans."""
        ivs = sorted((s[1], s[2]) for s in self.spans
                     if s[3] is None and t0 <= s[1] and s[2] <= t1)
        covered, end = 0.0, t0
        for a, b in ivs:
            a = max(a, end)
            if b > a:
                covered += b - a
                end = b
        return covered / (t1 - t0)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class Verdict:
    """Checks made on traced outputs: how many, and which failed."""

    def __init__(self):
        self.checks = 0
        self.failures = []

    def expect(self, ok, what):
        self.checks += 1
        if not ok:
            self.failures.append(what)


class Pool:
    """Workload values the samples draw from."""

    def __init__(self):
        self.chains = {}  # (e, q) -> enumerated chains
        self.families = []  # K(t) families
        self.truncated = []  # K[t]/(t^N) families


def _kind(ctx):
    return "prime" if ctx.kind == "prime" else "ext"


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


# ----------------------------------------------------------------------
# replays: the CLI handlers' library calls, checked against the pass
# ----------------------------------------------------------------------
def _replay_census(tr, lm, workload, ref, v):
    for req, (_, text) in zip(workload.requests, ref.outputs):
        censuses = [
            tr.call("strata.census", lm.census, e, lm.small_field(q))
            for e, q in workloads.fields_of(req.argv)
        ]
        v.expect(census_csv(censuses) == text, f"replay of {req.key} differs")


def _fit_degrees(tr, lm, samples):
    return [tr.call("strata.degree_fit", lm.degree_fit, s).degree
            for _, s in sorted(samples.items())]


def _replay_verify(tr, lm, workload, ref, pool, v):
    """The hodge, hasse and flatness suites through the strata, dieudonne
    and deform functions they call; fit degrees must match the CLI's."""
    for req, (_, text) in zip(workload.requests, ref.outputs):
        suite = _arg(req.argv, "--suite")
        e = int(_arg(req.argv, "--e"))
        qs = [int(q) for q in _arg(req.argv, "--q").split(",")]
        want = [f["degree"] for c in json.loads(text)["suites"][0]["checks"]
                for f in c.get("fits", [])]
        got = []
        if suite == "hodge":
            for ee in range(1, 5):
                for q in (2, 3, 4, 5):
                    c = tr.call("strata.census", lm.census, ee, lm.small_field(q))
                    v.expect(c.total() == (q + 1) ** ee, f"census mass e={ee} q={q}")
            by = ({}, {}, {})
            for q in FIT_SAMPLE_Q:
                F = lm.small_field(q)
                for d, fn in zip(by, (strata.chain_counts_by_hodge,
                                      strata.lattice_counts_by_hodge,
                                      strata.chain_counts_by_T)):
                    for k, n in tr.call("strata." + fn.__name__, fn, e, F).items():
                        d.setdefault(k, {})[q] = n
            for d in by:
                got += _fit_degrees(tr, lm, d)
        elif suite == "hasse":
            for q in qs:
                F = lm.small_field(q)
                tr.call("strata.emptiness_table", lm.emptiness_table, e, F)
                viol, _ = tr.call("strata.hodge_step_check",
                                  strata.hodge_step_check, e, F)
                v.expect(not viol, f"hodge-step violations at q={q}")
            if e == 4:
                F = lm.small_field(qs[0])
                model, chain = tr.call("dieudonne.ag_witness", lm.ag_witness,
                                       2, 1, F)
                lab = tr.call("dieudonne.labeled_with_m1", lm.labeled_with_m1,
                              model, chain)
                fam = _invert_m1(tr, lm, model, chain)
                pool.truncated.append(fam)
                gen = tr.call("deform.generic_label", fam.generic_label)
                v.expect(gen == lab.with_m1("1"), "m1 inversion label")
        else:
            samples = {}
            for q in sorted(set(qs) | {2, 3, 4, 5}):
                fc = tr.call("strata.fiber_constancy", strata.fiber_constancy,
                             e, lm.small_field(q))
                for lam, (cnt, _) in fc.items():
                    samples.setdefault(lam, {})[q] = cnt
            got = _fit_degrees(tr, lm, samples)
        v.expect(got == want, f"replay of {req.key}: fit degrees {got} != {want}")


def _invert_m1(tr, lm, model, chain):
    with tr.span("deform.invert_m1"):
        return with_precision_retry(lm.invert_m1, model, chain)


def _replay_poset(tr, lm, e, q, ref_text, v):
    F = lm.small_field(q)
    model = None
    if e == 4:
        model = tr.call("dieudonne.ag_witness", lm.ag_witness, 2, 1, F)[0]
    rep = tr.call("strata.build_poset", lm.build_poset, e, F, model=model)
    if ref_text is not None:
        v.expect(rep.to_json() == ref_text, "replay of poset differs")
    return rep


def _deform_output(tr, lm, fam):
    """The deform handler's output document, its library calls traced."""
    spec = tr.call("deform.specialize", fam.specialize)
    sl = tr.call(f"invariants.stratum_label.{_kind(spec.ctx)}",
                 lm.stratum_label, spec)
    gl = tr.call("deform.generic_label", fam.generic_label)
    out = fam.serialize()
    out["specialization_label"] = sl.serialize()
    out["generic_label"] = gl.serialize()
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


def _raise_request(tr, lm, chain):
    """hodge-raise on a chain as the deform handler runs it; returns the
    family, the output text and the seconds spent in library calls."""
    before = len(tr.spans)
    fam = tr.call("deform.hodge_raise", lm.hodge_raise, chain)
    text = _deform_output(tr, lm, fam)
    lib = sum(s[2] - s[1] for s in tr.spans[before:] if s[3] is None)
    return fam, text, lib


def _replay_raise(tr, lm, workload, ref, pool, v):
    """Returns the CLI overhead of each request: its latency in the pass
    minus the library calls it wraps (parsing and JSON in and out)."""
    overhead = []
    for k, (req, (_, text), dt) in enumerate(
            zip(workload.requests, ref.outputs, ref.latencies_s)):
        with tr.phase(f"replay:{k}"):
            fam, out, lib = _raise_request(tr, lm, req.chain)
        pool.families.append(fam)
        v.expect(out == text, f"replay of {req.key} differs")
        overhead.append(dt - lib)
    return overhead


# ----------------------------------------------------------------------
# drill-down
# ----------------------------------------------------------------------
def _search_edges(tr, lm, e, q, rep, chains, pool, v):
    """Search every lower point of each edge whose method includes
    ``search``; transport a found orbit-mate's family to each point the
    search misses, as build_poset does.  Returns (calls, found)."""
    F = lm.small_field(q)
    groups = {}
    for c in chains:
        lab = tr.call(f"invariants.stratum_label.{_kind(F)}", lm.stratum_label, c)
        groups.setdefault(lab.linear(), []).append(c)
    calls = found = 0
    transports = None
    for edge in json.loads(rep.to_json())["linear"]["edges"]:
        if "search" not in edge["method"]:
            continue
        lower = lm.StratumLabel.parse(edge["lower"])
        upper = lm.StratumLabel.parse(edge["upper"])
        certified, pending = {}, []
        for point in groups[lower]:
            calls += 1
            try:
                fam = tr.call("deform.search_witness", lm.search_witness,
                              point, upper)
            except NotFound:
                pending.append(point)
                continue
            found += 1
            pool.families.append(fam)
            spec = tr.call("deform.specialize", fam.specialize)
            gen = tr.call("deform.generic_label", fam.generic_label)
            v.expect(spec == point and gen.linear() == upper,
                     f"search family off target on {edge['lower']}")
            certified[point.key()] = fam
        for point in pending:
            if transports is None:
                transports = tr.call("chains.orbit_transports",
                                     orbit_transports, e, F)
            orbit_rep, gp = transports[point.key()]
            mate = next((k for k in certified
                         if transports[k][0].key() == orbit_rep.key()), None)
            v.expect(mate is not None, f"no orbit-mate on {edge['lower']}")
            if mate is None:
                continue
            g = gp.compose(transports[mate][1].inverse())
            fam = tr.call("deform.transport_family", lm.transport_family,
                          certified[mate], g)
            spec = tr.call("deform.specialize", fam.specialize)
            gen = tr.call("deform.generic_label", fam.generic_label)
            v.expect(spec == point and gen.linear() == upper,
                     f"transported family off target on {edge['lower']}")
        v.expect(len(groups[lower]) == edge["points"],
                 f"edge {edge['lower']} point count")
    return calls, found


def _m1_layer(tr, lm, q, chains, rep, pool, v):
    """labeled_with_m1 on every chain and invert_m1 at each m1 = 0 witness,
    as the m1-refined layer of build_poset does."""
    model = lm.ag_witness(2, 1, lm.small_field(q))[0]
    witnesses = {}
    for c in chains:
        try:
            lab = tr.call("dieudonne.labeled_with_m1", lm.labeled_with_m1,
                          model, c)
        except DegenerateF:
            continue
        witnesses.setdefault(lab, c)
    inverted = 0
    for lab in sorted(witnesses, key=lm.StratumLabel.key):
        if lab.m1 == "0":
            fam = _invert_m1(tr, lm, model, witnesses[lab])
            pool.truncated.append(fam)
            gen = tr.call("deform.generic_label", fam.generic_label)
            v.expect(gen == lab.with_m1("1"), f"m1 inversion at {lab.serialize()}")
            inverted += 1
    edges = json.loads(rep.to_json())["m1_refined"]["edges"]
    v.expect(inverted == sum(x["method"] == "invert-m1" for x in edges),
             "invert-m1 edge count")


# ----------------------------------------------------------------------
# samples
# ----------------------------------------------------------------------
def _coeffs(levels, rng, k):
    vals = [c for w in levels for row in w.rows for c in row]
    return [rng.choice(vals) for _ in range(k)]


def _time_ops(tr, name, fn, *operands):
    for _ in range(SCALAR_BATCHES):
        with tr.span(name, ops=len(operands[0])):
            for args in zip(*operands):
                fn(*args)


def _sample_scalars(tr, lm, rng, pool, chains):
    """Scalar ops on coefficient pairs drawn from the levels of the
    workload's chains and families, timed per context."""
    levels = {}
    for obj in chains + pool.families + pool.truncated:
        for w in obj.levels:
            levels.setdefault(w.ctx, []).append(w)
    if not any(ctx.kind == "extension" for ctx in levels):
        F4 = lm.small_field(4)
        with tr.phase("probe"):
            _sample_ctx(tr, rng, F4, [w for c in lm.enumerate_chains(2, F4)
                                      for w in c.levels])
    for ctx in sorted(levels, key=repr):
        _sample_ctx(tr, rng, ctx, levels[ctx])


SCALAR_OPS = {
    "prime": ("mul",),
    "extension": ("mul", "inv"),
    "rational_t": ("add", "mul"),
    "truncated_t": ("mul", "inv"),
}
SCALAR_NAMES = {"prime": "prime", "extension": "ext", "rational_t": "rational",
                "truncated_t": "truncated"}


def _sample_ctx(tr, rng, ctx, levels):
    xs, ys = (_coeffs(levels, rng, SCALAR_PAIRS) for _ in "xy")
    for op in SCALAR_OPS[ctx.kind]:
        name = f"scalars.{SCALAR_NAMES[ctx.kind]}.{op}"
        if op == "inv":
            units = [x for x in xs if ctx.is_unit(x)] or [ctx.one()]
            _time_ops(tr, name, ctx.inv, units)
        else:
            _time_ops(tr, name, getattr(ctx, op), xs, ys)


def _sample_umod(tr, prefix, levels):
    for w in levels:
        tr.call(f"{prefix}.span", Subspace.span, w.ctx, w.N, w.basis())
        tr.call(f"{prefix}.u_image", w.u_image)
        tr.call(f"{prefix}.u_preimage", w.u_preimage)
        b = w.basis()
        tr.call(f"{prefix}.reduce", w.reduce, b[0].add(b[-1].u_mult()).u_mult())


def _sample_layers(tr, lm, rng, pool, v):
    """Per-call timings on sampled workload values; returns the chains."""
    chains = [c for _, cs in sorted(pool.chains.items())
              for c in rng.sample(cs, min(SAMPLE_CHAINS, len(cs)))]
    for c in chains:
        tr.call(f"invariants.stratum_label.{_kind(c.ctx)}", lm.stratum_label, c)
        tr.call("invariants.hodge", lm.hodge, c.top)
    if not any(c.ctx.kind == "extension" for c in chains):
        with tr.phase("probe"):
            for c in lm.enumerate_chains(2, lm.small_field(4)):
                tr.call("invariants.stratum_label.ext", lm.stratum_label, c)
    levels = [w for c in chains for w in c.levels]
    _sample_umod(tr, "umod", rng.sample(levels, min(SAMPLE_LEVELS, len(levels))))
    for c in rng.sample(chains, min(FIBER_CALLS, len(chains))):
        fib = tr.call("chains.fiber_chains", lm.fiber_chains, c.top, c.e)
        v.expect(c in fib, "a chain is missing from the fiber over its top")

    # K(t) families: when the workload made none, hodge-raise some of its
    # non-maximal chains at its smallest field.
    if not pool.families:
        small = min(pool.chains, key=lambda eq: len(pool.chains[eq]))
        nonmax = [c for c in pool.chains[small] if lm.hodge(c.top) != (c.e, 0)]
        for c in rng.sample(nonmax, min(SAMPLE_REQUESTS, len(nonmax))):
            pool.families.append(_raise_request(tr, lm, c)[0])
    for fam in rng.sample(pool.families, min(SAMPLE_REQUESTS, len(pool.families))):
        tr.call("invariants.stratum_label.kt", lm.stratum_label, fam.as_chain())
    kt_levels = [w for f in pool.families for w in f.levels]
    _sample_umod(tr, "umod.kt",
                 rng.sample(kt_levels, min(SAMPLE_LEVELS // 3, len(kt_levels))))

    # Frobenius models live at e = 4; the m1 inversion makes the
    # truncated-series families.
    e4 = [eq for eq in sorted(pool.chains) if eq[0] == 4]
    with tr.phase("sample" if e4 else "probe"):
        e, q = e4[0] if e4 else (4, 2)
        F = lm.small_field(q)
        model, wchain = lm.ag_witness(2, 1, F)
        e4chains = pool.chains.get((e, q)) or lm.enumerate_chains(e, F)
        for c in rng.sample(e4chains, min(SAMPLE_CHAINS, len(e4chains))):
            with contextlib.suppress(DegenerateF):
                tr.call("dieudonne.labeled_with_m1", lm.labeled_with_m1, model, c)
    if not pool.truncated:
        with tr.phase("probe"):
            pool.truncated.append(_invert_m1(tr, lm, model, wchain))
    return chains


def _sampled_cli_overhead(tr, lm, rng, chains, workdir, v):
    """hodge-raise requests through cli.main on sampled non-maximal chains,
    each minus the library calls the handler makes."""
    nonmax = [c for c in chains if lm.hodge(c.top) != (c.e, 0)]
    workdir.mkdir(parents=True, exist_ok=True)
    overhead = []
    for k, c in enumerate(rng.sample(nonmax, min(SAMPLE_REQUESTS, len(nonmax)))):
        path = workdir / f"sample_{k}.json"
        path.write_text(json.dumps(c.serialize()), encoding="utf-8")
        argv = ["deform", "--chain", str(path), "--recipe", "hodge-raise",
                "--jobs", workloads.JOBS]
        with tr.span("cli.main"):
            rc, text, dt = workloads.call_cli(lm.cli.main, argv)
        _, out, lib = _raise_request(tr, lm, c)
        v.expect(rc == 0 and out == text, "sampled request disagrees with replay")
        overhead.append(dt - lib)
    return overhead


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
def traced(workload, lm, checker, seed, out_dir):
    rng = random.Random(seed)
    tr, pool, v = Tracer(), Pool(), Verdict()
    name = workload.name
    ref = workloads.run_pass(workload, lm.cli.main, checker)
    for f in ref.failures:
        v.expect(False, f)
    v.checks += len(workload.requests) - len(ref.failures)

    t0 = time.perf_counter()
    overhead = None
    with tr.phase("replay"):
        if name == "census-fields":
            _replay_census(tr, lm, workload, ref, v)
        elif name == "verify-lemmas":
            _replay_verify(tr, lm, workload, ref, pool, v)
        elif name == "poset-e4q2":
            (e, q), = workload.fields
            rep = _replay_poset(tr, lm, e, q, ref.outputs[0][1], v)
        else:
            overhead = _replay_raise(tr, lm, workload, ref, pool, v)
    t_replay = time.perf_counter()
    with tr.phase("drill"):
        for e, q in workload.fields:
            pool.chains[(e, q)] = tr.call(
                "chains.enumerate_chains", lm.enumerate_chains, e,
                lm.small_field(q))
        if name == "poset-e4q2":
            calls, found = _search_edges(tr, lm, e, q, rep, pool.chains[(e, q)],
                                         pool, v)
            if e == 4:  # build_poset has an m1 layer only with a model
                _m1_layer(tr, lm, q, pool.chains[(e, q)], rep, pool, v)
    t_drill = time.perf_counter()
    with tr.phase("probe"):
        if name != "poset-e4q2":
            e, q = PROBE_FIELD
            F = lm.small_field(q)
            rep = _replay_poset(tr, lm, e, q, None, v)
            calls, found = _search_edges(tr, lm, e, q, rep,
                                         lm.enumerate_chains(e, F), Pool(), v)
            if not tr.named("chains.orbit_transports"):
                tr.call("chains.orbit_transports", orbit_transports, e, F)
        if not tr.named("strata.census"):
            tr.call("strata.census", lm.census, e, lm.small_field(q))
        if not tr.named("strata.degree_fit"):
            tr.call("strata.degree_fit", lm.degree_fit,
                    {q: (q + 1) ** e for q in (2, 3, 4, 5)})
        if not tr.named("strata.fiber_constancy"):
            tr.call("strata.fiber_constancy", fiber_constancy, e, lm.small_field(q))
    with tr.phase("sample"):
        chains = _sample_layers(tr, lm, rng, pool, v)
        sampled = _sampled_cli_overhead(tr, lm, rng, chains,
                                        out_dir / "chains", v)
        overhead = overhead or sampled
        if not tr.named("deform.transport_family"):
            fam = pool.families[0]
            g = group_generators(fam.base_ctx, fam.e)[0]
            tr.call("deform.transport_family", lm.transport_family, fam, g)
        _sample_scalars(tr, lm, rng, pool, chains)

    metrics, probe_only = _metrics(tr)
    metrics.update({
        "deform.search_witness.calls": (calls, "count"),
        "deform.search_witness.found_ratio": (found / calls, "ratio"),
        "cli.overhead_ms": (1000 * statistics.median(overhead), "ms"),
        "trace.span_coverage": (tr.coverage(t0, t_drill), "ratio"),
        "trace.replay_s": (t_replay - t0, "s"),
        "trace.untraced_wall_s": (ref.wall_s, "s"),
        "trace.overhead_ratio": ((t_replay - t0) / ref.wall_s, "ratio"),
    })
    for layer, secs in tr.self_times().items():
        metrics[f"{layer}.self_s"] = (secs, "s")
    tr.dump(out_dir / f"spans_{name}_{seed}.jsonl")
    extra = {
        "checks": v.checks,
        "probe_metrics": sorted(probe_only),
        "drill_s": t_drill - t_replay,
        "spans": len(tr.spans),
        "enumerate_chains_s_by_field": {
            f"e={e},q={q}": s[2] - s[1]
            for (e, q), s in zip(workload.fields,
                                 [s for s in tr.named("chains.enumerate_chains")
                                  if s[4] == "drill"])
        },
    }
    return metrics, extra, v.checks, v.failures


# span name -> (metric, unit, statistic, scale).  A span's value is its
# duration per op; "median" takes the median over spans, "sum" the total and
# "drill_sum" the total over the drill-down alone.
SPAN_METRICS = [
    ("scalars.prime.mul", "scalars.prime.mul_ns", "ns", "median", 1e9),
    ("scalars.ext.mul", "scalars.ext.mul_ns", "ns", "median", 1e9),
    ("scalars.ext.inv", "scalars.ext.inv_ns", "ns", "median", 1e9),
    ("scalars.rational.add", "scalars.rational.add_us", "us", "median", 1e6),
    ("scalars.rational.mul", "scalars.rational.mul_us", "us", "median", 1e6),
    ("scalars.truncated.mul", "scalars.truncated.mul_us", "us", "median", 1e6),
    ("scalars.truncated.inv", "scalars.truncated.inv_us", "us", "median", 1e6),
    *[(f"umod{k}.{op}", f"umod{k}.{op}_us", "us", "median", 1e6)
      for k in ("", ".kt") for op in ("span", "u_image", "u_preimage", "reduce")],
    ("chains.enumerate_chains", "chains.enumerate_chains_s", "s", "drill_sum", 1),
    ("chains.orbit_transports", "chains.orbit_transports_s", "s", "median", 1),
    ("chains.fiber_chains", "chains.fiber_chains_ms", "ms", "median", 1e3),
    *[(f"invariants.stratum_label.{k}", f"invariants.stratum_label_us.{k}",
       "us", "median", 1e6) for k in ("prime", "ext", "kt")],
    ("invariants.hodge", "invariants.hodge_us", "us", "median", 1e6),
    ("dieudonne.labeled_with_m1", "dieudonne.labeled_with_m1_us", "us",
     "median", 1e6),
    ("deform.hodge_raise", "deform.hodge_raise_ms", "ms", "median", 1e3),
    ("deform.search_witness", "deform.search_witness_p50_ms", "ms", "median", 1e3),
    ("deform.search_witness", "deform.search_witness_total_ms", "ms", "sum", 1e3),
    ("deform.generic_label", "deform.generic_label_ms", "ms", "median", 1e3),
    ("deform.specialize", "deform.specialize_ms", "ms", "median", 1e3),
    ("deform.transport_family", "deform.transport_family_ms", "ms", "median", 1e3),
    ("deform.invert_m1", "deform.invert_m1_ms", "ms", "median", 1e3),
    ("strata.census", "strata.census_s", "s", "sum", 1),
    ("strata.build_poset", "strata.build_poset_s", "s", "median", 1),
    ("strata.degree_fit", "strata.degree_fit_ms", "ms", "median", 1e3),
    ("strata.fiber_constancy", "strata.fiber_constancy_s", "s", "sum", 1),
]


def _metrics(tr):
    """Metrics from spans.  A metric uses the workload's own spans when it
    has any and the probe's otherwise; the second value lists the metrics
    that rest on probe spans alone."""
    metrics, probe_only = {}, []
    for span, metric, unit, stat, scale in SPAN_METRICS:
        spans = tr.named(span)
        own = [s for s in spans if s[4] != "probe"]
        if stat == "drill_sum":
            own = [s for s in own if s[4] == "drill"]
        if not own:
            probe_only.append(metric)
        use = own or spans
        if not use:
            raise RuntimeError(f"no {span} spans for {metric}")
        durs = [(s[2] - s[1]) / s[5] for s in use]
        value = sum(durs) if stat in ("sum", "drill_sum") else statistics.median(durs)
        metrics[metric] = (value * scale, unit)
    return metrics, probe_only
