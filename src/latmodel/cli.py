"""Batch command surface: censuses, verification suites, posets, recipes.

Subcommands: census, verify, poset, deform, fibers, orbits, witness.
Exit codes: 0 = all checks pass, 1 = a verification failed (details in the
report), 2 = invalid input.  Data goes to --out or standard output;
diagnostics go to the error stream.  Identical invocations produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .chains import PRChain, orbits
from .deform import (
    DEFAULT_SEARCH_BUDGET,
    DEFAULT_TRUNC_PRECISION,
    hodge_raise,
    invert_m1,
    recipe_7_3_1,
    recipe_7_3_2,
    search_witness,
    with_precision_retry,
)
from .dieudonne import DieudonneModel, ag_witness, labeled_with_m1, m1_vanishes
from .errors import InvalidInput, LatModelError, NotFound
from .invariants import StratumLabel, hodge, is_free_rank_one, stratum_label
from .scalars import ctx_from_serialized, small_field
from .strata import (
    EXPECTED_NONEMPTY_E4,
    Census,
    build_poset,
    census,
    census_csv,
    degree_fit,
    fiber_constancy,
    hodge_step_check,
)
from .umod import Subspace, UVec

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

FIT_SAMPLE_Q = (2, 3, 4, 5, 7)


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _jdump(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _parse_q_list(s, single=False):
    try:
        qs = [int(x) for x in str(s).split(",")]
    except ValueError:  # also an empty entry, as in "2,,3"
        raise LatModelError(f"cannot parse field size list {s!r}")
    if len(set(qs)) < len(qs):
        raise LatModelError(f"repeated field size in {s!r}")
    if single and len(qs) > 1:
        raise LatModelError(f"this command takes one field size, got {s!r}")
    return qs


def _load(path, key, build):
    """build(obj) for the JSON object in path, or for its ``key`` member;
    content that does not deserialize is invalid input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        if isinstance(obj, dict) and key in obj:
            obj = obj[key]
        return build(obj)
    except (KeyError, TypeError, ValueError, InvalidInput) as exc:
        raise InvalidInput(
            f"{path}: not a serialized {key} ({type(exc).__name__}: {exc})"
        ) from None


def _load_chain(path):
    def build(obj):
        ctx = ctx_from_serialized(obj)
        return ctx, PRChain.deserialize(ctx, obj)

    ctx, chain = _load(path, "chain", build)
    report = chain.validate()
    if report:
        raise InvalidInput(f"{path}: not a valid chain: {'; '.join(report)}")
    return ctx, chain


def _load_model(ctx, path):
    return _load(path, "model", lambda obj: DieudonneModel.deserialize(ctx, obj))


# ----------------------------------------------------------------------
# verification suites
# ----------------------------------------------------------------------
def _suite_hodge(e, qs):
    """Invariant values, census totals, and dimension-degree fits."""
    report = {"name": "hodge", "checks": []}
    ok = True

    # fixed invariant triple at N = 3
    ctx = small_field(2)
    mono = lambda c, d: UVec.monomial(ctx, 3, c, d)
    mspan = lambda vecs: Subspace.module_span(ctx, 3, vecs)
    triples = [
        (mspan([mono(1, 2)]), (3, 2)),
        (mspan([mono(1, 2), mono(2, 2)]), (2, 2)),
        (mspan([mono(1, 2), mono(2, 1)]), (2, 1)),
    ]
    got = [hodge(w) for w, _ in triples]
    want = [lam for _, lam in triples]
    passed = got == want
    ok &= passed
    report["checks"].append(
        {"check": "invariant-values-N3", "ok": passed, "got": got}
    )

    # one census per (e, q); the totals and the fits both read it
    censuses = {}

    def cen(ee, q):
        if (ee, q) not in censuses:
            censuses[ee, q] = census(ee, small_field(q))
        return censuses[ee, q]

    # census totals
    totals_ok = True
    for ee in range(1, 5):
        for q in (2, 3, 4, 5):
            if cen(ee, q).total() != (q + 1) ** ee:
                totals_ok = False
    ok &= totals_ok
    report["checks"].append({"check": "census-totals", "ok": totals_ok})

    # degree fits at the requested e over the fixed sample fields
    families = (  # (family, key field, counts, expected degree)
        ("chains", "lambda", Census.chain_counts_by_hodge, lambda lam: e - lam[1]),
        ("lattices", "lambda", Census.lattice_counts_by_hodge,
         lambda lam: e - 2 * lam[1]),
        ("T-strata", "T", Census.chain_counts_by_T, lambda T: e - len(T)),
    )
    fits = []
    for family, field, counts, expected in families:
        samples = {}
        for q in FIT_SAMPLE_Q:
            for key, n in counts(cen(e, q)).items():
                samples.setdefault(key, {})[q] = n
        for key, s in sorted(samples.items()):
            f = degree_fit(s)
            good = f.degree == expected(key)
            ok &= good
            fits.append(
                {"family": family, field: list(key), "degree": f.degree,
                 "expected": expected(key), "ok": good, "stable": f.stable}
            )
    report["checks"].append({"check": "dimension-degree-fits", "ok": ok, "fits": fits})
    report["ok"] = ok
    return ok, report


def _suite_hasse(e, qs):
    """Emptiness tables, hodge-step lemma, and the explicit m1 witness."""
    report = {"name": "hasse", "checks": []}
    ok = True
    for q in qs:
        ctx = small_field(q)
        cen = census(e, ctx)
        table = cen.emptiness_table()
        if e == 4:
            good = table == EXPECTED_NONEMPTY_E4
            empt = frozenset({4}) not in table.get((2, 2), frozenset())
            ok &= good and empt
            report["checks"].append(
                {
                    "check": "emptiness-table",
                    "q": q,
                    "ok": good,
                    "(2,2)-with-only-m4-empty": empt,
                    "table": {
                        str(lam): sorted(sorted(t) for t in ts)
                        for lam, ts in sorted(table.items())
                    },
                }
            )
        viol, conv = hodge_step_check(e, ctx)
        good = not viol and (bool(conv) or e <= 2)  # converses need e >= 3
        ok &= good
        report["checks"].append(
            {
                "check": "hodge-step-lemma",
                "q": q,
                "ok": good,
                "violations": len(viol),
                "converse_examples": len(conv),
            }
        )
        # lambda = (e, 0) iff T is empty iff the top is free of rank one
        top = lambda rows: Subspace.span(ctx, e, [UVec(ctx, e, r) for r in rows])
        good = all((lab.lam == (e, 0)) == (not lab.T) for lab in cen.counts) and all(
            is_free_rank_one(top(rows)) == (lam == (e, 0))
            for rows, (lam, _) in cen.fibers.items()
        )
        ok &= good
        report["checks"].append(
            {"check": "maximal-stratum-equivalence", "q": q, "ok": good}
        )
        if e == 4:
            model, chain = ag_witness(2, 1, ctx)
            lab = labeled_with_m1(model, chain)
            good = lab == StratumLabel((2, 2), {2, 3, 4}, "0")
            fam = with_precision_retry(invert_m1, model, chain)
            inv_ok = fam.generic_label() == lab.with_m1("1")
            ok &= good and inv_ok
            report["checks"].append(
                {
                    "check": "m1-witness-and-inversion",
                    "ok": good and inv_ok,
                    "label": lab.serialize(),
                }
            )
    report["ok"] = ok
    return ok, report


def _suite_flatness(e, qs):
    """Fiber-count constancy per hodge class; degree across fields."""
    report = {"name": "flatness", "checks": []}
    ok = True
    samples = {}
    # degree fits need enough sample fields to pin a quadratic
    for q in sorted(set(qs) | {2, 3, 4, 5}):
        ctx = small_field(q)
        fc = fiber_constancy(e, ctx)
        maximal_one = fc.get((e, 0), (1, 0))[0] == 1
        ok &= maximal_one
        if q in qs:
            report["checks"].append(
                {
                    "check": "fiber-constancy",
                    "q": q,
                    "ok": maximal_one,
                    "fibers": {str(k): v[0] for k, v in sorted(fc.items())},
                }
            )
        for lam, (cnt, _) in fc.items():
            samples.setdefault(lam, {})[q] = cnt
    degs = []
    for lam, s in sorted(samples.items()):
        expected = (e - lam[0] + lam[1]) // 2
        f = degree_fit(s)
        good = f.degree == expected
        ok &= good
        degs.append(
            {"lambda": list(lam), "degree": f.degree,
             "expected": expected, "ok": good, "stable": f.stable}
        )
    report["checks"].append({"check": "fiber-degrees", "ok": ok, "fits": degs})
    report["ok"] = ok
    return ok, report


def _poset(e, q):
    """The certified closure poset, with the m1 layer at e = 4."""
    ctx = small_field(q)
    return build_poset(e, ctx, model=ag_witness(2, 1, ctx)[0] if e == 4 else None)


def _suite_closure(e, qs):
    """Witness-certified covering edges of the closure order (one field)."""
    (q,) = qs
    rep = _poset(e, q)
    report = {"name": "closure", "ok": rep.ok, "report": json.loads(rep.to_json())}
    return rep.ok, report


SUITES = {
    "hodge": _suite_hodge,
    "hasse": _suite_hasse,
    "flatness": _suite_flatness,
    "closure": _suite_closure,
}


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------
def _cmd_census(args):
    qs = _parse_q_list(args.q)
    censuses = [census(args.e, small_field(q)) for q in qs]
    if args.format == "json":
        obj = [
            {
                "e": c.e,
                "q": c.q,
                "total": c.total(),
                "counts": {
                    lab.serialize(): c.counts[lab] for lab in c.labels()
                },
            }
            for c in censuses
        ]
        _emit(_jdump(obj), args.out)
    else:
        _emit(census_csv(censuses), args.out)
    return EXIT_OK


def _cmd_verify(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    # the closure suite certifies one poset, so it takes one field size
    qs = _parse_q_list(args.q, single="closure" in names)
    reports = []
    all_ok = True
    for name in names:
        ok, rep = SUITES[name](args.e, qs)
        reports.append(rep)
        all_ok &= ok
        print(f"suite {name}: {'ok' if ok else 'FAILED'}", file=sys.stderr)
    _emit(_jdump({"ok": all_ok, "suites": reports}), args.out)
    return EXIT_OK if all_ok else EXIT_FAIL


def _cmd_poset(args):
    rep = _poset(args.e, _parse_q_list(args.q, single=True)[0])
    _emit(rep.to_dot() if args.format == "dot" else rep.to_json(), args.out)
    return EXIT_OK if rep.ok else EXIT_FAIL


def _cmd_deform(args):
    ctx, chain = _load_chain(args.chain)
    model = None
    if args.model:
        model = _load_model(ctx, args.model)
    recipe = args.recipe
    if recipe == "hodge-raise":
        fam = hodge_raise(chain)
    elif recipe in ("731-1", "731-2"):
        fam = recipe_7_3_1(chain, int(recipe[-1]))
    elif recipe in ("732-1", "732-2", "invert-m1"):
        if model is None:
            raise LatModelError(f"recipe {recipe} requires --model")
        if recipe == "invert-m1":
            fam = with_precision_retry(invert_m1, model, chain, N=args.precision)
        else:
            fam = with_precision_retry(
                recipe_7_3_2, model, chain, int(recipe[-1]), N=args.precision
            )
    elif recipe == "search":
        if not args.target:
            raise LatModelError("recipe search requires --target")
        if args.budget < 1:
            raise LatModelError("--budget must be at least 1")
        target = StratumLabel.parse(args.target)
        fam = search_witness(chain, target, budget=args.budget)
    else:
        raise LatModelError(f"unknown recipe {recipe!r}")
    out = fam.serialize()
    out["specialization_label"] = stratum_label(fam.specialize()).serialize()
    out["generic_label"] = fam.generic_label().serialize()
    _emit(_jdump(out), args.out)
    return EXIT_OK


def _cmd_fibers(args):
    qs = _parse_q_list(args.q)
    lines = ["e,q,index,lambda,fiber_count"]
    for q in qs:
        fibers = census(args.e, small_field(q)).fibers
        for idx, (_, (lam, n)) in enumerate(sorted(fibers.items())):
            lines.append(f"{args.e},{q},{idx},\"({lam[0]},{lam[1]})\",{n}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_orbits(args):
    qs = _parse_q_list(args.q)
    out = []
    for q in qs:
        ctx = small_field(q)
        rows = [
            {
                "representative": rep.serialize(),
                "label": stratum_label(rep).serialize(),
                "size": size,
            }
            for rep, size in orbits(args.e, ctx)
        ]
        out.append(
            {
                "e": args.e,
                "q": q,
                "orbits": rows,
                "count": len(rows),
                "total": sum(r["size"] for r in rows),
            }
        )
    _emit(_jdump(out), args.out)
    return EXIT_OK


def _cmd_witness(args):
    ctx = small_field(_parse_q_list(args.q, single=True)[0])
    model, chain = ag_witness(args.m, args.c, ctx, e=args.e)
    obj = {
        "model": model.serialize(),
        "chain": chain.serialize(),
        "label": labeled_with_m1(model, chain).serialize(),
        "m1_vanishes": m1_vanishes(model, chain),
    }
    _emit(_jdump(obj), args.out)
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------
def _add_common(sp, e_default=4, field=True):
    """--out, --jobs and --config; --e and --q too unless field is False."""
    if field:
        sp.add_argument("--e", type=int, default=e_default, help="chain length e")
        sp.add_argument("--q", default="2", help="comma-separated base field sizes")
    sp.add_argument("--out", default=None, help="output file (default stdout)")
    sp.add_argument(
        "--jobs",
        type=int,
        default=os.cpu_count() or 1,
        help="worker count; execution is serial at these scales and "
        "output bytes never depend on this value",
    )
    sp.add_argument(
        "--config",
        default=None,
        help="optional key=value config file; explicit flags win",
    )


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="latmodel",
        description="Exact lattice-chain combinatorics in the truncated "
        "affine Grassmannian for rank two: censuses, invariants, "
        "deformation certificates.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser(
        "census",
        help="exhaustive stratum census (labels (lambda, T) and counts)",
        description="Counts chains per stratum label; total mass (q+1)^e.",
    )
    _add_common(sp)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(fn=_cmd_census)

    sp = sub.add_parser(
        "verify",
        help="acceptance-grade verification suites",
        description="Suites: hodge (invariant values, census totals, "
        "dimension-formula degree fits), hasse (emptiness tables, "
        "hodge-step lemma, m1 witness and inversion), flatness "
        "(fiber-count constancy), closure (witness-certified closure "
        "order).",
    )
    _add_common(sp)
    sp.add_argument(
        "--suite",
        choices=("all", "hodge", "hasse", "flatness", "closure"),
        default="all",
    )
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser(
        "poset",
        help="certified closure poset (JSON report or DOT diagram)",
        description="Builds the stratification poset with every covering "
        "edge certified by an explicit one-parameter family.",
    )
    _add_common(sp)
    sp.add_argument("--format", choices=("json", "dot"), default="json")
    sp.set_defaults(fn=_cmd_poset)

    sp = sub.add_parser(
        "deform",
        help="run a deformation recipe on a serialized chain",
        description="Recipes: hodge-raise (endpoint-invariant raise), "
        "731-1/731-2 (linear collapse/raise at e=4), 732-1/732-2 "
        "(sigma-linear variants keeping m1 = 0; need --model), "
        "invert-m1 (break m1 keeping linear invariants; needs --model), "
        "search (first-order witness search; needs --target).",
    )
    _add_common(sp, field=False)  # the chain file fixes e and q
    sp.add_argument("--chain", required=True, help="chain JSON file")
    sp.add_argument("--model", default=None, help="Frobenius model JSON file")
    sp.add_argument(
        "--recipe",
        required=True,
        choices=(
            "hodge-raise", "731-1", "731-2", "732-1", "732-2",
            "invert-m1", "search",
        ),
    )
    sp.add_argument("--target", default=None, help="target stratum label")
    sp.add_argument("--precision", type=int, default=DEFAULT_TRUNC_PRECISION)
    sp.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET)
    sp.set_defaults(fn=_cmd_deform)

    sp = sub.add_parser(
        "fibers",
        help="fiber cardinalities of the endpoint map per lattice",
        description="Counts refinement flags over every endpoint lattice; "
        "constant within a hodge class (flatness shadow).",
    )
    _add_common(sp)
    sp.set_defaults(fn=_cmd_fibers)

    sp = sub.add_parser(
        "orbits",
        help="truncated-group orbit decomposition of all chains",
        description="Orbit representatives and sizes under the rank-two "
        "truncated group action.",
    )
    _add_common(sp, e_default=3)
    sp.set_defaults(fn=_cmd_orbits)

    sp = sub.add_parser(
        "witness",
        help="explicit Frobenius witness (model, chain) with m1 = 0",
        description="Builds the normal-form model F(e1) = u^m e1 + u^2 e2, "
        "F(e2) = c u^2 e2 with its flag at label ((2,2),{2,3,4}), m1 = 0.",
    )
    _add_common(sp)
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--c", type=int, default=1)
    sp.set_defaults(fn=_cmd_witness)
    return ap


def _with_config(argv):
    """Expand --config FILE or --config=FILE: each ``key = value`` line
    becomes the flag ``--key=value``, placed before the explicit flags so
    that those win and argparse checks every value's type and choices."""
    for idx, arg in enumerate(argv):
        if arg.startswith("--config="):
            path = arg[len("--config="):]
            break
        if arg == "--config" and idx + 1 < len(argv):
            path = argv[idx + 1]
            break
    else:
        return argv
    flags = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise LatModelError(f"malformed config line {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            flags.append(f"--{key}={val}")
    return argv[:1] + flags + argv[1:]


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = _build_parser()
    try:
        try:
            args = ap.parse_args(_with_config(argv))
        except SystemExit as exc:  # argparse has printed usage and error
            return exc.code
        if args.jobs < 1:
            raise LatModelError("--jobs must be at least 1")
        if getattr(args, "e", 1) < 1:
            raise LatModelError("--e must be at least 1")
        return args.fn(args)
    except NotFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except LatModelError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
