"""Stratum censuses, dimension-degree fits, fibers, and the closure poset.

Everything here is exact: counts are integers obtained by exhaustive
enumeration, polynomial fits use ``fractions.Fraction`` Lagrange
interpolation, and closure relations are certified point by point with
explicit one-parameter families (never inferred from counts alone).
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction

from .chains import enumerate_chains, labelled_chains, orbit_transports
from .deform import (
    hodge_raise,
    invert_m1,
    recipe_7_3_1,
    recipe_7_3_2,
    search_witness,
    transport_family,
    with_precision_retry,
)
from .dieudonne import m1_vanishes
from .errors import DegenerateF, InvalidInput, LatModelError, NotFound
from .invariants import StratumLabel, hodge, naive_leq


# ----------------------------------------------------------------------
# censuses
# ----------------------------------------------------------------------
class Census:
    """One exhaustive pass at (e, q): chains per linear stratum label, and
    the fibers of the endpoint map, top rows -> (lambda, chains over that
    top), one entry per distinct omega^(e).

    Every count the dimension formulas interpolate in q derives from it.
    """

    __slots__ = ("e", "q", "counts", "fibers")

    def __init__(self, e, q, counts, fibers):
        self.e = e
        self.q = q
        self.counts = dict(counts)
        self.fibers = fibers

    def total(self):
        return sum(self.counts.values())

    def labels(self):
        return sorted(self.counts, key=StratumLabel.key)

    def rows(self):
        for lab in self.labels():
            yield (self.e, self.q, lab, self.counts[lab])

    def chain_counts_by_hodge(self):
        """Chains per Hodge pair of the endpoint."""
        out = Counter()
        for lab, n in self.counts.items():
            out[lab.lam] += n
        return dict(out)

    def chain_counts_by_T(self):
        """Chains per vanishing set T, as a sorted tuple."""
        out = Counter()
        for lab, n in self.counts.items():
            out[tuple(sorted(lab.T))] += n
        return dict(out)

    def lattice_counts_by_hodge(self):
        """Endpoint lattices (distinct omega^(e)) per Hodge pair."""
        return dict(Counter(lam for lam, _ in self.fibers.values()))

    def emptiness_table(self):
        """Nonempty T-sets per hodge pair."""
        table = {}
        for lab in self.counts:
            table.setdefault(lab.lam, set()).add(lab.T)
        return {lam: frozenset(ts) for lam, ts in table.items()}


def census(e, ctx):
    """Exhaustive stratum census; total mass is (q+1)^e.

    The labels come from the walk itself (chains.labelled_chains): level i
    adds v with u v in omega^(i-1), the nilpotency index grows by one iff
    u^c v != 0 (c the index so far), and m_i = 0 iff u v lies in
    omega^(i-2), since u omega^(i-1) always does.  A chain's lambda is its
    top's, so the same walk counts the chains over each top.
    """
    counts, fibers = Counter(), {}
    for c, lab in labelled_chains(e, ctx):
        counts[lab] += 1
        lam, n = fibers.get(c.top.rows, (lab.lam, 0))
        fibers[c.top.rows] = (lam, n + 1)
    out = Census(e, ctx.order, counts, fibers)
    if out.total() != (ctx.order + 1) ** e:
        raise AssertionError("census mass is not (q+1)^e (bug)")
    return out


def census_by_point(e, ctx):
    """Census that also keeps the chains, grouped by label."""
    groups = {}
    for c, lab in labelled_chains(e, ctx):
        groups.setdefault(lab, []).append(c)
    return groups


def nonempty_labels(e, ctx):
    return census(e, ctx).labels()


def census_csv(censuses):
    """Byte-stable CSV: columns e,q,lambda,T,m1,count."""
    lines = ["e,q,lambda,T,m1,count"]
    for cen in censuses:
        for e, q, lab, n in cen.rows():
            ts = ",".join(str(i) for i in sorted(lab.T))
            lines.append(
                f"{e},{q},\"({lab.lam[0]},{lab.lam[1]})\",\"{{{ts}}}\","
                f"{lab.m1},{n}"
            )
    return "\n".join(lines) + "\n"


# the nonempty (lambda, T) table at e = 4, independent of q.
# ((2,2), {4}) is genuinely empty: m4 = 0 with m2 != 0 forces the
# endpoint's invariant up to (3,1) by the hodge-step lemma.
EXPECTED_NONEMPTY_E4 = {
    (4, 0): frozenset({frozenset()}),
    (3, 1): frozenset(
        {
            frozenset({2}),
            frozenset({3}),
            frozenset({4}),
            frozenset({2, 3}),
            frozenset({3, 4}),
        }
    ),
    (2, 2): frozenset(
        {frozenset({3}), frozenset({2, 4}), frozenset({2, 3, 4})}
    ),
}


def emptiness_table(e, ctx):
    """Nonempty T-sets per hodge pair, from the exhaustive census."""
    return census(e, ctx).emptiness_table()


def hodge_step_check(e, ctx):
    """m_i = 0 forces hodge(omega^(i)) = hodge(omega^(i-2)) - (1,1).

    Returns (violations, converse_examples): the first must be empty; the
    second lists (chain, i) where the hodge step holds but m_i != 0 (the
    implication is one-way for e >= 3, two-way for e <= 2).
    """
    from .invariants import mi_vanishes

    violations = []
    converse = []
    for c in enumerate_chains(e, ctx):
        for i in range(2, e + 1):
            step = hodge(c.level(i)) == tuple(
                x - 1 for x in hodge(c.level(i - 2))
            )
            if mi_vanishes(c, i):
                if not step:
                    violations.append((c, i))
            elif step:
                converse.append((c, i))
    return violations, converse


# ----------------------------------------------------------------------
# exact polynomial degree fits in q
# ----------------------------------------------------------------------
class DegreeFit:
    """Exact Lagrange fit of integer counts at sample points q.

    ``stable`` means the fit is determined with one sample to spare:
    every leave-one-out refit reproduces the same polynomial (so the
    observed degree is not an artifact of exactly-determined
    interpolation).
    """

    __slots__ = ("points", "coeffs", "degree", "stable")

    def __init__(self, points, coeffs, degree, stable):
        self.points = points
        self.coeffs = coeffs
        self.degree = degree
        self.stable = stable

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def serialize(self):
        return {
            "points": [[int(a), int(b)] for a, b in self.points],
            "coeffs": [str(c) for c in self.coeffs],
            "degree": self.degree,
            "stable": self.stable,
        }


def _lagrange(points):
    """Coefficients (low to high) of the interpolating polynomial."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(points):
        # basis polynomial prod_{j != i} (x - xj) / (xi - xj)
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            denom *= Fraction(xi - xj)
            nxt = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                nxt[k + 1] += c
                nxt[k] -= Fraction(xj) * c
            basis = nxt
        scale = Fraction(yi) / denom
        for k, c in enumerate(basis):
            coeffs[k] += scale * c
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def degree_fit(samples):
    """Fit counts sampled at distinct q values; samples: dict q -> count."""
    points = sorted((int(q), int(n)) for q, n in samples.items())
    if len(points) < 2:
        raise InvalidInput("need at least two sample points")
    coeffs = _lagrange(points)
    degree = len(coeffs) - 1
    stable = degree <= len(points) - 2
    if stable:
        for i in range(len(points)):
            sub = points[:i] + points[i + 1 :]
            if _lagrange(sub) != coeffs:
                stable = False
                break
    return DegreeFit(points, coeffs, degree, stable)


# one-shot forms of the Census derivations, for a single (e, q)
def chain_counts_by_hodge(e, ctx):
    return census(e, ctx).chain_counts_by_hodge()


def lattice_counts_by_hodge(e, ctx):
    return census(e, ctx).lattice_counts_by_hodge()


def chain_counts_by_T(e, ctx):
    return census(e, ctx).chain_counts_by_T()


# ----------------------------------------------------------------------
# fibers over endpoint lattices
# ----------------------------------------------------------------------
def fiber_constancy(e, ctx):
    """Fiber cardinalities of chain -> endpoint, grouped by lattice hodge.

    Reads the fibers of census(e, ctx): its one walk gives every endpoint
    lattice with its lambda and the number of chains over it.  Returns
    dict lam -> (fiber count, number of lattices); raises AssertionError
    if the count is not constant within a hodge class.
    """
    out = {}
    for lam, n in census(e, ctx).fibers.values():
        cnt, m = out.get(lam, (n, 0))
        if cnt != n:
            raise AssertionError(
                f"fiber count not constant on hodge class {lam}: {cnt} vs {n}"
            )
        out[lam] = (cnt, m + 1)
    return out


# ----------------------------------------------------------------------
# closure poset with per-point witness certification
# ----------------------------------------------------------------------
def _covering_edges(labels):
    """Covering pairs (lower, upper) of the naive order on linear labels."""
    edges = []
    for lo in labels:
        for hi in labels:
            if lo == hi or not naive_leq(lo, hi):
                continue
            if any(
                mid != lo and mid != hi and naive_leq(lo, mid) and naive_leq(mid, hi)
                for mid in labels
            ):
                continue
            edges.append((lo, hi))
    edges.sort(key=lambda p: (p[0].key(), p[1].key()))
    return edges


# The named e = 4 edges, keyed by (lower, upper) linear label, with the
# variant v of the recipes that certify them: recipe_7_3_1 (CLI token
# 731-v) on the linear layer, recipe_7_3_2 (732-v, m1 = 0 kept) on the
# m1 layer.  Listed in variant order.
_NAMED_EDGES = {
    (((2, 2), frozenset({2, 3, 4})), ((2, 2), frozenset({3}))): 1,
    (((2, 2), frozenset({3})), ((3, 1), frozenset({3}))): 2,
}


def _certify_edge_point(chain, lower, upper):
    """(method, family, generic label); the recipes and the search confirm upper."""
    key = ((lower.lam, lower.T), (upper.lam, upper.T))
    if key in _NAMED_EDGES:
        variant = _NAMED_EDGES[key]
        return f"731-{variant}", recipe_7_3_1(chain, variant), upper
    if upper.lam == (lower.lam[0] + 1, lower.lam[1] - 1):
        fam = hodge_raise(chain)
        gen = fam.generic_label()
        if gen.linear() == upper:
            return "hodge-raise", fam, gen
    return "search", search_witness(chain, upper), upper


class PosetReport:
    """Certified closure relations: linear layer plus the m1-refined layer."""

    __slots__ = ("e", "q", "nodes", "edges", "m1_nodes", "m1_edges", "failures")

    def __init__(self, e, q):
        self.e = e
        self.q = q
        self.nodes = []
        self.edges = []
        self.m1_nodes = []
        self.m1_edges = []
        self.failures = []

    @property
    def ok(self):
        return not self.failures

    def to_json(self):
        return json.dumps(
            {
                "e": self.e,
                "q": self.q,
                "ok": self.ok,
                "linear": {"nodes": self.nodes, "edges": self.edges},
                "m1_refined": {"nodes": self.m1_nodes, "edges": self.m1_edges},
                "failures": self.failures,
            },
            indent=2,
            sort_keys=True,
        ) + "\n"

    def to_dot(self):
        lines = ["digraph closure {", "  rankdir=BT;"]
        def node_id(s):
            return '"' + s.replace('"', "") + '"'
        for n in self.nodes:
            lines.append(f"  {node_id(n['label'])} [shape=box];")
        for edg in self.edges:
            lines.append(
                f"  {node_id(edg['lower'])} -> {node_id(edg['upper'])}"
                f" [label=\"{edg['method']}\"];"
            )
        for n in self.m1_nodes:
            lines.append(f"  {node_id(n['label'])} [shape=ellipse];")
        for edg in self.m1_edges:
            lines.append(
                f"  {node_id(edg['lower'])} -> {node_id(edg['upper'])}"
                f" [style=dashed,label=\"{edg['method']}\"];"
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_poset(e, ctx, model=None, m1_seed=None):
    """Certify every covering edge of the closure order on nonempty strata.

    Linear layer: for each covering edge and EVERY census point of the
    lower stratum, an explicit family is produced (named recipe,
    hodge_raise, or witness search) whose generic fiber lies in the upper
    stratum.  An exhausted search is recorded as a failure, never as a
    non-relation.

    m1 layer (only when a Frobenius model is supplied): refined labels
    realized at model-carrying points, the sigma-linear recipes along the
    named edges, and the m1-inversion family at each m1 = 0 witness.
    """
    report = PosetReport(e, ctx.order)
    groups = census_by_point(e, ctx)
    labels = sorted(groups, key=StratumLabel.key)
    for lab in labels:
        report.nodes.append(
            {"label": lab.serialize(), "count": len(groups[lab])}
        )
    transports = None
    for lower, upper in _covering_edges(labels):
        methods = Counter()
        done = 0
        certified = {}
        pending = []
        for point in groups[lower]:
            try:
                method, fam, gen = _certify_edge_point(point, lower, upper)
            except NotFound:
                pending.append(point)
                continue
            if not fam.semicontinuity_audit(gen):
                report.failures.append(
                    {
                        "edge": [lower.serialize(), upper.serialize()],
                        "point": point.serialize(),
                        "error": "semicontinuity audit failed",
                    }
                )
                continue
            certified[point.key()] = fam
            methods[method] += 1
            done += 1
        for point in pending:
            # transport a witness from a certified orbit-mate: the generic
            # label is a group invariant, so this is a sound certificate
            if transports is None:
                transports = orbit_transports(e, ctx)
            rep, gp = transports[point.key()]
            mate = next(
                (
                    c2
                    for c2 in groups[lower]
                    if c2.key() in certified
                    and transports[c2.key()][0].key() == rep.key()
                ),
                None,
            )
            fam = None
            if mate is not None:
                g = gp.compose(transports[mate.key()][1].inverse())
                cand = transport_family(certified[mate.key()], g)
                if (
                    cand.specialize() == point
                    and (gen := cand.generic_label()).linear() == upper
                    and cand.semicontinuity_audit(gen)
                ):
                    fam = cand
            if fam is None:
                report.failures.append(
                    {
                        "edge": [lower.serialize(), upper.serialize()],
                        "point": point.serialize(),
                        "error": "search exhausted and no certified orbit-mate",
                    }
                )
                continue
            certified[point.key()] = fam
            methods["transport"] += 1
            done += 1
        report.edges.append(
            {
                "lower": lower.serialize(),
                "upper": upper.serialize(),
                "points": len(groups[lower]),
                "certified": done,
                "method": "+".join(sorted(methods)) or "none",
            }
        )
    if model is not None:
        _build_m1_layer(report, e, ctx, model, groups)
    return report


def _build_m1_layer(report, e, ctx, model, groups):
    """Refined labels and edges certified at model-carrying points."""
    witnesses = {}
    for lab in sorted(groups, key=StratumLabel.key):
        for point in groups[lab]:
            try:
                refined = lab.with_m1("0" if m1_vanishes(model, point) else "1")
            except DegenerateF:
                continue
            witnesses.setdefault(refined, point)
    for refined in sorted(witnesses, key=StratumLabel.key):
        report.m1_nodes.append({"label": refined.serialize()})
    for (lo_key, hi_key), variant in _NAMED_EDGES.items():
        lo = StratumLabel(lo_key[0], lo_key[1], "0")
        hi = StratumLabel(hi_key[0], hi_key[1], "0")
        point = witnesses.get(lo)
        if point is None:
            continue
        try:
            fam = with_precision_retry(recipe_7_3_2, model, point, variant)
        except LatModelError as exc:
            report.failures.append(
                {
                    "edge": [lo.serialize(), hi.serialize()],
                    "point": point.serialize(),
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
            continue
        gen = fam.generic_label()
        if gen != hi:
            report.failures.append(
                {
                    "edge": [lo.serialize(), hi.serialize()],
                    "point": point.serialize(),
                    "error": f"generic label {gen.serialize()}",
                }
            )
            continue
        report.m1_edges.append(
            {"lower": lo.serialize(), "upper": hi.serialize(),
             "method": f"732-{variant}"}
        )
    for refined in sorted(witnesses, key=StratumLabel.key):
        if refined.m1 != "0":
            continue
        point = witnesses[refined]
        target = refined.with_m1("1")
        try:
            fam = with_precision_retry(invert_m1, model, point)
        except LatModelError as exc:
            report.failures.append(
                {
                    "edge": [refined.serialize(), target.serialize()],
                    "point": point.serialize(),
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
            continue
        if fam.generic_label() != target:
            report.failures.append(
                {
                    "edge": [refined.serialize(), target.serialize()],
                    "point": point.serialize(),
                    "error": "inversion label mismatch",
                }
            )
            continue
        report.m1_edges.append(
            {
                "lower": refined.serialize(),
                "upper": target.serialize(),
                "method": "invert-m1",
            }
        )


# ----------------------------------------------------------------------
# product censuses
# ----------------------------------------------------------------------
class ProductCensus:
    """Census of a product of factors: labels are tuples, counts multiply."""

    __slots__ = ("es", "q", "counts")

    def __init__(self, es, q, counts):
        self.es = tuple(es)
        self.q = q
        self.counts = dict(counts)

    def total(self):
        return sum(self.counts.values())


def product_census(censuses):
    """Combine per-factor censuses (same q) into the product census."""
    qs = {c.q for c in censuses}
    if len(qs) != 1:
        raise InvalidInput("product factors must share the same base field")
    combined = {(): 1}
    for cen in censuses:
        nxt = {}
        for key, n in combined.items():
            for lab, m in cen.counts.items():
                nxt[key + (lab,)] = n * m
        combined = nxt
    out = ProductCensus([c.e for c in censuses], qs.pop(), combined)
    expected = 1
    for cen in censuses:
        expected *= cen.total()
    if out.total() != expected:
        raise AssertionError("product census mass is not the product of masses (bug)")
    return out


def product_census_csv(pc):
    """CSV for a product census: per-factor label columns then count."""
    k = len(pc.es)
    head = ",".join(f"label{i + 1}" for i in range(k))
    lines = [f"q,{head},count"]
    for key in sorted(pc.counts, key=lambda t: tuple(l.key() for l in t)):
        labs = ",".join(f"\"{l.serialize()}\"" for l in key)
        lines.append(f"{pc.q},{labs},{pc.counts[key]}")
    return "\n".join(lines) + "\n"
