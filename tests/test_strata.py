"""Census, emptiness tables, degree fits, fibers, and the closure poset."""

from collections import Counter

import pytest

from latmodel import chains, cli, deform, dieudonne, invariants, strata, umod
from latmodel.chains import enumerate_chains
from latmodel.cli import _suite_flatness, _suite_hodge
from latmodel.dieudonne import ag_witness
from latmodel.errors import InvalidInput
from latmodel.invariants import StratumLabel, hodge, stratum_label
from latmodel.scalars import prime_field, small_field
from latmodel.strata import (
    EXPECTED_NONEMPTY_E4,
    Census,
    census,
    census_by_point,
    census_csv,
    chain_counts_by_T,
    chain_counts_by_hodge,
    degree_fit,
    emptiness_table,
    fiber_constancy,
    hodge_step_check,
    lattice_counts_by_hodge,
    nonempty_labels,
    product_census,
    product_census_csv,
    build_poset,
    PosetReport,
)

F2 = prime_field(2)
F3 = prime_field(3)
F4 = small_field(4)


def test_census_total_and_known_counts():
    cen = census(4, F2)
    assert cen.total() == 3**4
    expected = {
        ((2, 2), frozenset({2, 3, 4})): 3,
        ((2, 2), frozenset({2, 4})): 6,
        ((2, 2), frozenset({3})): 6,
        ((3, 1), frozenset({2})): 12,
        ((3, 1), frozenset({2, 3})): 6,
        ((3, 1), frozenset({3})): 6,
        ((3, 1), frozenset({3, 4})): 6,
        ((3, 1), frozenset({4})): 12,
        ((4, 0), frozenset()): 24,
    }
    assert {(l.lam, l.T): n for l, n in cen.counts.items()} == expected


def test_census_by_point_partitions_chains():
    groups = census_by_point(3, F2)
    assert sum(len(g) for g in groups.values()) == 27
    assert {l.linear() for l in groups} == set(nonempty_labels(3, F2))


def test_census_csv_shape():
    text = census_csv([census(2, F2)])
    lines = text.strip().split("\n")
    assert lines[0] == "e,q,lambda,T,m1,count"
    assert all(line.startswith("2,2,") for line in lines[1:])
    # byte-stable across runs
    assert text == census_csv([census(2, F2)])


def test_emptiness_table_matches_frozen_expectation():
    assert emptiness_table(4, F2) == EXPECTED_NONEMPTY_E4
    # in particular ((2,2), {4}) is empty
    assert frozenset({4}) not in emptiness_table(4, F2)[(2, 2)]


def test_hodge_step_check():
    violations, converse = hodge_step_check(4, F2)
    assert violations == []
    assert len(converse) > 0  # the converse of the step lemma fails


def test_degree_fit_exact_polynomials():
    fit = degree_fit({q: (q + 1) ** 3 for q in (2, 3, 4, 5, 7)})
    assert fit.degree == 3 and fit.stable
    assert fit(10) == 11**3
    unstable = degree_fit({2: 1, 3: 100})
    assert not unstable.stable
    with pytest.raises(InvalidInput):
        degree_fit({2: 1})


def test_counts_by_hodge_and_T_are_polynomial_in_q():
    cens = {q: census(3, ctx) for q, ctx in ((2, F2), (3, F3), (4, F4))}
    for counter in (Census.chain_counts_by_hodge, Census.lattice_counts_by_hodge):
        samples = {q: counter(cen) for q, cen in cens.items()}
        keys = set(samples[2])
        assert all(set(s) == keys for s in samples.values())
    by_T = cens[2].chain_counts_by_T()
    assert sum(by_T.values()) == 27
    assert by_T[()] == 12  # free chains: q(q+1)^2 at q=2


def test_census_derivations_match_direct_counts():
    # direct counts: hodge of every chain's top, hodge of every endpoint
    # lattice (the distinct tops), T of every chain's label
    for e, ctx in ((3, F3), (4, F2)):
        cen = census(e, ctx)
        every = enumerate_chains(e, ctx)
        assert cen.chain_counts_by_hodge() == Counter(hodge(c.top) for c in every)
        tops = {c.top.rows: c.top for c in every}
        assert cen.lattice_counts_by_hodge() == Counter(
            hodge(w) for w in tops.values()
        )
        assert cen.chain_counts_by_T() == Counter(
            tuple(sorted(stratum_label(c).T)) for c in every
        )
        assert chain_counts_by_hodge(e, ctx) == cen.chain_counts_by_hodge()
        assert lattice_counts_by_hodge(e, ctx) == cen.lattice_counts_by_hodge()
        assert chain_counts_by_T(e, ctx) == cen.chain_counts_by_T()


def _count_calls(monkeypatch, counts, module, name, key):
    """Count calls of module.name under counts[key]."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def _count_walks(monkeypatch, counts):
    """Count census walks under counts["walks"], their chains under
    counts["chains labelled"]."""
    walk = strata.labelled_chains

    def counted_walk(*args, **kwargs):
        pairs = walk(*args, **kwargs)
        counts["walks"] += 1
        counts["chains labelled"] += len(pairs)
        return pairs

    monkeypatch.setattr(strata, "labelled_chains", counted_walk)


def test_hodge_suite_work_counts(monkeypatch):
    """One labelled walk per (e, q): 16 censuses for the totals (e = 1..4,
    q = 2..5) plus (4, 7) for the fits; no cache across calls.  The walk
    labels every chain itself, so stratum_label is never called."""
    keys = ("walks", "chains labelled", "enumerations", "labels")
    counts = dict.fromkeys(keys, 0)
    _count_walks(monkeypatch, counts)
    for module, name, key in (
        (chains, "enumerate_chains", "enumerations"),
        (strata, "enumerate_chains", "enumerations"),
    ):
        _count_calls(monkeypatch, counts, module, name, key)
    for module in (chains, cli, deform, dieudonne, invariants, strata):
        if hasattr(module, "stratum_label"):
            _count_calls(monkeypatch, counts, module, "stratum_label", "labels")
    for _ in range(2):
        counts.update(dict.fromkeys(keys, 0))
        ok, _ = _suite_hodge(4, [2])
        assert ok
        assert counts == {
            "walks": 17, "chains labelled": 6890, "enumerations": 0, "labels": 0
        }


def test_flatness_suite_work_counts(monkeypatch):
    """One labelled walk per sample field (q = 2..5 at e = 4: 81 + 256 +
    625 + 1,296 chains); the fibers and their lambda come from the walk,
    so no chain is enumerated again and no lattice's hodge is computed."""
    keys = ("walks", "chains labelled", "enumerations", "fibers", "hodges")
    counts = dict.fromkeys(keys, 0)
    _count_walks(monkeypatch, counts)
    for module in (chains, cli, deform, dieudonne, invariants, strata):
        for name, key in (
            ("enumerate_chains", "enumerations"),
            ("fiber_chains", "fibers"),
            ("hodge", "hodges"),
        ):
            if hasattr(module, name):
                _count_calls(monkeypatch, counts, module, name, key)
    for _ in range(2):
        counts.update(dict.fromkeys(keys, 0))
        ok, _ = _suite_flatness(4, [2])
        assert ok
        assert counts == {
            "walks": 4, "chains labelled": 2258, "enumerations": 0,
            "fibers": 0, "hodges": 0,
        }


def test_census_walk_work_counts(monkeypatch):
    """census(4, F_4) walks 1 + 5 + 25 + 125 internal nodes: no u-preimage
    is computed, and the one row reduction per non-root internal node is
    its socle's re-span; each child's RREF is a pivot insertion."""
    counts = Counter()
    _count_calls(monkeypatch, counts, umod.Subspace, "u_preimage", "u-preimages")
    _count_calls(monkeypatch, counts, umod, "_rref", "rrefs")
    assert census(4, F4).total() == 5**4
    assert (counts["u-preimages"], counts["rrefs"]) == (0, 155)


def test_witness_search_work_counts(monkeypatch):
    """The e = 4, q = 2 poset makes 36 searches and 37,441 tries, as when
    every candidate was built from scratch; each level is built once per
    (previous level, move) of a search (1,317 builds) and each distinct
    family of a search is labelled once by the walk rules (176 labels).
    Only the 27 families with the target label are validated and
    specialized, and a family's K(t) label is computed 141 times in all."""
    counts = Counter()
    for module, name, key in (
        (strata, "search_witness", "searches"),
        (deform, "_try_perturbation", "tries"),
        (deform, "_perturb_level", "levels"),
        (deform, "walk_label", "walk labels"),
        (deform, "_is_witness", "checks"),
        (deform.FamilyChain, "generic_label", "generic labels"),
    ):
        _count_calls(monkeypatch, counts, module, name, key)
    assert build_poset(4, F2).ok
    assert counts == {
        "searches": 36, "tries": 37441, "levels": 1317, "walk labels": 176,
        "checks": 27, "generic labels": 141,
    }


def test_fiber_constancy_and_counts():
    out = fiber_constancy(4, F2)
    assert out[(4, 0)][0] == 1
    assert out[(3, 1)][0] == 7
    assert out[(2, 2)][0] == 15
    # lattice counts times fiber sizes recover the chain total
    assert sum(cnt * m for cnt, m in out.values()) == 3**4


def test_fiber_degree_in_q():
    fits = {}
    for lam in ((2, 2), (3, 1), (4, 0)):
        samples = {}
        for q, ctx in ((2, F2), (3, F3), (4, F4)):
            samples[q] = fiber_constancy(4, ctx)[lam][0]
        fits[lam] = degree_fit(samples)
    assert fits[(4, 0)].degree == 0
    assert fits[(3, 1)].degree == 1
    assert fits[(2, 2)].degree == 2


def test_build_poset_small_fully_certified():
    rep = build_poset(3, F2)
    assert rep.ok
    labels = {n["label"] for n in rep.nodes}
    assert labels == {
        StratumLabel(l.lam, l.T).serialize() for l in nonempty_labels(3, F2)
    }
    assert rep.edges  # at least one covering edge was certified
    for e in rep.edges:
        assert e["method"]
        assert e["points"] >= 1
    # json and dot renderings are byte-stable
    assert rep.to_json() == build_poset(3, F2).to_json()
    assert rep.to_dot() == build_poset(3, F2).to_dot()


def test_build_poset_m1_layer_present_with_model():
    model, _ = ag_witness(2, 1, F2)
    rep = build_poset(4, F2, model=model)
    assert rep.ok
    methods = {e["method"] for e in rep.m1_edges}
    assert "invert-m1" in methods
    assert any(m.startswith("732") for m in methods)


@pytest.mark.parametrize(
    "module, recipe",
    [(deform, "sigma_collapse"), (strata, "invert_m1")],
    ids=["sigma_collapse", "invert_m1"],
)
def test_m1_layer_propagates_bug_traps(module, recipe, monkeypatch):
    # a failing recipe is a report failure only for library errors; a bug
    # trap must propagate out of the m1 layer (the named edges reach
    # sigma_collapse through deform.recipe_7_3_2)
    def broken(*args, **kwargs):
        raise AssertionError("planted bug")

    monkeypatch.setattr(module, recipe, broken)
    model, chain = ag_witness(2, 1, F2)
    groups = {stratum_label(chain): [chain]}
    with pytest.raises(AssertionError, match="planted bug"):
        strata._build_m1_layer(PosetReport(4, 2), 4, F2, model, groups)


def test_product_census_multiplies():
    pc = product_census([census(2, F2), census(3, F2)])
    assert pc.total() == 9 * 27
    assert all(isinstance(k, tuple) and len(k) == 2 for k in pc.counts)
    with pytest.raises(InvalidInput):
        product_census([census(2, F2), census(2, F3)])
    text = product_census_csv(pc)
    assert text.startswith("q,label1,label2,count")
    assert text == product_census_csv(pc)
