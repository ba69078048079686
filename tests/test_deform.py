"""One-parameter deformations: raising recipes, m1 breaking, search."""

import pytest

import json
from itertools import combinations, product

from latmodel import deform
from latmodel.chains import PRChain, enumerate_chains, group_generators, walk_label
from latmodel.deform import (
    DEFAULT_SEARCH_BUDGET,
    FamilyChain,
    _complement_generator,
    _solve_linear,
    hodge_raise,
    invert_m1,
    lift,
    linear_collapse,
    linear_raise,
    recipe_7_3_1,
    recipe_7_3_2,
    search_witness,
    sigma_collapse,
    sigma_raise,
    transport_family,
    with_precision_retry,
)
from latmodel.dieudonne import ag_witness, labeled_with_m1
from latmodel.errors import DegenerateF


def _label_or_none(model, chain):
    try:
        return labeled_with_m1(model, chain)
    except DegenerateF:
        return None
from latmodel.errors import InvalidInput, LatModelError, NotDeformable, NotFound
from latmodel.invariants import StratumLabel, dominance_leq, naive_leq, stratum_label
from latmodel.scalars import prime_field, rational_ctx
from latmodel.strata import _covering_edges, build_poset, census_by_point
from latmodel.umod import Subspace, UVec

F2 = prime_field(2)
F3 = prime_field(3)


def _mspan(ctx, e, vecs):
    closed = []
    for v in vecs:
        while not v.is_zero():
            closed.append(v)
            v = v.u_mult()
    return Subspace.span(ctx, e, closed)


def _worked_chain(ctx):
    """e=3 chain <u^2 e2> < <u^2 e1, u^2 e2> < <u^2 e1, u e2>."""
    e = 3
    mono = lambda c, d: UVec.monomial(ctx, e, c, d)
    levels = [
        _mspan(ctx, e, [mono(2, 2)]),
        _mspan(ctx, e, [mono(1, 2), mono(2, 2)]),
        _mspan(ctx, e, [mono(1, 2), mono(2, 1)]),
    ]
    return PRChain(ctx, e, levels)


def _audit(fam, start):
    """Common postconditions for any deformation family of `start`."""
    assert fam.validate() == []
    assert fam.specialize() == start
    assert fam.semicontinuity_audit()


def test_lift_constant_chain_specializes_back():
    kt = rational_ctx(F2)
    for ch in enumerate_chains(2, F2)[:5]:
        fam = FamilyChain(kt, [lift(w, kt) for w in ch.levels])
        assert (fam.mode, fam.base_ctx, fam.e) == ("exact_rational", F2, 2)
        assert fam.specialize() == ch
        assert fam.generic_label() == stratum_label(ch)


def test_family_over_a_finite_field_rejected():
    ch = enumerate_chains(2, F2)[0]
    with pytest.raises(InvalidInput):
        FamilyChain(F2, ch.levels)


def test_hodge_raise_on_worked_chain():
    ch = _worked_chain(F2)
    assert stratum_label(ch).lam == (2, 1)
    fam = hodge_raise(ch)
    _audit(fam, ch)
    assert fam.generic_label().lam == (3, 0)
    tr = fam.trace
    assert tr is not None
    assert tr.k0 == 2 and (tr.a, tr.b) == (2, 2) and tr.J == [1]
    kt = fam.tctx
    t = kt.t()
    mono = lambda c, d: UVec.monomial(kt, 3, c, d)
    # deformed generators: v2~ = u^2 e1 + t u e2, v3~ = u e2 + t u e1 + t^2 e2
    v2 = mono(1, 2).add(mono(2, 1).scale(t))
    v3 = mono(2, 1).add(mono(1, 1).scale(t)).add(mono(2, 0).scale(kt.mul(t, t)))
    assert tr.vt[2] == v2
    assert tr.vt[3] == v3


def test_hodge_raise_total_on_nonmaximal_chains():
    for ctx in (F2, F3):
        for e in (2, 3):
            for ch in enumerate_chains(e, ctx):
                lab = stratum_label(ch)
                if lab.lam == (e, 0):
                    with pytest.raises(NotDeformable):
                        hodge_raise(ch)
                    continue
                fam = hodge_raise(ch)
                _audit(fam, ch)
                gen = fam.generic_label()
                assert gen.lam == (lab.lam[0] + 1, lab.lam[1] - 1)
                assert dominance_leq(lab.lam, gen.lam)


def test_linear_recipes_on_their_strata():
    found = {"collapse": 0, "raise": 0}
    for ch in enumerate_chains(4, F2):
        lab = stratum_label(ch)
        if lab.lam == (2, 2) and lab.T == frozenset({2, 3, 4}):
            fam = linear_collapse(ch)
            _audit(fam, ch)
            assert fam.generic_label() == StratumLabel((2, 2), {3})
            assert recipe_7_3_1(ch, 1).generic_label() == fam.generic_label()
            found["collapse"] += 1
        if lab.lam == (2, 2) and lab.T == frozenset({3}):
            fam = linear_raise(ch)
            _audit(fam, ch)
            assert fam.generic_label() == StratumLabel((3, 1), {3})
            found["raise"] += 1
    assert found["collapse"] == 3 and found["raise"] == 6


def test_linear_recipes_reject_wrong_stratum():
    ch = next(
        c for c in enumerate_chains(4, F2) if stratum_label(c).lam == (4, 0)
    )
    with pytest.raises(InvalidInput):
        linear_collapse(ch)
    with pytest.raises(InvalidInput):
        linear_raise(ch)


def test_sigma_recipes_break_one_hasse_index():
    model, chain = ag_witness(2, 1, F2)
    fam = sigma_collapse(model, chain)
    assert fam.validate() == []
    assert fam.specialize() == chain
    gen = fam.generic_label()
    assert gen == StratumLabel((2, 2), {3}, "0")
    assert fam.cert.metadata["prec"] >= 2

    # the family is a valid chain over K[t]/(t^N) too, where the u-image
    # of the moved level is not re-spanned
    assert fam.as_chain().validate() == []

    # the raising variant starts from a chain on ((2,2),{3}) with m1 = 0
    chain2 = next(
        ch
        for ch in enumerate_chains(4, F2)
        if _label_or_none(model, ch) == StratumLabel((2, 2), {3}, "0")
    )
    fam2 = sigma_raise(model, chain2)
    assert fam2.specialize() == chain2
    assert fam2.generic_label() == StratumLabel((3, 1), {3}, "0")
    # dispatcher and precision retry agree
    assert recipe_7_3_2(model, chain, 1).generic_label() == gen
    assert (
        with_precision_retry(sigma_raise, model, chain2).generic_label()
        == fam2.generic_label()
    )


def test_invert_m1_breaks_sigma_invariant_only():
    model, chain = ag_witness(2, 1, F2)
    assert labeled_with_m1(model, chain).m1 == "0"
    fam = invert_m1(model, chain)
    assert fam.specialize() == chain
    gen = fam.generic_label()
    # linear data unchanged, m1 now nonzero
    assert gen.lam == (2, 2) and gen.T == frozenset({2, 3, 4})
    assert gen.m1 == "1"


def test_search_witness_finds_and_fails_honestly():
    # a first-order-reachable move at e=4: ((3,1),{3,4}) -> ((3,1),{3})
    target = StratumLabel((3, 1), {3})
    ch = next(
        c
        for c in enumerate_chains(4, F2)
        if stratum_label(c) == StratumLabel((3, 1), {3, 4})
    )
    fam = search_witness(ch, target)
    _audit(fam, ch)
    assert fam.generic_label().linear() == target
    # a target not strictly above the label is rejected up front
    with pytest.raises(InvalidInput):
        search_witness(ch, StratumLabel((3, 1), {2, 3, 4}))
    # an exhausted budget is NotFound, never silently treated as emptiness
    with pytest.raises(NotFound):
        search_witness(ch, target, budget=0)


def test_transport_family_preserves_generic_label():
    ch = _worked_chain(F2)
    fam = hodge_raise(ch)
    g = group_generators(F2, 3)[0]
    moved = transport_family(fam, g)
    assert moved.validate() == []
    assert moved.generic_label() == fam.generic_label()
    assert moved.semicontinuity_audit()


def test_family_serialization_has_trace_and_certificate():
    ch = _worked_chain(F2)
    fam = hodge_raise(ch)
    obj = fam.serialize()
    assert obj["mode"] == "exact_rational"
    assert "trace" in obj and "deformed" in obj["trace"]
    model, chain = ag_witness(2, 1, F2)
    obj2 = sigma_collapse(model, chain).serialize()
    assert obj2["mode"] == "truncated"
    assert obj2["certificate"]["label"].startswith("lambda=(2,2)")


def _e4_search():
    """A search with candidates of the target label: the first point of
    ((3,1), {3,4}) at e = 4 over F_2 towards ((3,1), {3})."""
    point = census_by_point(4, F2)[StratumLabel((3, 1), {3, 4})][0]
    return point, StratumLabel((3, 1), {3})


def test_search_witness_propagates_bug_traps(monkeypatch):
    # only library errors mark a candidate as degenerate; a bug trap raised
    # while specializing a candidate of the target label must reach the
    # caller, not become NotFound
    def broken(self):
        raise AssertionError("planted bug")

    monkeypatch.setattr(FamilyChain, "specialize", broken)
    with pytest.raises(AssertionError, match="planted bug"):
        search_witness(*_e4_search())


def test_search_witness_confirms_walk_label(monkeypatch):
    # the family found gets one full K(t) label; one that disagrees with
    # the walk label is a bug trap, not a rejected candidate
    point, target = _e4_search()
    assert search_witness(point, target).generic_label().linear() == target
    monkeypatch.setattr(
        FamilyChain, "generic_label", lambda self: StratumLabel((4, 0), ())
    )
    with pytest.raises(AssertionError, match="walk label is not the K"):
        search_witness(point, target)


@pytest.mark.parametrize(
    "e, ctx, families",
    [(3, F2, 15), (3, F3, 24), (4, F2, 147)],
    ids=["e3q2", "e3q3", "e4q2"],
)
def test_walk_label_matches_stratum_label(e, ctx, families, monkeypatch):
    # every distinct candidate family of the poset's searches (the same
    # family may come up in several searches): the walk rules give the
    # label stratum_label computes over K(t)
    seen = {}
    try_perturbation = deform._try_perturbation

    def recorded(gens, tdeltas, moves, cache):
        levels = try_perturbation(gens, tdeltas, moves, cache)
        if levels is not None:
            seen.setdefault(tuple(w.rows for w in levels), levels)
        return levels

    monkeypatch.setattr(deform, "_try_perturbation", recorded)
    build_poset(e, ctx)
    kt = rational_ctx(ctx)
    for levels in seen.values():
        assert walk_label(levels) == stratum_label(PRChain(kt, e, levels)).linear()
    assert len(seen) == families


def _search_afresh(chain, target, budget, tried):
    """The witness search with every candidate built and checked from
    scratch; appends (moves by level, level rows or None) for each try."""
    ctx, e = chain.ctx, chain.e
    tgt = target.linear()
    lab = stratum_label(chain).linear()
    if lab == tgt or not naive_leq(lab, tgt):
        raise InvalidInput("target must be strictly above the chain's label")
    kt = rational_ctx(ctx)
    trep = kt.t()
    deltas = [UVec.monomial(kt, e, c, d) for c in (1, 2) for d in range(e)]
    gens = {
        k: lift(_complement_generator(chain.level(k), chain.level(k - 1)), kt)
        for k in range(1, e + 1)
    }

    def build(moves):
        levels = []
        prev = Subspace.zero(kt, e)
        for k in range(1, e + 1):
            vk = gens[k]
            if k in moves:
                y = vk.add(deltas[moves[k]].scale(trep))
                if not prev.contains_vec(y.u_mult()):
                    return None
            elif prev.contains_vec(vk.u_mult()):
                y = vk
            else:
                cols = [prev.reduce(d.scale(trep).u_mult()).coeffs for d in deltas]
                targ = tuple(kt.neg(c) for c in prev.reduce(vk.u_mult()).coeffs)
                sol = _solve_linear(cols, targ, kt)
                if sol is None:
                    return None
                y = vk
                for c, d in zip(sol, deltas):
                    if not kt.is_zero(c):
                        y = y.add(d.scale(kt.mul(c, trep)))
                if not prev.contains_vec(y.u_mult()):
                    return None
            if prev.contains_vec(y):
                return None
            prev = Subspace.span(kt, e, prev.basis() + [y])
            levels.append(prev)
        return levels

    def check(levels):
        fam = FamilyChain(kt, levels)
        if fam.validate():
            return None
        try:
            if fam.specialize() != chain:
                return None
        except LatModelError:
            return None
        return fam

    attempts = 0
    for size in range(1, e + 1):
        for subset in combinations(range(1, e + 1), size):
            for ws in product(range(2 * e), repeat=size):
                attempts += 1
                if attempts > budget:
                    raise NotFound(
                        f"budget {budget} exhausted after {attempts - 1} tries"
                    )
                moves = dict(zip(subset, ws))
                levels = build(moves)
                tried.append((tuple(map(moves.get, range(1, e + 1))), _rows(levels)))
                fam = levels and check(levels)
                if fam is not None and fam.generic_label().linear() == tgt:
                    return fam
    raise NotFound(f"no witness within budget (tried {attempts})")


def _rows(levels):
    return None if levels is None else tuple(w.rows for w in levels)


def _outcome(search, *args):
    try:
        fam = search(*args)
    except NotFound as exc:
        return "NotFound", str(exc)
    return "found", json.dumps(fam.serialize(), sort_keys=True)


@pytest.mark.parametrize("ctx", [F2, F3], ids=["q2", "q3"])
def test_search_witness_matches_search_afresh(ctx, monkeypatch):
    # every non-maximal chain at e = 3 against each label covering its own,
    # with the default budget and one that runs out after a few tries: the
    # same tries in the same order, each with the same levels as when built
    # from scratch, and the same family or NotFound message
    tried = []
    try_perturbation = deform._try_perturbation

    def recorded(gens, tdeltas, moves, cache):
        levels = try_perturbation(gens, tdeltas, moves, cache)
        tried.append((moves, _rows(levels)))
        return levels

    monkeypatch.setattr(deform, "_try_perturbation", recorded)
    groups = census_by_point(3, ctx)
    outcomes = set()
    for lower, upper in _covering_edges(sorted(groups, key=StratumLabel.key)):
        for chain in groups[lower]:
            for budget in (DEFAULT_SEARCH_BUDGET, 5):
                tried.clear()
                got = _outcome(search_witness, chain, upper, budget)
                lib_tried = list(tried)
                tried.clear()
                assert got == _outcome(_search_afresh, chain, upper, budget, tried)
                assert lib_tried == tried
                outcomes.add(got[0])
    assert outcomes == {"found", "NotFound"}
