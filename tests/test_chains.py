"""Periodic chains of u-stable subspaces, group action, orbits, fibers."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from latmodel.chains import (
    ConvChain,
    PRChain,
    TruncatedGroupElement,
    act,
    conv_denormalize,
    conv_normalize,
    enumerate_chains,
    fiber_chains,
    group_generators,
    group_order,
    labelled_chains,
    orbit_transports,
    orbits,
    standard_free_chain,
)
from latmodel import chains as chains_mod
from latmodel.invariants import StratumLabel, hodge, stratum_label
from latmodel.scalars import field_elements, prime_field, small_field
from latmodel.strata import census
from latmodel.umod import Subspace, UVec

F2 = prime_field(2)
F3 = prime_field(3)
F4 = small_field(4)


def test_enumeration_count_matches_closed_form():
    # chains of length e are counted by (q+1)^e
    for ctx, q in ((F2, 2), (F3, 3), (F4, 4)):
        for e in (1, 2, 3):
            assert len(enumerate_chains(e, ctx)) == (q + 1) ** e


@pytest.mark.parametrize(
    "e, q",
    [(e, q) for q in (2, 3) for e in (1, 2, 3, 4)]
    + [(e, q) for q in (4, 8, 9) for e in (1, 2, 3)]
    + [(5, 2)],
)
def test_labelled_walk_matches_stratum_label(e, q):
    # the labels the walk builds level by level are the labels read off
    # each finished chain, in enumeration order
    ctx = small_field(q)
    assert labelled_chains(e, ctx) == [
        (c, stratum_label(c).linear()) for c in enumerate_chains(e, ctx)
    ]


def _respanned_walk(e, ctx):
    """The census walk with every level re-reduced: each parent's
    u-preimage by a nullspace, its complement by a span, and each child by
    a full RREF of the parent's rows and v.  The reference for
    labelled_chains' pivot insertion and socle update."""
    elements = field_elements(ctx)
    partial = [((Subspace.zero(ctx, e),), 0, ())]  # (omega^(0..i-1), c, T)
    for i in range(1, e + 1):
        nxt = []
        for levels, c, T in partial:
            prev = levels[-1]
            comp = chains_mod._complement_basis(prev.u_preimage(), prev)
            for v in chains_mod._lines_through(ctx, comp, elements):
                w = Subspace.span(ctx, e, prev.basis() + [v])
                m_i_zero = i > 1 and levels[-2].contains_vec(v.u_mult())
                T_i = T + (i,) if m_i_zero else T
                nxt.append((levels + (w,), c + (chains_mod._nil_order(v) > c), T_i))
        partial = nxt
    out = [
        (PRChain(ctx, e, levels[1:]), StratumLabel((c, e - c), T))
        for levels, c, T in partial
    ]
    out.sort(key=lambda pair: pair[0].key())
    return out


@pytest.mark.parametrize(
    "e, q",
    [(e, q) for q in (2, 3, 4) for e in (1, 2, 3, 4)]
    + [(3, 8), (3, 9), (2, 9), (5, 2), (6, 2)],
)
def test_walk_matches_the_respanned_walk(e, q):
    # pivot insertion and socle updates give the same ordered (chain,
    # label) list as re-reducing every level, and every level they build
    # is the RREF that a full row reduction of its basis gives
    ctx = small_field(q)
    pairs = labelled_chains(e, ctx)
    assert pairs == _respanned_walk(e, ctx)
    for chain, _ in pairs:
        for w in chain.levels:
            full = Subspace.span(ctx, e, w.basis())
            assert (full.rows, full.pivots) == (w.rows, w.pivots)


def test_walk_traps_a_socle_defect(monkeypatch):
    # a socle that lost a vector would silently drop chains from the count
    child_socle = chains_mod._child_socle
    monkeypatch.setattr(
        chains_mod, "_child_socle", lambda *args: child_socle(*args)[:1]
    )
    with pytest.raises(AssertionError, match="socle of dimension 1"):
        labelled_chains(3, F2)


def test_enumeration_is_deterministic_and_valid():
    a = enumerate_chains(3, F2)
    b = enumerate_chains(3, F2)
    assert [c.key() for c in a] == [c.key() for c in b]
    assert len({c.key() for c in a}) == len(a)
    for c in a:
        assert c.is_valid()
        # level i has dimension i, top level has dimension e
        for i in range(1, c.e + 1):
            assert c.level(i).dim == i


def test_chain_validation_reports_violations():
    e = 2
    # dimension mismatch: both levels of dim 2
    ker = Subspace.u_power_kernel(F2, e, 1)
    bad = PRChain(F2, e, [ker, ker])
    assert any("dim" in msg for msg in bad.validate())
    assert not bad.is_valid()
    # a valid chain: <u e1> inside <u e1, u e2>
    A = Subspace.span(F2, e, [UVec.monomial(F2, e, 1, 1)])
    B = Subspace.span(F2, e, [UVec.monomial(F2, e, 2, 1), UVec.monomial(F2, e, 1, 1)])
    assert PRChain(F2, e, [A, B]).is_valid()
    # non-nested levels: <u e2> not inside <u e1, e1>
    C = Subspace.span(F2, e, [UVec.monomial(F2, e, 2, 1)])
    D = Subspace.span(F2, e, [UVec.monomial(F2, e, 1, 1), UVec.monomial(F2, e, 1, 0)])
    assert PRChain(F2, e, [C, D]).validate()


def test_standard_free_chain_is_valid():
    for e in (1, 2, 3, 4):
        ch = standard_free_chain(F2, e)
        assert ch.is_valid()


def test_serialize_round_trip():
    for ch in enumerate_chains(2, F3):
        assert PRChain.deserialize(F3, ch.serialize()) == ch


def test_conv_round_trip():
    for ch in enumerate_chains(3, F2):
        cc = conv_normalize(ch)
        assert isinstance(cc, ConvChain)
        back = conv_denormalize(cc)
        assert back == ch


def test_group_order_and_generators():
    assert group_order(1, 2) == 6  # GL_2(F_2) has order 6
    # (1, 4): over an extension field the units are not the integers mod q
    for e, q in ((2, 2), (1, 4), (2, 3), (3, 2)):
        ctx = small_field(q)
        gens = group_generators(ctx, e)
        assert all(isinstance(g, TruncatedGroupElement) for g in gens)
        # closure of generators has the full group order
        seen = {TruncatedGroupElement.identity(ctx, e).entries}
        frontier = [TruncatedGroupElement.identity(ctx, e)]
        while frontier:
            g = frontier.pop()
            for h in gens:
                gh = g.compose(h)
                if gh.entries not in seen:
                    seen.add(gh.entries)
                    frontier.append(gh)
        assert len(seen) == group_order(e, q), (e, q)


def _full_generators(ctx, e):
    """Every shear 1 + r E_12, 1 + r E_21 (r != 0) and every diagonal unit
    diag(d, 1), diag(1, d) (d != 1): the original, larger generating set,
    kept as the reference for the small one."""
    elements = field_elements(ctx)
    one, zero = TruncatedGroupElement.identity(ctx, e).entries[0]
    polys = [tuple(cs) for cs in itertools.product(elements, repeat=e)]
    gens = []
    for r in polys[1:]:
        gens.append(TruncatedGroupElement(ctx, e, [[one, r], [zero, one]]))
        gens.append(TruncatedGroupElement(ctx, e, [[one, zero], [r, one]]))
    for d in polys:
        if ctx.is_zero(d[0]) or d == one:
            continue
        gens.append(TruncatedGroupElement(ctx, e, [[d, zero], [zero, one]]))
        gens.append(TruncatedGroupElement(ctx, e, [[one, zero], [zero, d]]))
    return gens


@pytest.mark.parametrize("e,q", [(3, 3), (4, 2)])
def test_small_generating_set_gives_the_same_orbits(e, q, monkeypatch):
    ctx = small_field(q)
    small = orbit_transports(e, ctx)
    monkeypatch.setattr(chains_mod, "group_generators", _full_generators)
    full = orbit_transports(e, ctx)
    assert small.keys() == full.keys()
    # the same representative for every chain, hence the same orbit sizes
    assert all(small[k][0].key() == full[k][0].key() for k in full)
    sizes = lambda tr: Counter(rep.key() for rep, _ in tr.values())
    assert sizes(small) == sizes(full)
    for tr in (small, full):
        for key, (rep, g) in tr.items():
            assert act(g, rep).key() == key


def test_orbit_work_counts(monkeypatch):
    # a gate on the size of the orbit BFS: every chain is acted on by every
    # generator once, 81 chains x 11 generators (44 with the full set)
    assert len(group_generators(F2, 4)) == 11
    calls = [0]

    def counting(g, chain):
        calls[0] += 1
        return act(g, chain)

    monkeypatch.setattr(chains_mod, "act", counting)
    orbit_transports(4, F2)
    assert calls[0] == 891


def test_group_inverse():
    e = 3
    ident = TruncatedGroupElement.identity(F2, e)
    for g in group_generators(F2, e):
        gi = g.inverse()
        assert g.compose(gi).entries == ident.entries
        assert gi.compose(g).entries == ident.entries


def test_action_preserves_validity_and_partitions():
    e = 2
    chains = enumerate_chains(e, F2)
    g = group_generators(F2, e)[0]
    for ch in chains:
        moved = act(g, ch)
        assert moved.is_valid()
    # action permutes the chain set
    keys = {act(g, ch).key() for ch in chains}
    assert keys == {ch.key() for ch in chains}


def test_orbits_partition_the_chain_set():
    e, ctx = 3, F2
    orbs = orbits(e, ctx)
    total = sum(size for _, size in orbs)
    assert total == len(enumerate_chains(e, ctx))
    # orbit sizes divide the group order
    G = group_order(e, 2)
    for _, size in orbs:
        assert G % size == 0


def test_orbit_transports_are_transports():
    e, ctx = 2, F2
    tr = orbit_transports(e, ctx)
    assert len(tr) == len(enumerate_chains(e, ctx))
    for key, (rep, g) in tr.items():
        assert act(g, rep).key() == key


def test_fibers_partition_chains_over_lattices():
    # fiber_chains (downward recursion from the top) is the reference for
    # the fibers the census reads off its walk, top by top
    # over F_4 and F_8 the elements are tuples; fiber_chains shares none of
    # the walk's pivot insertion and socle update
    for e, ctx in ((3, F2), (3, F3), (4, F2), (3, F4), (2, small_field(8))):
        chains = enumerate_chains(e, ctx)
        lattices = {ch.top.rows: ch.top for ch in chains}
        fibers = census(e, ctx).fibers
        assert set(fibers) == set(lattices)
        fiber_sizes = 0
        seen = set()
        for W in lattices.values():
            fib = fiber_chains(W, e)
            for ch in fib:
                assert ch.is_valid()
                assert ch.top == W
                assert ch.key() not in seen
                seen.add(ch.key())
            fiber_sizes += len(fib)
            assert fibers[W.rows] == (hodge(W), len(fib))
        assert fiber_sizes == len(chains)
        assert seen == {ch.key() for ch in chains}


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_action_is_a_group_action(i, j):
    e = 2
    chains = enumerate_chains(e, F2)
    gens = group_generators(F2, e)
    g = gens[i % len(gens)]
    h = gens[j % len(gens)]
    ch = chains[(i * 7 + j) % len(chains)]
    # (g h) . x == g . (h . x)
    assert act(g.compose(h), ch) == act(g, act(h, ch))
    assert act(TruncatedGroupElement.identity(F2, e), ch) == ch
