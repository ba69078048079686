"""Linear invariants: block partitions, Hodge pairs, labels, posets."""

from functools import lru_cache, reduce

import pytest
from hypothesis import given, settings, strategies as st

from latmodel.chains import (
    act,
    enumerate_chains,
    group_generators,
    standard_free_chain,
)
from latmodel.errors import InvalidInput
from latmodel.invariants import (
    StratumLabel,
    adm_poset,
    block_partition,
    dominance_leq,
    hodge,
    is_free_rank_one,
    mi_vanishes,
    naive_leq,
    nilpotency_index,
    product_poset,
    stratum_label,
)
from latmodel.scalars import prime_field, small_field
from latmodel.umod import Subspace, UVec, span

F2 = prime_field(2)
F3 = prime_field(3)


def _mspan(ctx, N, vecs):
    return span(vecs, ctx, N)


def test_block_partition_known_cases():
    N = 3
    zero = Subspace.zero(F2, N)
    # <u^2 e1> is one block of size 1
    W1 = _mspan(F2, N, [UVec.monomial(F2, N, 1, 2)])
    assert block_partition(zero, W1) == [1]
    # <u e1, u^2 e1> is one block of size 2
    W2 = _mspan(F2, N, [UVec.monomial(F2, N, 1, 1), UVec.monomial(F2, N, 1, 2)])
    assert block_partition(zero, W2) == [2]
    # <u^2 e1, u^2 e2> is two blocks of size 1
    W3 = _mspan(F2, N, [UVec.monomial(F2, N, 1, 2), UVec.monomial(F2, N, 2, 2)])
    assert block_partition(zero, W3) == [1, 1]
    # full space: two blocks of size N
    assert block_partition(zero, Subspace.full(F2, N)) == [N, N]
    # relative quotient full / W3 has blocks [2, 2]
    assert block_partition(W3, Subspace.full(F2, N)) == [2, 2]


def test_block_partition_input_validation():
    N = 2
    A = _mspan(F2, N, [UVec.monomial(F2, N, 1, 1)])
    B = _mspan(F2, N, [UVec.monomial(F2, N, 2, 1)])
    with pytest.raises(InvalidInput):
        block_partition(A, B)  # A not contained in B
    C = _mspan(F2, N, [UVec.monomial(F2, N, 1, 0)])  # <e1> is not u-stable
    with pytest.raises(InvalidInput):
        block_partition(Subspace.zero(F2, N), C)


def test_hodge_known_pairs():
    N = 3
    assert hodge(Subspace.zero(F2, N)) == (N, N)
    assert hodge(Subspace.full(F2, N)) == (0, 0)
    W = _mspan(F2, N, [UVec.monomial(F2, N, 1, 2)])
    assert hodge(W) == (3, 2)
    W = _mspan(F2, N, [UVec.monomial(F2, N, 1, 2), UVec.monomial(F2, N, 2, 2)])
    assert hodge(W) == (2, 2)
    W = _mspan(
        F2, N,
        [UVec.monomial(F2, N, 1, 2), UVec.monomial(F2, N, 2, 1),
         UVec.monomial(F2, N, 2, 2)],
    )
    assert hodge(W) == (2, 1)


def test_hodge_rank_identity_over_all_chain_tops():
    # the internal rank-identity assertion runs on every call
    for ch in enumerate_chains(3, F2):
        a, b = hodge(ch.top)
        assert 0 <= b <= a <= 3
        assert a + b == 2 * 3 - ch.top.dim


def test_nilpotency_and_freeness():
    e = 3
    free = standard_free_chain(F2, e).top
    assert nilpotency_index(free) == e
    assert is_free_rank_one(free)
    ker = Subspace.u_power_kernel(F2, e, 1)
    assert nilpotency_index(ker) == 1


def test_dominance():
    assert dominance_leq((2, 2), (3, 1))
    assert dominance_leq((3, 1), (3, 1))
    assert not dominance_leq((4, 0), (3, 1))
    with pytest.raises(InvalidInput):
        dominance_leq((2, 1), (3, 1))


def test_mi_vanishes_matches_definition():
    for ch in enumerate_chains(3, F2):
        for i in range(2, 4):
            expect = ch.level(i - 2).contains(ch.level(i).u_image())
            assert mi_vanishes(ch, i) == expect


def test_stratum_label_three_way_equivalence():
    for ch in enumerate_chains(3, F3):
        lab = stratum_label(ch)
        assert (lab.lam == (3, 0)) == (not lab.T)
        assert (lab.lam == (3, 0)) == is_free_rank_one(ch.top)
        assert lab.m1 == "?"


def test_label_parse_serialize_round_trip():
    for lam, T, m1 in (
        ((3, 1), {3}, "?"),
        ((2, 2), {2, 3, 4}, "0"),
        ((4, 0), set(), "1"),
    ):
        lab = StratumLabel(lam, T, m1)
        assert StratumLabel.parse(lab.serialize()) == lab
    # m1 suffix optional on parse
    assert StratumLabel.parse("lambda=(3,1);T={3}") == StratumLabel((3, 1), {3})
    with pytest.raises(InvalidInput):
        StratumLabel.parse("lambda=3,1;T={}")
    with pytest.raises(InvalidInput):
        StratumLabel((1, 1), set(), "2")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.lists(st.integers(2, 4), max_size=3),
       st.sampled_from(["0", "1", "?"]))
def test_label_round_trip_property(a, T, m1):
    lab = StratumLabel((a, 4 - a), T, m1)
    assert StratumLabel.parse(lab.serialize()) == lab


@lru_cache(maxsize=None)
def _chains_and_generators(e, q):
    ctx = small_field(q)
    return enumerate_chains(e, ctx), group_generators(ctx, e)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3),
    st.sampled_from([2, 3, 4]),
    st.integers(0, 10**6),
    st.lists(st.integers(0, 10**6), min_size=1, max_size=4),
)
def test_stratum_label_is_constant_on_orbits(e, q, chain_idx, word):
    # a stratum is a union of orbits: any word g in the generators of
    # GL_2(K[u]/(u^e)) keeps the label of every chain
    chains, gens = _chains_and_generators(e, q)
    chain = chains[chain_idx % len(chains)]
    g = reduce(lambda a, b: a.compose(b), (gens[i % len(gens)] for i in word))
    assert stratum_label(act(g, chain)) == stratum_label(chain)


def test_naive_leq_is_a_preorder_on_e4_labels():
    labels = [
        StratumLabel(lam, T)
        for lam in ((2, 2), (3, 1), (4, 0))
        for T in (set(), {2}, {3}, {2, 3}, {2, 3, 4})
    ]
    for x in labels:
        assert naive_leq(x, x)
        for y in labels:
            for z in labels:
                if naive_leq(x, y) and naive_leq(y, z):
                    assert naive_leq(x, z)
    # the m1 flag participates as index 1
    lo = StratumLabel((2, 2), {2}, "0")
    hi = StratumLabel((2, 2), {2}, "1")
    assert naive_leq(lo, hi)
    assert not naive_leq(hi, lo)


def test_adm_poset_dimensions():
    P = adm_poset(4)
    assert P.labels == [(2, 2), (3, 1), (4, 0)]
    assert [P.dim_X(l) for l in P.labels] == [2, 3, 4]
    assert [P.dim_gr(l) for l in P.labels] == [0, 2, 4]
    assert [P.dim_fiber(l) for l in P.labels] == [2, 1, 0]
    # dim_X = dim_gr + dim_fiber on every admissible pair
    for l in P.labels:
        assert P.dim_X(l) == P.dim_gr(l) + P.dim_fiber(l)


def test_product_poset_dimensions_add():
    P = product_poset([adm_poset(2), adm_poset(3)])
    assert len(P.labels) == 2 * 2
    for lab in P.labels:
        assert P.dim_X(lab) == adm_poset(2).dim_X(lab[0]) + adm_poset(3).dim_X(lab[1])
    # componentwise order
    assert P.leq(((1, 1), (2, 1)), ((2, 0), (3, 0)))
    assert not P.leq(((2, 0), (2, 1)), ((1, 1), (3, 0)))
