"""Scalar tower: finite fields, rational functions in t, truncated t-rings."""

import pytest
from hypothesis import given, settings, strategies as st

from latmodel.errors import InvalidInput, NonUnitDivision, PoleAtZero
from latmodel.scalars import (
    ctx_from_serialized,
    extension_field,
    field_elements,
    prime_field,
    rational_ctx,
    small_field,
    truncated_ctx,
)

F2 = prime_field(2)
F3 = prime_field(3)
F4 = small_field(4)
F9 = small_field(9)
KT2 = rational_ctx(F2)
R4 = truncated_ctx(F3, 4)

CTXS = [F2, F3, F4, F9, KT2, R4]


def _sample_elems(ctx, n=6):
    """Deterministic small sample of elements of any context kind."""
    if ctx.is_finite:
        return field_elements(ctx)[:n]
    base = field_elements(ctx.base)[:3]
    t = ctx.t()
    out = [ctx.zero(), ctx.one(), t, ctx.add(ctx.one(), t), ctx.mul(t, t)]
    out.append(ctx.add(ctx.lift(base[-1]), ctx.mul(t, t)))
    return out[:n]


@pytest.mark.parametrize("ctx", CTXS, ids=str)
def test_ring_axioms_on_samples(ctx):
    elems = _sample_elems(ctx)
    for a in elems:
        assert ctx.add(a, ctx.zero()) == a
        assert ctx.mul(a, ctx.one()) == a
        assert ctx.add(a, ctx.neg(a)) == ctx.zero()
        for b in elems:
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)
            for c in elems:
                assert ctx.mul(a, ctx.add(b, c)) == ctx.add(
                    ctx.mul(a, b), ctx.mul(a, c)
                )


@pytest.mark.parametrize("ctx", CTXS, ids=str)
def test_units_invert(ctx):
    for a in _sample_elems(ctx):
        if ctx.is_unit(a):
            assert ctx.mul(a, ctx.inv(a)) == ctx.one()


def test_truncated_nonunit_division_raises():
    t = R4.t()
    with pytest.raises(NonUnitDivision):
        R4.inv(t)
    with pytest.raises(NonUnitDivision):
        R4.div(R4.one(), R4.zero())


@pytest.mark.parametrize("ctx", [F2, F3, F4, F9], ids=str)
def test_frobenius_is_additive_and_multiplicative(ctx):
    elems = field_elements(ctx)
    for a in elems:
        for b in elems:
            assert ctx.frobenius(ctx.add(a, b)) == ctx.add(
                ctx.frobenius(a), ctx.frobenius(b)
            )
            assert ctx.frobenius(ctx.mul(a, b)) == ctx.mul(
                ctx.frobenius(a), ctx.frobenius(b)
            )


def test_frobenius_fixes_prime_subfield():
    for ctx in (F4, F9):
        one = ctx.one()
        acc = ctx.zero()
        for _ in range(ctx.p):
            assert ctx.frobenius(acc) == acc
            acc = ctx.add(acc, one)


def test_frobenius_on_t_extensions_maps_t_to_tp():
    for ctx in (KT2, R4):
        t = ctx.t()
        expect = t
        for _ in range(ctx.p - 1):
            expect = ctx.mul(expect, t)
        assert ctx.frobenius(t) == expect


def test_specialize0():
    t = KT2.t()
    one = KT2.one()
    a = KT2.div(one, KT2.add(one, t))  # 1/(1+t) -> 1
    assert KT2.specialize0(a) == F2.one()
    with pytest.raises(PoleAtZero):
        KT2.specialize0(KT2.div(one, t))
    rt = R4.t()
    assert R4.specialize0(R4.add(R4.one(), rt)) == F3.one()


def test_t_valuation():
    t = KT2.t()
    one = KT2.one()
    assert KT2.t_valuation(t) == 1
    assert KT2.t_valuation(KT2.div(one, t)) == -1
    assert KT2.t_valuation(one) == 0
    assert KT2.t_valuation(KT2.zero()) is None
    rt = R4.t()
    assert R4.t_valuation(R4.mul(rt, rt)) == 2
    assert R4.t_valuation(R4.zero()) is None


@pytest.mark.parametrize("ctx", CTXS, ids=str)
def test_serialize_round_trip(ctx):
    for a in _sample_elems(ctx):
        assert ctx.deserialize(ctx.serialize(a)) == a


def test_ctx_serialization_round_trip():
    for ctx in (F2, F3, F4, F9):
        assert ctx_from_serialized(ctx.serialize_ctx()) == ctx


def test_field_elements_canonical_and_complete():
    for ctx, q in ((F2, 2), (F3, 3), (F4, 4), (F9, 9)):
        elems = field_elements(ctx)
        assert len(elems) == q
        assert len(set(elems)) == q
        assert elems == sorted(elems)


def test_irreducibility_validation():
    with pytest.raises(InvalidInput):
        extension_field(2, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(InvalidInput):
        prime_field(4)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_f9_associativity_property(i, j, k):
    elems = field_elements(F9)
    a, b, c = elems[i], elems[j], elems[k]
    assert F9.mul(F9.mul(a, b), c) == F9.mul(a, F9.mul(b, c))
    assert F9.add(F9.add(a, b), c) == F9.add(a, F9.add(b, c))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=4),
       st.lists(st.integers(0, 1), min_size=1, max_size=4))
def test_rational_field_division_property(nu, de):
    """(a/b) * b == a for nonzero b, with canonical reduced forms."""
    t = KT2.t()
    def poly(cs):
        acc = KT2.zero()
        pw = KT2.one()
        for c in cs:
            if c:
                acc = KT2.add(acc, pw)
            pw = KT2.mul(pw, t)
        return acc
    a, b = poly(nu), poly(de)
    if KT2.is_zero(b):
        return
    assert KT2.mul(KT2.div(a, b), b) == a
