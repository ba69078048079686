"""Semilinear Frobenius models, F^(1), and the m_1 invariant."""

import pytest

from latmodel.chains import enumerate_chains
from latmodel.dieudonne import (
    DieudonneModel,
    ag_witness,
    f_one,
    labeled_with_m1,
    m1_vanishes,
)
from latmodel.errors import DegenerateF, InvalidInput
from latmodel.scalars import field_elements, prime_field, small_field
from latmodel.umod import UVec

F2 = prime_field(2)
F3 = prime_field(3)
F4 = small_field(4)


def test_apply_is_sigma_semilinear():
    e = 3
    model = DieudonneModel.from_ints(F4, e, [[[0, 1], [1]], [[0, 0, 1], [1, 1]]])
    a = next(x for x in field_elements(F4) if F4.frobenius(x) != x)
    v = UVec.monomial(F4, e, 1, 0).add(UVec.monomial(F4, e, 2, 1))
    # F(c v) = frobenius(c) F(v)
    lhs = model.apply(v.scale(a))
    rhs = model.apply(v).scale(F4.frobenius(a))
    assert lhs == rhs
    # additivity
    w = UVec.monomial(F4, e, 2, 0)
    assert model.apply(v.add(w)) == model.apply(v).add(model.apply(w))
    # F commutes with u
    assert model.apply(v.u_mult()) == model.apply(v).u_mult()


def test_serialize_round_trip():
    model = DieudonneModel.from_ints(F3, 3, [[[1, 2], [0]], [[0, 1], [2]]])
    back = DieudonneModel.deserialize(F3, model.serialize())
    assert back.entries == model.entries and back.e == model.e


def test_serialize_round_trip_over_f4_pads_and_cuts_entries():
    e = 3
    z, one = F4.zero(), F4.one()
    a = next(x for x in field_elements(F4) if F4.frobenius(x) != x)
    entries = [[(a, one, z), (z, z, a)], [(one, z, z), (a, a, one)]]
    model = DieudonneModel(F4, e, entries)
    obj = model.serialize()
    assert DieudonneModel.deserialize(F4, obj).entries == model.entries
    # an entry longer than e is cut to e, a shorter one padded with zeros
    obj["F"][0][0] = obj["F"][0][0] + [F4.serialize(a)]
    obj["F"][1][0] = obj["F"][1][0][:1]
    back = DieudonneModel.deserialize(F4, obj)
    assert back.entries == model.entries and back.e == e


def test_f_one_context_mismatch_rejected():
    model = DieudonneModel.from_ints(F2, 3, [[[1], [0]], [[0], [1]]])
    chain = enumerate_chains(2, F2)[0]
    with pytest.raises(InvalidInput):
        f_one(model, chain)


def test_m1_degenerate_gate():
    e = 4
    zero_model = DieudonneModel.from_ints(F2, e, [[[0], [0]], [[0], [0]]])
    _, chain = ag_witness(2, 1, F2)
    with pytest.raises(DegenerateF):
        m1_vanishes(zero_model, chain)


def test_ag_witness_postconditions():
    for m in (2, 3, 4, 7):
        for ctx, c in ((F2, 1), (F3, 2)):
            model, chain = ag_witness(m, c, ctx)
            lab = labeled_with_m1(model, chain)
            assert lab.lam == (2, 2)
            assert lab.T == frozenset({2, 3, 4})
            assert lab.m1 == "0"
            F1 = f_one(model, chain)
            assert F1.dim == 1
            assert F1.equals(chain.level(1))


def test_ag_witness_input_validation():
    with pytest.raises(InvalidInput):
        ag_witness(1, 1, F2)  # m < 2
    with pytest.raises(InvalidInput):
        ag_witness(2, 0, F2)  # c not a unit
    with pytest.raises(InvalidInput):
        ag_witness(2, 1, F2, e=3)


def test_m1_splits_a_linear_stratum():
    # over a fixed model, m1 takes both values on the ((2,2),{2,3,4})
    # stratum at e=4, q=2, so the flag is a genuine refinement
    model, _ = ag_witness(2, 1, F2)
    flags = set()
    for ch in enumerate_chains(4, F2):
        lab = labeled_with_m1(model, ch) if _f1_ok(model, ch) else None
        if lab and lab.lam == (2, 2) and lab.T == frozenset({2, 3, 4}):
            flags.add(lab.m1)
    assert flags == {"0", "1"}


def _f1_ok(model, chain):
    try:
        m1_vanishes(model, chain)
        return True
    except DegenerateF:
        return False
