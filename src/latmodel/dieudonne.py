"""Mod-p Dieudonne-style models: a sigma-semilinear Frobenius on E_e.

A model is a 2x2 matrix F over K[u]/(u^e); it acts on vectors by applying
the coefficient Frobenius first and then multiplying by the matrix:
F(c v) = frobenius(c) F(v).

From a chain, F^(1) is F applied to the Frobenius twist of
u^-1(omega^(e-1)); the sigma-linear partial Hasse invariant m_1 vanishes
iff omega^(1) = F^(1).  m_1 is only defined when dim F^(1) = 1
(DegenerateF otherwise): arbitrary matrices are accepted and gated per
query rather than axiomatizing admissibility.

``ag_witness`` builds the explicit normal-form model and chain whose
stratum label is ((2,2), {2,3,4}) with m_1 = 0, for every m >= 2 and unit
c: F(e1) = u^m e1 + u^2 e2, F(e2) = c u^2 e2 with the flag
omega^(1) = <u^3 e2>, omega^(2) = <u^3 e1, u^3 e2>,
omega^(3) = <u^3 e1, u^2 e2>, omega^(4) = <u^2 e1, u^2 e2>.
This entry arrangement is the one that actually satisfies
ker F = omega^(4), F^(1) = <c u^3 e2> = omega^(1) (m-independently).
"""

from __future__ import annotations

from .chains import PRChain
from .errors import DegenerateF, InvalidInput
from .invariants import StratumLabel, stratum_label
from .umod import Subspace, UMatrix, UVec


class DieudonneModel(UMatrix):
    """2x2 Frobenius matrix over K[u]/(u^e), acting sigma-semilinearly."""

    __slots__ = ()

    def apply(self, vec):
        """The semilinear action F(v) = matrix * frobenius(v)."""
        return super().apply(vec.frobenius())

    def serialize(self):
        ctx = self.ctx
        return {
            "e": self.e,
            "F": [
                [[ctx.serialize(c) for c in poly] for poly in row]
                for row in self.entries
            ],
        }

    @classmethod
    def deserialize(cls, ctx, obj):
        """The model of serialize(); each entry is padded with zeros or cut
        to length e."""
        raw = [[[ctx.deserialize(c) for c in poly] for poly in row] for row in obj["F"]]
        e, zero = obj["e"], ctx.zero()
        return cls(ctx, e, [[(poly + [zero] * e)[:e] for poly in row] for row in raw])


def f_one(model, chain):
    """F applied to the Frobenius twist of u^-1(omega^(e-1))."""
    if model.ctx != chain.ctx or model.e != chain.e:
        raise InvalidInput("model and chain context mismatch")
    return model.image(chain.level(chain.e - 1).u_preimage())


def m1_vanishes(model, chain):
    """True iff omega^(1) = F^(1); DegenerateF when dim F^(1) != 1."""
    F1 = f_one(model, chain)
    if F1.dim != 1:
        raise DegenerateF(f"dim F^(1) = {F1.dim} != 1")
    return chain.level(1).equals(F1)


def labeled_with_m1(model, chain):
    """Full stratum label with the m1 flag resolved via the model."""
    lab = stratum_label(chain)
    flag = "0" if m1_vanishes(model, chain) else "1"
    return StratumLabel(lab.lam, lab.T, flag)


def ag_witness(m, c, ctx, e=4):
    """The explicit witness (model, chain) with label ((2,2),{2,3,4}), m1=0."""
    if e != 4:
        raise InvalidInput("witness only defined for e = 4")
    if m < 2:
        raise InvalidInput("m must be >= 2")
    if not ctx.is_unit(ctx.from_int(c)):
        raise InvalidInput("c must be a unit")
    um = [0] * e
    if m < e:
        um[m] = 1
    model = DieudonneModel.from_ints(
        ctx,
        e,
        [
            [um, [0]],
            [[0, 0, 1], [0, 0, c]],
        ],
    )
    mono = lambda coord, deg: UVec.monomial(ctx, e, coord, deg)
    mspan = lambda vecs: Subspace.module_span(ctx, e, vecs)
    levels = [
        mspan([mono(2, 3)]),
        mspan([mono(1, 3), mono(2, 3)]),
        mspan([mono(1, 3), mono(2, 2)]),
        mspan([mono(1, 2), mono(2, 2)]),
    ]
    chain = PRChain(ctx, e, levels)
    if chain.validate():
        raise AssertionError("witness chain failed validation (bug)")
    lab = stratum_label(chain)
    if lab.lam != (2, 2) or lab.T != frozenset({2, 3, 4}):
        raise AssertionError("witness label mismatch (bug)")
    if not m1_vanishes(model, chain):
        raise AssertionError("witness m1 != 0 (bug)")
    return model, chain
