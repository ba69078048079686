"""Vectors and subspaces of E_N = (K[u]/(u^N))^2 with the u-action."""

import pytest
from hypothesis import given, settings, strategies as st

from latmodel.errors import InvalidInput, NonUnitPivot
from latmodel.scalars import field_elements, prime_field, small_field, truncated_ctx
from latmodel.umod import Subspace, UMatrix, UVec

F2 = prime_field(2)
F3 = prime_field(3)
F4 = small_field(4)


def _vec(ctx, N, a, b):
    return UVec.from_pairs(ctx, N, a, b)


def _rand_vec(ctx, N, data):
    """Build a vector from a flat list of 2N small ints."""
    a = tuple(ctx.from_int(data[i]) for i in range(N))
    b = tuple(ctx.from_int(data[N + i]) for i in range(N))
    return _vec(ctx, N, a, b)


vec_data = st.lists(st.integers(0, 2), min_size=6, max_size=6)


def test_uvec_basics():
    v = UVec.monomial(F2, 3, 1, 1)  # u e_1 in E_3
    w = UVec.monomial(F2, 3, 2, 0)  # e_2
    s = v.add(w)
    assert not s.is_zero()
    assert s.add(s).is_zero()  # char 2
    assert v.u_mult() == UVec.monomial(F2, 3, 1, 2)
    # u^N == 0
    assert UVec.monomial(F2, 3, 1, 2).u_mult().is_zero()


def test_uvec_serialize_round_trip():
    v = _rand_vec(F3, 3, [0, 1, 2, 2, 0, 1])
    assert UVec.deserialize(F3, 3, v.serialize()) == v


def test_frobenius_semilinear_on_vectors():
    # over F_4, frobenius squares coefficients; fixed exactly on F_2 multiples
    a = next(x for x in field_elements(F4) if F4.frobenius(x) != x)
    v = UVec.monomial(F4, 2, 1, 0, c=a)
    assert v.frobenius() != v
    assert v.frobenius().frobenius() == v


def test_span_canonical_and_idempotent():
    N = 3
    v1 = _rand_vec(F2, N, [1, 1, 0, 0, 1, 0])
    v2 = _rand_vec(F2, N, [0, 1, 0, 1, 0, 1])
    W = Subspace.span(F2, N, [v1, v2])
    assert W.dim == 2
    # span of the canonical basis reproduces the same canonical rows
    W2 = Subspace.span(F2, N, list(W.basis()))
    assert W2 == W
    # adding a dependent vector changes nothing
    W3 = Subspace.span(F2, N, [v1, v2, v1.add(v2)])
    assert W3 == W


def test_membership_and_reduce():
    N = 3
    v1 = _rand_vec(F3, N, [1, 0, 0, 0, 1, 0])
    v2 = _rand_vec(F3, N, [0, 0, 0, 1, 0, 2])
    W = Subspace.span(F3, N, [v1, v2])
    assert W.contains_vec(v1.add(v2.scale(F3.from_int(2))))
    assert W.reduce(v1).is_zero()
    outside = _rand_vec(F3, N, [0, 1, 0, 0, 0, 0])
    assert not W.contains_vec(outside)
    assert not W.reduce(outside).is_zero()


def test_dimension_formula_sum_intersect():
    N = 2
    vs = [
        _rand_vec(F2, N, d[:4] + [0, 0])
        for d in ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0])
    ]
    A = Subspace.span(F2, N, vs[:2])
    B = Subspace.span(F2, N, vs[1:])
    S = A.sum(B)
    I = A.intersect(B)
    assert S.dim + I.dim == A.dim + B.dim
    assert A.contains(I) and B.contains(I)
    assert S.contains(A) and S.contains(B)


def test_u_image_preimage_adjunction():
    N = 3
    W = Subspace.span(F2, N, [UVec.monomial(F2, N, 1, 1), UVec.monomial(F2, N, 2, 0)])
    img = W.u_image()
    pre = W.u_preimage()
    assert pre.contains(W) or not W.is_u_stable()
    # v in pre  <=>  u v in W (checked on a spanning sample)
    for v in pre.basis():
        assert W.contains_vec(v.u_mult())
    # u(u^{-1}W) lands inside W; uW stays inside W only for u-stable W
    assert W.contains(pre.u_image())
    assert W.contains(img) == W.is_u_stable()
    stable = Subspace.u_power_kernel(F2, N, 2)
    assert stable.is_u_stable()
    assert stable.contains(stable.u_image())
    # kernel of u^k has dimension 2k
    for k in range(N + 1):
        assert Subspace.u_power_kernel(F2, N, k).dim == 2 * k


def test_full_and_zero():
    assert Subspace.full(F3, 2).dim == 4
    assert Subspace.zero(F3, 2).dim == 0
    assert Subspace.full(F3, 2).is_u_stable()


def test_frobenius_twist_is_subspace():
    N = 2
    a = next(x for x in field_elements(F4) if F4.frobenius(x) != x)
    v = UVec.monomial(F4, N, 1, 0, c=a).add(UVec.monomial(F4, N, 2, 1))
    W = Subspace.span(F4, N, [v])
    T = W.frobenius_twist()
    assert T.dim == W.dim
    assert T.contains_vec(v.frobenius())


def test_subspace_serialize_round_trip():
    N = 3
    W = Subspace.span(
        F3,
        N,
        [_rand_vec(F3, N, [1, 2, 0, 0, 1, 0]), _rand_vec(F3, N, [0, 0, 1, 1, 0, 2])],
    )
    assert Subspace.deserialize(F3, W.serialize()) == W


def test_umatrix_shape_padding_and_arithmetic():
    # entries are padded or cut to length e; anything but 2x2 is rejected
    m = UMatrix.from_ints(F3, 3, [[[1, 1, 0, 2], [2]], [[0, 1], [1]]])
    assert m.entries == (((1, 1, 0), (2, 0, 0)), ((0, 1, 0), (1, 0, 0)))
    for rows in ([[[1]]], [[[1], [0], [0]], [[0], [1]]], [[[1], [0]]] * 3):
        with pytest.raises(InvalidInput):
            UMatrix.from_ints(F3, 3, rows)
    assert UMatrix.unit_plus_monomial(F3, 3, (1, 0), 2, 2).entries == (
        ((1, 0, 0), (0, 0, 0)),
        ((0, 0, 2), (1, 0, 0)),
    )
    ident = UMatrix.identity(F3, 3)
    assert m.compose(m.inverse()).entries == ident.entries
    # apply is K[u]-linear and respects composition
    v, w = _vec(F3, 3, [1, 2], [0, 1]), _vec(F3, 3, [0, 0, 1], [2])
    assert m.apply(v.add(w)) == m.apply(v).add(m.apply(w))
    assert m.apply(v.u_mult()) == m.apply(v).u_mult()
    assert m.compose(m).apply(v) == m.apply(m.apply(v))
    lifted = m.map_coeffs(lambda c: c, F3)
    assert type(lifted) is UMatrix and lifted.entries == m.entries


def test_truncated_ring_rref_skips_nonunit_columns():
    R = truncated_ctx(F2, 4)
    N = 2
    t = R.t()
    # unit pivot in second coordinate, t in the first: column 0 is skipped
    v = UVec(R, N, (t, R.zero(), R.one(), R.zero()))
    W = Subspace.span(R, N, [v])
    assert W.dim == 1
    assert W.contains_vec(v)
    assert not W.contains_vec(UVec.monomial(R, N, 1, 0))


def test_truncated_ring_nonfree_span_rejected():
    R = truncated_ctx(F2, 4)
    t = R.t()
    v = UVec(R, 2, (t, R.zero(), t, R.zero()))  # no unit anywhere
    with pytest.raises(NonUnitPivot):
        Subspace.span(R, 2, [v])


@settings(max_examples=50, deadline=None)
@given(vec_data, vec_data, vec_data)
def test_span_properties(d1, d2, d3):
    N = 3
    v1, v2, v3 = (_rand_vec(F3, N, d) for d in (d1, d2, d3))
    W = Subspace.span(F3, N, [v1, v2])
    # span membership of generators and of random combinations
    assert W.contains_vec(v1) and W.contains_vec(v2)
    assert W.contains_vec(v1.add(v2).add(v2))
    # monotonicity and absorption
    big = Subspace.span(F3, N, [v1, v2, v3])
    assert big.contains(W)
    assert big == W.sum(Subspace.span(F3, N, [v3]))
    assert 0 <= W.dim <= 2 and W.dim <= big.dim <= W.dim + 1


@settings(max_examples=50, deadline=None)
@given(vec_data, vec_data)
def test_reduce_is_canonical_coset_representative(d1, d2):
    N = 3
    v1, v2 = _rand_vec(F2, N, d1), _rand_vec(F2, N, d2)
    W = Subspace.span(F2, N, [v1])
    r = W.reduce(v2)
    assert W.contains_vec(v2.add(r))  # v2 - r in W (char 2)
    assert W.reduce(r) == r
