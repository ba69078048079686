"""End-to-end acceptance checks for the full verification stack.

Each test pins one externally meaningful guarantee: exact invariant
values, closed-form census totals against an independent oracle, frozen
emptiness tables, universal lemmas over exhaustive censuses, integer
degree fits, flatness of the endpoint map, totality of the raising
deformation, the certified closure suite, the explicit Frobenius
witness, orbit separation by signatures, and the product layer.
Stated runtime budgets are asserted.
"""

import time
from collections import Counter

import pytest

from latmodel.chains import enumerate_chains, orbits
from latmodel.cli import main as cli_main
from latmodel.deform import hodge_raise, invert_m1
from latmodel.dieudonne import ag_witness, f_one, labeled_with_m1
from latmodel.errors import NotDeformable
from latmodel.invariants import (
    adm_poset,
    block_partition,
    hodge,
    is_free_rank_one,
    product_poset,
    stratum_label,
)
from latmodel.scalars import prime_field, small_field
from latmodel.strata import (
    EXPECTED_NONEMPTY_E4,
    census,
    degree_fit,
    emptiness_table,
    fiber_constancy,
    hodge_step_check,
    product_census,
)
from latmodel.umod import Subspace, UVec

F2 = prime_field(2)
F3 = prime_field(3)


class Timer:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.t0
            assert elapsed < self.budget, f"runtime {elapsed:.1f}s > {self.budget}s"


def _mspan(ctx, N, vecs):
    closed = []
    for v in vecs:
        while not v.is_zero():
            closed.append(v)
            v = v.u_mult()
    return Subspace.span(ctx, N, closed)


# ---------------------------------------------------------------- 1
def test_invariant_values_of_reference_lattices():
    """The three reference lattices at N=3 have pairs (3,2), (2,2), (2,1)."""
    with Timer(1.0):
        N = 3
        mono = lambda c, d: UVec.monomial(F2, N, c, d)
        # the generator u^3 e2 of the smallest lattice truncates to zero at N=3
        lattices = [
            _mspan(F2, N, [mono(1, 2)]),
            _mspan(F2, N, [mono(1, 2), mono(2, 2)]),
            _mspan(F2, N, [mono(1, 2), mono(2, 1)]),
        ]
        assert [hodge(w) for w in lattices] == [(3, 2), (2, 2), (2, 1)]


# ---------------------------------------------------------------- 2
def _oracle_census_q2(e):
    """Brute force over F_2^(2e) with the explicit shift action of u.

    Bit d of a vector is the coefficient of u^d e1 and bit e + d that of
    u^d e2, so u shifts each block up by one and drops its top bit.  A
    subspace is the set of its vectors, and a chain is a flag W_1 < ... <
    W_e with dim W_i = i and u W_i <= W_(i-1), where W_0 = {0}.  Returns
    the chain count per (lambda, T): lambda = (c, e - c) for the least c
    with u^c W_e = 0, and T = {i >= 2 : u W_i <= W_(i-2)}.
    """
    mask = (1 << e) - 1

    def u(v):
        return ((v << 1) & mask) | ((((v >> e) << 1) & mask) << e)

    def image(W):
        return frozenset(u(x) for x in W)

    flags = {(frozenset({0}),)}
    for _ in range(e):
        nxt = set()
        for flag in flags:
            prev = flag[-1]
            for v in range(1, 1 << 2 * e):
                W = prev | {x ^ v for x in prev}
                if v not in prev and image(W) <= prev:
                    nxt.add(flag + (W,))
        flags = nxt
    counts = Counter()
    for flag in flags:
        c, W = 0, flag[-1]
        while W != {0}:
            c, W = c + 1, image(W)
        T = frozenset(i for i in range(2, e + 1) if image(flag[i]) <= flag[i - 2])
        counts[(c, e - c), T] += 1
    return counts


def test_census_totals_with_independent_oracle():
    with Timer(30.0):
        for e in (1, 2, 3, 4):
            for q in (2, 3, 4, 5):
                assert census(e, small_field(q)).total() == (q + 1) ** e
        # independent enumeration, sharing no code with the library
        for e in (1, 2):
            assert sum(_oracle_census_q2(e).values()) == 3**e == len(
                enumerate_chains(e, F2)
            )


def test_census_labels_match_bitset_oracle():
    # chains per (lambda, T) over F_2, from a brute force sharing no code
    # with the library
    with Timer(30.0):
        for e in (1, 2, 3, 4):
            got = {(lab.lam, lab.T): n for lab, n in census(e, F2).counts.items()}
            assert got == dict(_oracle_census_q2(e))


# ---------------------------------------------------------------- 3
def test_emptiness_tables_frozen():
    with Timer(30.0):
        for ctx in (F2, F3):
            table = emptiness_table(4, ctx)
            assert table == EXPECTED_NONEMPTY_E4
            assert frozenset({4}) not in table[(2, 2)]
            assert table[(4, 0)] == frozenset({frozenset()})


# ---------------------------------------------------------------- 4
def test_universal_lemmas_over_full_census():
    with Timer(60.0):
        for ctx in (F2, F3):
            violations, converse = hodge_step_check(4, ctx)
            assert violations == []
            assert len(converse) >= 1
            # three-way equivalence at every chain: maximal pair <=>
            # empty vanishing set <=> free endpoint
            for ch in enumerate_chains(4, ctx):
                lab = stratum_label(ch)
                maximal = lab.lam == (4, 0)
                assert maximal == (not lab.T)
                assert maximal == is_free_rank_one(ch.top)


# ---------------------------------------------------------------- 5
def test_dimension_degrees_by_integer_interpolation():
    with Timer(120.0):
        e = 4
        by_lam, by_lat, by_T = {}, {}, {}
        # q = 8 gives a sixth point so even degree-4 fits are checked
        # by leave-one-out agreement
        for q in (2, 3, 4, 5, 7, 8):
            cen = census(e, small_field(q))
            for lam, n in cen.chain_counts_by_hodge().items():
                by_lam.setdefault(lam, {})[q] = n
            for lam, n in cen.lattice_counts_by_hodge().items():
                by_lat.setdefault(lam, {})[q] = n
            for T, n in cen.chain_counts_by_T().items():
                by_T.setdefault(T, {})[q] = n
        for lam, samples in by_lam.items():
            fit = degree_fit(samples)
            assert fit.stable and fit.degree == e - lam[1], (lam, fit.coeffs)
        for lam, samples in by_lat.items():
            fit = degree_fit(samples)
            assert fit.stable and fit.degree == e - 2 * lam[1], (lam, fit.coeffs)
        for T, samples in by_T.items():
            fit = degree_fit(samples)
            assert fit.stable and fit.degree == e - len(T), (T, fit.coeffs)


# ---------------------------------------------------------------- 6
def test_fiber_flatness_shadow():
    with Timer(60.0):
        e = 4
        # constancy within each hodge class (asserted inside) at q = 2, 3
        per_q = {}
        for q in (2, 3, 4, 5):
            fc = fiber_constancy(e, small_field(q))
            if q in (2, 3):
                assert fc[(e, 0)][0] == 1
            per_q[q] = fc
        P = adm_poset(e)
        for lam in P.labels:
            samples = {q: per_q[q][lam][0] for q in per_q}
            fit = degree_fit(samples)
            assert fit.stable
            assert fit.degree == (e - lam[0] + lam[1]) // 2 == P.dim_fiber(lam)


# ---------------------------------------------------------------- 7
def test_raising_deformation_is_total():
    with Timer(60.0):
        for ctx in (F2, F3):
            for e in (2, 3, 4):
                for ch in enumerate_chains(e, ctx):
                    lab = stratum_label(ch)
                    if lab.lam == (e, 0):
                        with pytest.raises(NotDeformable):
                            hodge_raise(ch)
                        continue
                    fam = hodge_raise(ch)
                    assert fam.specialize() == ch  # bit-exact
                    gen = fam.generic_label()
                    assert gen.lam == (lab.lam[0] + 1, lab.lam[1] - 1)
                    assert fam.semicontinuity_audit()


def test_raising_deformation_worked_pattern():
    """The e=3 worked example: deformed generators carry the exact
    t- and t^2-terms u^2 e1 + t u e2 and u e2 + t u e1 + t^2 e2."""
    with Timer(10.0):
        e = 3
        mono = lambda c, d: UVec.monomial(F2, e, c, d)
        from latmodel.chains import PRChain

        chain = PRChain(
            F2,
            e,
            [
                _mspan(F2, e, [mono(2, 2)]),
                _mspan(F2, e, [mono(1, 2), mono(2, 2)]),
                _mspan(F2, e, [mono(1, 2), mono(2, 1)]),
            ],
        )
        fam = hodge_raise(chain)
        kt = fam.tctx
        t = kt.t()
        tm = lambda c, d: UVec.monomial(kt, e, c, d)
        v2 = tm(1, 2).add(tm(2, 1).scale(t))
        v3 = tm(2, 1).add(tm(1, 1).scale(t)).add(tm(2, 0).scale(kt.mul(t, t)))
        assert fam.trace.vt[2] == v2
        assert fam.trace.vt[3] == v3
        assert fam.generic_label().lam == (3, 0)


# ---------------------------------------------------------------- 8
def test_closure_suite_exit_zero(capsys):
    with Timer(600.0):
        code = cli_main(["verify", "--suite", "closure", "--e", "4", "--q", "2"])
        cap = capsys.readouterr()
        assert code == 0, cap.err
        assert "suite closure: ok" in cap.err


# ---------------------------------------------------------------- 9
def test_frobenius_witness_and_m1_inversion():
    with Timer(1.0):
        model, chain = ag_witness(2, 1, F2)
        F1 = f_one(model, chain)
        assert F1.equals(_mspan(F2, 4, [UVec.monomial(F2, 4, 2, 3)]))  # <u^3 e2>
        lab = labeled_with_m1(model, chain)
        assert (lab.lam, lab.T, lab.m1) == ((2, 2), frozenset({2, 3, 4}), "0")
        fam = invert_m1(model, chain)
        # linear invariants constant in t, sigma-linear invariant broken
        assert fam.specialize() == chain
        gen = fam.generic_label()
        assert (gen.lam, gen.T, gen.m1) == ((2, 2), frozenset({2, 3, 4}), "1")


# ---------------------------------------------------------------- 10
def test_orbit_separation_by_signatures():
    with Timer(5.0):
        e, ctx = 3, F2
        orbs = orbits(e, ctx)

        def signature(ch):
            return (
                hodge(ch.level(3)),
                hodge(ch.level(2)),
                tuple(block_partition(ch.level(1), ch.level(3))),
            )

        signatures = {signature(ch) for ch in enumerate_chains(e, ctx)}
        assert len(orbs) == len(signatures)
        # and the signature is constant on each orbit representative set
        assert len({signature(rep) for rep, _ in orbs}) == len(orbs)


# ---------------------------------------------------------------- 11
def test_product_layer():
    with Timer(1.0):
        pc = product_census([census(2, F2), census(3, F2)])
        assert pc.total() == 3**5 == 243
        assert all(isinstance(k, tuple) and len(k) == 2 for k in pc.counts)
        P = product_poset([adm_poset(2), adm_poset(3)])
        for lab in P.labels:
            assert P.dim_X(lab) == adm_poset(2).dim_X(lab[0]) + adm_poset(3).dim_X(
                lab[1]
            )
        # componentwise order on tuple labels
        assert P.leq(((1, 1), (2, 1)), ((2, 0), (3, 0)))
        assert not P.leq(((2, 0), (2, 1)), ((1, 1), (3, 0)))
