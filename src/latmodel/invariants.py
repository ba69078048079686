"""Linear invariants of u-stable subspaces and chains.

* block_partition -- cyclic u-block sizes of a quotient of u-stable
  subspaces (elementary divisors), from the rank sequence of u^k.
* hodge -- the invariant pair (a, b) of a u-stable subspace of E_N,
  i.e. W is the truncation of a lattice with elementary divisors
  (u^a, u^b) relative to the standard one.
* nilpotency_index -- least i with u^i W = 0.
* mi_vanishes -- the partial Hasse invariant m_i (i >= 2) as a vanishing
  predicate: the graded multiplication-by-u map drops two filtration
  steps.  Only vanishing is computed, never a normalized scalar (the
  invariant is a line-bundle section, well defined up to a unit).
* stratum_label -- (lambda, T, m1) with m1 tri-state (the sigma-linear
  invariant m1 needs Frobenius data and lives in another module).
* adm_poset / product_poset -- the admissible Hodge pairs with their
  dimension functionals, and componentwise products.
"""

from __future__ import annotations

import re

from .errors import InvalidInput
from .umod import Subspace


def block_partition(w_small, w_big):
    """Cyclic u-block sizes of w_big / w_small, sorted descending.

    Computed from the rank sequence r_k = dim(u^k w_big + w_small) -
    dim w_small: the number of blocks of size >= k is r_(k-1) - r_k, and
    the partition is the conjugate of that drop sequence.
    """
    if not w_big.contains(w_small):
        raise InvalidInput("w_small must be contained in w_big")
    if not w_big.is_u_stable() or not w_small.is_u_stable():
        raise InvalidInput("both subspaces must be u-stable")
    ranks = []
    cur = w_big
    while True:
        ranks.append(cur.sum(w_small).dim - w_small.dim)
        if ranks[-1] == 0:
            break
        cur = cur.u_image()
    # drops[k-1] = r_(k-1) - r_k = number of blocks of size >= k;
    # block j (0-indexed) has size #{k : drops[k-1] > j}
    drops = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    nblocks = drops[0] if drops else 0
    sizes = sorted(
        (sum(1 for d in drops if d > j) for j in range(nblocks)), reverse=True
    )
    if sum(sizes) != w_big.dim - w_small.dim:
        raise AssertionError("block sizes do not sum to the quotient dim (bug)")
    return sizes


def hodge(w):
    """The invariant pair (a, b), a >= b, of a u-stable subspace of E_N.

    With block sizes [c1 >= c2] (padded by zero to length two), the pair
    is (N - c2, N - c1).  The defining rank identity
    dim u^k W = max(N-a-k, 0) + max(N-b-k, 0) is checked.
    """
    N = w.N
    blocks = block_partition(Subspace.zero(w.ctx, N), w)
    if len(blocks) > 2:
        raise InvalidInput("more than two cyclic blocks (not a lattice quotient)")
    blocks = blocks + [0] * (2 - len(blocks))
    c1, c2 = blocks[0], blocks[1]
    pair = (N - c2, N - c1)
    a, b = pair
    cur = w
    for k in range(N + 1):
        expected = max(N - a - k, 0) + max(N - b - k, 0)
        if cur.dim != expected:
            raise AssertionError("hodge rank identity failed (bug)")
        cur = cur.u_image()
    return pair


def nilpotency_index(w):
    """min{i : u^i W = 0}; equals N - hodge(w)[1]."""
    i = 0
    cur = w
    while cur.dim:
        cur = cur.u_image()
        i += 1
    if i != w.N - hodge(w)[1]:
        raise AssertionError("nilpotency index is not N - b (bug)")
    return i


def is_free_rank_one(w):
    """Whether W is a free rank-1 module over K[u]/(u^N)."""
    return w.dim == w.N and nilpotency_index(w) == w.N


def dominance_leq(a, b):
    """Dominance order on pairs of equal sum: a <= b iff a1 <= b1."""
    if a[0] + a[1] != b[0] + b[1]:
        raise InvalidInput("dominance compares pairs of equal sum only")
    return a[0] <= b[0]


def mi_vanishes(chain, i):
    """m_i = 0 iff u * omega^(i) is contained in omega^(i-2) (i >= 2)."""
    if not 2 <= i <= chain.e:
        raise InvalidInput("index out of range")
    return chain.level(i - 2).contains(chain.level(i).u_image())


class StratumLabel:
    """(lambda, T, m1): Hodge pair, vanishing set of m_i (i>=2), m1 flag."""

    __slots__ = ("lam", "T", "m1")

    def __init__(self, lam, T, m1="?"):
        self.lam = tuple(lam)
        self.T = frozenset(T)
        if m1 not in ("0", "1", "?"):
            raise InvalidInput("m1 must be '0', '1' or '?'")
        self.m1 = m1

    def serialize(self):
        ts = ",".join(str(i) for i in sorted(self.T))
        return f"lambda=({self.lam[0]},{self.lam[1]});T={{{ts}}};m1={self.m1}"

    @classmethod
    def parse(cls, s):
        m = re.fullmatch(
            r"lambda=\((\d+),(\d+)\);T=\{([\d,\s]*)\}(?:;m1=([01?]))?", s.strip()
        )
        if not m:
            raise InvalidInput(f"cannot parse label {s!r}")
        lam = (int(m.group(1)), int(m.group(2)))
        T = frozenset(int(x) for x in m.group(3).split(",") if x.strip())
        return cls(lam, T, m.group(4) or "?")

    def with_m1(self, m1):
        return StratumLabel(self.lam, self.T, m1)

    def linear(self):
        return StratumLabel(self.lam, self.T, "?")

    def key(self):
        return (self.lam, tuple(sorted(self.T)), self.m1)

    def __eq__(self, other):
        return isinstance(other, StratumLabel) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"StratumLabel({self.serialize()!r})"


def naive_leq(x, y):
    """x below y: lambda(x) <= lambda(y) in dominance and T(x) >= T(y).

    The m1 flag participates as an extra vanishing index when both labels
    carry a definite flag ('0' counts as 1 in T, '1' as absent).
    """
    tx, ty = set(x.T), set(y.T)
    if x.m1 == "0":
        tx.add(1)
    if y.m1 == "0":
        ty.add(1)
    return dominance_leq(x.lam, y.lam) and tx >= ty


def stratum_label(chain):
    """Label of a chain: lambda = hodge(top), T = {i >= 2 : m_i = 0}.

    Postcondition (checked): lambda = (e, 0) iff T is empty iff the top
    is free of rank one.
    """
    lam = hodge(chain.top)
    T = frozenset(i for i in range(2, chain.e + 1) if mi_vanishes(chain, i))
    maximal = lam == (chain.e, 0)
    free = is_free_rank_one(chain.top)
    if maximal != (not T) or maximal != free:
        raise AssertionError("three-way equivalence violated (bug)")
    return StratumLabel(lam, T, "?")


class AdmPoset:
    """Admissible Hodge pairs for one factor: {(i, e-i) : ceil(e/2)<=i<=e}.

    Dimension functionals: dim_gr = i - j (the lattice stratum),
    dim_X = e - j (the chain stratum), dim_fiber = (e - i + j) / 2.
    Totally ordered by dominance.
    """

    __slots__ = ("e", "labels")

    def __init__(self, e):
        self.e = e
        lo = (e + 1) // 2
        self.labels = [(i, e - i) for i in range(lo, e + 1)]

    def leq(self, a, b):
        return dominance_leq(a, b)

    @staticmethod
    def dim_gr(lam):
        return lam[0] - lam[1]

    def dim_X(self, lam):
        return self.e - lam[1]

    def dim_fiber(self, lam):
        return (self.e - lam[0] + lam[1]) // 2


class ProductPoset:
    """Componentwise product of admissible posets; dims add."""

    __slots__ = ("factors", "labels")

    def __init__(self, factors):
        self.factors = list(factors)
        labels = [()]
        for f in self.factors:
            labels = [t + (l,) for t in labels for l in f.labels]
        self.labels = labels

    def leq(self, a, b):
        return all(
            f.leq(x, y) for f, x, y in zip(self.factors, a, b)
        )

    def dim_X(self, lam):
        return sum(f.dim_X(l) for f, l in zip(self.factors, lam))

    def dim_gr(self, lam):
        return sum(AdmPoset.dim_gr(l) for l in lam)


def adm_poset(e):
    return AdmPoset(e)


def product_poset(factors):
    return ProductPoset(factors)
