"""Chains of u-stable subspaces in E_e = (K[u]/(u^e))^2 and their geometry.

A chain is a full flag omega^(1) subset ... subset omega^(e) with
dim omega^(i) = i and u * omega^(i) contained in omega^(i-1): the
combinatorial point of the splitting local model.  This module provides
validation, exhaustive enumeration over small finite fields (one walk
that labels each chain as it builds it and never re-reduces a level: v
is zero at its parent's pivots, so one pivot insertion gives the child's
RREF, and u^-1(omega + K v) = u^-1(omega) + K v/u gives its socle), the
convolution presentation (successive lattice quotients of codimension one,
obtained by rescaling each level by the appropriate power of u), the
action of the truncated group GL_2(K[u]/(u^e)) (its elements are
umod.UMatrix values with unit determinant), orbit computation by one BFS
over a generating set of O(e q) elementary and diagonal matrices, and the
fibers of the endpoint map (chain -> omega^(e)) by a downward recursion,
fiber_chains: the independent reference for the fibers strata.census
reads off its walk.

The canonical order of chains is that of their raw RREF rows,
PRChain.key(); elements of F_p are ints and those of F_{p^f} are tuples
in field_elements order, so the rows compare as the elements do.

Truncation note: the group action on lattices containing u^e * Lambda_0
factors through GL_2(K[u]/(u^e)) -- for g congruent to g' mod u^e and any
such lattice L, (g - g') L is contained in u^e * Lambda_0, so g L = g' L.
This is why orbit computations here work with the truncated group.
"""

from __future__ import annotations

import itertools

from .errors import BoundExceeded, InvalidInput
from .invariants import StratumLabel
from .scalars import field_elements
from .umod import Subspace, UMatrix, UVec, _reduce_vec

CHAIN_BOUND = 10 ** 6


class PRChain:
    """A full flag of u-stable subspaces with one-dimensional steps."""

    __slots__ = ("ctx", "e", "levels")

    def __init__(self, ctx, e, levels):
        self.ctx = ctx
        self.e = e
        self.levels = tuple(levels)
        if len(self.levels) != e:
            raise InvalidInput("chain must have exactly e levels")

    def level(self, i):
        """omega^(i) for 1 <= i <= e; omega^(0) is the zero subspace."""
        if i == 0:
            return Subspace.zero(self.ctx, self.e)
        return self.levels[i - 1]

    @property
    def top(self):
        return self.levels[-1]

    def validate(self):
        """Return a list of violation strings (empty means valid)."""
        report = []
        for i in range(1, self.e + 1):
            w = self.level(i)
            if w.dim != i:
                report.append(f"level {i}: dim {w.dim} != {i}")
                continue
            if i > 1 and not w.contains(self.level(i - 1)):
                report.append(f"level {i}: does not contain level {i - 1}")
            # generator by generator: over K[t]/(t^N) the u-image of a
            # moved level need not be free, so it cannot be re-spanned
            prev = self.level(i - 1)
            if not all(prev.contains_vec(v.u_mult()) for v in w.basis()):
                report.append(f"level {i}: u*level not inside level {i - 1}")
        return report

    def is_valid(self):
        return not self.validate()

    def key(self):
        """Hashable canonical identity of the chain; also its sort key."""
        return tuple(w.rows for w in self.levels)

    def serialize(self):
        out = dict(self.ctx.serialize_ctx())
        out["e"] = self.e
        out["levels"] = [w.serialize() for w in self.levels]
        return out

    @classmethod
    def deserialize(cls, ctx, obj):
        e = obj["e"]
        levels = [Subspace.deserialize(ctx, w) for w in obj["levels"]]
        return cls(ctx, e, levels)

    def __eq__(self, other):
        return (
            isinstance(other, PRChain)
            and self.ctx == other.ctx
            and self.e == other.e
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"PRChain(e={self.e}, dims={[w.dim for w in self.levels]})"


def standard_free_chain(ctx, e):
    """The chain omega^(i) = <u^(e-i) e1, ..., u^(e-1) e1> (free endpoint)."""
    levels = []
    for i in range(1, e + 1):
        vecs = [UVec.monomial(ctx, e, 1, d) for d in range(e - i, e)]
        levels.append(Subspace.span(ctx, e, vecs))
    return PRChain(ctx, e, levels)


def _complement_basis(big, small):
    """Vectors of big spanning a complement of small, canonically."""
    reduced = [small.reduce(v) for v in big.basis()]
    comp = Subspace.span(big.ctx, big.N, [v for v in reduced if not v.is_zero()])
    return comp.basis()


def _lines_through(ctx, comp, elements):
    """All lines in the span of the (independent) complement basis.

    Yields one representative vector per line, in a deterministic order:
    leading coefficient normalized to 1, earlier coordinates zero.
    """
    d = len(comp)
    for k in range(d):
        tail = itertools.product(elements, repeat=d - k - 1)
        for rest in tail:
            v = comp[k]
            for c, w in zip(rest, comp[k + 1 :]):
                if not ctx.is_zero(c):
                    v = v.add(w.scale(c))
            yield v


def _nil_order(v):
    """Least k with u^k v = 0: N minus the lowest u-degree present in v."""
    N, z = v.N, v.ctx.zero()
    for d in range(N):
        if v.coeffs[d] != z or v.coeffs[N + d] != z:
            return N - d
    return 0


def _nilpotency(w):
    """Least k with u^k W = 0: the largest _nil_order over W's basis."""
    return max(map(_nil_order, w.basis()))


def walk_label(levels):
    """Linear label of u-stable levels with one-dimensional steps, exact
    over any field (K(t) too), by labelled_chains' rules: lambda = (c, e - c),
    c the top's nilpotency index; m_i = 0 iff u w lies in omega^(i-2), for w
    the RREF row of omega^(i) whose pivot omega^(i-1) lacks."""
    e, c = len(levels), _nilpotency(levels[-1])
    flag = (Subspace.zero(levels[0].ctx, e),) + tuple(levels)  # omega^(0..e)
    T = []
    for i in range(2, e + 1):
        prev, w = flag[i - 1], flag[i]
        new = next(r for r, p in zip(w.rows, w.pivots) if p not in prev.pivots)
        if flag[i - 2].contains_vec(UVec(w.ctx, e, new).u_mult()):
            T.append(i)
    if (c == e) != (not T):
        raise AssertionError("walk label: lambda = (e, 0) iff T empty fails (bug)")
    return StratumLabel((c, e - c), T)


def _insert(w, v):
    """RREF of w + K v, for v zero at w's pivots (see labelled_chains)."""
    K, vc = w.ctx, v.coeffs
    p = next(j for j, x in enumerate(vc) if not K.is_zero(x))
    if vc[p] != K.one():
        raise AssertionError("inserted vector's leading entry is not one (bug)")
    rows = [_reduce_vec(r, (vc,), (p,), K) for r in w.rows]  # each r - r[p] v
    k = sum(j < p for j in w.pivots)
    pivots = w.pivots[:k] + (p,) + w.pivots[k:]
    return Subspace(K, w.N, rows[:k] + [vc] + rows[k:], pivots)


def _child_socle(socle, w, v):
    """Socle of w = omega + K v from omega's (see labelled_chains); v/u is
    v shifted left by one, as c[N] = 0 moves into the first block's top."""
    K, N, c = w.ctx, w.N, v.coeffs
    if not (K.is_zero(c[0]) and K.is_zero(c[N])):
        raise AssertionError("v has a u^0 term below the top level (bug)")
    reduced = [w.reduce(s) for s in socle + [UVec(K, N, c[1:] + (K.zero(),))]]
    return Subspace.span(K, N, [s for s in reduced if not s.is_zero()]).basis()


def labelled_chains(e, ctx):
    """All valid chains over a finite field with their linear labels, as
    (chain, StratumLabel) pairs sorted canonically.

    The count is (q+1)^e: each level adds one line's worth of choices in a
    two-dimensional quotient.  Level i adds one vector v with u v in
    omega^(i-1), and the label follows the walk by two rules, each decided
    once per choice of omega^(i) and shared by every chain through it:

    * the nilpotency index is c_i = c_(i-1) + [u^c_(i-1) v != 0], because
      u^k omega^(i) = u^k omega^(i-1) + K u^k v and u^(c_(i-1)+1) v lies in
      u^c_(i-1) omega^(i-1) = 0.  The top's cyclic blocks are (c_e, e - c_e),
      so lambda = (c_e, e - c_e);
    * m_i = 0 iff u v lies in omega^(i-2), because u omega^(i) =
      u omega^(i-1) + K u v and u omega^(i-1) lies in omega^(i-2) already.

    Each node carries its RREF rows and its socle, u^-1(omega) modulo
    omega, whose lines are the children's v; a child updates both.  Pivot
    insertion: v is zero at omega's pivots with leading 1 at a column p, so
    RREF(omega + K v) is the rows r - r[p] v with v inserted at p.  Socle
    update: below the top dim K[u] v = _nil_order(v) <= i < e, so v has no
    u^0 term, v = u (v/u) and u^-1(omega + K v) = u^-1(omega) + K v/u: the
    child's socle is the RREF of the parent's and v/u modulo omega^(i).  The
    root's is {u^(e-1) e1, u^(e-1) e2}; each has dimension 2, since omega in
    u E below the top leaves E/omega two generators.

    Checked on every chain: c_e is the nilpotency index read off the top's
    own basis, and lambda = (e, 0) iff T is empty.  Same rules: walk_label.
    """
    q = ctx.order
    if (q + 1) ** e > CHAIN_BOUND:
        raise BoundExceeded(f"(q+1)^e = {(q + 1) ** e} exceeds bound {CHAIN_BOUND}")
    elements = field_elements(ctx)
    root = [UVec.monomial(ctx, e, 1, e - 1), UVec.monomial(ctx, e, 2, e - 1)]
    partial = [((Subspace.zero(ctx, e),), root, 0, ())]  # omega^(0..i-1), socle, c, T
    for i in range(1, e + 1):
        nxt = []
        for levels, socle, c, T in partial:
            if len(socle) != 2:
                raise AssertionError(f"socle of dimension {len(socle)} (bug)")
            for v in _lines_through(ctx, socle, elements):
                w = _insert(levels[-1], v)
                m_i_zero = i > 1 and levels[-2].contains_vec(v.u_mult())
                T_i = T + (i,) if m_i_zero else T
                child = _child_socle(socle, w, v) if i < e else None
                nxt.append((levels + (w,), child, c + (_nil_order(v) > c), T_i))
        partial = nxt
    labels, out = {}, []
    for levels, _, c, T in partial:
        if _nilpotency(levels[-1]) != c or (c == e) != (not T):
            raise AssertionError("walk label disagrees with the chain's top (bug)")
        if (c, T) not in labels:
            labels[c, T] = StratumLabel((c, e - c), T)
        out.append((PRChain(ctx, e, levels[1:]), labels[c, T]))
    out.sort(key=lambda pair: pair[0].key())
    return out


def enumerate_chains(e, ctx):
    """All valid chains over a finite field, sorted canonically."""
    return [chain for chain, _ in labelled_chains(e, ctx)]


# ----------------------------------------------------------------------
# convolution presentation
# ----------------------------------------------------------------------
class ConvChain:
    """The same flag in lattice-quotient form.

    Level i stores the rescaled lattice L_i = u^-(e-i)(omega^(i)), a
    u-stable subspace of dimension 2e - i; L_1 contains L_2 contains ...
    contains L_e, each step of codimension one, and the endpoint L_e
    equals omega^(e).
    """

    __slots__ = ("ctx", "e", "levels")

    def __init__(self, ctx, e, levels):
        self.ctx = ctx
        self.e = e
        self.levels = tuple(levels)

    @property
    def endpoint(self):
        return self.levels[-1]

    def key(self):
        return tuple(w.rows for w in self.levels)

    def __eq__(self, other):
        return isinstance(other, ConvChain) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def conv_normalize(chain):
    """PRChain -> ConvChain (rescale level i by u^-(e-i))."""
    if not chain.is_valid():
        raise InvalidInput("cannot normalize an invalid chain")
    levels = []
    for i in range(1, chain.e + 1):
        L = chain.level(i)
        for _ in range(chain.e - i):
            L = L.u_preimage()
        levels.append(L)
    return ConvChain(chain.ctx, chain.e, levels)


def conv_denormalize(cc):
    """ConvChain -> PRChain (rescale level i by u^(e-i))."""
    levels = []
    for i in range(1, cc.e + 1):
        L = cc.levels[i - 1]
        for _ in range(cc.e - i):
            L = L.u_image()
        levels.append(L)
    chain = PRChain(cc.ctx, cc.e, levels)
    if not chain.is_valid():
        raise InvalidInput("denormalization produced an invalid chain")
    return chain


# ----------------------------------------------------------------------
# truncated group action
# ----------------------------------------------------------------------
class TruncatedGroupElement(UMatrix):
    """A 2x2 matrix over K[u]/(u^e) with unit determinant at u = 0."""

    __slots__ = ()

    def __init__(self, ctx, e, entries):
        super().__init__(ctx, e, entries)
        (a, b), (c, d) = self.entries
        det0 = ctx.sub(ctx.mul(a[0], d[0]), ctx.mul(b[0], c[0]))
        if not ctx.is_unit(det0):
            raise InvalidInput("matrix is not invertible over K[u]/(u^e)")


def act(g, chain):
    """Levelwise image g * omega^(i); preserves validity."""
    if g.ctx != chain.ctx or g.e != chain.e:
        raise InvalidInput("context mismatch")
    return PRChain(chain.ctx, chain.e, [g.image(w) for w in chain.levels])


def group_order(e, q):
    """|GL_2(K[u]/(u^e))| = |GL_2(F_q)| * q^(4(e-1))."""
    return (q * q - 1) * (q * q - q) * q ** (4 * (e - 1))


def group_generators(ctx, e):
    """A generating set of GL_2(K[u]/(u^e)) with O(e q) elements.

    With c over K^x: the shears 1 + c u^k E_12 and 1 + c u^k E_21 for
    0 <= k < e, diag(c, 1) for c != 1, and diag(1 + c u^k, 1) for
    1 <= k < e.  Elementary matrices generate SL_2 of the local ring
    R = K[u]/(u^e), GL_2 = SL_2 * diag(R^x, 1) and R^x = K^x * (1 + uR);
    the 1 + c u^k generate 1 + uR one u-adic step at a time.
    """
    G, one = TruncatedGroupElement, ctx.one()
    units = field_elements(ctx)[1:]
    shears = [
        G.unit_plus_monomial(ctx, e, pos, k, c)
        for pos in ((0, 1), (1, 0))
        for k in range(e)
        for c in units
    ]
    constants = [  # diag(c, 1) = 1 + (c - 1) E_11
        G.unit_plus_monomial(ctx, e, (0, 0), 0, ctx.sub(c, one))
        for c in units
        if c != one
    ]
    one_units = [
        G.unit_plus_monomial(ctx, e, (0, 0), k, c)
        for k in range(1, e)
        for c in units
    ]
    return shears + constants + one_units


def orbits(e, ctx):
    """Partition of all chains into truncated-group orbits.

    Returns a list of (representative chain, orbit size), sorted by the
    representative's canonical key.  Sizes sum to (q+1)^e and divide the
    group order.  Derived from orbit_transports, the one orbit BFS.
    """
    reps, sizes = {}, {}
    for rep, _ in orbit_transports(e, ctx).values():
        reps.setdefault(rep.key(), rep)
        sizes[rep.key()] = sizes.get(rep.key(), 0) + 1
    return [(rep, sizes[k]) for k, rep in reps.items()]


def orbit_transports(e, ctx):
    """BFS orbit decomposition tracking group elements.

    Returns dict chain.key() -> (representative chain, g) with
    chain = act(g, representative).
    """
    chains = enumerate_chains(e, ctx)
    gens = group_generators(ctx, e)
    out = {}
    for c in chains:
        if c.key() in out:
            continue
        ident = TruncatedGroupElement.identity(ctx, e)
        out[c.key()] = (c, ident)
        frontier = [(c, ident)]
        while frontier:
            nxt = []
            for x, gx in frontier:
                for g in gens:
                    y = act(g, x)
                    k = y.key()
                    if k not in out:
                        gy = g.compose(gx)
                        out[k] = (c, gy)
                        nxt.append((y, gy))
            frontier = nxt
    return out


# ----------------------------------------------------------------------
# fibers of the endpoint map
# ----------------------------------------------------------------------
def fiber_chains(W, e):
    """All valid chains with omega^(e) = W, by downward recursion.

    At each step omega^(i-1) ranges over the hyperplanes of omega^(i)
    containing u * omega^(i) (there are 1 or q+1 of them).
    """
    if W.N != e:
        raise InvalidInput("W must live in E_e")
    if W.dim != e or not W.is_u_stable():
        raise InvalidInput("W must be u-stable of dimension e")
    ctx = W.ctx
    elements = field_elements(ctx)

    def descend(levels):
        i = len(levels)  # levels = [omega^(i), ..., omega^(e)] top-down
        w = levels[0]
        idx = e - i + 1  # dimension of w
        if idx == 1:
            if w.u_image().dim == 0:
                return [levels]
            return []
        S = w.u_image()
        if S.dim == idx - 1:
            candidates = [S]
        elif S.dim == idx - 2:
            comp = _complement_basis(w, S)
            candidates = [
                Subspace.span(ctx, e, S.basis() + [v])
                for v in _lines_through(ctx, comp, elements)
            ]
        else:
            return []
        out = []
        for cand in candidates:
            out.extend(descend([cand] + levels))
        return out

    results = [
        PRChain(ctx, e, levels) for levels in descend([W])
    ]
    results.sort(key=PRChain.key)
    return results
