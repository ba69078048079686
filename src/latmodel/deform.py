"""One-parameter deformation families of chains and the explicit recipes.

Families live over K(t) (``exact_rational`` mode: generic invariants are
computed exactly over the fraction field) or over K[t]/(t^N)
(``truncated`` mode: used for the sigma-linear recipes, whose generic
claims are certified by residuals/minors that are nonzero mod t^N plus a
pinch argument against the emptiness table).

Provided constructions:

* ``hodge_raise``    -- raises the Hodge invariant of the endpoint by
  (1,-1): the constructive one-step generization.  Deformed generators
  are tracked in the window u^-1 Lambda_0 / u^(e+1) Lambda_0, held as
  E_(e+2) (slot d of a coordinate is u^(d-1)), where every step of the
  construction is exact; the divisions by u and the final projection to
  E_e raise ContainmentViolated if a generator leaves Lambda_0.
* the named e = 4 recipes, one construction (``_move_level``): level k
  alone moves, its complement generator v_k becoming v_k + t aux with aux
  in u^-1(omega(k-1)) and u^p aux != 0, and every other level is the
  chain's.  ``NAMED_MOVES`` gives each variant's edge and move (k, p):
  1 = (2, 1) breaks m2 and m4 within lambda=(2,2), 2 = (4, 2) raises (2,2)
  to (3,1) keeping only m3 = 0.  ``recipe_7_3_1`` (CLI 731-v) moves over
  K(t), ``recipe_7_3_2`` (732-v; ``sigma_collapse`` / ``sigma_raise``) over
  K[t]/(t^N), certifying that m1 = 0 holds along the family.
* ``invert_m1``      -- transports the whole chain by g(t) = 1 + tA: all
  linear invariants stay literally constant while omega^(1) leaves F^(1)
  at first order (the Frobenius of t is t^p, so F^(1) of the family is
  constant mod t^2).
* ``search_witness`` -- deterministic first-order perturbation search
  for edges with no named recipe.  Each level is built once per
  (previous level, move), each distinct family is walk-labelled once
  (chains.walk_label) and only the one returned gets a K(t) label; the
  tries and the family found are those of building every candidate afresh.
"""

from __future__ import annotations

from .chains import PRChain, walk_label
from .dieudonne import f_one, m1_vanishes
from .errors import (
    AllMinorsVanish,
    ContainmentViolated,
    InvalidInput,
    LatModelError,
    NoValidAuxVector,
    NotDeformable,
    NotFound,
)
from .invariants import (
    StratumLabel,
    dominance_leq,
    hodge,
    naive_leq,
    nilpotency_index,
    stratum_label,
)
from .scalars import (
    DEFAULT_PRECISION,
    rational_ctx,
    series_inv,
    series_mul,
    truncated_ctx,
)
from .umod import Subspace, UMatrix, UVec, _nullspace, _rref

DEFAULT_TRUNC_PRECISION = DEFAULT_PRECISION
MAX_TRUNC_PRECISION = 128
DEFAULT_SEARCH_BUDGET = 4000


def lift(x, tctx):
    """A UVec or Subspace over the base field as a t-constant one over tctx."""
    return x.map_coeffs(tctx.lift, tctx)


def _u_power(v, n):
    for _ in range(n):
        v = v.u_mult()
    return v


def _complement_generator(big, small):
    """First canonical-basis vector of big outside small (reduced form)."""
    for v in big.basis():
        r = small.reduce(v)
        if not r.is_zero():
            return r
    raise NoValidAuxVector("no complement generator (equal subspaces?)")


def _solve_linear(cols, target, ctx):
    """Canonical x with sum x_i cols[i] = target over a field, or None.

    Row reduces the augmented system [cols | target]: a pivot in the last
    column means it is inconsistent; otherwise the free variables are 0.
    """
    n = len(cols)
    aug = [tuple(c[j] for c in cols) + (target[j],) for j in range(len(target))]
    rows, pivots = _rref(aug, ctx, n + 1)
    if n in pivots:
        return None
    x = [ctx.zero()] * n
    for row, p in zip(rows, pivots):
        x[p] = row[n]
    return x


# ----------------------------------------------------------------------
# the window u^-1 Lambda_0 / u^(e+1) Lambda_0 as E_(e+2): slot d of a
# coordinate holds u^(d-1), so multiplication by u is UVec.u_mult
# ----------------------------------------------------------------------
def _pad(v):
    """The window image of v in E_e."""
    z = (v.ctx.zero(),)
    e = v.N
    return UVec(v.ctx, e + 2, z + v.coeffs[:e] + z + z + v.coeffs[e:] + z)


def _below_zero_empty(x):
    return x.ctx.is_zero(x.coeffs[0]) and x.ctx.is_zero(x.coeffs[x.N])


def _project(x):
    """Back to E_e (mod u^e); the u^-1 slots must be empty."""
    if not _below_zero_empty(x):
        raise ContainmentViolated("window vector not inside Lambda_0")
    B = x.N
    return UVec(x.ctx, B - 2, x.coeffs[1 : B - 1] + x.coeffs[B + 1 : 2 * B - 1])


def _div_u(x):
    """Division by u; the u^-1 slots must be empty."""
    if not _below_zero_empty(x):
        raise ContainmentViolated("division by u exits the window")
    z = (x.ctx.zero(),)
    B = x.N
    return UVec(x.ctx, B, x.coeffs[1:B] + z + x.coeffs[B + 1 :] + z)


# ----------------------------------------------------------------------
# module basis over K[u]/(u^e) adapted to a u-stable subspace
# ----------------------------------------------------------------------
def _snf_adapted(w):
    """Module basis (f1, f2) and exponents (a1 >= a2) with
    W = <u^a1 f1, u^a2 f2> as a K[u]/(u^e)-module (W u-stable)."""
    ctx, e = w.ctx, w.N

    def val(poly):
        return next(
            (i for i, c in enumerate(poly) if not ctx.is_zero(c)), e
        )

    def pshift_down(poly, s):
        return poly[s:] + (ctx.zero(),) * s

    def psub(a, b):
        return tuple(ctx.sub(x, y) for x, y in zip(a, b))

    pone = (ctx.one(),) + (ctx.zero(),) * (e - 1)
    pzero = (ctx.zero(),) * e
    gens = w.basis()
    d = len(gens)
    if d == 0:
        raise InvalidInput("adapted basis of the zero module is ambiguous")
    M = [
        [v.coeffs[:e] for v in gens],
        [v.coeffs[e:] for v in gens],
    ]
    V = [[pone, pzero], [pzero, pone]]  # original gens = V * M (columns)
    exps = []
    for step in (0, 1):
        best = None
        for i in range(step, 2):
            for j in range(step, d):
                s = val(M[i][j])
                if best is None or s < best[0]:
                    best = (s, i, j)
        if best is None or best[0] >= e:
            break
        s, bi, bj = best
        if bi != step:
            M[0], M[1] = M[1], M[0]
            V[0][0], V[0][1], V[1][0], V[1][1] = (
                V[0][1],
                V[0][0],
                V[1][1],
                V[1][0],
            )
        if bj != step:
            for i in range(2):
                M[i][step], M[i][bj] = M[i][bj], M[i][step]
        # normalize the pivot to exactly u^s
        unit = pshift_down(M[step][step], s)
        uinv = series_inv(ctx, e, unit)
        M[step] = [series_mul(ctx, e, uinv, x) for x in M[step]]
        for i in range(2):
            V[i][step] = series_mul(ctx, e, V[i][step], unit)
        if step == 0 and d > 0:
            # clear below the pivot
            if val(M[1][0]) < e:
                q = pshift_down(M[1][0], s)
                M[1] = [
                    psub(x, series_mul(ctx, e, q, y)) for x, y in zip(M[1], M[0])
                ]
                for i in range(2):
                    V[i][0] = tuple(
                        ctx.add(a, b)
                        for a, b in zip(V[i][0], series_mul(ctx, e, q, V[i][1]))
                    )
            # clear to the right of the pivot (column operations)
            for k in range(1, d):
                if val(M[0][k]) < e:
                    ck = pshift_down(M[0][k], s)
                    for i in range(2):
                        M[i][k] = psub(M[i][k], series_mul(ctx, e, ck, M[i][0]))
        exps.append(s)
    a2 = exps[0] if exps else e
    a1 = exps[1] if len(exps) > 1 else e
    g_small = UVec(ctx, e, V[0][0] + V[1][0])  # exponent a2 (smaller)
    g_big = UVec(ctx, e, V[0][1] + V[1][1])  # exponent a1 (larger)
    # verify: W equals the module span of u^a1 g_big, u^a2 g_small
    shifted = [_u_power(g_big, a1), _u_power(g_small, a2)]
    if not Subspace.module_span(ctx, e, shifted).equals(w):
        raise AssertionError("adapted basis reconstruction failed (bug)")
    return g_big, g_small, a1, a2


# ----------------------------------------------------------------------
# certified labels and families
# ----------------------------------------------------------------------
class CertifiedLabel:
    """A generic-fiber label with its certification metadata."""

    __slots__ = ("label", "metadata")

    def __init__(self, label, metadata=None):
        self.label = label
        self.metadata = dict(metadata or {})

    def serialize(self):
        return {
            "label": self.label.serialize(),
            "exact": True,
            "metadata": self.metadata,
        }


_MODES = {"rational_t": "exact_rational", "truncated_t": "truncated"}


class FamilyChain:
    """A chain over K(t) or K[t]/(t^N), specializing at t = 0.

    The ring tctx fixes the mode and the base field, the levels fix e;
    hodge_raise attaches its DeformationTrace as ``trace``.
    """

    __slots__ = ("tctx", "levels", "model", "cert", "trace")

    def __init__(self, tctx, levels, model=None, cert=None):
        if tctx.kind not in _MODES:
            raise InvalidInput("a family lives over K(t) or K[t]/(t^N)")
        self.tctx = tctx
        self.levels = tuple(levels)
        self.model = model
        self.cert = cert
        self.trace = None

    @property
    def mode(self):
        return _MODES[self.tctx.kind]

    @property
    def base_ctx(self):
        return self.tctx.base

    @property
    def e(self):
        return self.levels[0].N

    @property
    def prec(self):
        return self.tctx.N  # None over K(t)

    def as_chain(self):
        return PRChain(self.tctx, self.e, self.levels)

    def validate(self):
        return self.as_chain().validate()

    def specialize(self):
        if self.mode == "truncated":
            levels = [
                w.map_coeffs(self.tctx.specialize0, self.base_ctx)
                for w in self.levels
            ]
        else:
            levels = [
                _flat_limit(w, self.tctx, self.base_ctx) for w in self.levels
            ]
        return PRChain(self.base_ctx, self.e, levels)

    def generic_label(self):
        """Exact label over K(t), or the attached certificate's label."""
        if self.mode == "exact_rational":
            return stratum_label(self.as_chain())
        if self.cert is None:
            raise AllMinorsVanish("truncated family carries no certificate")
        return self.cert.label

    def semicontinuity_audit(self, gen=None):
        """lambda only rises, T only shrinks at the generic fiber (gen: its label)."""
        sp = stratum_label(self.specialize())
        if gen is None:
            gen = self.generic_label()
        return dominance_leq(sp.lam, gen.lam) and sp.T >= gen.T

    def serialize(self):
        out = dict(self.base_ctx.serialize_ctx())
        out["mode"] = self.mode
        out["prec"] = self.prec
        out["e"] = self.e
        out["levels"] = [w.serialize() for w in self.levels]
        if self.trace is not None:
            out["trace"] = self.trace.serialize()
        if self.cert is not None:
            out["certificate"] = self.cert.serialize()
        return out


def _flat_limit(w, tctx, base):
    """Fiber at t = 0 of a K(t)-subspace (flat limit over K[t] at t)."""
    K = base
    rows = [list(v.coeffs) for v in w.basis()]
    ncols = 2 * w.N
    trep = tctx.t()
    while True:
        # scale each row to minimal t-valuation zero
        for r in rows:
            vals = [tctx.t_valuation(c) for c in r]
            m = min(v for v in vals if v is not None)
            if m > 0:
                f = trep
                for _ in range(m - 1):
                    f = tctx.mul(f, trep)
                for j in range(ncols):
                    r[j] = tctx.div(r[j], f)
            elif m < 0:
                f = trep
                for _ in range(-m - 1):
                    f = tctx.mul(f, trep)
                for j in range(ncols):
                    r[j] = tctx.mul(r[j], f)
        sp = [[tctx.specialize0(c) for c in r] for r in rows]
        limit = Subspace.span(K, w.N, [UVec(K, w.N, tuple(r)) for r in sp])
        if limit.dim == len(rows):
            return limit
        # a specialized dependency: replace the last involved row by the
        # (t-divisible) combination and iterate.  Any dependency will do:
        # the limit is the unique flat limit in the Grassmannian.
        dep = _nullspace(sp, K, ncols)[0]
        last = max(i for i, c in enumerate(dep) if not K.is_zero(c))
        newrow = [tctx.zero()] * ncols
        for i in range(len(rows)):
            if not K.is_zero(dep[i]):
                ci = tctx.lift(dep[i])
                for j in range(ncols):
                    newrow[j] = tctx.add(newrow[j], tctx.mul(ci, rows[i][j]))
        rows[last] = newrow


class DeformationTrace:
    """Audit data for hodge_raise: s_k, k0, adapted basis, decompositions."""

    __slots__ = ("s", "k0", "f1", "f2", "a", "b", "v", "w", "x", "J", "vt")

    def __init__(self, s, k0, f1, f2, a, b, v, w, x, J, vt=None):
        self.s = list(s)
        self.k0 = k0
        self.f1 = f1
        self.f2 = f2
        self.a = a
        self.b = b
        self.v = v
        self.w = w
        self.x = x
        self.J = sorted(J)
        self.vt = dict(vt or {})

    def serialize(self):
        return {
            "s": self.s,
            "k0": self.k0,
            "adapted": {
                "f1": self.f1.serialize(),
                "f2": self.f2.serialize(),
                "a": self.a,
                "b": self.b,
            },
            "v": {str(k): vec.serialize() for k, vec in self.v.items()},
            "w": {str(n): vec.serialize() for n, vec in self.w.items()},
            "x": {
                str(n): [self.f1.ctx.serialize(c) for c in xs]
                for n, xs in self.x.items()
            },
            "J": self.J,
            "deformed": {
                str(k): vec.serialize() for k, vec in self.vt.items()
            },
        }


# ----------------------------------------------------------------------
# the Hodge-raising deformation
# ----------------------------------------------------------------------
def hodge_raise(chain):
    """Deform a chain with lambda = (i,j) < (e,0) to generic (i+1, j-1).

    Returns (FamilyChain in exact_rational mode, DeformationTrace).
    Construction: find the last flat step k0 of the nilpotency sequence
    s_k, pick a module basis adapted to Lambda_(k0-1) = <u^(a+1) f1,
    u^b f2>, replace the complement generator at level k0 by
    u^a f1 + t u^(b-1) f2, and propagate upward dividing by u according
    to the decomposition coefficients x_(n,l) (index set J where the
    immediately preceding coefficient vanishes).
    """
    ctx, e = chain.ctx, chain.e
    lab = stratum_label(chain)
    i, j = lab.lam
    if (i, j) == (e, 0):
        raise NotDeformable("endpoint already has the maximal invariant")
    s = [0] + [nilpotency_index(chain.level(k)) for k in range(1, e + 1)]
    k0 = max(k for k in range(1, e + 1) if s[k] == s[k - 1])
    a = e - k0 + s[k0]
    b = e - s[k0]
    if b < 1:
        raise AssertionError("construction requires b >= 1 (bug)")
    f1, f2, a1, a2 = _snf_adapted(chain.level(k0 - 1))
    if (a1, a2) != (a + 1, b):
        raise AssertionError(f"adapted exponents {(a1, a2)} != {(a + 1, b)} (bug)")

    # complement generators v_k, with v_k0 = u^a f1
    ua_f1 = _u_power(f1, a)
    if not chain.level(k0).contains_vec(ua_f1) or chain.level(k0 - 1).contains_vec(ua_f1):
        raise AssertionError("u^a f1 is not a valid complement generator (bug)")
    v_uvec = {k0: ua_f1}
    for k in range(k0 + 1, e + 1):
        v_uvec[k] = _complement_generator(chain.level(k), chain.level(k - 1))
    v = {k: _pad(g) for k, g in v_uvec.items()}

    # decompositions u v_(k0+n) = w_n + sum x_(n,l) v_(k0+l); in the window
    # the lattice over Lambda_(k0-1) is spanned by its basis and u^e e_1, u^e e_2
    lat = [_pad(r) for r in chain.level(k0 - 1).basis()]
    lat += [UVec.monomial(ctx, e + 2, coord, e + 1) for coord in (1, 2)]
    x = {}
    w = {}
    J = set()
    for n in range(1, e - k0 + 1):
        target = v[k0 + n].u_mult()
        prev = [v[k0 + l] for l in range(n)]
        sol = _solve_linear([c.coeffs for c in lat + prev], target.coeffs, ctx)
        if sol is None:
            raise AssertionError("decomposition has no solution (bug)")
        xs = sol[len(lat):]
        x[n] = xs
        # lattice part w_n = target - sum x v
        wn = target
        for c, col in zip(xs, prev):
            if not ctx.is_zero(c):
                wn = wn.add(col.scale(ctx.neg(c)))
        w[n] = wn
        if ctx.is_zero(xs[n - 1]):
            J.add(n)

    # deform over K(t)
    kt = rational_ctx(ctx)
    trep = kt.t()
    ub1_f2 = _pad(_u_power(f2, b - 1))
    vt = {k0: lift(v[k0], kt).add(lift(ub1_f2, kt).scale(trep))}
    for n in range(1, e - k0 + 1):
        k = k0 + n
        if n in J:
            vt[k] = lift(v[k], kt).add(_div_u(vt[k - 1]).scale(trep))
        else:
            acc = _div_u(lift(w[n], kt))
            for l in range(n):
                c = kt.lift(x[n][l])
                if not kt.is_zero(c):
                    acc = acc.add(_div_u(vt[k0 + l]).scale(c))
            vt[k] = acc
    vt = {k: _project(vec) for k, vec in vt.items()}

    base_rows = [lift(r, kt) for r in chain.level(k0 - 1).basis()]
    levels = []
    for k in range(1, e + 1):
        if k < k0:
            levels.append(lift(chain.level(k), kt))
        else:
            gens = base_rows + [vt[kk] for kk in range(k0, k + 1)]
            levels.append(Subspace.span(kt, e, gens))
    fam = FamilyChain(kt, levels)
    _check_family(fam, chain)
    gen = fam.generic_label()
    if gen.lam != (i + 1, j - 1):
        raise AssertionError(f"generic hodge {gen.lam} != {(i + 1, j - 1)} (bug)")
    if nilpotency_index(fam.levels[-1]) != s[e] + 1:
        raise AssertionError("deformed nilpotency index is not s_e + 1 (bug)")
    fam.trace = DeformationTrace(
        s[1:], k0, f1, f2, a, b, v_uvec,
        {n: _project(w[n]) for n in w},
        x, J, vt=vt,
    )
    return fam


def _check_family(fam, chain):
    """Bug traps shared by every construction: the family is a valid chain
    and specializes to its input."""
    if fam.validate():
        raise AssertionError("constructed family is not a valid chain (bug)")
    if fam.specialize() != chain:
        raise AssertionError("family does not specialize to its input (bug)")


# ----------------------------------------------------------------------
# the named recipes at e = 4: move one level by t * aux
# ----------------------------------------------------------------------
# The variant v of recipe_7_3_1 (CLI token 731-v, over K(t)) and of
# recipe_7_3_2 (732-v, over K[t]/(t^N), m1 = 0 kept) -> the edge it
# certifies, as the (lambda, T) of its lower and upper label, and its move
# (k, p) for _move_level.  strata reads its named closure edges off this.
NAMED_MOVES = {
    1: (((2, 2), frozenset({2, 3, 4})), ((2, 2), frozenset({3})), 2, 1),
    2: (((2, 2), frozenset({3})), ((3, 1), frozenset({3})), 4, 2),
}
# How recipe_7_3_2's certificate pins each variant's generic Hodge pair.
_SIGMA_HODGE = {
    1: {"hodge_exact": "level four is constant"},
    2: {
        "pinch": "hodge >= (3,1) by u^2-witness; (4,0) excluded since m3 = 0",
        "excluded": ["lambda=(4,0)"],
    },
}


def _require_label(chain, variant):
    """The upper (lambda, T) and the move (k, p) of the variant, once the
    chain is checked to carry its lower label."""
    if variant not in NAMED_MOVES:
        raise InvalidInput(f"unknown variant {variant!r}")
    (lam, T), upper, k, power = NAMED_MOVES[variant]
    if chain.e != 4:
        raise InvalidInput("recipe defined for e = 4")
    lab = stratum_label(chain)
    if lab.lam != lam or lab.T != T:
        raise InvalidInput(
            f"recipe precondition: label {lab.serialize()} is not "
            f"lambda={lam}, T={sorted(T)}"
        )
    return upper, k, power


def _move_level(chain, k, power, tctx, model=None):
    """The family over tctx that moves level k alone, bug-trapped by
    _check_family, and the moved generator.

    The complement generator v_k of omega(k) becomes v_k + t aux, with aux
    the first basis vector of u^-1(omega(k-1)) whose u^power-image is
    nonzero; every other level is the chain's own, lifted to tctx.
    """
    pre = chain.level(k - 1).u_preimage()
    for aux in pre.basis():
        if not _u_power(aux, power).is_zero():
            break
    else:
        raise NoValidAuxVector(f"u^-1(omega({k - 1})) lies inside E[u^{power}]")
    vk = _complement_generator(chain.level(k), chain.level(k - 1))
    moved = lift(vk, tctx).add(lift(aux, tctx).scale(tctx.t()))
    levels = [lift(w, tctx) for w in chain.levels]
    below = levels[k - 2].basis() if k > 1 else []
    levels[k - 1] = Subspace.span(tctx, chain.e, below + [moved])
    fam = FamilyChain(tctx, levels, model=model)
    _check_family(fam, chain)
    return fam, moved


def recipe_7_3_1(chain, variant):
    """The move of the variant over K(t); the family's generic label is the
    variant's upper one.

    1 (CLI 731-1) moves only level two, by aux in u^-1(omega(1)) outside
    E[u]: levels 3 and 4 are the constant canonical subspaces
    u^-1(omega(1)) and E[u^2].  2 (731-2) moves only level four, by aux in
    u^-1(omega(3)) outside E[u^2], so u^2(v4 + t aux) != 0 generically.
    """
    (lam, T), k, power = _require_label(chain, variant)
    kt = rational_ctx(chain.ctx)
    fam, _ = _move_level(chain, k, power, kt)
    gen = fam.generic_label()
    if gen.lam != lam or gen.T != T:
        raise AssertionError(
            f"recipe generic label {gen.serialize()} != {lam}, {sorted(T)} (bug)"
        )
    return fam


def _sigma_recipe(model, chain, N, variant):
    """The variant's move over K[t]/(t^N), certified to keep m1 = 0.

    m1 = 0 means F^(1) = omega(1), so the aux vector is the linear
    recipe's.  Levels 1 and 3 stay constant (k is 2 or 4), so F^(1) of
    the family, which depends on omega(3) only, stays pinned to level one
    and m1 = 0 holds identically.  A collapse (power 1) keeps level four,
    and with it the Hodge pair; a raise (power 2) pins its generic Hodge
    pair by the u^2-witness u^2(v4 + t aux) != 0.
    """
    (lam, T), k, power = _require_label(chain, variant)
    if not m1_vanishes(model, chain):
        raise InvalidInput("recipe requires m1 = 0 at the special point")
    tctx = truncated_ctx(chain.ctx, N)
    fam, moved = _move_level(chain, k, power, tctx, model)
    l1, l2, l3, l4 = fam.levels
    pre3_twist = lift(chain.level(3).u_preimage().frobenius_twist(), tctx)
    fam_f1 = model.map_coeffs(tctx.lift, tctx).image(pre3_twist)
    if not fam_f1.equals(l1):
        raise AllMinorsVanish("family F^(1) does not match the pinned level")
    # certificates: m3, m4-containment structure and broken invariants
    checks = {
        "m3_identically_zero": l1.contains(l3.u_image()),
        "m2_generic_nonzero": any(not v.u_mult().is_zero() for v in l2.basis()),
        "m4_generic_nonzero": any(
            not l2.contains_vec(v.u_mult()) for v in l4.basis()
        ),
    }
    if power == 2:
        checks["hodge_u2_witness"] = not _u_power(moved, 2).is_zero()
    if not all(checks.values()):
        raise AllMinorsVanish(f"certification failed at precision {N}: {checks}")
    fam.cert = CertifiedLabel(
        StratumLabel(lam, T, "0"),
        {
            "mode": "truncated",
            "prec": N,
            **_SIGMA_HODGE[variant],
            "checks": sorted(checks),
            "m1": "pinned to F^(1) identically mod t^N",
        },
    )
    return fam


def sigma_collapse(model, chain, N=DEFAULT_TRUNC_PRECISION):
    """((2,2), {2,3,4}) with m1 = 0 -> certified generic ((2,2), {3}), m1 = 0.

    The move of ``recipe_7_3_1(chain, 1)`` over K[t]/(t^N): level two moves by
    t aux with aux in u^-1(F^(1)) = u^-1(omega(1)) outside E[u].
    """
    return _sigma_recipe(model, chain, N, 1)


def sigma_raise(model, chain, N=DEFAULT_TRUNC_PRECISION):
    """((2,2), {3}) with m1 = 0 -> certified generic ((3,1), {3}), m1 = 0.

    The move of ``recipe_7_3_1(chain, 2)`` over K[t]/(t^N).  The generic Hodge pair
    is pinned by a u^2-witness plus the emptiness of ((4,0), {3}).
    """
    return _sigma_recipe(model, chain, N, 2)


def recipe_7_3_2(model, chain, variant, N=DEFAULT_TRUNC_PRECISION):
    """Dispatch by variant number: 1 collapses, 2 raises (CLI 732-1 / 732-2)."""
    if variant == 1:
        return sigma_collapse(model, chain, N)
    if variant == 2:
        return sigma_raise(model, chain, N)
    raise InvalidInput(f"unknown variant {variant!r}")


def with_precision_retry(fn, *args, N=DEFAULT_TRUNC_PRECISION):
    """Run a truncated recipe, doubling N up to the maximum on failure."""
    while True:
        try:
            return fn(*args, N=N)
        except AllMinorsVanish:
            if N >= MAX_TRUNC_PRECISION:
                raise
            N *= 2


# ----------------------------------------------------------------------
# m1 inversion (whole-chain transport by 1 + tA)
# ----------------------------------------------------------------------
def invert_m1(model, chain, N=DEFAULT_TRUNC_PRECISION):
    """Family with every linear invariant t-constant and m1 != 0 mod t^2.

    Transports the whole chain by g(t) = 1 + tA where A w is outside
    omega^(1) for w its generator.  g commutes with u and is invertible,
    so lambda and T are literally constant; sigma(g) = 1 mod t^2 keeps
    F^(1) of the family constant mod t^2 while omega^(1) moves at first
    order.
    """
    ctx, e = chain.ctx, chain.e
    if not m1_vanishes(model, chain):
        raise InvalidInput("m1 is already nonzero at this point")
    if chain.level(1).dim != 1:
        raise InvalidInput("level one must be a line")
    w1 = chain.level(1).basis()[0]
    # deterministic choice of A: single-monomial matrices u^deg E_pos
    moves = ((pos, deg) for pos in ((0, 1), (1, 0), (0, 0), (1, 1)) for deg in range(e))
    for pos, deg in moves:
        A = UMatrix.unit_plus_monomial(ctx, e, pos, deg, ctx.one(), diag=ctx.zero())
        if not chain.level(1).contains_vec(A.apply(w1)):
            break
    else:
        raise NoValidAuxVector("no matrix moves level one (bug)")
    tctx = truncated_ctx(ctx, N)
    trep = tctx.t()
    g_t = UMatrix.unit_plus_monomial(tctx, e, pos, deg, trep)
    levels = [g_t.image(lift(w, tctx)) for w in chain.levels]
    fam = FamilyChain(tctx, levels, model=model)
    _check_family(fam, chain)

    # linear invariants are exactly constant: verify by unit-pivot ranks
    lab = stratum_label(chain)
    if hodge(fam.levels[-1]) != lab.lam:
        raise AssertionError("transported hodge ranks changed (bug)")
    for idx in range(2, e + 1):
        lower = (
            fam.levels[idx - 3] if idx > 2 else Subspace.zero(tctx, e)
        )
        if lower.contains(fam.levels[idx - 1].u_image()) != (idx in lab.T):
            raise AssertionError("transported T changed (bug)")

    # m1 breaks already mod t^2; sigma(g) = 1 + t^p A as A is t-constant
    gsigma = UMatrix.unit_plus_monomial(tctx, e, pos, deg, tctx.frobenius(trep))
    pre3_twist = lift(
        chain.level(e - 1).u_preimage().frobenius_twist(), tctx
    )
    fam_f1 = model.map_coeffs(tctx.lift, tctx).compose(gsigma).image(pre3_twist)
    if fam_f1.dim != 1:
        raise AllMinorsVanish("family F^(1) is degenerate")

    def nonzero_mod_t2(vec):
        return any(not ctx.is_zero(c[m]) for c in vec.coeffs for m in range(min(2, N)))

    # F^(1) constant mod t^2
    base_f1_t = lift(f_one(model, chain), tctx)
    if any(nonzero_mod_t2(base_f1_t.reduce(v)) for v in fam_f1.basis()):
        raise AssertionError("F^(1) moved at first order (bug)")
    if not nonzero_mod_t2(fam_f1.reduce(fam.levels[0].basis()[0])):
        raise AllMinorsVanish("m1 did not break mod t^2")
    fam.cert = CertifiedLabel(
        StratumLabel(lab.lam, lab.T, "1"),
        {
            "mode": "truncated",
            "prec": N,
            "transport": "g(t) = 1 + tA, linear invariants literally constant",
            "m1": "omega^(1) differs from F^(1) already mod t^2",
        },
    )
    return fam


def transport_family(fam, g):
    """Apply a constant group element to every level of a family.

    The generic label and validity are unchanged (g is invertible and
    commutes with u); the specialization becomes g * (old specialization).
    """
    tctx = fam.tctx
    gt = g.map_coeffs(tctx.lift, tctx)
    levels = [gt.image(w) for w in fam.levels]
    return FamilyChain(tctx, levels, model=fam.model, cert=fam.cert)


# ----------------------------------------------------------------------
# generic witness search
# ----------------------------------------------------------------------
def search_witness(chain, target, budget=DEFAULT_SEARCH_BUDGET):
    """First-order perturbation search over subsets of levels.

    For each subset S of levels (smallest first) and each tuple of
    monomials (w_k), the last varying fastest, the complement generator
    of every level k in S is replaced by v_k + t w_k; levels outside S
    keep their generator when it still fits, or get a canonical
    first-order correction v + t z solved over K(t).  Returns the first
    valid family specializing bit-exactly to the input whose generic label
    matches the target.  Exhaustion raises NotFound (never treated as
    emptiness).

    Level k + 1 depends only on level k's canonical rows and the move at
    level k: each such pair is built once per search, so a degenerate
    level rejects every try that reaches it, and a family already seen
    (same canonical rows) was already rejected.  Tries, order, budget and result
    are those of building and checking every candidate afresh.
    Each distinct family is labelled first by chains.walk_label; only one
    with the target label is validated and specialized, and the family
    returned must have that full stratum_label too (a bug trap otherwise).
    """
    from itertools import combinations, product

    ctx, e = chain.ctx, chain.e
    lab = stratum_label(chain)
    tgt = target.linear()
    if lab.linear() == tgt or not naive_leq(lab.linear(), tgt):
        raise InvalidInput("target must be strictly above the chain's label")
    kt = rational_ctx(ctx)
    tdeltas = [
        UVec.monomial(kt, e, coord, deg).scale(kt.t())
        for coord in (1, 2)
        for deg in range(e)
    ]
    gens = [
        lift(_complement_generator(chain.level(k + 1), chain.level(k)), kt)
        for k in range(e)
    ]
    cache = {}  # (rows of the previous level, move) -> level, or None
    seen = set()
    attempts = 0
    for size in range(1, e + 1):
        for subset in combinations(range(e), size):
            for ws in product(range(2 * e), repeat=size):
                attempts += 1
                if attempts > budget:
                    raise NotFound(
                        f"budget {budget} exhausted after {attempts - 1} tries"
                    )
                moves = tuple(map(dict(zip(subset, ws)).get, range(e)))
                levels = _try_perturbation(gens, tdeltas, moves, cache)
                if levels is None:
                    continue
                key = tuple(w.rows for w in levels)
                if key in seen:
                    continue
                seen.add(key)
                if walk_label(levels) != tgt:
                    continue
                fam = FamilyChain(kt, levels)
                if _is_witness(fam, chain):
                    if fam.generic_label().linear() != tgt:
                        raise AssertionError("walk label is not the K(t) label (bug)")
                    return fam
    raise NotFound(f"no witness within budget (tried {attempts})")


def _try_perturbation(gens, tdeltas, moves, cache):
    """Levels of the candidate moving generator k by tdeltas[moves[k]]
    (None: no move), or None if its construction degenerates; cache maps
    (level k's rows, moves[k]) to level k + 1 (level k has k rows)."""
    prev = Subspace.zero(gens[0].ctx, gens[0].N)
    levels = []
    for vk, move in zip(gens, moves):
        if (prev.rows, move) not in cache:
            cache[prev.rows, move] = _perturb_level(prev, vk, move, tdeltas)
        prev = cache[prev.rows, move]
        if prev is None:
            return None
        levels.append(prev)
    return levels


def _perturb_level(prev, vk, move, tdeltas):
    """prev + <y>, y = v_k + tdeltas[move]; with no move, y = v_k when
    u v_k lies in prev, else its canonical first-order correction v_k + t z.
    None if u y is outside prev or y inside it."""
    kt = prev.ctx
    y = vk if move is None else vk.add(tdeltas[move])
    r = prev.reduce(y.u_mult())
    if move is None and not r.is_zero():
        cols = [prev.reduce(d.u_mult()).coeffs for d in tdeltas]
        sol = _solve_linear(cols, tuple(kt.neg(c) for c in r.coeffs), kt)
        if sol is None:
            return None
        for c, d in zip(sol, tdeltas):
            if not kt.is_zero(c):
                y = y.add(d.scale(c))
        r = prev.reduce(y.u_mult())
    if not r.is_zero() or prev.contains_vec(y):
        return None
    return Subspace.span(kt, prev.N, prev.basis() + [y])


def _is_witness(fam, chain):
    """A valid family specializing to chain."""
    if fam.validate():
        return False
    try:
        return fam.specialize() == chain
    except LatModelError:
        return False
