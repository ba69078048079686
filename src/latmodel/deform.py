"""One-parameter deformation families of chains and the explicit recipes.

Families live over K(t) (``exact_rational`` mode: generic invariants are
computed exactly over the fraction field) or over K[t]/(t^N)
(``truncated`` mode: used for the sigma-linear recipes, whose generic
claims are certified by residuals/minors that are nonzero mod t^N plus a
pinch argument against the emptiness table).

Provided constructions:

* ``hodge_raise``    -- raises the Hodge invariant of the endpoint by
  (1,-1): the constructive one-step generization.  Deformed generators
  are tracked in the window u^-1 Lambda_0 / u^(e+1) Lambda_0 (u-exponent
  slots -1..e per coordinate), where every step of the construction is
  exact; a final containment assertion guards the divisions by u.
* ``linear_collapse`` / ``linear_raise`` (CLI tokens 731-1 / 731-2) --
  the two linear e=4 recipes: break m2 and m4 within lambda=(2,2), then
  raise (2,2) to (3,1) keeping only m3 = 0.
* ``sigma_collapse`` / ``sigma_raise`` (CLI tokens 732-1 / 732-2) -- the
  same moves keeping the sigma-linear invariant m1 = 0 along the family,
  over K[t]/(t^N).
* ``invert_m1``      -- transports the whole chain by g(t) = 1 + tA: all
  linear invariants stay literally constant while omega^(1) leaves F^(1)
  at first order (the Frobenius of t is t^p, so F^(1) of the family is
  constant mod t^2).
* ``search_witness`` -- deterministic first-order single-generator
  perturbation search used for edges with no named recipe.
"""

from __future__ import annotations

from .chains import PRChain
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
from .scalars import rational_ctx, series_inv, series_mul, truncated_ctx
from .umod import Subspace, UVec, _nullspace, _rref, apply_matrix

DEFAULT_TRUNC_PRECISION = 16
MAX_TRUNC_PRECISION = 128
DEFAULT_SEARCH_BUDGET = 4000


# ----------------------------------------------------------------------
# lifting helpers (base field -> t-extension, t-constant)
# ----------------------------------------------------------------------
def lift_vec(v, tctx):
    return v.map_coeffs(tctx.lift, tctx)


def lift_sub(w, tctx):
    return w.map_coeffs(tctx.lift, tctx)


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
# window vectors: u-exponent slots -1 .. e per coordinate
# ----------------------------------------------------------------------
class Window:
    """Exact working space u^-1 Lambda_0 / u^(e+1) Lambda_0."""

    __slots__ = ("ctx", "e", "B")

    def __init__(self, ctx, e):
        self.ctx = ctx
        self.e = e
        self.B = e + 2  # slots per coordinate, exponents -1..e

    def zero(self):
        return (self.ctx.zero(),) * (2 * self.B)

    def from_uvec(self, v):
        z = self.ctx.zero()
        a = (z,) + v.coeffs[: self.e] + (z,)
        b = (z,) + v.coeffs[self.e :] + (z,)
        return a + b

    def monomial_exp_e(self, coord):
        """u^e e_coord (the generator of u^e Lambda_0 on one coordinate)."""
        w = list(self.zero())
        w[(coord - 1) * self.B + self.B - 1] = self.ctx.one()
        return tuple(w)

    def add(self, x, y):
        return tuple(self.ctx.add(a, b) for a, b in zip(x, y))

    def sub(self, x, y):
        return tuple(self.ctx.sub(a, b) for a, b in zip(x, y))

    def scale(self, c, x):
        return tuple(self.ctx.mul(c, a) for a in x)

    def is_zero(self, x):
        return all(self.ctx.is_zero(a) for a in x)

    def shift_up(self, x):
        """Multiplication by u (content above exponent e is dropped)."""
        z = self.ctx.zero()
        B = self.B
        return (z,) + x[: B - 1] + (z,) + x[B : 2 * B - 1]

    def shift_down(self, x):
        """Division by u; requires an empty exponent -1 slot."""
        B = self.B
        if not (self.ctx.is_zero(x[0]) and self.ctx.is_zero(x[B])):
            raise ContainmentViolated("division by u exits the window")
        z = self.ctx.zero()
        return x[1:B] + (z,) + x[B + 1 :] + (z,)

    def to_uvec(self, x):
        """Project to E_e (mod u^e); the exponent -1 slot must be empty."""
        B = self.B
        if not (self.ctx.is_zero(x[0]) and self.ctx.is_zero(x[B])):
            raise ContainmentViolated("window vector not inside Lambda_0")
        return UVec(self.ctx, self.e, x[1:B - 1] + x[B + 1 : 2 * B - 1])

    def lattice_cols(self, w):
        """Window images of a k-basis of the lattice over a subspace W.

        The lattice is the preimage of W in Lambda_0; in the window it is
        spanned by W's basis plus u^e e_1, u^e e_2.
        """
        cols = [self.from_uvec(v) for v in w.basis()]
        cols.append(self.monomial_exp_e(1))
        cols.append(self.monomial_exp_e(2))
        return cols


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
    shifted = []
    for g, s in ((g_big, a1), (g_small, a2)):
        for _ in range(s):
            g = g.u_mult()
        shifted.append(g)
    if not Subspace.module_span(ctx, e, shifted).equals(w):
        raise AssertionError("adapted basis reconstruction failed (bug)")
    return g_big, g_small, a1, a2


# ----------------------------------------------------------------------
# certified labels and families
# ----------------------------------------------------------------------
class CertifiedLabel:
    """A generic-fiber label with its certification metadata."""

    __slots__ = ("label", "exact", "metadata")

    def __init__(self, label, exact, metadata=None):
        self.label = label
        self.exact = exact
        self.metadata = dict(metadata or {})

    def serialize(self):
        return {
            "label": self.label.serialize(),
            "exact": self.exact,
            "metadata": self.metadata,
        }


class FamilyChain:
    """A chain over K(t) or K[t]/(t^N), specializing at t = 0."""

    __slots__ = ("mode", "base_ctx", "tctx", "e", "levels", "model", "cert", "trace")

    def __init__(self, mode, base_ctx, tctx, e, levels, model=None, cert=None, trace=None):
        if mode not in ("exact_rational", "truncated"):
            raise InvalidInput("unknown family mode")
        self.mode = mode
        self.base_ctx = base_ctx
        self.tctx = tctx
        self.e = e
        self.levels = tuple(levels)
        self.model = model
        self.cert = cert
        self.trace = trace

    @property
    def prec(self):
        return self.tctx.N if self.mode == "truncated" else None

    def as_chain(self):
        return PRChain(self.tctx, self.e, self.levels)

    def validate(self):
        """Like PRChain.validate, but u-stability is checked generator by
        generator (u-images of moved levels need not be free over
        K[t]/(t^N), so they cannot be re-spanned there)."""
        report = []
        zero = Subspace.zero(self.tctx, self.e)
        for i in range(1, self.e + 1):
            w = self.levels[i - 1]
            prev = self.levels[i - 2] if i > 1 else zero
            if w.dim != i:
                report.append(f"level {i}: dim {w.dim} != {i}")
                continue
            if i > 1 and not w.contains(prev):
                report.append(f"level {i}: does not contain level {i - 1}")
            if not all(prev.contains_vec(v.u_mult()) for v in w.basis()):
                report.append(f"level {i}: u*level not inside level {i - 1}")
        return report

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

    def semicontinuity_audit(self):
        """hodge can only rise and T can only shrink at the generic fiber."""
        sp = stratum_label(self.specialize())
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
    win = Window(ctx, e)

    # complement generators v_k (window vectors), with v_k0 = u^a f1
    ua_f1 = f1
    for _ in range(a):
        ua_f1 = ua_f1.u_mult()
    if not chain.level(k0).contains_vec(ua_f1) or chain.level(k0 - 1).contains_vec(ua_f1):
        raise AssertionError("u^a f1 is not a valid complement generator (bug)")
    v = {k0: win.from_uvec(ua_f1)}
    v_uvec = {k0: ua_f1}
    for k in range(k0 + 1, e + 1):
        g = _complement_generator(chain.level(k), chain.level(k - 1))
        v[k] = win.from_uvec(g)
        v_uvec[k] = g

    # decompositions u v_(k0+n) = w_n + sum x_(n,l) v_(k0+l)
    lat = win.lattice_cols(chain.level(k0 - 1))
    x = {}
    w = {}
    J = set()
    for n in range(1, e - k0 + 1):
        target = win.shift_up(v[k0 + n])
        cols = lat + [v[k0 + l] for l in range(n)]
        sol = _solve_linear(cols, target, ctx)
        if sol is None:
            raise AssertionError("decomposition has no solution (bug)")
        xs = sol[len(lat):]
        x[n] = xs
        # lattice part w_n = target - sum x v
        wn = target
        for c, col in zip(xs, [v[k0 + l] for l in range(n)]):
            if not ctx.is_zero(c):
                wn = win.sub(wn, win.scale(c, col))
        w[n] = wn
        if ctx.is_zero(xs[n - 1]):
            J.add(n)

    # deform over K(t)
    kt = rational_ctx(ctx)
    wint = Window(kt, e)
    trep = kt.t()

    def liftw(x0):
        return tuple(kt.lift(c) for c in x0)

    ub1_f2 = f2
    for _ in range(b - 1):
        ub1_f2 = ub1_f2.u_mult()
    vt = {k0: wint.add(liftw(v[k0]), wint.scale(trep, liftw(win.from_uvec(ub1_f2))))}
    for n in range(1, e - k0 + 1):
        k = k0 + n
        if n in J:
            vt[k] = wint.add(
                liftw(v[k]), wint.scale(trep, wint.shift_down(vt[k - 1]))
            )
        else:
            acc = wint.shift_down(liftw(w[n]))
            for l in range(n):
                c = kt.lift(x[n][l])
                if not kt.is_zero(c):
                    acc = wint.add(
                        acc, wint.scale(c, wint.shift_down(vt[k0 + l]))
                    )
            vt[k] = acc

    base_rows = [lift_vec(r, kt) for r in chain.level(k0 - 1).basis()]
    levels = []
    for k in range(1, e + 1):
        if k < k0:
            levels.append(lift_sub(chain.level(k), kt))
        else:
            gens = base_rows + [wint.to_uvec(vt[kk]) for kk in range(k0, k + 1)]
            levels.append(Subspace.span(kt, e, gens))
    fam = FamilyChain("exact_rational", ctx, kt, e, levels)
    if fam.validate():
        raise AssertionError("deformed family is not a valid chain (bug)")
    if fam.specialize() != chain:
        raise AssertionError("family does not specialize to its input (bug)")
    gen = fam.generic_label()
    if gen.lam != (i + 1, j - 1):
        raise AssertionError(f"generic hodge {gen.lam} != {(i + 1, j - 1)} (bug)")
    if nilpotency_index(fam.levels[-1]) != s[e] + 1:
        raise AssertionError("deformed nilpotency index is not s_e + 1 (bug)")
    fam.trace = DeformationTrace(
        s[1:], k0, f1, f2, a, b,
        {k: v_uvec[k] for k in v_uvec},
        {n: win.to_uvec(w[n]) for n in w},
        x, J,
        vt={k: wint.to_uvec(vt[k]) for k in vt},
    )
    return fam


# ----------------------------------------------------------------------
# linear recipes at e = 4 (exact_rational)
# ----------------------------------------------------------------------
def _require_label(chain, lam, T):
    lab = stratum_label(chain)
    if lab.lam != lam or lab.T != frozenset(T):
        raise InvalidInput(
            f"recipe precondition: label {lab.serialize()} is not "
            f"lambda={lam}, T={sorted(T)}"
        )
    return lab


def linear_collapse(chain):
    """((2,2), {2,3,4}) -> generic ((2,2), {3}): break m2 and m4.

    Moves only level two: omega~(2) = omega(1) + <v2 + t v> with
    v in u^-1(omega(1)) outside E[u]; levels 3 and 4 are the constant
    canonical subspaces u^-1(omega(1)) and E[u^2].
    """
    ctx, e = chain.ctx, chain.e
    if e != 4:
        raise InvalidInput("recipe defined for e = 4")
    _require_label(chain, (2, 2), {2, 3, 4})
    pre1 = chain.level(1).u_preimage()
    if not pre1.equals(chain.level(3)):
        raise AssertionError("omega(3) != u^-1(omega(1)) on this stratum (bug)")
    eu2 = Subspace.u_power_kernel(ctx, e, 2)
    if not eu2.equals(chain.level(4)):
        raise AssertionError("omega(4) != E[u^2] on this stratum (bug)")
    aux = next((v for v in pre1.basis() if not v.u_mult().is_zero()), None)
    if aux is None:
        raise NoValidAuxVector("u^-1(omega(1)) lies inside E[u]")
    v2 = _complement_generator(chain.level(2), chain.level(1))
    kt = rational_ctx(ctx)
    trep = kt.t()
    l1 = lift_sub(chain.level(1), kt)
    moved = lift_vec(v2, kt).add(lift_vec(aux, kt).scale(trep))
    l2 = Subspace.span(kt, e, l1.basis() + [moved])
    l3 = lift_sub(pre1, kt)
    l4 = lift_sub(eu2, kt)
    fam = FamilyChain("exact_rational", ctx, kt, e, [l1, l2, l3, l4])
    _finalize_exact(fam, chain, (2, 2), {3})
    return fam


def linear_raise(chain):
    """((2,2), {3}) -> generic ((3,1), {3}): raise the endpoint invariant.

    Moves only level four: omega~(4) = omega(3) + <v4 + t v> with
    v in u^-1(omega(3)) outside E[u^2], so u^2(v4 + t v) != 0 generically.
    """
    ctx, e = chain.ctx, chain.e
    if e != 4:
        raise InvalidInput("recipe defined for e = 4")
    _require_label(chain, (2, 2), {3})
    pre3 = chain.level(3).u_preimage()
    aux = next(
        (v for v in pre3.basis() if not v.u_mult().u_mult().is_zero()), None
    )
    if aux is None:
        raise NoValidAuxVector("u^-1(omega(3)) lies inside E[u^2]")
    v4 = _complement_generator(chain.level(4), chain.level(3))
    kt = rational_ctx(ctx)
    trep = kt.t()
    l1 = lift_sub(chain.level(1), kt)
    l2 = lift_sub(chain.level(2), kt)
    l3 = lift_sub(chain.level(3), kt)
    moved = lift_vec(v4, kt).add(lift_vec(aux, kt).scale(trep))
    l4 = Subspace.span(kt, e, l3.basis() + [moved])
    fam = FamilyChain("exact_rational", ctx, kt, e, [l1, l2, l3, l4])
    _finalize_exact(fam, chain, (3, 1), {3})
    return fam


def _finalize_exact(fam, chain, lam, T):
    if fam.validate():
        raise AssertionError("recipe produced an invalid family (bug)")
    if fam.specialize() != chain:
        raise AssertionError("recipe does not specialize to its input (bug)")
    gen = fam.generic_label()
    if gen.lam != lam or gen.T != frozenset(T):
        raise AssertionError(
            f"recipe generic label {gen.serialize()} != {lam}, {sorted(T)} (bug)"
        )


def recipe_7_3_1(chain, variant):
    """Dispatch by CLI token / variant number (1 or 2)."""
    if variant in (1, "1", "collapse_to_m3_only"):
        return linear_collapse(chain)
    if variant in (2, "2", "raise_within_m3"):
        return linear_raise(chain)
    raise InvalidInput(f"unknown variant {variant!r}")


# ----------------------------------------------------------------------
# sigma-linear recipes at e = 4 (truncated mode)
# ----------------------------------------------------------------------
def _residual_nonzero(sub, vec):
    return not sub.reduce(vec).is_zero()


def _family_f_one(model_t, pre_twist_t, extra_matrix=None):
    """span of M (sigma g) w over the lifted twisted preimage basis."""
    imgs = []
    for v in pre_twist_t.basis():
        x = v if extra_matrix is None else apply_matrix(extra_matrix, v)
        imgs.append(model_t.apply_linear(x))
    return Subspace.span(pre_twist_t.ctx, pre_twist_t.N, imgs)


def sigma_collapse(model, chain, N=DEFAULT_TRUNC_PRECISION):
    """((2,2), {2,3,4}) with m1 = 0 -> certified generic ((2,2), {3}), m1 = 0.

    Level two moves by v2 + t alpha with alpha in u^-1(F^(1)) outside
    E[u]; levels 1, 3, 4 are constant (omega(1) = F^(1) is pinned, and
    F^(1) of the family is constant because omega(3) is), so m1 = 0 holds
    identically over K[t]/(t^N).
    """
    ctx, e = chain.ctx, chain.e
    if e != 4:
        raise InvalidInput("recipe defined for e = 4")
    _require_label(chain, (2, 2), {2, 3, 4})
    if not m1_vanishes(model, chain):
        raise InvalidInput("recipe requires m1 = 0 at the special point")
    F1 = f_one(model, chain)
    preF = F1.u_preimage()
    alpha = next((v for v in preF.basis() if not v.u_mult().is_zero()), None)
    if alpha is None:
        raise NoValidAuxVector("u^-1(F^(1)) lies inside E[u]")
    v2 = _complement_generator(chain.level(2), chain.level(1))
    tctx = truncated_ctx(ctx, N)
    trep = tctx.t()
    l1 = lift_sub(chain.level(1), tctx)
    moved = lift_vec(v2, tctx).add(lift_vec(alpha, tctx).scale(trep))
    l2 = Subspace.span(tctx, e, l1.basis() + [moved])
    l3 = lift_sub(chain.level(1).u_preimage(), tctx)
    l4 = lift_sub(Subspace.u_power_kernel(ctx, e, 2), tctx)
    model_t = model.with_ctx(tctx, tctx.lift)
    fam = FamilyChain("truncated", ctx, tctx, e, [l1, l2, l3, l4], model=model)
    if fam.validate():
        raise AssertionError("sigma recipe produced an invalid family (bug)")
    if fam.specialize() != chain:
        raise AssertionError("sigma recipe does not specialize correctly (bug)")
    # m1 = 0 identically: F^(1) of the family equals the pinned level one
    pre3_twist = lift_sub(
        chain.level(3).u_preimage().frobenius_twist(), tctx
    )
    fam_f1 = _family_f_one(model_t, pre3_twist)
    if not fam_f1.equals(l1):
        raise AllMinorsVanish("family F^(1) does not match the pinned level")
    # certificates: m3, m4-containment structure and broken invariants
    checks = {
        "m3_identically_zero": l1.contains(l3.u_image()),
        "m2_generic_nonzero": _residual_nonzero(
            Subspace.zero(tctx, e), moved.u_mult()
        ),
        "m4_generic_nonzero": any(
            _residual_nonzero(l2, v.u_mult()) for v in l4.basis()
        ),
    }
    if not all(checks.values()):
        raise AllMinorsVanish(f"certification failed at precision {N}: {checks}")
    cert = CertifiedLabel(
        StratumLabel((2, 2), {3}, "0"),
        True,
        {
            "mode": "truncated",
            "prec": N,
            "hodge_exact": "level four is constant",
            "checks": sorted(checks),
            "m1": "pinned to F^(1) identically mod t^N",
        },
    )
    fam.cert = cert
    return fam


def sigma_raise(model, chain, N=DEFAULT_TRUNC_PRECISION):
    """((2,2), {3}) with m1 = 0 -> certified generic ((3,1), {3}), m1 = 0.

    Level four moves by v4 + t alpha with alpha in u^-1(omega(3)) outside
    E[u^2]; levels 1..3 are constant so F^(1) of the family is constant
    and m1 = 0 holds identically.  The generic Hodge pair is pinned by a
    u^2-witness plus the emptiness of ((4,0), {3}).
    """
    ctx, e = chain.ctx, chain.e
    if e != 4:
        raise InvalidInput("recipe defined for e = 4")
    _require_label(chain, (2, 2), {3})
    if not m1_vanishes(model, chain):
        raise InvalidInput("recipe requires m1 = 0 at the special point")
    pre3 = chain.level(3).u_preimage()
    alpha = next(
        (v for v in pre3.basis() if not v.u_mult().u_mult().is_zero()), None
    )
    if alpha is None:
        raise NoValidAuxVector("u^-1(omega(3)) lies inside E[u^2]")
    v4 = _complement_generator(chain.level(4), chain.level(3))
    tctx = truncated_ctx(ctx, N)
    trep = tctx.t()
    l1 = lift_sub(chain.level(1), tctx)
    l2 = lift_sub(chain.level(2), tctx)
    l3 = lift_sub(chain.level(3), tctx)
    moved = lift_vec(v4, tctx).add(lift_vec(alpha, tctx).scale(trep))
    l4 = Subspace.span(tctx, e, l3.basis() + [moved])
    model_t = model.with_ctx(tctx, tctx.lift)
    fam = FamilyChain("truncated", ctx, tctx, e, [l1, l2, l3, l4], model=model)
    if fam.validate():
        raise AssertionError("sigma recipe produced an invalid family (bug)")
    if fam.specialize() != chain:
        raise AssertionError("sigma recipe does not specialize correctly (bug)")
    pre3_twist = lift_sub(pre3.frobenius_twist(), tctx)
    fam_f1 = _family_f_one(model_t, pre3_twist)
    if not fam_f1.equals(l1):
        raise AllMinorsVanish("family F^(1) does not match the pinned level")
    u2moved = moved.u_mult().u_mult()
    checks = {
        "m3_identically_zero": l1.contains(l3.u_image()),
        "hodge_u2_witness": not u2moved.is_zero(),
        "m2_generic_nonzero": any(
            _residual_nonzero(Subspace.zero(tctx, e), v.u_mult())
            for v in l2.basis()
        ),
        "m4_generic_nonzero": any(
            _residual_nonzero(l2, v.u_mult()) for v in l4.basis()
        ),
    }
    if not all(checks.values()):
        raise AllMinorsVanish(f"certification failed at precision {N}: {checks}")
    cert = CertifiedLabel(
        StratumLabel((3, 1), {3}, "0"),
        True,
        {
            "mode": "truncated",
            "prec": N,
            "pinch": "hodge >= (3,1) by u^2-witness; (4,0) excluded since m3 = 0",
            "excluded": ["lambda=(4,0)"],
            "checks": sorted(checks),
            "m1": "pinned to F^(1) identically mod t^N",
        },
    )
    fam.cert = cert
    return fam


def recipe_7_3_2(model, chain, variant, N=DEFAULT_TRUNC_PRECISION):
    if variant in (1, "1"):
        return sigma_collapse(model, chain, N)
    if variant in (2, "2"):
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
def _unit_plus_monomial(ctx, e, pos, deg, c, diag):
    """The 2x2 matrix diag * 1 + c u^deg E_pos over K[u]/(u^e)."""
    ent = [[[ctx.zero()] * e for _ in range(2)] for _ in range(2)]
    ent[0][0][0] = ent[1][1][0] = diag
    i, j = pos
    ent[i][j][deg] = ctx.add(ent[i][j][deg], c)
    return [[tuple(poly) for poly in row] for row in ent]


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
        A = _unit_plus_monomial(ctx, e, pos, deg, ctx.one(), ctx.zero())
        if not chain.level(1).contains_vec(apply_matrix(A, w1)):
            break
    else:
        raise NoValidAuxVector("no matrix moves level one (bug)")
    tctx = truncated_ctx(ctx, N)
    trep = tctx.t()
    g_t = _unit_plus_monomial(tctx, e, pos, deg, trep, tctx.one())
    levels = [
        Subspace.span(
            tctx, e, [apply_matrix(g_t, lift_vec(v, tctx)) for v in wlvl.basis()]
        )
        for wlvl in chain.levels
    ]
    fam = FamilyChain("truncated", ctx, tctx, e, levels, model=model)
    if fam.validate():
        raise AssertionError("transported family is invalid (bug)")
    if fam.specialize() != chain:
        raise AssertionError("transport does not specialize correctly (bug)")

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
    model_t = model.with_ctx(tctx, tctx.lift)
    gsigma = _unit_plus_monomial(tctx, e, pos, deg, tctx.frobenius(trep), tctx.one())
    pre3_twist = lift_sub(
        chain.level(e - 1).u_preimage().frobenius_twist(), tctx
    )
    fam_f1 = _family_f_one(model_t, pre3_twist, extra_matrix=gsigma)
    if fam_f1.dim != 1:
        raise AllMinorsVanish("family F^(1) is degenerate")
    # F^(1) constant mod t^2
    base_f1_t = lift_sub(f_one(model, chain), tctx)
    for v in fam_f1.basis():
        r = base_f1_t.reduce(v)
        if any(
            not ctx.is_zero(c[m]) for c in r.coeffs for m in range(min(2, N))
        ):
            raise AssertionError("F^(1) moved at first order (bug)")
    moved1 = fam.levels[0].basis()[0]
    resid = fam_f1.reduce(moved1)
    mod_t2_nonzero = any(
        not ctx.is_zero(c[m]) for c in resid.coeffs for m in range(min(2, N))
    )
    if not mod_t2_nonzero:
        raise AllMinorsVanish("m1 did not break mod t^2")
    cert = CertifiedLabel(
        StratumLabel(lab.lam, lab.T, "1"),
        True,
        {
            "mode": "truncated",
            "prec": N,
            "transport": "g(t) = 1 + tA, linear invariants literally constant",
            "m1": "omega^(1) differs from F^(1) already mod t^2",
        },
    )
    fam.cert = cert
    return fam


def transport_family(fam, g):
    """Apply a constant group element to every level of a family.

    The generic label and validity are unchanged (g is invertible and
    commutes with u); the specialization becomes g * (old specialization).
    """
    tctx, e = fam.tctx, fam.e
    gt = [
        [tuple(tctx.lift(c) for c in poly) for poly in row]
        for row in g.entries
    ]
    levels = [
        Subspace.span(tctx, e, [apply_matrix(gt, v) for v in w.basis()])
        for w in fam.levels
    ]
    return FamilyChain(
        fam.mode, fam.base_ctx, tctx, e, levels, model=fam.model, cert=fam.cert
    )


# ----------------------------------------------------------------------
# generic witness search
# ----------------------------------------------------------------------
def search_witness(chain, target, budget=DEFAULT_SEARCH_BUDGET):
    """First-order perturbation search over subsets of levels.

    For each subset S of levels (smallest first) and each tuple of
    monomials (w_k), the complement generator of every level k in S is
    replaced by v_k + t w_k; levels outside S keep their generator when
    it still fits, or get a canonical first-order correction v + t z
    solved over K(t).  Returns the first valid family specializing
    bit-exactly to the input whose generic label matches the target.
    Exhaustion raises NotFound (never treated as emptiness).
    """
    from itertools import combinations, product

    ctx, e = chain.ctx, chain.e
    lab = stratum_label(chain)
    tgt = target.linear()
    if lab.linear() == tgt or not naive_leq(lab.linear(), tgt):
        raise InvalidInput("target must be strictly above the chain's label")
    kt = rational_ctx(ctx)
    trep = kt.t()
    monos = [
        UVec.monomial(ctx, e, coord, deg) for coord in (1, 2) for deg in range(e)
    ]
    deltas = [
        UVec.monomial(kt, e, coord, deg) for coord in (1, 2) for deg in range(e)
    ]
    gens = {
        k: _complement_generator(chain.level(k), chain.level(k - 1))
        for k in range(1, e + 1)
    }
    attempts = 0
    for size in range(1, e + 1):
        for subset in combinations(range(1, e + 1), size):
            for ws in product(monos, repeat=size):
                attempts += 1
                if attempts > budget:
                    raise NotFound(
                        f"budget {budget} exhausted after {attempts - 1} tries"
                    )
                fam = _try_perturbation(
                    chain, kt, trep, deltas, gens, dict(zip(subset, ws))
                )
                if fam is not None and fam.generic_label().linear() == tgt:
                    return fam
    raise NotFound(f"no witness within budget (tried {attempts})")


def _try_perturbation(chain, kt, trep, deltas, gens, moves):
    """Build one candidate family; None if the construction degenerates."""
    ctx, e = chain.ctx, chain.e
    levels = []
    prev = Subspace.zero(kt, e)
    for k in range(1, e + 1):
        vk = lift_vec(gens[k], kt)
        if k in moves:
            y = vk.add(lift_vec(moves[k], kt).scale(trep))
            if not prev.contains_vec(y.u_mult()):
                return None
        elif prev.contains_vec(vk.u_mult()):
            y = vk
        else:
            # canonical first-order correction v + t z
            cols = [prev.reduce(d.scale(trep).u_mult()).coeffs for d in deltas]
            targ = tuple(kt.neg(c) for c in prev.reduce(vk.u_mult()).coeffs)
            sol = _solve_linear(cols, targ, kt)
            if sol is None:
                return None
            y = vk
            for c, d in zip(sol, deltas):
                if not kt.is_zero(c):
                    y = y.add(d.scale(kt.mul(c, trep)))
            if not prev.contains_vec(y.u_mult()):
                return None
        if prev.contains_vec(y):
            return None
        levels.append(Subspace.span(kt, e, prev.basis() + [y]))
        prev = levels[-1]
    fam = FamilyChain("exact_rational", ctx, kt, e, levels)
    if fam.validate():
        return None
    try:
        if fam.specialize() != chain:
            return None
    except LatModelError:
        return None
    return fam
