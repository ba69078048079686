"""Exact scalar arithmetic tower.

Four coefficient domains, each with a Frobenius endomorphism:

* ``prime``       -- F_p, residues stored as ints in [0, p).
* ``extension``   -- F_{p^f} = F_p[x]/(modulus), stored as length-f tuples
                     of ints (low degree first); the modulus is validated
                     irreducible by exhaustive trial division.
* ``rational_t``  -- K(t) over a finite base K, stored as a reduced pair
                     (num, den) of coefficient tuples with den monic.
* ``truncated_t`` -- K[t]/(t^N), a local ring; stored as a length-N tuple.

Raw element representations are plain nested tuples/ints (hashable and
canonical: equal values have identical representations).  All arithmetic is
exposed as methods on :class:`FieldCtx` acting on raw representations; the
:class:`Scalar` wrapper provides operator sugar on top.

Frobenius acts as x -> x^p on finite fields; on the t-extensions it acts
coefficient-wise and sends t to t^p.
"""

from __future__ import annotations

import itertools

from .errors import BoundExceeded, InvalidInput, NonUnitDivision, PoleAtZero

DEFAULT_PRECISION = 16
DEFAULT_ENUM_BOUND = 128


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FieldCtx:
    """Immutable context describing one level of the scalar tower."""

    __slots__ = ("kind", "p", "f", "modulus", "base", "N", "_hash")

    def __init__(self, kind, p, f=1, modulus=None, base=None, N=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "N", N)
        object.__setattr__(
            self, "_hash", hash((kind, p, f, modulus, N))
        )

    def __setattr__(self, *a):
        raise AttributeError("FieldCtx is immutable")

    def __eq__(self, other):
        if not isinstance(other, FieldCtx):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.p == other.p
            and self.f == other.f
            and self.modulus == other.modulus
            and self.base == other.base
            and self.N == other.N
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.kind == "prime":
            return f"F_{self.p}"
        if self.kind == "extension":
            return f"F_{self.p}^{self.f}"
        if self.kind == "rational_t":
            return f"{self.base!r}(t)"
        return f"{self.base!r}[t]/(t^{self.N})"

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------
    @property
    def is_finite(self):
        return self.kind in ("prime", "extension")

    @property
    def is_field(self):
        return self.kind != "truncated_t"

    @property
    def order(self):
        if not self.is_finite:
            raise InvalidInput("infinite context has no order")
        return self.p ** self.f

    def zero(self):
        if self.kind == "prime":
            return 0
        if self.kind == "extension":
            return (0,) * self.f
        if self.kind == "rational_t":
            return ((), (self.base.one(),))
        return (self.base.zero(),) * self.N

    def one(self):
        if self.kind == "prime":
            return 1
        if self.kind == "extension":
            return (1,) + (0,) * (self.f - 1)
        if self.kind == "rational_t":
            return ((self.base.one(),), (self.base.one(),))
        return (self.base.one(),) + (self.base.zero(),) * (self.N - 1)

    def from_int(self, n):
        if self.kind == "prime":
            return n % self.p
        if self.kind == "extension":
            return (n % self.p,) + (0,) * (self.f - 1)
        return self.lift(self.base.from_int(n))

    def lift(self, base_rep):
        """Embed a base-field element as a constant of a t-extension."""
        if self.kind == "rational_t":
            if self.base.is_zero(base_rep):
                return self.zero()
            return ((base_rep,), (self.base.one(),))
        if self.kind == "truncated_t":
            return (base_rep,) + (self.base.zero(),) * (self.N - 1)
        raise InvalidInput("lift only applies to t-extensions")

    def t(self):
        """The deformation parameter t (t-extensions only)."""
        if self.kind == "rational_t":
            return ((self.base.zero(), self.base.one()), (self.base.one(),))
        if self.kind == "truncated_t":
            if self.N < 2:
                return self.zero()
            return (
                (self.base.zero(), self.base.one())
                + (self.base.zero(),) * (self.N - 2)
            )
        raise InvalidInput("t only exists in t-extensions")

    # ------------------------------------------------------------------
    # arithmetic on raw representations
    # ------------------------------------------------------------------
    def add(self, a, b):
        if self.kind == "prime":
            return (a + b) % self.p
        if self.kind == "extension":
            return tuple((x + y) % self.p for x, y in zip(a, b))
        if self.kind == "rational_t":
            K = self.base
            num = _padd(K, _pmul(K, a[0], b[1]), _pmul(K, a[1], b[0]))
            den = _pmul(K, a[1], b[1])
            return self._rat_normalize(num, den)
        K = self.base
        return tuple(K.add(x, y) for x, y in zip(a, b))

    def neg(self, a):
        if self.kind == "prime":
            return (-a) % self.p
        if self.kind == "extension":
            return tuple((-x) % self.p for x in a)
        if self.kind == "rational_t":
            K = self.base
            return (tuple(K.neg(c) for c in a[0]), a[1])
        K = self.base
        return tuple(K.neg(x) for x in a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.kind == "prime":
            return (a * b) % self.p
        if self.kind == "extension":
            return _ext_mul(self, a, b)
        if self.kind == "rational_t":
            K = self.base
            return self._rat_normalize(_pmul(K, a[0], b[0]), _pmul(K, a[1], b[1]))
        return series_mul(self.base, self.N, a, b)

    def inv(self, a):
        if self.is_zero(a):
            raise NonUnitDivision("division by zero")
        if self.kind == "prime":
            return pow(a, self.p - 2, self.p)
        if self.kind == "extension":
            return _ext_inv(self, a)
        if self.kind == "rational_t":
            return self._rat_normalize(a[1], a[0])
        # truncated power series: invertible iff constant term is a unit
        if self.base.is_zero(a[0]):
            raise NonUnitDivision("non-unit in truncated series ring")
        return series_inv(self.base, self.N, a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return a == self.zero()

    def is_unit(self, a):
        if self.kind == "truncated_t":
            return not self.base.is_zero(a[0])
        return not self.is_zero(a)

    # ------------------------------------------------------------------
    # Frobenius and specialization
    # ------------------------------------------------------------------
    def frobenius(self, a):
        if self.kind == "prime":
            return a
        if self.kind == "extension":
            out = self.one()
            basepow = a
            e = self.p
            while e:
                if e & 1:
                    out = _ext_mul(self, out, basepow)
                e >>= 1
                if e:
                    basepow = _ext_mul(self, basepow, basepow)
            return out
        K = self.base
        if self.kind == "rational_t":
            return self._rat_normalize(
                _pfrob_t(K, a[0], self.p), _pfrob_t(K, a[1], self.p)
            )
        out = [K.zero()] * self.N
        for i, c in enumerate(a):
            if i * self.p >= self.N:
                break
            out[i * self.p] = K.frobenius(c)
        return tuple(out)

    def specialize0(self, a):
        """Evaluate at t = 0 (t-extensions only); returns a base element."""
        if self.kind == "rational_t":
            num0 = a[0][0] if a[0] else self.base.zero()
            den0 = a[1][0] if a[1] else self.base.zero()
            if self.base.is_zero(den0):
                raise PoleAtZero("denominator vanishes at t = 0")
            return self.base.div(num0, den0)
        if self.kind == "truncated_t":
            return a[0]
        raise InvalidInput("specialize0 only applies to t-extensions")

    def t_valuation(self, a):
        """t-adic valuation (t-extensions only); None for zero."""
        K = self.base if self.base is not None else None
        if self.kind == "rational_t":
            num, den = a
            if not num:
                return None
            vn = next(i for i, c in enumerate(num) if not K.is_zero(c))
            vd = next(i for i, c in enumerate(den) if not K.is_zero(c))
            return vn - vd
        if self.kind == "truncated_t":
            return next(
                (i for i, c in enumerate(a) if not K.is_zero(c)), None
            )
        raise InvalidInput("t_valuation only applies to t-extensions")

    # ------------------------------------------------------------------
    # canonicalization and serialization
    # ------------------------------------------------------------------
    def _rat_normalize(self, num, den):
        K = self.base
        num = _ptrim(K, num)
        den = _ptrim(K, den)
        if not den:
            raise NonUnitDivision("zero denominator in rational function")
        if not num:
            return ((), (K.one(),))
        g = _pgcd(K, num, den)
        if len(g) > 1:
            num = _pquo(K, num, g)
            den = _pquo(K, den, g)
        lead = den[-1]
        if lead != K.one():
            li = K.inv(lead)
            num = tuple(K.mul(c, li) for c in num)
            den = tuple(K.mul(c, li) for c in den)
        return (num, den)

    def serialize(self, a):
        if self.kind == "prime":
            return a
        if self.kind == "extension":
            return list(a)
        if self.kind == "rational_t":
            K = self.base
            return {
                "num": [K.serialize(c) for c in a[0]],
                "den": [K.serialize(c) for c in a[1]],
            }
        K = self.base
        return {"coeffs": [K.serialize(c) for c in a], "prec": self.N}

    def deserialize(self, obj):
        if self.kind == "prime":
            return obj % self.p
        if self.kind == "extension":
            if len(obj) != self.f:
                raise InvalidInput("wrong coefficient length")
            return tuple(c % self.p for c in obj)
        K = self.base
        if self.kind == "rational_t":
            return self._rat_normalize(
                tuple(K.deserialize(c) for c in obj["num"]),
                tuple(K.deserialize(c) for c in obj["den"]),
            )
        coeffs = [K.deserialize(c) for c in obj["coeffs"]]
        if len(coeffs) > self.N:
            raise InvalidInput("coefficient list exceeds precision")
        coeffs += [K.zero()] * (self.N - len(coeffs))
        return tuple(coeffs)

    def serialize_ctx(self):
        if self.kind == "prime":
            return {"p": self.p, "f": 1, "modulus": []}
        if self.kind == "extension":
            return {"p": self.p, "f": self.f, "modulus": list(self.modulus)}
        out = {"kind": self.kind, "base": self.base.serialize_ctx()}
        if self.kind == "truncated_t":
            out["prec"] = self.N
        return out


# ----------------------------------------------------------------------
# truncated power series over a base context: length-n coefficient tuples
# (low degree first) modulo x^n.  This is the arithmetic of K[t]/(t^N) and
# of K[u]/(u^e), whatever the coefficient context K.
# ----------------------------------------------------------------------
def series_mul(K, n, a, b):
    """Product of two truncated series modulo x^n."""
    out = [K.zero()] * n
    for i, x in enumerate(a):
        if K.is_zero(x):
            continue
        for j, y in enumerate(b):
            if i + j >= n:
                break
            out[i + j] = K.add(out[i + j], K.mul(x, y))
    return tuple(out)


def series_inv(K, n, a):
    """Inverse modulo x^n of a series whose constant term is a unit of K."""
    c0inv = K.inv(a[0])
    out = [K.zero()] * n
    out[0] = c0inv
    for m in range(1, n):
        acc = K.zero()
        for i in range(1, m + 1):
            if i < len(a) and not K.is_zero(a[i]):
                acc = K.add(acc, K.mul(a[i], out[m - i]))
        out[m] = K.neg(K.mul(c0inv, acc))
    return tuple(out)


# ----------------------------------------------------------------------
# polynomial helpers over a finite base context (coefficient tuples,
# low degree first, no trailing zeros)
# ----------------------------------------------------------------------
def _ptrim(K, a):
    a = list(a)
    while a and K.is_zero(a[-1]):
        a.pop()
    return tuple(a)


def _padd(K, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else K.zero()
        y = b[i] if i < len(b) else K.zero()
        out.append(K.add(x, y))
    return _ptrim(K, out)


def _pmul(K, a, b):
    if not a or not b:
        return ()
    out = [K.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if K.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = K.add(out[i + j], K.mul(x, y))
    return _ptrim(K, out)


def _pdivmod(K, a, b):
    if not b:
        raise NonUnitDivision("polynomial division by zero")
    a = list(a)
    q = [K.zero()] * max(0, len(a) - len(b) + 1)
    binv = K.inv(b[-1])
    while len(a) >= len(b):
        c = K.mul(a[-1], binv)
        d = len(a) - len(b)
        q[d] = c
        for i, bc in enumerate(b):
            a[d + i] = K.sub(a[d + i], K.mul(c, bc))
        while a and K.is_zero(a[-1]):
            a.pop()
    return _ptrim(K, q), _ptrim(K, a)


def _pquo(K, a, b):
    q, r = _pdivmod(K, a, b)
    if r:
        raise InvalidInput("non-exact polynomial division")
    return q


def _pgcd(K, a, b):
    while b:
        a, b = b, _pdivmod(K, a, b)[1]
    if a:
        li = K.inv(a[-1])
        a = tuple(K.mul(c, li) for c in a)
    return a


def _pfrob_t(K, a, p):
    """Coefficient-wise Frobenius composed with t -> t^p on a polynomial."""
    if not a:
        return ()
    out = [K.zero()] * ((len(a) - 1) * p + 1)
    for i, c in enumerate(a):
        out[i * p] = K.frobenius(c)
    return _ptrim(K, out)


# ----------------------------------------------------------------------
# extension-field helpers (reps are length-f int tuples)
# ----------------------------------------------------------------------
def _ext_mul(ctx, a, b):
    p, f, mod = ctx.p, ctx.f, ctx.modulus
    prod = [0] * (2 * f - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
    # reduce modulo the monic modulus (length f+1, low degree first)
    for d in range(2 * f - 2, f - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for i in range(f):
                prod[d - f + i] = (prod[d - f + i] - c * mod[i]) % p
    return tuple(prod[:f])


def _ext_inv(ctx, a):
    p = ctx.p
    Fp = FieldCtx("prime", p)
    mod = tuple(c % p for c in ctx.modulus)
    r0, r1 = mod, _ptrim(Fp, a)
    s0, s1 = (), (1,)
    while r1:
        q, r = _pdivmod(Fp, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _padd(Fp, s0, tuple((-c) % p for c in _pmul(Fp, q, s1)))
    if len(r0) != 1:
        raise NonUnitDivision("element not invertible (modulus not coprime)")
    li = Fp.inv(r0[0])
    s0 = tuple(Fp.mul(c, li) for c in s0)
    return tuple(s0[i] if i < len(s0) else 0 for i in range(ctx.f))


# ----------------------------------------------------------------------
# public constructors
# ----------------------------------------------------------------------
def prime_field(p):
    if not _is_prime(p):
        raise InvalidInput(f"{p} is not prime")
    return FieldCtx("prime", p)


def extension_field(p, modulus):
    """F_{p^f} for a monic irreducible modulus (low degree first, length f+1)."""
    if not _is_prime(p):
        raise InvalidInput(f"{p} is not prime")
    mod = tuple(c % p for c in modulus)
    f = len(mod) - 1
    if f < 1 or mod[-1] != 1:
        raise InvalidInput("modulus must be monic of degree >= 1")
    if f > 1 and not _is_irreducible(p, mod):
        raise InvalidInput("modulus is reducible")
    return FieldCtx("extension", p, f=f, modulus=mod)


def _is_irreducible(p, mod):
    Fp = FieldCtx("prime", p)
    f = len(mod) - 1
    # exhaustive trial division by monic polynomials of degree 1..f//2
    for d in range(1, f // 2 + 1):
        for coeffs in itertools.product(range(p), repeat=d):
            div = tuple(coeffs) + (1,)
            if not _pdivmod(Fp, mod, div)[1]:
                return False
    return True


def small_field(q):
    """The finite field of order q with a fixed deterministic modulus."""
    for p in range(2, q + 1):
        if _is_prime(p) and q % p == 0:
            f = 0
            m = q
            while m > 1:
                if m % p:
                    raise InvalidInput(f"{q} is not a prime power")
                m //= p
                f += 1
            if f == 1:
                return prime_field(p)
            # first irreducible monic polynomial in lexicographic order
            for coeffs in itertools.product(range(p), repeat=f):
                mod = tuple(coeffs) + (1,)
                if _is_irreducible(p, mod):
                    return extension_field(p, mod)
    raise InvalidInput(f"{q} is not a prime power")


def ctx_from_serialized(obj):
    """Rebuild a finite field context from its serialized form."""
    p = obj["p"]
    f = obj.get("f", 1)
    if f == 1:
        return prime_field(p)
    return extension_field(p, obj["modulus"])


def rational_ctx(base):
    if not base.is_finite:
        raise InvalidInput("rational_t requires a finite base")
    return FieldCtx("rational_t", base.p, f=base.f, modulus=base.modulus, base=base)


def truncated_ctx(base, N=DEFAULT_PRECISION):
    if not base.is_finite:
        raise InvalidInput("truncated_t requires a finite base")
    if N < 1:
        raise InvalidInput("precision must be positive")
    return FieldCtx(
        "truncated_t", base.p, f=base.f, modulus=base.modulus, base=base, N=N
    )


def field_elements(ctx, bound=DEFAULT_ENUM_BOUND):
    """All elements of a finite context in deterministic order (0 first)."""
    if not ctx.is_finite:
        raise InvalidInput("field_elements requires a finite context")
    if ctx.order > bound:
        raise BoundExceeded(f"field order {ctx.order} exceeds bound {bound}")
    if ctx.kind == "prime":
        return list(range(ctx.p))
    return [t for t in sorted(itertools.product(range(ctx.p), repeat=ctx.f))]


# ----------------------------------------------------------------------
# Scalar wrapper
# ----------------------------------------------------------------------
class Scalar:
    """A scalar value: context handle plus canonical raw representation."""

    __slots__ = ("ctx", "rep")

    def __init__(self, ctx, rep):
        self.ctx = ctx
        self.rep = rep

    @classmethod
    def of(cls, ctx, n):
        return cls(ctx, ctx.from_int(n))

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.ctx != self.ctx:
                raise InvalidInput("mixed scalar contexts")
            return other.rep
        if isinstance(other, int):
            return self.ctx.from_int(other)
        raise InvalidInput(f"cannot coerce {other!r}")

    def __add__(self, other):
        return Scalar(self.ctx, self.ctx.add(self.rep, self._coerce(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return Scalar(self.ctx, self.ctx.sub(self.rep, self._coerce(other)))

    def __neg__(self):
        return Scalar(self.ctx, self.ctx.neg(self.rep))

    def __mul__(self, other):
        return Scalar(self.ctx, self.ctx.mul(self.rep, self._coerce(other)))

    __rmul__ = __mul__

    def __rsub__(self, other):
        return Scalar(self.ctx, self.ctx.sub(self._coerce(other), self.rep))

    def __truediv__(self, other):
        return Scalar(self.ctx, self.ctx.div(self.rep, self._coerce(other)))

    def __rtruediv__(self, other):
        return Scalar(self.ctx, self.ctx.div(self._coerce(other), self.rep))

    def __eq__(self, other):
        if isinstance(other, (Scalar, int)):
            return self.rep == self._coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx, self.rep))

    def __repr__(self):
        return f"Scalar({self.ctx!r}, {self.rep!r})"

    def is_zero(self):
        return self.ctx.is_zero(self.rep)

    def is_unit(self):
        return self.ctx.is_unit(self.rep)

    def frobenius(self):
        return Scalar(self.ctx, self.ctx.frobenius(self.rep))

    def specialize_at_zero(self):
        return Scalar(self.ctx.base, self.ctx.specialize0(self.rep))

    def serialize(self):
        return self.ctx.serialize(self.rep)


def frobenius(x):
    """x^p, computed structurally in x's context."""
    return x.frobenius()


def specialize_at_zero(x):
    """Evaluate a t-extension scalar at t = 0."""
    return x.specialize_at_zero()
