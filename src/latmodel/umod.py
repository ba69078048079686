"""Linear algebra over E_N = (K[u]/(u^N))^2.

E_N is treated as a 2N-dimensional K-space equipped with the nilpotent
endomorphism u.  Coordinates are ordered as the coefficients of
e1*u^0 .. e1*u^(N-1) followed by e2*u^0 .. e2*u^(N-1).

Subspaces are stored as canonical reduced row-echelon bases, which makes
every derived object (sums, intersections, kernels, images) bit-stable.

Over a truncated series coefficient ring K[t]/(t^N) (a local ring, not a
field) row reduction only ever divides by units; if a pivot column offers
no unit entry a :class:`~latmodel.errors.NonUnitPivot` is raised so the
caller can re-parametrize, never silently dividing by a non-unit.
"""

from __future__ import annotations

from .errors import InvalidInput, NonUnitPivot
from .scalars import series_inv, series_mul


class UVec:
    """An element of E_N: two coefficient lists of length N over K."""

    __slots__ = ("ctx", "N", "coeffs")

    def __init__(self, ctx, N, coeffs):
        self.ctx = ctx
        self.N = N
        self.coeffs = tuple(coeffs)
        if len(self.coeffs) != 2 * N:
            raise InvalidInput("coefficient vector has wrong length")

    @classmethod
    def from_pairs(cls, ctx, N, a, b):
        """Build from coordinate polynomials a(u), b(u) given as int lists."""
        ca = [ctx.from_int(x) for x in a] + [ctx.zero()] * (N - len(a))
        cb = [ctx.from_int(x) for x in b] + [ctx.zero()] * (N - len(b))
        return cls(ctx, N, tuple(ca[:N] + cb[:N]))

    @classmethod
    def monomial(cls, ctx, N, coord, deg, c=None):
        """The vector c * u^deg * e_coord (coord in {1, 2}), c defaults to 1."""
        if coord not in (1, 2) or not 0 <= deg < N:
            raise InvalidInput("bad monomial index")
        coeffs = [ctx.zero()] * (2 * N)
        coeffs[(coord - 1) * N + deg] = ctx.one() if c is None else c
        return cls(ctx, N, coeffs)

    def is_zero(self):
        z = self.ctx.zero()
        return all(c == z for c in self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, UVec)
            and self.ctx == other.ctx
            and self.N == other.N
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.N, self.coeffs))

    def add(self, other):
        K = self.ctx
        return UVec(
            K, self.N, tuple(K.add(x, y) for x, y in zip(self.coeffs, other.coeffs))
        )

    def scale(self, c):
        K = self.ctx
        return UVec(K, self.N, tuple(K.mul(c, x) for x in self.coeffs))

    def u_mult(self):
        """Multiplication by u (shifts each coordinate block, truncating)."""
        K, N = self.ctx, self.N
        a = (K.zero(),) + self.coeffs[: N - 1]
        b = (K.zero(),) + self.coeffs[N : 2 * N - 1]
        return UVec(K, N, a + b)

    def frobenius(self):
        K = self.ctx
        return UVec(K, self.N, tuple(K.frobenius(c) for c in self.coeffs))

    def map_coeffs(self, fn, new_ctx=None):
        return UVec(new_ctx or self.ctx, self.N, tuple(fn(c) for c in self.coeffs))

    def serialize(self):
        K, N = self.ctx, self.N
        return {
            "a": [K.serialize(c) for c in self.coeffs[:N]],
            "b": [K.serialize(c) for c in self.coeffs[N:]],
        }

    @classmethod
    def deserialize(cls, ctx, N, obj):
        a = [ctx.deserialize(c) for c in obj["a"]]
        b = [ctx.deserialize(c) for c in obj["b"]]
        if len(a) != N or len(b) != N:
            raise InvalidInput("coefficient lists must have length N")
        return cls(ctx, N, tuple(a + b))

    def __repr__(self):
        terms = []
        K, N = self.ctx, self.N
        for blk, name in ((0, "e1"), (1, "e2")):
            for d in range(N):
                c = self.coeffs[blk * N + d]
                if not K.is_zero(c):
                    terms.append(f"({K.serialize(c)})u^{d}{name}")
        return "UVec<" + (" + ".join(terms) or "0") + ">"


def _series_dot(ctx, n, p, q, r, s):
    """p q + r s over K[x]/(x^n)."""
    pq, rs = series_mul(ctx, n, p, q), series_mul(ctx, n, r, s)
    return tuple(ctx.add(x, y) for x, y in zip(pq, rs))


class UMatrix:
    """A 2x2 matrix over K[u]/(u^e), acting K[u]-linearly on E_e.

    ``entries`` is ((m11, m12), (m21, m22)), each a length-e tuple of raw
    coefficients over ctx, u^0 first; products and inverses are
    scalars.series_mul / series_inv.  Methods that build a matrix return
    the caller's class, except ``map_coeffs``, which returns a plain
    UMatrix.
    """

    __slots__ = ("ctx", "e", "entries")

    def __init__(self, ctx, e, entries):
        self.ctx = ctx
        self.e = e
        self.entries = tuple(tuple(tuple(poly) for poly in row) for row in entries)
        if len(self.entries) != 2 or any(
            len(row) != 2 or any(len(poly) != e for poly in row)
            for row in self.entries
        ):
            raise InvalidInput("matrix must be 2x2 with entries of length e")

    @classmethod
    def from_ints(cls, ctx, e, rows):
        """Build from 2x2 nested lists of integer u-coefficients, each
        entry padded with zeros or cut to length e."""
        zero = ctx.zero()
        ent = []
        for row in rows:
            polys = []
            for poly in row:
                cs = [ctx.from_int(c) for c in poly]
                polys.append((cs + [zero] * e)[:e])
            ent.append(polys)
        return cls(ctx, e, ent)

    @classmethod
    def identity(cls, ctx, e):
        return cls.from_ints(ctx, e, [[[1], [0]], [[0], [1]]])

    @classmethod
    def unit_plus_monomial(cls, ctx, e, pos, deg, c, diag=None):
        """diag * 1 + c u^deg E_pos, with diag = 1 by default."""
        zero = ctx.zero()
        ent = [[[zero] * e for _ in range(2)] for _ in range(2)]
        ent[0][0][0] = ent[1][1][0] = ctx.one() if diag is None else diag
        i, j = pos
        ent[i][j][deg] = ctx.add(ent[i][j][deg], c)
        return cls(ctx, e, ent)

    def map_coeffs(self, fn, new_ctx):
        """The plain matrix with fn applied to every coefficient."""
        return UMatrix(
            new_ctx,
            self.e,
            [[tuple(fn(c) for c in poly) for poly in row] for row in self.entries],
        )

    def apply(self, vec):
        """The K[u]-linear image M * vec."""
        ctx, N = vec.ctx, vec.N
        a, b = vec.coeffs[:N], vec.coeffs[N:]
        (m11, m12), (m21, m22) = self.entries
        top = _series_dot(ctx, N, m11, a, m12, b)
        return UVec(ctx, N, top + _series_dot(ctx, N, m21, a, m22, b))

    def image(self, w):
        """The span of the images of a subspace's basis."""
        return Subspace.span(w.ctx, w.N, [self.apply(v) for v in w.basis()])

    def compose(self, other):
        """Matrix product self * other."""
        ctx, e = self.ctx, self.e
        a, b = self.entries, other.entries
        ent = [
            [_series_dot(ctx, e, a[i][0], b[0][j], a[i][1], b[1][j]) for j in range(2)]
            for i in range(2)
        ]
        return type(self)(ctx, e, ent)

    def inverse(self):
        """Adjugate over determinant (a unit power series in u)."""
        ctx, e = self.ctx, self.e
        (a, b), (c, d) = self.entries
        ad, bc = series_mul(ctx, e, a, d), series_mul(ctx, e, b, c)
        inv = series_inv(ctx, e, tuple(ctx.sub(x, y) for x, y in zip(ad, bc)))
        neg = lambda poly: tuple(ctx.neg(x) for x in poly)
        ent = [
            [series_mul(ctx, e, inv, d), series_mul(ctx, e, inv, neg(b))],
            [series_mul(ctx, e, inv, neg(c)), series_mul(ctx, e, inv, a)],
        ]
        return type(self)(ctx, e, ent)


def _rref(rows, ctx, ncols):
    """Reduced row echelon form; returns (rows, pivot columns).

    Over a field any nonzero entry can pivot.  Over a local ring only
    units may pivot: columns offering no unit are skipped (their entries
    stay in place), and NonUnitPivot is raised only when a nonzero row
    never acquires a unit pivot -- i.e. the span is not a free direct
    summand with unit-pivot generators.
    """
    mat = [list(r) for r in rows]
    m = len(mat)
    pivots = []
    r = 0
    for col in range(ncols):
        if r >= m:
            break
        # choose a pivot row
        pivot_row = None
        for i in range(r, m):
            e = mat[i][col]
            if not ctx.is_zero(e):
                if ctx.is_field or ctx.is_unit(e):
                    pivot_row = i
                    break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = ctx.inv(mat[r][col])
        mat[r] = [ctx.mul(inv, x) for x in mat[r]]
        for i in range(m):
            if i != r and not ctx.is_zero(mat[i][col]):
                c = mat[i][col]
                mat[i] = [
                    ctx.sub(x, ctx.mul(c, y)) for x, y in zip(mat[i], mat[r])
                ]
        pivots.append(col)
        r += 1
    for i in range(r, m):
        if any(not ctx.is_zero(x) for x in mat[i]):
            raise NonUnitPivot("a generator admits no unit pivot")
    out = [tuple(row) for row in mat[:r] if any(not ctx.is_zero(x) for x in row)]
    return out, pivots


def _reduce_vec(coeffs, rows, pivots, ctx):
    """Remainder of a coefficient vector modulo an RREF basis."""
    v = list(coeffs)
    for row, p in zip(rows, pivots):
        c = v[p]
        if not ctx.is_zero(c):
            v = [ctx.sub(x, ctx.mul(c, y)) for x, y in zip(v, row)]
    return tuple(v)


def _nullspace(rows, ctx, ncols):
    """Basis of {x : sum_i x_i * rows[i] = 0} (left kernel), canonical order."""
    m = len(rows)
    # transpose: equations indexed by columns, unknowns indexed by rows
    eqs = [tuple(rows[i][j] for i in range(m)) for j in range(ncols)]
    red, pivots = _rref(eqs, ctx, m)
    pivset = set(pivots)
    basis = []
    for free in range(m):
        if free in pivset:
            continue
        x = [ctx.zero()] * m
        x[free] = ctx.one()
        for row, p in zip(red, pivots):
            x[p] = ctx.neg(row[free])
        basis.append(tuple(x))
    return basis


class Subspace:
    """A K-subspace of E_N in canonical reduced row-echelon form."""

    __slots__ = ("ctx", "N", "rows", "pivots")

    def __init__(self, ctx, N, rows, pivots):
        self.ctx = ctx
        self.N = N
        self.rows = tuple(rows)
        self.pivots = tuple(pivots)

    @classmethod
    def span(cls, ctx, N, vectors):
        for v in vectors:
            if v.ctx != ctx or v.N != N:
                raise InvalidInput("mixed contexts or sizes in span")
        rows, pivots = _rref([v.coeffs for v in vectors], ctx, 2 * N)
        return cls(ctx, N, rows, pivots)

    @classmethod
    def module_span(cls, ctx, N, vectors):
        """The K[u]-submodule generated by vectors: close under u, then span."""
        closed = []
        for v in vectors:
            while not v.is_zero():
                closed.append(v)
                v = v.u_mult()
        return cls.span(ctx, N, closed)

    @classmethod
    def zero(cls, ctx, N):
        return cls(ctx, N, (), ())

    @classmethod
    def full(cls, ctx, N):
        vecs = [UVec.monomial(ctx, N, c, d) for c in (1, 2) for d in range(N)]
        return cls.span(ctx, N, vecs)

    @classmethod
    def u_power_kernel(cls, ctx, N, k):
        """E_N[u^k] = u^(N-k) E_N: vectors killed by u^k."""
        k = max(0, min(k, N))
        vecs = [
            UVec.monomial(ctx, N, c, d) for c in (1, 2) for d in range(N - k, N)
        ]
        return cls.span(ctx, N, vecs)

    @property
    def dim(self):
        return len(self.rows)

    def basis(self):
        return [UVec(self.ctx, self.N, r) for r in self.rows]

    def _check(self, other):
        if self.ctx != other.ctx or self.N != other.N:
            raise InvalidInput("mixed contexts")

    def reduce(self, vec):
        """Canonical remainder of vec modulo this subspace."""
        r = _reduce_vec(vec.coeffs, self.rows, self.pivots, self.ctx)
        return UVec(self.ctx, self.N, r)

    def contains_vec(self, vec):
        return self.reduce(vec).is_zero()

    def contains(self, other):
        self._check(other)
        return all(self.contains_vec(v) for v in other.basis())

    def equals(self, other):
        self._check(other)
        return self.rows == other.rows

    def sum(self, other):
        self._check(other)
        return Subspace.span(self.ctx, self.N, self.basis() + other.basis())

    def intersect(self, other):
        self._check(other)
        if not self.ctx.is_field:
            raise InvalidInput("intersection implemented over fields only")
        stacked = list(self.rows) + list(other.rows)
        if not stacked:
            return Subspace.zero(self.ctx, self.N)
        kernel = _nullspace(stacked, self.ctx, 2 * self.N)
        a = len(self.rows)
        vecs = []
        for x in kernel:
            acc = [self.ctx.zero()] * (2 * self.N)
            for c, row in zip(x[:a], self.rows):
                if not self.ctx.is_zero(c):
                    acc = [
                        self.ctx.add(y, self.ctx.mul(c, z))
                        for y, z in zip(acc, row)
                    ]
            vecs.append(UVec(self.ctx, self.N, acc))
        return Subspace.span(self.ctx, self.N, vecs)

    def u_image(self):
        return Subspace.span(self.ctx, self.N, [v.u_mult() for v in self.basis()])

    def u_preimage(self):
        """{v in E_N : u*v in W}."""
        ctx, N = self.ctx, self.N
        resid = []
        for coord in (1, 2):
            for d in range(N):
                delta = UVec.monomial(ctx, N, coord, d)
                resid.append(self.reduce(delta.u_mult()).coeffs)
        kernel = _nullspace(resid, ctx, 2 * N)
        vecs = [UVec(ctx, N, x) for x in kernel]
        return Subspace.span(ctx, N, vecs)

    def is_u_stable(self):
        return self.contains(self.u_image())

    def frobenius_twist(self):
        return Subspace.span(
            self.ctx, self.N, [v.frobenius() for v in self.basis()]
        )

    def map_coeffs(self, fn, new_ctx=None):
        """Apply fn to every coefficient and re-span (e.g. specialization)."""
        ctx = new_ctx or self.ctx
        return Subspace.span(
            ctx, self.N, [v.map_coeffs(fn, ctx) for v in self.basis()]
        )

    def serialize(self):
        return {"N": self.N, "basis": [v.serialize() for v in self.basis()]}

    @classmethod
    def deserialize(cls, ctx, obj):
        N = obj["N"]
        vecs = [UVec.deserialize(ctx, N, v) for v in obj["basis"]]
        return cls.span(ctx, N, vecs)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ctx == other.ctx
            and self.N == other.N
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.N, self.rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, N={self.N})"
