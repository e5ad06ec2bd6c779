"""Finite field arithmetic for the check-position machinery.

Fields F_{p^(s*M)} are realized as F_p[x] modulo a fixed monic irreducible
polynomial of degree s*M.  The base field of the codes is F_q with q = p^s,
and M is chosen by the caller so that every root of unity it needs lives in
F_{q^M}.

Representation: an element is the tuple of its deg coefficients mod p, low
degree first.  A product convolves two digit rows and maps the result
through the digit rows of x^0, ..., x^(2 deg - 2) modulo the modulus,
tabulated once per context.  Tuple products and powers are construction
work; the codes compute on base-field labels (ScalarField).  Every
deterministic choice made here (modulus, generator, subfield bases)
follows one rule: candidates are ordered by the integer encoding
sum(c_i * p^i) and the smallest valid one wins.  Two contexts built
from the same (p, s, M) are therefore identical.

Multiplication by a fixed element is F_p-linear, so bulk work (power tables,
basis changes, subfield solvers) runs as matrix products mod p on digit
rows.  Dense matrices over F_q (MatrixGF) live here as well: their row
reduction is the only one, and the subfield solvers use it over F_p.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .nt import factorint, isprime

MAX_FIELD_BITS = 64
MAX_BASE_FIELD = 4096  # q = p^s; ScalarField tabulates q x q label tables


class FieldError(ValueError):
    pass


# ---------- dense polynomial helpers over F_p (construction time only) ----------


def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_sub(a, b, p):
    out = list(a) + [0] * (len(b) - len(a))
    for i, v in enumerate(b):
        out[i] = (out[i] - v) % p
    return _poly_trim(out)


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, f, p):
    # f monic
    a = list(a)
    df = len(f) - 1
    while len(a) - 1 >= df and a:
        c = a[-1]
        if c:
            shift = len(a) - 1 - df
            for j in range(len(f)):
                a[shift + j] = (a[shift + j] - c * f[j]) % p
        a.pop()
    return _poly_trim(a)


def _poly_powmod(a, e, f, p):
    result = [1]
    base = _poly_mod(a, f, p)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, base, p), f, p)
        base = _poly_mod(_poly_mul(base, base, p), f, p)
        e >>= 1
    return result


def _poly_monic(a, p):
    if a and a[-1] != 1:
        inv = pow(a[-1], -1, p)
        a = [(v * inv) % p for v in a]
    return a


def _poly_gcd(a, b, p):
    # _poly_mod requires a monic divisor, so normalize before each step
    a, b = list(a), _poly_monic(list(b), p)
    while b:
        a, b = b, _poly_monic(_poly_mod(a, b, p), p)
    return _poly_monic(a, p)


def _is_irreducible(f, p):
    """Monic f over F_p, via gcd with x^(p^i) - x for i up to deg/2."""
    d = len(f) - 1
    if d <= 0:
        return False
    if d == 1:
        return True
    if f[0] == 0:
        return False
    h = [0, 1]
    for _ in range(d // 2):
        h = _poly_powmod(h, p, f, p)
        g = _poly_gcd(f, _poly_sub(h, [0, 1], p), p)
        if len(g) - 1 >= 1:
            return False
    return True


def _lowest_irreducible(p, d):
    """First monic irreducible of degree d, candidates ordered by integer encoding."""
    for enc in range(p**d):
        f = [enc // p**i % p for i in range(d)] + [1]
        if _is_irreducible(f, p):
            return f
    raise FieldError("no irreducible polynomial found (unreachable)")


# ---------- context ----------


class FieldContext:
    """Arithmetic context for F_{p^(s*M)} with designated base field F_{p^s}.

    The size policy lives here: p^(s*M) at most 2^64 and q = p^s at most
    4096, so int64 digit rows hold every product sum, (2 deg - 1) (p - 1)^2
    at most.  Immutable after construction; safe to share.  Heavy
    per-subfield data (coordinate solvers) is cached lazily.
    """

    def __init__(self, p: int, s: int, M: int):
        if not isprime(p):
            raise FieldError(f"p = {p} is not prime")
        if s < 1 or M < 1:
            raise FieldError("s and M must be positive")
        deg = s * M
        if p**deg > (1 << MAX_FIELD_BITS):
            raise FieldError(
                f"field F_{{{p}^{deg}}} exceeds the {MAX_FIELD_BITS}-bit size policy"
            )
        if p**s > MAX_BASE_FIELD:
            raise FieldError("base field too large for tabulated scalar work")
        self.p = p
        self.s = s
        self.M = M
        self.deg = deg
        self.q = p**s
        self.order = p**deg
        self.N = self.order - 1  # multiplicative group order

        self.modulus = tuple(_lowest_irreducible(p, deg))
        self.one = (1,) + (0,) * (deg - 1)

        self._xpow = self._x_powers()
        self.generator_rep = self._find_generator()
        self._solvers = {}
        self._eta = None

    # -- encoding --

    def decode(self, enc: int):
        """Digits of the encoding sum(c_i * p^i); the canonical element order."""
        return tuple(enc // self.p**i % self.p for i in range(self.deg))

    # -- products of digit tuples (construction time) --

    def mul(self, a, b):
        """Convolve the digit rows, then map x^k to its reduced digit row."""
        t = np.convolve(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)) % self.p
        return tuple((t @ self._xpow % self.p).tolist())

    def pow(self, a, e: int):
        """a^e for e >= 0, by squaring."""
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def _find_generator(self):
        if self.N == 1:
            return self.one
        factors = factorint(self.N)
        # encodings below p are the constants of F_p, whose orders divide
        # p - 1, so none of them generates F_{p^deg}^* when deg > 1
        for enc in range(2 if self.deg == 1 else self.p, self.order):
            rep = self.decode(enc)
            if all(self.pow(rep, self.N // f) != self.one for f in factors):
                return rep
        raise FieldError("no generator found (unreachable)")

    # -- subfield coordinates --

    def eta(self):
        """Canonical generator of the base field F_q inside this context."""
        if self._eta is None:
            self._eta = root_of_unity(self, self.q - 1)
        return self._eta

    def _solver(self, d: int):
        """Cached F_p-linear solver for coordinates of F_{q^d} over F_q.

        Column t*s + u of B holds the digits of g_d^t * eta^u, where g_d is
        the root of unity of order q^d - 1, which generates F_{q^d}^*.  Row
        reducing [B | I] over F_p leaves a left inverse of B in the first d*s
        rows and, below them, the checks that vanish exactly on the span of B.
        """
        if d not in self._solvers:
            prime = ScalarField(build_context(self.p, 1, 1))
            ncols = d * self.s
            eta = self.mul_matrix(self.eta())
            blocks = [self.powers(root_of_unity(self, self.q**d - 1), d)]
            for _ in range(self.s - 1):
                blocks.append(blocks[-1] @ eta % self.p)
            B = np.stack(blocks, axis=1).reshape(ncols, self.deg).T
            aug = MatrixGF(prime, np.hstack([B, np.eye(self.deg, dtype=B.dtype)]))
            red, pivots = aug.rref(col_order=range(ncols))
            if len(pivots) < ncols:
                raise FieldError("subfield basis degenerate (unreachable)")
            sol = red.data[:, ncols:].astype(np.int64)
            self._solvers[d] = (sol[:ncols], sol[ncols:])
        return self._solvers[d]

    # -- F_p-linear maps on digit rows --

    def _x_powers(self):
        """(2 deg - 1, deg) digit rows of x^0, ..., x^(2 deg - 2) mod the modulus.

        Each row is the one above multiplied by x: shift up one degree, then
        replace x^deg by minus the low coefficients of the modulus.
        """
        low = np.array(self.modulus[:-1], dtype=np.int64)
        xp = np.zeros((2 * self.deg - 1, self.deg), dtype=np.int64)
        xp[0, 0] = 1
        for i in range(1, len(xp)):
            xp[i, 1:] = xp[i - 1, :-1]
            xp[i] = (xp[i] - xp[i - 1, -1] * low) % self.p
        return xp

    def mul_matrix(self, a):
        """The deg x deg matrix of y -> a*y on digit rows: row i is digits(a * x^i).

        a * x^i = sum_j a_j x^(i+j), so row i is a times x-power rows i..i+deg-1.
        """
        windows = sliding_window_view(self._xpow, self.deg, axis=0)
        return windows @ np.array(a, dtype=np.int64) % self.p

    def powers(self, a, n: int):
        """(n, deg) digit rows of a^0, ..., a^(n-1), by doubling.

        Rows [m, 2m) are rows [0, m) times the matrix of a^m, so the table
        costs about 2 log2(n) matrix products mod p.
        """
        out = np.zeros((n, self.deg), dtype=np.int64)
        out[:1, 0] = 1
        step = self.mul_matrix(a)
        m = 1
        while m < n:
            out[m:2 * m] = out[:min(m, n - m)] @ step % self.p
            step = step @ step % self.p
            m *= 2
        return out

    def __repr__(self):
        return f"FieldContext(p={self.p}, s={self.s}, M={self.M})"


@functools.lru_cache(maxsize=None)
def build_context(p: int, s: int, M: int) -> FieldContext:
    """Deterministic context for F_{p^(s*M)} over the base field F_{p^s}."""
    return FieldContext(p, s, M)


def root_of_unity(ctx: FieldContext, r: int):
    """The canonical element of multiplicative order exactly r."""
    if r < 1:
        raise FieldError("order must be positive")
    if r == 1:
        return ctx.one
    if ctx.N % r != 0:
        raise FieldError(f"no element of order {r}: {r} does not divide {ctx.N}")
    return ctx.pow(ctx.generator_rep, ctx.N // r)


def subfield_coords(ctx: FieldContext, a, d: int):
    """Coordinates over F_q, in the designated basis of F_{q^d}, of m elements.

    a is an (m, deg) integer array whose rows are the digit tuples of the
    elements; the result is an (m, d) int64 label array, and FieldError is
    raised if any row lies outside F_{q^d}.  A label encodes the element
    sum(c_j * eta^j) of F_q as the integer sum(c_j * p^j), so labels 0 and
    1 are the field's 0 and 1, and for s = 1 the label is the residue.
    """
    if ctx.M % d != 0:
        raise FieldError(f"d = {d} does not divide M = {ctx.M}")
    extract, consistency = ctx._solver(d)
    rows = np.asarray(a, dtype=np.int64)
    if consistency.size and np.any((rows @ consistency.T) % ctx.p):
        raise FieldError(f"element is not in F_{{q^{d}}}")
    coords = (rows @ extract.T) % ctx.p
    p, s = ctx.p, ctx.s
    return coords.reshape(len(rows), d, s) @ p ** np.arange(s, dtype=np.int64)


class ScalarField:
    """The base field F_q of a context, acting on integer label arrays.

    Labels follow the same encoding as subfield_coords.  Addition is
    digitwise mod p; products go through the ambient context's powers of
    eta.  Both are tabulated once per field for s > 1.

    add, neg, sub and mul take a label array a (and b, an array
    broadcastable with it or one label) and return an array of a's dtype;
    submul and dot are the fused forms the matrix kernels need, and inv
    takes one label.  For s = 1 every op is integer arithmetic mod p,
    otherwise a lookup in the tables.  Elementwise the s = 1 arrays run in
    int32, which holds p^2 because the context bounds q; dot sums in int64.
    """

    def __init__(self, ctx: FieldContext):
        self.ctx = ctx
        self.p = ctx.p
        self.s = ctx.s
        self.q = ctx.q
        self.dtype = np.uint8 if self.q <= 256 else np.uint16
        self._tables = None

    def add(self, a, b):
        if self.s > 1:
            return self.tables()[0][a, b].astype(a.dtype, copy=False)
        return self._mod_p(np.add(a, b, dtype=np.int32), a.dtype)

    def neg(self, a):
        if self.s > 1:
            return self.tables()[2][a].astype(a.dtype, copy=False)
        return self._mod_p(np.subtract(self.p, a, dtype=np.int32), a.dtype)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.s > 1:
            return self.tables()[1][a, b].astype(a.dtype, copy=False)
        return self._mod_p(np.multiply(a, b, dtype=np.int32), a.dtype)

    def submul(self, a, c, b):
        """a - c * b for label arrays (broadcast), in a's dtype.

        One fused op, so that a row-elimination step costs one integer pass
        for s = 1.
        """
        if self.s == 1:
            t = np.multiply(c, b, dtype=np.int32)
            return self._mod_p(np.subtract(a, t, out=t), a.dtype)
        add_t, mul_t, neg_t, _, _ = self.tables()
        return add_t[a, mul_t[neg_t[c], b]].astype(a.dtype, copy=False)

    def dot(self, a, b):
        """Sum over j of a[..., j] * b[j] for label arrays, in a's dtype."""
        if self.s == 1:
            return self._mod_p(np.matmul(a, b, dtype=np.int64), a.dtype)
        # labels add digit by digit mod p, so each base-p digit sums alone
        prods = self.tables()[1][a, b].astype(np.int64)
        p, out, w = self.p, 0, 1
        for _ in range(self.s):
            out = out + (prods // w % p).sum(axis=-1) % p * w
            w *= p
        return out.astype(a.dtype)

    def inv(self, a: int) -> int:
        if a == 0:
            raise FieldError("division by zero")
        if self.s == 1:
            return pow(a, -1, self.p)
        _, _, _, log, exp = self.tables()
        return int(exp[(-log[a]) % (self.q - 1)])

    def _mod_p(self, t, dtype):
        """Reduce an integer array in place mod p and return it as dtype."""
        t %= self.p
        return t.astype(dtype)

    def tables(self):
        """(add_table, mul_table, neg_table, log, exp) as numpy label arrays.

        Labels add digit by digit, so the add table is built one q x q pass
        per base-p digit; products of nonzero labels add their logs.
        """
        if self._tables is None:
            q, p, dtype = self.q, self.p, self.dtype
            exp = subfield_coords(self.ctx, self.ctx.powers(self.ctx.eta(), q - 1), 1)
            exp = exp[:, 0].astype(dtype)
            log = np.zeros(q, dtype=np.int64)
            log[exp] = np.arange(q - 1)
            add_table = np.zeros((q, q), dtype=dtype)
            neg_table = np.zeros(q, dtype=dtype)
            # uint16 holds 2 (p - 1) and every label, as q <= 4096
            labels = np.arange(q, dtype=np.uint16)
            for j in range(self.s):
                digit = labels // p**j % p
                add_table += np.add.outer(digit, digit) % p * p**j
                neg_table += (p - digit) % p * p**j
            mul_table = exp[np.add.outer(log, log) % (q - 1)]
            mul_table[0] = mul_table[:, 0] = 0
            self._tables = (add_table, mul_table, neg_table, log, exp)
        return self._tables

    def __repr__(self):
        return f"ScalarField(q={self.q})"


# ---------- dense matrices over F_q ----------


class MatrixGF:
    """Dense matrix over the base field, entries stored as integer labels."""

    def __init__(self, scalars: ScalarField, data):
        self.field = scalars
        self.data = np.array(data, dtype=scalars.dtype, copy=True)

    @property
    def shape(self):
        return self.data.shape

    def rref(self, col_order=None):
        """Reduced row echelon form; returns (MatrixGF, pivot column list).

        col_order restricts and orders the pivot search; columns not listed
        are never used as pivots.  Over F_2 the rows are reduced bit-packed.
        """
        f = self.field
        m, n = self.data.shape
        if col_order is None:
            col_order = range(n)
        if f.q == 2:
            rows, pivots = _rref_ints(self.row_ints(), col_order)
            return MatrixGF(f, _unpack_rows(rows, n)), pivots
        A = self.data.copy()
        pivots = []
        for col in col_order:
            row = len(pivots)
            if row == m:
                break
            nz = np.nonzero(A[row:, col])[0]
            if nz.size == 0:
                continue
            pr = row + int(nz[0])
            if pr != row:
                A[[row, pr]] = A[[pr, row]]
            inv = f.inv(int(A[row, col]))
            if inv != 1:
                A[row] = f.mul(A[row], inv)
            others = np.nonzero(A[:, col])[0]
            others = others[others != row]
            if others.size:
                A[others] = f.submul(A[others], A[others, col][:, None], A[row])
            pivots.append(col)
        return MatrixGF(f, A), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self):
        """Basis of the right kernel, one row per basis vector."""
        n = self.data.shape[1]
        R, pivots = self.rref()
        free = sorted(set(range(n)).difference(pivots))
        basis = np.zeros((len(free), n), dtype=self.data.dtype)
        basis[np.arange(len(free)), free] = 1
        basis[:, pivots] = self.field.neg(R.data[:len(pivots)][:, free]).T
        return MatrixGF(self.field, basis)

    def mul_vec(self, vec) -> np.ndarray:
        return self.field.dot(self.data, np.asarray(vec))

    def row_ints(self):
        """Rows packed into ints, bit j = column j (q = 2 only)."""
        if self.field.q != 2:
            raise ValueError("bit packing requires q = 2")
        packed = np.packbits(self.data, axis=1, bitorder="little")
        return [int.from_bytes(row.tobytes(), "little") for row in packed]

    def __repr__(self):
        return f"MatrixGF(shape={self.data.shape}, q={self.field.q})"


def _rref_ints(rows, col_order):
    """RREF of bit-packed rows; returns (all rows, pivot cols).

    Rows are swapped and reduced exactly as the label kernel of
    MatrixGF.rref does, so row i holds pivot i and rows past the last pivot
    keep the same order.
    """
    rows = list(rows)
    pivots = []
    for col in col_order:
        row = len(pivots)
        if row == len(rows):
            break
        bit = 1 << col
        pr = next((i for i in range(row, len(rows)) if rows[i] & bit), None)
        if pr is None:
            continue
        rows[row], rows[pr] = rows[pr], rows[row]
        piv = rows[row]
        rows = [r ^ piv if r & bit else r for r in rows]
        rows[row] = piv
        pivots.append(col)
    return rows, pivots


def _unpack_rows(rows, n):
    """Inverse of MatrixGF.row_ints: a (len(rows), n) 0/1 label array."""
    nbytes = (n + 7) // 8
    buf = b"".join(r.to_bytes(nbytes, "little") for r in rows)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(rows), nbytes)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little")
