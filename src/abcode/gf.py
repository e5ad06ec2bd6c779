"""Finite field arithmetic for the check-position machinery.

Fields F_{p^(s*M)} are realized as F_p[x] modulo a fixed monic irreducible
polynomial of degree s*M.  The base field of the codes is F_q with q = p^s,
and M is chosen by the caller so that every root of unity it needs lives in
F_{q^M}.

Representation: an element is the tuple of its deg coefficients mod p, low
degree first.  Tuple products and powers are construction work (the
modulus and generator searches, roots of unity); the codes compute on
base-field labels (ScalarField).  A product packs each tuple into one
int, a digit per fixed-width slot, so one int multiply convolves them;
every slot is then taken mod p and the slots from deg up fold back
through x^deg = -(the modulus's low coefficients).  The modulus search
runs Ben-Or's irreducibility test on the same packed polynomials.  Every
deterministic choice made here (modulus, generator, subfield bases)
follows one rule: candidates are ordered by the integer encoding
sum(c_i * p^i) and the smallest valid one wins.  Two contexts built
from the same (p, s, M) are therefore identical, and what depends only
on the extension F_{p^deg} is built once per deg and p, by the context
(p, 1, deg), whichever base field asks for it.

Multiplication by a fixed element is F_p-linear, so bulk work (power tables,
basis changes, subfield solvers) runs as matrix products mod p on digit
rows.  Dense matrices over F_q (MatrixGF) live here as well: their row
reduction is the only one, and the subfield solvers use it over F_p.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .limits import MAX_FIELD_BITS, FieldError
from .nt import factorint, isprime

MAX_BASE_FIELD = 4096  # q = p^s; ScalarField tabulates q x q label tables


# ---------- polynomials over F_p packed into one int (construction time) ----------


class _Packed:
    """Polynomials over F_p packed into one int, multiplied modulo x^deg + tail.

    Digit i sits in slot i, `width` bytes wide: the least of 1, 2 and 4
    bytes that holds deg (p - 1)^2, the most a product of two reduced
    polynomials sums into one slot, so one int multiply convolves them
    (Kronecker substitution).  Four bytes hold it for every field the
    size policy admits, under 9 * 10^7 at p = 4093.  Every slot is then
    taken mod p, through bytes.translate for one-byte slots and a numpy
    remainder on the slot array otherwise, and the slots from deg up fold
    back through x^deg = -tail until none remain.
    """

    def __init__(self, p: int, deg: int, tail):
        self.p = p
        self.deg = deg
        bound = deg * (p - 1) ** 2
        self.width = 1 if bound < 1 << 8 else 2 if bound < 1 << 16 else 4
        self.bits = 8 * self.width
        self.shift = self.bits * deg
        self.low = (1 << self.shift) - 1
        self._nbytes = (2 * deg - 1) * self.width  # the slots of a product
        if self.width == 1:
            self._table = (bytes(range(p)) * (256 // p + 1))[:256]  # v -> v % p
        else:
            self._dtype = np.dtype(f"<u{self.width}")
        self.ntail = self.pack([-c % p for c in tail])

    def pack(self, digits) -> int:
        if self.width == 1:
            return int.from_bytes(bytes(digits), "little")
        return int.from_bytes(np.array(digits, self._dtype).tobytes(), "little")

    def unpack(self, z: int):
        """The deg digits of a reduced z, as a tuple of ints."""
        raw = z.to_bytes(self.deg * self.width, "little")
        if self.width == 1:
            return tuple(raw)
        return tuple(np.frombuffer(raw, self._dtype).tolist())

    def slot_mod(self, z: int) -> int:
        """z with every slot taken mod p."""
        raw = z.to_bytes(self._nbytes, "little")
        if self.width == 1:
            return int.from_bytes(raw.translate(self._table), "little")
        return int.from_bytes((np.frombuffer(raw, self._dtype) % self.p).tobytes(), "little")

    def mul(self, a: int, b: int) -> int:
        z = self.slot_mod(a * b)
        while z > self.low:
            z = self.slot_mod((z & self.low) + (z >> self.shift) * self.ntail)
        return z

    def pow(self, a: int, e: int) -> int:
        """a^e for e >= 0, by squaring."""
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            e >>= 1
            if e:
                a = self.mul(a, a)
        return result

    def coprime(self, a: int, b: int) -> bool:
        """Whether a and b, reduced and not both 0, share no factor of positive degree.

        Euclid's algorithm; each division step cancels the leading digit of
        a with a multiple of b, which sums at most (p - 1) + (p - 1)^2 into
        a slot, within the width when deg >= 2.
        """
        p, bits = self.p, self.bits
        while b:
            db = (b.bit_length() - 1) // bits
            inv = pow(b >> bits * db, -1, p)
            while a and (da := (a.bit_length() - 1) // bits) >= db:
                c = (a >> bits * da) * inv % p
                a = self.slot_mod(a + ((p - c) * b << bits * (da - db)))
            a, b = b, a
        return a.bit_length() <= bits


def _is_irreducible(f, p):
    """Ben-Or's test for monic f over F_p: gcd(f, x^(p^i) - x) = 1 for i up to deg/2."""
    d = len(f) - 1
    if d <= 0:
        return False
    if d == 1:
        return True
    if f[0] == 0:
        return False
    ar = _Packed(p, d, f[:-1])
    packed_f = ar.pack(f)
    x = 1 << ar.bits
    h = x
    for _ in range(d // 2):
        h = ar.pow(h, p)
        if not ar.coprime(packed_f, ar.slot_mod(h + (p - 1) * x)):
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
    at most.  Immutable after construction; safe to share.  What depends
    only on the extension (p, deg) is built once, by build_context(p, 1,
    deg): the modulus, the generator, the x-power rows and the roots of
    unity; a context with s > 1 takes them from there.  Heavy per-subfield
    data is cached lazily: the base field's label tables, the coordinate
    solvers per subfield degree d, and for the check tensor the powers of
    the root of unity of order L per L and their coordinates per (L, d).
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
        self.one = (1,) + (0,) * (deg - 1)

        if s == 1:
            self.modulus = tuple(_lowest_irreducible(p, deg))
            self._arith = _Packed(p, deg, self.modulus[:-1])
            self._xpow = self._x_powers()
            self.generator_rep = self._find_generator()
            self._roots = {}
        else:
            ext = build_context(p, 1, deg)
            self.modulus, self._arith, self._xpow = ext.modulus, ext._arith, ext._xpow
            self.generator_rep, self._roots = ext.generator_rep, ext._roots
        self._tables = None
        self._solvers = {}
        self._root_coords = {}

    # -- encoding --

    def decode(self, enc: int):
        """Digits of the encoding sum(c_i * p^i); the canonical element order."""
        return tuple(enc // self.p**i % self.p for i in range(self.deg))

    # -- powers of digit tuples (construction time) --

    def pow(self, a, e: int):
        """a^e for e >= 0, by squaring."""
        ar = self._arith
        return ar.unpack(ar.pow(ar.pack(a), e))

    def _find_generator(self):
        if self.N == 1:
            return self.one
        ar = self._arith
        factors = factorint(self.N)
        # encodings below p are the constants of F_p, whose orders divide
        # p - 1, so none of them generates F_{p^deg}^* when deg > 1
        for enc in range(2 if self.deg == 1 else self.p, self.order):
            rep = self.decode(enc)
            g = ar.pack(rep)
            if all(ar.pow(g, self.N // f) != 1 for f in factors):
                return rep
        raise FieldError("no generator found (unreachable)")

    # -- subfield coordinates --

    def eta(self):
        """Canonical generator of the base field F_q inside this context."""
        return root_of_unity(self, self.q - 1)

    def _solver(self, d: int):
        """Cached F_p-linear solver for coordinates of F_{q^d} over F_q.

        Row t*s + u of B holds the digits of g_d^t * eta^u, where g_d is
        the root of unity of order q^d - 1, which generates F_{q^d}^*, so B
        has full row rank d*s.  Reducing [B | I] over F_p gives E B = R,
        the reduced form of B, whose d*s pivots J all fall in B's columns;
        R[:, J] = I, so E inverts B[:, J].  An element of F_{q^d} with
        digit row a and coordinate row c has a = c B, so c = a[J] E.
        Returns (extract, B), with extract[:, J] = E^T and 0 elsewhere.
        """
        if d not in self._solvers:
            prime = ScalarField(build_context(self.p, 1, 1))
            nrows = d * self.s
            eta = self.mul_matrix(self.eta())
            blocks = [self.powers(root_of_unity(self, self.q**d - 1), d)]
            for _ in range(self.s - 1):
                blocks.append(blocks[-1] @ eta % self.p)
            B = np.stack(blocks, axis=1).reshape(nrows, self.deg)
            aug = MatrixGF(prime, np.hstack([B, np.eye(nrows, dtype=B.dtype)]))
            red, pivots = aug.rref()
            if pivots[-1] >= self.deg:
                raise FieldError("subfield basis degenerate (unreachable)")
            extract = np.zeros((nrows, self.deg), dtype=np.int64)
            extract[:, pivots] = red.data[:, self.deg:].T
            self._solvers[d] = (extract, B)
        return self._solvers[d]

    def root_coords(self, e: int, d: int):
        """Labels over F_q of the powers of the root of unity of order e.

        e must divide q^d - 1; row i holds the d coordinates of
        root_of_unity(self, e)^i, as subfield_coords gives them.  Every
        canonical root is a power of one generator, so for any L that e
        divides this is the table of beta^(i L / e), beta the root of order
        L.  The coordinates are kept per (e, d) in the least unsigned dtype
        that holds them, as they live as long as the context.
        """
        if (e, d) not in self._root_coords:
            self._root_coords[e, d] = subfield_coords(
                self, self.powers(root_of_unity(self, e), e), d).astype(
                    np.min_scalar_type(self.q - 1))
        return self._root_coords[e, d]

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
    """The canonical element of multiplicative order exactly r, cached per extension."""
    if r < 1:
        raise FieldError("order must be positive")
    if r == 1:
        return ctx.one
    if ctx.N % r != 0:
        raise FieldError(f"no element of order {r}: {r} does not divide {ctx.N}")
    if r not in ctx._roots:
        ctx._roots[r] = ctx.pow(ctx.generator_rep, ctx.N // r)
    return ctx._roots[r]


def subfield_coords(ctx: FieldContext, a, d: int):
    """Coordinates over F_q, in the designated basis of F_{q^d}, of m elements.

    a is an (m, deg) integer array whose rows are the digit tuples of the
    elements; the result is an (m, d) int64 label array, and FieldError is
    raised if any row differs from its rebuild from those coordinates,
    which is when it lies outside F_{q^d}.  A label encodes the element
    sum(c_j * eta^j) of F_q as the integer sum(c_j * p^j), so labels 0 and
    1 are the field's 0 and 1, and for s = 1 the label is the residue.
    """
    if ctx.M % d != 0:
        raise FieldError(f"d = {d} does not divide M = {ctx.M}")
    extract, basis = ctx._solver(d)
    rows = np.asarray(a, dtype=np.int64)
    coords = (rows @ extract.T) % ctx.p
    # for d = M, B is square and invertible: every row is its own rebuild
    if d < ctx.M and np.any((coords @ basis - rows) % ctx.p):
        raise FieldError(f"element is not in F_{{q^{d}}}")
    p, s = ctx.p, ctx.s
    return coords.reshape(len(rows), d, s) @ p ** np.arange(s, dtype=np.int64)


class ScalarField:
    """The base field F_q of a context, acting on integer label arrays.

    Labels follow the same encoding as subfield_coords.  Addition is
    digitwise mod p, so XOR for p = 2; products go through the ambient
    context's powers of eta.  -a is a copy of a for p = 2 and p - a (0 for
    a = 0) for s = 1, both in a's dtype; otherwise it is a times the label
    p - 1, which is -1 in F_p.  With s > 1, products and, for odd p, sums
    read tables built once.  add, neg, sub and mul take a label array a
    (and b, an array broadcastable with it or one label) and return an
    array of a's dtype; dot fuses mul with a row sum, and inv takes one
    label.  For s = 1 add sums in an unsigned type holding 2p - 2, mul in
    int32, which holds p^2 as the context bounds q, and dot in int64.
    """

    def __init__(self, ctx: FieldContext):
        self.ctx = ctx
        self.p = ctx.p
        self.s = ctx.s
        self.q = ctx.q
        self.dtype = np.uint8 if self.q <= 256 else np.uint16

    def add(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b).astype(a.dtype, copy=False)
        if self.s > 1:
            return self.tables()[0][a, b].astype(a.dtype, copy=False)
        # in an unsigned type t - p wraps above t exactly when t < p
        t = np.add(a, b, dtype=np.uint8 if self.p < 128 else np.uint16, casting="unsafe")
        return np.minimum(t, t - self.p, out=t).astype(a.dtype, copy=False)

    def neg(self, a):
        if self.p == 2:
            return a.copy()
        if self.s == 1:
            return (self.p - a) % self.p   # a's dtype holds p
        return self.mul(a, self.p - 1)

    def sub(self, a, b):
        return self.add(a, self.neg(np.asarray(b, dtype=a.dtype)))

    def mul(self, a, b):
        if self.s > 1:
            return self.tables()[1][a, b].astype(a.dtype, copy=False)
        return (np.multiply(a, b, dtype=np.int32) % self.p).astype(a.dtype)

    def dot(self, a, b):
        """Sum over j of a[..., j] * b[j] for label arrays, in a's dtype."""
        if self.s == 1:
            return (np.matmul(a, b, dtype=np.int64) % self.p).astype(a.dtype)
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
        _, _, log, exp = self.tables()
        return int(exp[(-log[a]) % (self.q - 1)])

    def tables(self):
        """(add_table, mul_table, log, exp) as numpy label arrays.

        add_table is None unless p is odd and s > 1, the one case add reads
        it; labels add digit by digit, so it is built one q x q pass per
        base-p digit.  Products of nonzero labels add their logs.  The
        arrays are kept on the context, so every ScalarField of one
        context shares them.
        """
        if self.ctx._tables is None:
            q, p, dtype = self.q, self.p, self.dtype
            exp = self.ctx.root_coords(q - 1, 1)[:, 0]
            log = np.zeros(q, dtype=np.int64)
            log[exp] = np.arange(q - 1)
            add_table = None
            if p > 2 and self.s > 1:
                add_table = np.zeros((q, q), dtype=dtype)
                # uint16 holds 2 (p - 1) and every label, as q <= 4096
                labels = np.arange(q, dtype=np.uint16)
                for j in range(self.s):
                    digit = labels // p**j % p
                    add_table += np.add.outer(digit, digit) % p * p**j
            mul_table = exp[np.add.outer(log, log) % (q - 1)]
            mul_table[0] = mul_table[:, 0] = 0
            self.ctx._tables = (add_table, mul_table, log, exp)
        return self.ctx._tables

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

    def rref(self):
        """The reduced row echelon form and its pivot columns, (MatrixGF, list).

        Every column is reduced, left to right.  The form is unique: row i
        holds pivot i and every row past the rank is zero, whatever rows
        the reduction swapped.  Over F_2 the rows are reduced bit-packed.
        Otherwise a pivot is one whole-matrix update: each row adds the
        pivot row times the negation of its pivot-column entry, read from
        a table of the pivot row's multiples by the negated labels.
        """
        f = self.field
        m, n = self.data.shape
        if f.q == 2:
            rows, pivots = _rref_ints(self.row_ints(), n)
            return MatrixGF(f, _unpack_rows(rows, n)), pivots
        A = self.data.copy()
        neg_labels = f.neg(np.arange(f.q, dtype=A.dtype))
        pivots = []
        for col in range(n):
            row = len(pivots)
            if row == m:
                break
            nz = np.nonzero(A[row:, col])[0]
            if nz.size == 0:
                continue
            pr = row + int(nz[0])
            if pr != row:
                top = A[row].copy()
                A[row] = A[pr]
                A[pr] = top
            inv = f.inv(int(A[row, col]))
            if inv != 1:
                A[row] = f.mul(A[row], inv)
            fac = A[:, col].copy()
            fac[row] = 0
            if fac.any():
                negs = neg_labels
                if f.q > m:  # tabulate only the factors that occur
                    factors, fac = np.unique(fac, return_inverse=True)
                    negs = neg_labels[factors]
                A = f.add(A, f.mul(negs[:, None], A[row])[fac])
            pivots.append(col)
        return MatrixGF(f, A), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

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


def kernel_basis(R: MatrixGF, pivots) -> MatrixGF:
    """Basis of the right kernel of a matrix, read off its reduced form.

    (R, pivots) is what rref() returns.  Free column c (a column that is
    no pivot) gives the basis row with 1 at c and, at pivot column
    pivots[i], minus R[i, c]; rows follow the free columns.
    """
    n = R.shape[1]
    free = sorted(set(range(n)).difference(pivots))
    basis = np.zeros((len(free), n), dtype=R.data.dtype)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = R.field.neg(R.data[:len(pivots)][:, free]).T
    return MatrixGF(R.field, basis)


def _rref_ints(rows, ncols):
    """MatrixGF.rref on bit-packed rows of ncols columns; returns (rows, pivots)."""
    rows = list(rows)
    pivots = []
    for col in range(ncols):
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
