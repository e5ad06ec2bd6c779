"""Abelian codes over F_q: parity machinery, dimension, distance, encoding.

A code is determined by its ambient index space and an orbit-closed
defining set.  The parity matrix is assembled from the check tensor: for
the least element e of each q-orbit of the defining set, the column at
position j carries the base-field coordinates of prod_i alpha_i^(e_i j_i),
taken in the subfield matching the orbit's size.  A word is a codeword iff
its syndrome against this matrix vanishes, which is how everything
downstream (rank verification, encoding, decoding, distance work) is
grounded.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gamma import CheckSet
from .gf import (MatrixGF, ScalarField, _unpack_rows, build_context,
                 root_of_unity, subfield_coords)
from .orbit import DefiningSet, frobenius_order

_FULL_ENUM_LIMIT = 1 << 20
_GRAY_MAX_K = 28


# ---------- the code itself ----------


class AbelianCode:
    """An abelian code given by its defining set."""

    def __init__(self, defining: DefiningSet):
        amb = defining.ambient
        self.ambient = amb
        self.defining = defining
        self.ctx = build_context(amb.p, amb.s, frobenius_order(amb))
        self.scalars = ScalarField(self.ctx)
        self._parity = None
        self._generator = None

    @property
    def length(self) -> int:
        return self.ambient.length

    @property
    def dimension(self) -> int:
        return self.length - len(self.defining)

    def __repr__(self):
        return (f"AbelianCode(q={self.ambient.q}, r={self.ambient.r}, "
                f"|D|={len(self.defining)}, k={self.dimension})")


def _beta_powers(code: AbelianCode):
    """(L, deg) digit rows of beta^0, ..., beta^(L-1), beta of order L = lcm(r).

    alpha_i = beta^(L / r_i), so every product of root powers is a power of
    beta, and L is at most the length.
    """
    L = math.lcm(*code.ambient.r)
    return code.ctx.powers(root_of_unity(code.ctx, L), L)


def _exponents(code: AbelianCode, e) -> np.ndarray:
    """k_j = sum_i (L / r_i) e_i j_i mod L for every position j.

    prod_i alpha_i^(e_i j_i) = beta^(k_j); positions run in
    Ambient.positions() order, the last axis fastest.
    """
    r = code.ambient.r
    L = math.lcm(*r)
    c = np.array([L // ri * ei % L for ri, ei in zip(r, e)], dtype=np.int64)
    return c @ np.indices(r).reshape(len(r), -1) % L


def check_tensor(code: AbelianCode) -> np.ndarray:
    """The check tensor as a (|D|, l) label array.

    Each q-orbit of D, of size d, owns a block of d rows, built from its
    least element; the blocks follow the orbits' least elements.  Every
    entry of a block is a power beta^k, so each block takes one
    subfield_coords call on the distinct powers that occur and gathers the
    columns from its result.  parity_matrix caches the result.
    """
    mat = np.zeros((len(code.defining), code.length), dtype=code.scalars.dtype)
    powers = _beta_powers(code)
    off = 0
    for orb in code.defining.orbits():
        d = len(orb)
        ks, where = np.unique(_exponents(code, orb[0]), return_inverse=True)
        mat[off:off + d] = subfield_coords(code.ctx, powers[ks], d)[where].T
        off += d
    return mat


def parity_matrix(code: AbelianCode) -> MatrixGF:
    if code._parity is None:
        code._parity = MatrixGF(code.scalars, check_tensor(code))
    return code._parity


def generator_matrix(code: AbelianCode) -> MatrixGF:
    if code._generator is None:
        code._generator = parity_matrix(code).nullspace()
    return code._generator


def contains(code: AbelianCode, vec) -> bool:
    return not np.any(parity_matrix(code).mul_vec(vec))


# ---------- verification ----------


@dataclass
class VerifyResult:
    ok: bool
    reason: str
    rank: int
    expected: int

    def __bool__(self):
        return self.ok


def verify_check_positions(code: AbelianCode, cs: CheckSet) -> VerifyResult:
    """Independent linear-algebra check that cs is a valid check-position set.

    The columns of the parity matrix indexed by cs must span the full row
    space, i.e. have rank |D|.  A cardinality mismatch is reported as its
    own failure mode, distinct from a rank deficiency.
    """
    if cs.ambient != code.ambient:
        raise ValueError("check set belongs to a different ambient")
    expected = len(code.defining)
    npos = len(cs.positions)
    if npos != expected:
        return VerifyResult(False, "cardinality", -1, expected)
    cols = sorted(code.ambient.index_of(t) for t in cs.positions)
    rank = len(MatrixGF(code.scalars, parity_matrix(code).data[:, cols]).rref()[1])
    if rank != expected:
        return VerifyResult(False, "rank", rank, expected)
    return VerifyResult(True, "ok", rank, expected)


# ---------- minimum distance ----------


@dataclass
class DistanceResult:
    lower: int
    upper: int
    witness: Optional[np.ndarray]
    method: str
    evaluations: int

    @property
    def is_exact(self) -> bool:
        return self.lower >= self.upper

    @property
    def value(self) -> int:
        if not self.is_exact:
            raise ValueError(f"distance not resolved: bracket [{self.lower}, {self.upper}]")
        return self.upper

    def __repr__(self):
        if self.is_exact:
            return f"DistanceResult(d={self.upper}, method={self.method!r})"
        return f"DistanceResult([{self.lower},{self.upper}], method={self.method!r})"


def _gray_min(rows, l, budget=None):
    """Minimum nonzero weight over all F_2 combinations of independent rows.

    The low `split` rows (20, fewer under a budget) are tabulated as numpy
    chunks of 2^split words lo; the other rows are walked in Gray-code
    order, one row XOR per step word hi.  Let S be the columns where some
    tabulated row and some walked row are both nonzero; on a systematic
    generator S lies within the check columns.  Off S at most one side is
    nonzero, so

        wt(lo ^ hi) = wt(lo & ~S) + wt(hi & ~S) + wt((lo ^ hi) & S).

    When more than one step runs and |S| < split, the table is screened:
    with lo_S the S-bits of lo packed to |S| bits, dist[y] is the least
    wt(lo & ~S) + wt(lo_S ^ y) over the table, for every y < 2^|S| (the
    least wt(lo & ~S) per pattern, then a distance transform over the
    |S|-cube).  The exact minimum of a step after the first is then
    dist[hi_S] + wt(hi & ~S), one lookup.  Step 0 (hi = 0, zero word
    excluded) and every step of an unscreened sweep scan the whole table.

    The best weight drops on exactly the steps where a scan of every step
    would drop it.  The witness is the first table entry of the first step
    that reaches the minimum; if that step was screened, its table is
    scanned once, after the walk.

    Under a budget b the table holds at most 2^floor(log2 b) combinations
    (at least 2), and no step runs that would take the evaluations past b;
    with nothing evaluated the weight returned is the length l.  The
    evaluations count every combination the steps cover, 2^k for a whole
    sweep.  Returns (weight, witness int or None, evaluations, exact).
    """
    k = len(rows)
    split = min(k, 20)
    steps = 1 << (k - split)
    if budget is not None:
        split = min(split, max(1, budget.bit_length() - 1))
        steps = max(0, min(1 << (k - split), budget >> split))
    low, walk = rows[:split], rows[split:]
    nch = (l + 63) // 64
    mask64 = (1 << 64) - 1

    def chunk(v, c):
        return np.uint64((v >> (64 * c)) & mask64)

    tabs = []
    for c in range(nch):
        t = np.zeros(1, dtype=np.uint64)
        for row in low:
            t = np.concatenate([t, t ^ chunk(row, c)])
        tabs.append(t)

    def scan(hi):
        acc = None
        for c in range(nch):
            w = np.bitwise_count(tabs[c] ^ chunk(hi, c)).astype(np.uint32)
            acc = w if acc is None else acc + w
        if hi == 0:
            acc[0] = l + 1
        i = int(np.argmin(acc))
        return int(acc[i]), i

    shared = functools.reduce(operator.or_, low, 0) & functools.reduce(operator.or_, walk, 0)
    dist = None
    if steps > 1 and shared.bit_count() < split:
        cols = [j for j in range(l) if shared >> j & 1]
        rest = ((1 << l) - 1) & ~shared

        def pack(v):
            return sum(((v >> j) & 1) << b for b, j in enumerate(cols))

        off = np.zeros(1 << split, dtype=np.int32)
        for c in range(nch):
            off += np.bitwise_count(tabs[c] & chunk(rest, c))
        x = np.zeros(1, dtype=np.uint32)
        for row in low:
            x = np.concatenate([x, x ^ np.uint32(pack(row))])
        # l + 1 marks a pattern no entry has; int32 holds it plus |S|
        dist = np.full(1 << len(cols), l + 1, dtype=np.int32)
        np.minimum.at(dist, x, off)
        del off, x
        for b in range(len(cols)):
            v = dist.reshape(-1, 2, 1 << b)
            np.minimum(v[:, 0], v[:, 1] + 1, out=v[:, 0])
            np.minimum(v[:, 1], v[:, 0] + 1, out=v[:, 1])
        packed = [pack(row) for row in walk]

    best, best_hi, best_i = l + 1, None, None
    hi = y = 0
    for step in range(steps):
        if step:
            j = (step & -step).bit_length() - 1
            hi ^= walk[j]
        if step and dist is not None:
            y ^= packed[j]
            wt, i = int(dist[y]) + (hi & rest).bit_count(), None
        else:
            wt, i = scan(hi)
        if wt < best:
            best, best_hi, best_i = wt, hi, i
    evals = steps << split
    if best_hi is None:
        return l, None, evals, False
    if best_i is None:
        best_i = scan(best_hi)[1]
    lo = sum(int(tabs[c][best_i]) << (64 * c) for c in range(nch))
    return best, lo ^ best_hi, evals, evals == 1 << k


def _enum_weight_min_bits(rows, w, best):
    """Scan all XOR combinations of exactly w bit-packed rows.

    Returns (weight, int) of the first combination lighter than best, or
    (best, None) when none is.
    """
    k = len(rows)
    wit = None

    def rec(start, acc, rem):
        nonlocal best, wit
        if rem == 1:
            for i in range(start, k):
                v = acc ^ rows[i]
                wt = v.bit_count()
                if wt and wt < best:
                    best = wt
                    wit = v
        else:
            for i in range(start, k - rem + 1):
                rec(i + 1, acc ^ rows[i], rem - 1)

    if w >= 1 and k >= w:
        rec(0, 0, w)
    return best, wit


def _enum_weight_min_labels(f, multiples, w, best):
    """Scan all sums of c_i * row_i over exactly w rows and nonzero c_i.

    multiples[i, c - 1] holds c * row_i; combinations run in lexicographic
    order of (row, scalar).  Returns (weight, label array) of the first sum
    lighter than best, or (best, None) when none is.
    """
    k = multiples.shape[0]
    wit = None

    def rec(start, acc, rem):
        nonlocal best, wit
        for i in range(start, k - rem + 1):
            for row in multiples[i]:
                v = f.add(acc, row)
                if rem > 1:
                    rec(i + 1, v, rem - 1)
                    continue
                wt = int(np.count_nonzero(v))
                if wt and wt < best:
                    best = wt
                    wit = v

    if w >= 1 and k >= w:
        rec(0, np.zeros(multiples.shape[2], dtype=multiples.dtype), w)
    return best, wit


def _bz_min(G, budget=None, decide_at_least=None):
    """Information-set enumeration on one systematic generator.

    Returns (lower, upper, witness, evaluations) with lower <= d <= upper.
    upper is the witness weight, or the length when the budget ran out
    before any codeword was seen; lower == upper when d is resolved.

    G must generate a translation-invariant code, which every abelian code
    is; nothing here can check that.  The translations act transitively on
    the l positions, so with I the pivot columns of the RREF every
    translate I + v is an information set too.  Once every combination of
    at most w rows has been tried, a codeword lighter than the best seen
    meets each I + v in at least w + 1 places, and counting over all l
    translates gives d * k >= l * (w + 1).  Over F_2, when every generator
    row has even weight, all codewords do, so an odd bound is rounded up.

    Only the weight-w enumeration depends on q: XOR of bit-packed rows for
    q = 2, label arrays over the nonzero scalars otherwise.
    """
    f = G.field
    k, l = G.shape
    red, _ = G.rref()
    if f.q == 2:
        even = not np.any(np.count_nonzero(G.data, axis=1) % 2)
        packed = red.row_ints()

        def scan(w, best):
            best, x = _enum_weight_min_bits(packed, w, best)
            return best, (None if x is None else _unpack_rows([x], l)[0])
    else:
        even = False
        nonzero = np.arange(1, f.q, dtype=G.data.dtype)[:, None]
        multiples = f.mul(red.data[:, None, :], nonzero)

        def scan(w, best):
            return _enum_weight_min_labels(f, multiples, w, best)

    ub = l + 1
    wit = None
    evals = 0
    w = 0
    while True:
        lb = -(-l * (w + 1) // k)
        if even and lb % 2:
            lb += 1
        upper = ub if wit is not None else l
        if lb >= ub:
            return upper, upper, wit, evals
        if decide_at_least is not None and (lb >= decide_at_least or ub < decide_at_least):
            return lb, upper, wit, evals
        w += 1
        cost = math.comb(k, w) * (f.q - 1) ** w
        if budget is not None and evals + cost > budget:
            return lb, upper, wit, evals
        evals += cost
        new_ub, new_wit = scan(w, ub)
        if new_wit is not None:
            ub, wit = new_ub, new_wit


def _full_min(G, budget=None):
    """Expand every message; memory-bounded exact enumeration.

    Returns (lower, upper, witness, evaluations), and [1, l] with no witness
    and nothing evaluated when the q^k messages exceed the budget.
    """
    f = G.field
    q = f.q
    k, l = G.data.shape
    if budget is not None and q**k > budget:
        return 1, l, None, 0
    if q**k * l > (1 << 28):
        raise ValueError("full enumeration exceeds the memory budget")
    A = np.zeros((1, l), dtype=G.data.dtype)
    for row in G.data:
        A = np.vstack([A] + [f.add(A, f.mul(row, v)) for v in range(1, q)])
    weights = np.count_nonzero(A, axis=1)
    weights[0] = l + 1
    i = int(np.argmin(weights))
    return int(weights[i]), int(weights[i]), A[i].copy(), q**k


def min_distance(code: AbelianCode, budget=None, method: str = "auto") -> DistanceResult:
    """Minimum weight of the code; exact or a certified bracket under budget."""
    k = code.dimension
    l = code.length
    q = code.ambient.q
    if k == 0:
        raise ValueError("minimum distance of the zero code is undefined")
    G = generator_matrix(code)
    if method == "auto":
        if q == 2 and k <= _GRAY_MAX_K:
            method = "gray"
        elif q**k <= _FULL_ENUM_LIMIT:
            method = "full"
        else:
            method = "bz"
    if method == "gray":
        if q != 2:
            raise ValueError("Gray-code enumeration requires q = 2")
        best, bw, evals, exact = _gray_min(G.row_ints(), l, budget)
        wit = _unpack_rows([bw], l)[0] if bw is not None else None
        return DistanceResult(best if exact else 1, best, wit, "gray", evals)
    if method in ("full", "bz"):
        engine = _full_min if method == "full" else _bz_min
        lower, upper, wit, evals = engine(G, budget)
        return DistanceResult(lower, upper, wit, method, evals)
    raise ValueError(f"unknown method {method!r}")


def find_low_weight_codeword(code: AbelianCode, wmax: int):
    """A nonzero codeword of weight <= wmax, or None.

    Runs _bz_min until its bracket settles d(C) > wmax either way.  wmax
    is clamped to the length first: asked to decide d(C) > l, _bz_min
    would stop before it had seen any codeword.
    """
    if code.dimension == 0 or wmax < 1:
        return None
    _, upper, wit, _ = _bz_min(generator_matrix(code),
                               decide_at_least=min(wmax, code.length) + 1)
    return wit if upper <= wmax else None


def distance_at_least(code: AbelianCode, d: int) -> bool:
    """Decide d(C) >= d (true for the zero code) without resolving d(C)."""
    return find_low_weight_codeword(code, d - 1) is None


# ---------- encoding ----------


def standard_form_parity(code: AbelianCode, cs: CheckSet):
    """Parity matrix with an identity block on the (sorted) check positions.

    Returns (MatrixGF, check column indices).  One reduction both verifies
    cs and builds the form: the check block is invertible exactly when every
    check column pivots.  Raises ValueError when cs fails, naming the
    failure as verify_check_positions does.
    """
    if cs.ambient != code.ambient:
        raise ValueError("check set belongs to a different ambient")
    if len(cs.positions) != len(code.defining):
        raise ValueError("check positions not verified: cardinality")
    cols = sorted(code.ambient.index_of(t) for t in cs.positions)
    R, pivots = parity_matrix(code).rref(col_order=cols)
    if pivots != cols:
        raise ValueError("check positions not verified: rank")
    return R, cols


def encode(code: AbelianCode, cs: CheckSet, info_values) -> np.ndarray:
    """Systematic encoding: info positions carry the message verbatim."""
    H_std, check_cols = standard_form_parity(code, cs)
    f = code.scalars
    l = code.length
    info = cs.complement()
    y = np.zeros(l, dtype=f.dtype)
    for pos, val in info_values.items():
        pos = tuple(pos)
        if pos not in info:
            raise ValueError(f"{pos} is not an information position")
        if not 0 <= int(val) < f.q:
            raise ValueError(f"value {val} out of range for q = {f.q}")
        y[code.ambient.index_of(pos)] = int(val)
    if check_cols:
        y[check_cols] = f.neg(H_std.mul_vec(y))
    return y
