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

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gamma import CheckSet
from .gf import FieldError, MatrixGF, ScalarField, build_context, kernel_basis
from .orbit import DefiningSet, frobenius_order

_FULL_ENUM_LIMIT = 1 << 20
# labels the two halves of a full enumeration may hold, (q^h + q^(k - h)) l:
# it admits every code whose whole message table, q^k l labels, fits in
# 2^28, up to the q + 1 words of k = 1 halves at q l = 2^28
_FULL_HALVES_LIMIT = 3 << 27
_WALK_BLOCK = 1 << 20    # walked Gray combinations screened at once
_PAIR_BLOCK = 1 << 18    # (high, low) message pairs weighed at once
_COMBO_BLOCK = 1 << 17   # bytes of combination values built at once
_GRAY_MAX_K = 28
# evaluations a find_low_weight_codeword decision may spend: about 0.25 s
# over F_3 (956 040 on a [121, 90] code, 2 vCPUs), and about 100 times the
# 10 700 of the largest the tests make
_DECIDE_BUDGET = 10**6


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
        self._reduced = None
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


def check_tensor(code: AbelianCode) -> np.ndarray:
    """The check tensor as a (|D|, l) label array.

    Each q-orbit of D, of size d, owns a block of d rows, built from its
    least element e; the blocks follow the orbits' least elements.  With
    beta the root of unity of order L = lcm(r) and alpha_i = beta^(L / r_i),
    the entry at position j is beta^k, k = sum_i (L / r_i) e_i j_i mod L.
    beta^k lies in F_{q^d} exactly when step = L / e divides k, where
    e = gcd(L, q^d - 1), and every block of size d gathers its columns from
    the coordinates of beta^0, beta^step, ..., the powers of the root of
    order e, which the field context solves once per (e, d) and keeps
    (FieldContext.root_coords).  parity_matrix caches the tensor.
    """
    amb, ctx = code.ambient, code.ctx
    L = math.lcm(*amb.r)
    grid = np.indices(amb.r).reshape(amb.n, -1)
    mat = np.zeros((len(code.defining), code.length), dtype=code.scalars.dtype)
    off = 0
    for orb in code.defining.orbits():
        d = len(orb)
        e = math.gcd(L, amb.q**d - 1)
        step = L // e
        k = np.array([L // ri * ei for ri, ei in zip(amb.r, orb[0])]) @ grid % L
        if np.any(k % step):
            raise FieldError(f"element is not in F_{{q^{d}}}")
        mat[off:off + d] = ctx.root_coords(e, d)[k // step].T
        off += d
    return mat


def parity_matrix(code: AbelianCode) -> MatrixGF:
    if code._parity is None:
        code._parity = MatrixGF(code.scalars, check_tensor(code))
    return code._parity


def _reduced_parity(code: AbelianCode):
    """(R, pivots) = parity_matrix(code).rref(), reduced once per code.

    The generator and the verification both read this one reduction.
    """
    if code._reduced is None:
        code._reduced = parity_matrix(code).rref()
    return code._reduced


def generator_matrix(code: AbelianCode) -> MatrixGF:
    """The kernel basis of the parity matrix, read off _reduced_parity.

    Row t has 1 at the t-th column that is no pivot of the reduction.
    """
    if code._generator is None:
        code._generator = kernel_basis(*_reduced_parity(code))
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


def _check_columns(code: AbelianCode, cs: CheckSet) -> list:
    """The sorted column indices of cs's positions; a check set of another
    ambient is refused."""
    if cs.ambient != code.ambient:
        raise ValueError("check set belongs to a different ambient")
    return sorted(code.ambient.index_of(t) for t in cs.positions)


def verify_check_positions(code: AbelianCode, cs: CheckSet) -> VerifyResult:
    """Independent linear-algebra check that cs is a valid check-position set.

    The columns of the parity matrix H indexed by cs must span the full
    row space, i.e. have rank |D|.  A cardinality mismatch is reported as
    its own failure mode, distinct from a rank deficiency.

    The rank is read off R, the reduction of H that generator_matrix uses
    (_reduced_parity): row operations are invertible, so rank H[:, cs] =
    rank R[:, cs].  With P the pivot columns of R, a column of cs in P is
    a unit column of its own, so that rank is |cs & P| plus the rank of
    the block of R on the rows whose pivot is not in cs and the columns
    cs - P; only that block is reduced again.
    """
    cols = _check_columns(code, cs)
    expected = len(code.defining)
    if len(cols) != expected:
        return VerifyResult(False, "cardinality", -1, expected)
    cols = np.array(cols, dtype=np.intp)
    R, pivots = _reduced_parity(code)
    pivots = np.array(pivots, dtype=np.intp)
    in_cs = np.zeros(code.length, dtype=bool)
    in_cs[cols] = True
    is_pivot = np.zeros(code.length, dtype=bool)
    is_pivot[pivots] = True
    rows = np.flatnonzero(~in_cs[pivots])
    block = R.data[np.ix_(rows, cols[~is_pivot[cols]])]
    rank = len(pivots) - len(rows) + len(MatrixGF(code.scalars, block).rref()[1])
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


def _pack_words(bits):
    """An (m, n) 0/1 or bool array as little-endian uint64 words, an
    (m, max(1, ceil(n / 64))) array: bit b of word c is column 64 c + b."""
    m, n = bits.shape
    out = np.zeros((m, 8 * max(1, -(-n // 64))), dtype=np.uint8)
    out[:, :-(-n // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return out.view("<u8")


def _xor_rows(bits, sel):
    """XOR of the label rows bits[b] over the set bits b of sel."""
    return np.bitwise_xor.reduce(bits[[b for b in range(len(bits)) if sel >> b & 1]])


def _span(words, gray=False):
    """All 2^m XOR combinations of the (m, nch) words, as an (nch, 2^m)
    array: entry i combines the words at the bits of i, or with gray at
    the bits of i ^ (i >> 1), by reflection."""
    t = np.zeros((words.shape[1], 1), dtype=np.uint64)
    for w in words:
        t = np.concatenate([t, (t[:, ::-1] if gray else t) ^ w[:, None]], axis=1)
    return t


def _weights(span):
    """The weight of each entry of an (nch, N) span, as int32."""
    acc = np.bitwise_count(span[0]).astype(np.int32)
    for chunk in span[1:]:
        acc += np.bitwise_count(chunk)
    return acc


def _screened_sweep(bits, cut, split, steps):
    """The first `steps` Gray steps over bits[split:], each with rows
    cut..split-1 in binary order inside it, against the 2^cut table of
    bits[:cut]; every walked combination is screened at once.  With no
    shared column, as at cut 0, dist is [0] and the gather is skipped."""
    l = bits.shape[1]
    shared = bits[:cut].any(0) & bits[cut:].any(0)
    scols = np.flatnonzero(shared)
    ymask = np.uint64((1 << len(scols)) - 1)

    def words(rs):
        # the shared columns first, so a word's low bits are its S-pattern
        own = np.flatnonzero(rs.any(0) & ~shared)
        return _pack_words(rs[:, np.concatenate([scols, own])])

    tab = _span(words(bits[:cut]))
    x = (tab[0] & ymask).astype(np.uint32)
    off = _weights(tab) - np.bitwise_count(x)
    del tab
    # l + 1 marks a pattern no entry has; int32 holds it plus |S|
    dist = np.full(1 << len(scols), l + 1, dtype=np.int32)
    np.minimum.at(dist, x, off)
    for b in range(len(scols)):
        v = dist.reshape(-1, 2, 1 << b)
        np.minimum(v[:, 0], v[:, 1] + 1, out=v[:, 0])
        np.minimum(v[:, 1], v[:, 0] + 1, out=v[:, 1])
    # a walked word's weight adds in full, its S-pattern's is counted in dist
    dist -= np.bitwise_count(np.arange(len(dist))).astype(np.int32)

    def first_min(y, nonzero):
        acc = off + np.bitwise_count(x ^ np.uint32(y))
        if nonzero:
            acc[0] = l + 1
        i = int(np.argmin(acc))
        return int(acc[i]), i

    mid = split - cut
    walked = words(bits[cut:])
    inner = _span(walked[:mid])
    block = min(1 << (steps - 1).bit_length(), max(1, _WALK_BLOCK // inner.shape[1]))
    m = block.bit_length() - 1
    first = _span(walked[mid:mid + m], gray=True)
    zero = first_min(0, True)     # step 0, no mid row: the zero word excluded
    best, at = l + 1, None
    for b in range(-(-steps // block)):
        # Gray steps b*block.. are the first block, reversed on odd b,
        # plus the Gray code of b over the higher walked rows
        hb = first if b % 2 == 0 else first[:, ::-1]
        g = b ^ (b >> 1)
        for j in range(g.bit_length()):
            if g >> j & 1:
                hb = hb ^ walked[mid + m + j, :, None]
        hb = hb[:, :steps - b * block]
        combos = (hb[:, :, None] ^ inner[:, None]).reshape(len(hb), -1)
        vals = _weights(combos)
        if len(scols):
            vals += dist[(combos[0] & ymask).astype(np.uint32)]
        # dropped before the next block is built, which then reuses its memory
        del combos
        if b == 0:
            vals[0] = zero[0]
        i = int(np.argmin(vals))
        if vals[i] < best:
            best, at = int(vals[i]), b * block * inner.shape[1] + i
    s, mbits = divmod(at, inner.shape[1])
    hi = _xor_rows(bits, (s ^ s >> 1) << split | mbits << cut)
    y = sum(int(v) << b for b, v in enumerate(hi[scols]))
    return best, _xor_rows(bits, (first_min(y, False) if at else zero)[1]) ^ hi


def _gray_min(G, budget=None):
    """Minimum nonzero weight over all F_2 combinations of G's rows, which
    must be independent.

    The rows are G's 0/1 labels, packed into 64-bit words (_pack_words).
    The low `split` rows (20, fewer under a budget) index a table of 2^split
    combinations lo; the other rows are walked in Gray-code order, one row
    XOR per step word hi.  Combinations are ordered by step, then by table
    index, and the witness, the XOR of the label rows it combines, is the
    first that reaches the minimum.

    With a cut c, let S be the columns where some row below c and some row
    from c on are both nonzero; on a systematic generator S lies within the
    check columns.  Off S at most one side is nonzero, so

        wt(lo ^ hi) = wt(lo & ~S) + wt(hi & ~S) + wt((lo ^ hi) & S).

    When |S| is small, the table of rows[:c] is screened: with lo_S the
    S-bits of lo packed to |S| bits, dist[y] is the least wt(lo & ~S) +
    wt(lo_S ^ y) over the table, for every y < 2^|S| (the least wt(lo & ~S)
    per pattern, then a distance transform over the |S|-cube).  The exact
    minimum of a walked combination hi other than 0 is then
    dist[hi_S] + wt(hi & ~S), one gather for all of them at once; hi = 0
    scans the table, zero word excluded.

    A sweep of more than one step is screened at the first cut c of lo,
    lo + 1, ..., split that shares fewer than split columns, where lo is
    min(k // 2, split) for a whole sweep (no budget, or one of at least
    2^k) and split otherwise.  A one-step sweep, or one with no such cut,
    runs at cut 0: the table holds only the zero word, S is empty, and
    each walked combination is weighed in full.  Rows c..split-1 run in
    binary order inside each Gray step, so (step, those rows, table index)
    is the order of (step, 2^split table index).  Walked combinations are
    evaluated in blocks of at most 2^20, so no table or block holds more
    than 2^20 words of 64 columns each.

    Under a budget b the table holds at most 2^floor(log2 b) combinations
    (at least 2), and no step runs that would take the evaluations past b;
    with nothing evaluated the upper bound is the length l.  The
    evaluations count every combination the steps cover, 2^k for a whole
    sweep.  Returns (lower, upper, witness labels or None, evaluations):
    upper is the least weight seen, and lower is upper after a whole
    sweep, 1 otherwise.
    """
    if G.field.q != 2:
        raise ValueError("Gray-code enumeration requires q = 2")
    bits = G.data
    k, l = bits.shape
    split = min(k, 20)
    steps = 1 << (k - split)
    if budget is not None:
        split = min(split, max(1, budget.bit_length() - 1))
        steps = max(0, min(1 << (k - split), budget >> split))
    evals = steps << split
    whole = evals == 1 << k

    def shared(cut):
        return np.count_nonzero(bits[:cut].any(0) & bits[cut:].any(0))

    if not steps:
        return 1, l, None, evals
    lo = min(k // 2, split) if whole else split
    cuts = range(lo, split + 1) if steps > 1 else ()
    cut = next((c for c in cuts if shared(c) < split), 0)
    best, witness = _screened_sweep(bits, cut, split, steps)
    return (best if whole else 1), best, witness, evals


def combination_blocks(vals, m, w, combine):
    """Every combination of w items of vals, in lexicographic order and in
    blocks of at most about _COMBO_BLOCK bytes.

    vals is an (n * m, width) array whose item t lies in row t // m.  A
    combination takes items t_1 < ... < t_w from w distinct rows, with
    1 <= w <= n, and its value is combine(...combine(vals[t_1], vals[t_2])
    ..., vals[t_w]).  Yields (items, values): the (b, w) items of b
    consecutive combinations and their (b, width) values.  Prefixes are
    expanded a block at a time, depth first, so no level is held whole.
    """
    n = len(vals) // m
    # blocks of prefixes: (items, values, cumulative child counts, next child)
    stack = [(np.zeros((1, 0), dtype=np.int64), None, np.array([(n - w + 1) * m]), 0)]
    while stack:
        nodes, acc, cum, pos = stack.pop()
        d = nodes.shape[1]
        end = (n - w + d + 1) * m   # item d lies in a row before n - w + d + 1
        size = max(1, _COMBO_BLOCK // (vals.shape[1] * vals.itemsize + 8 * (d + 1)))
        stop = min(pos + size, int(cum[-1]))
        if stop < cum[-1]:
            stack.append((nodes, acc, cum, stop))
        # children pos..stop-1 belong to the prefixes first..last
        first, last = np.searchsorted(cum, (pos, stop - 1), side="right")
        bounds = np.minimum(cum[first:last + 1], stop)
        counts = np.diff(bounds, prepend=pos)
        parent = np.repeat(np.arange(first, last + 1), counts)
        item = np.arange(pos, stop) + np.repeat(end - cum[first:last + 1], counts)
        items = np.empty((len(item), d + 1), dtype=np.int64)
        items[:, :d] = nodes.take(parent, axis=0)
        items[:, d] = item
        values = vals.take(item, axis=0)
        if acc is not None:
            values = combine(acc.take(parent, axis=0), values)
        if d + 1 == w:
            yield items, values
        else:
            # each item's children start at the next row's first item
            stack.append((items, values, np.cumsum(end + m - (item // m + 1) * m), 0))


def _scan_items(f, rows):
    """The items of _bz_min's weight-w scan over the (k, l) label rows:
    (vals, m, combine, weight, labels), labels turning a sum back into l
    labels.

    For q = 2 an item is a row packed into 64-bit words, summed by XOR and
    weighed by its set bits; otherwise it is one of the rows' q - 1 nonzero
    multiples, in (row, scalar) order, summed in the field and weighed by
    its nonzero labels.
    """
    k, l = rows.shape
    if f.q == 2:
        def weight(sums):
            return np.bitwise_count(sums).sum(axis=1)

        def labels(word):
            return np.unpackbits(word.view(np.uint8), count=l, bitorder="little")

        return _pack_words(rows), 1, np.bitwise_xor, weight, labels

    def weight(sums):
        return np.count_nonzero(sums, axis=1)

    nonzero = np.arange(1, f.q, dtype=rows.dtype)[:, None]
    vals = f.mul(rows[:, None, :], nonzero).reshape(k * (f.q - 1), l)
    return vals, f.q - 1, f.add, weight, np.asarray


def _weight_w_min(vals, m, combine, weight, w, best):
    """The first nonzero combination of w items of vals lighter than best,
    in the lexicographic order of combination_blocks.

    weight maps a (b, width) block of values to their b weights, 0 for a
    zero value.  Returns (weight, value) of that combination, or (best,
    None) when there is none.
    """
    wit = None
    if 1 <= w <= len(vals) // m:
        for _, sums in combination_blocks(vals, m, w, combine):
            wt = weight(sums)
            wt[wt == 0] = best
            i = int(np.argmin(wt))
            if wt[i] < best:
                best, wit = int(wt[i]), sums[i].copy()
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

    The weight-w pass is one walk of combination_blocks for every q, a
    block of about _COMBO_BLOCK bytes at a time in lexicographic order,
    each block's weights counted at once; only the items, their sum and
    their weight depend on q (_scan_items), on 64-bit words for q = 2.
    The witness is the first lightest nonzero sum of w rows in that order.
    """
    f = G.field
    k, l = G.shape
    red, _ = G.rref()
    even = f.q == 2 and not np.any(np.count_nonzero(G.data, axis=1) % 2)
    vals, m, combine, weight, labels = _scan_items(f, red.data)
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
        new_ub, new_wit = _weight_w_min(vals, m, combine, weight, w, ub)
        if new_wit is not None:
            ub, wit = new_ub, labels(new_wit)


def _full_min(G, budget=None):
    """Expand every message; memory-bounded exact enumeration.

    Message i = lo + q^h hi, h = k // 2, is sum_j c_j row_j over its base-q
    digits c_j.  The two halves rows[:h] and rows[h:] are expanded apart,
    each as q^h or q^(k - h) words in digit order, and joined in blocks of
    about 2^18 (hi, lo) pairs: lo + hi vanishes at column j exactly when
    lo_j = -hi_j, so the weights are counted column by column.  The first
    lightest nonzero message, hi-major, is the witness.

    Returns (lower, upper, witness, evaluations), and [1, l] with no witness
    and nothing evaluated when the q^k messages exceed the budget.  Raises
    ValueError when the halves hold more than _FULL_HALVES_LIMIT labels;
    the join holds them about three times over (the halves, their columns
    and the negated columns), plus a block of at most max(2^18, q^h) pairs.
    """
    f = G.field
    q = f.q
    k, l = G.data.shape
    if budget is not None and q**k > budget:
        return 1, l, None, 0
    if (q**(k // 2) + q**(k - k // 2)) * l > _FULL_HALVES_LIMIT:
        raise ValueError("full enumeration exceeds the memory budget")

    def expand(rows):
        A = np.zeros((1, l), dtype=G.data.dtype)
        for row in rows:
            A = np.vstack([A] + [f.add(A, f.mul(row, v)) for v in range(1, q)])
        return A

    lo, hi = expand(G.data[:k // 2]), expand(G.data[k // 2:])
    lo_cols, neg_cols = lo.T.copy(), f.neg(hi).T.copy()
    block = max(1, _PAIR_BLOCK // len(lo))     # hi words per block
    best, at = l + 1, None
    for start in range(0, len(hi), block):
        neg = neg_cols[:, start:start + block, None]
        w = np.zeros((neg.shape[1], len(lo)), dtype=np.min_scalar_type(l + 1))
        for j in range(l):
            w += lo_cols[j] != neg[j]
        if start == 0:
            w[0, 0] = l + 1
        i = int(np.argmin(w))
        if w.flat[i] < best:
            best, at = int(w.flat[i]), start * len(lo) + i
    h, i = divmod(at, len(lo))
    return best, best, f.add(lo[i], hi[h]), q**k


def min_distance(code: AbelianCode, budget=None, method: str = "auto") -> DistanceResult:
    """Minimum weight of the code; exact or a certified bracket under budget."""
    k = code.dimension
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
    # looked up when called, so a wrapper installed later on an engine's
    # module attribute (the traced benchmark installs one) sees the call
    engines = {"gray": _gray_min, "full": _full_min, "bz": _bz_min}
    if method not in engines:
        raise ValueError(f"unknown method {method!r}")
    lower, upper, wit, evals = engines[method](G, budget)
    return DistanceResult(lower, upper, wit, method, evals)


def find_low_weight_codeword(code: AbelianCode, wmax: int):
    """A nonzero codeword of weight <= wmax, or None.

    Runs _bz_min, within _DECIDE_BUDGET evaluations, until its bracket
    settles d(C) > wmax either way, and raises ValueError if the budget
    runs out first.  wmax is clamped to the length first: asked to decide
    d(C) > l, _bz_min would stop before it had seen any codeword.
    """
    if code.dimension == 0 or wmax < 1:
        return None
    at_least = min(wmax, code.length) + 1
    lower, upper, wit, _ = _bz_min(generator_matrix(code), budget=_DECIDE_BUDGET,
                                   decide_at_least=at_least)
    if lower < at_least and (wit is None or upper > wmax):
        raise ValueError(f"deciding d(C) > {wmax} takes more than "
                         f"{_DECIDE_BUDGET} evaluations")
    return wit if upper <= wmax else None


def distance_at_least(code: AbelianCode, d: int) -> bool:
    """Decide d(C) >= d (true for the zero code) without resolving d(C)."""
    return find_low_weight_codeword(code, d - 1) is None


# ---------- encoding ----------


def standard_form_parity(code: AbelianCode, cs: CheckSet):
    """Parity matrix with an identity block on the (sorted) check positions.

    Returns (MatrixGF, check column indices).  One reduction both verifies
    cs and builds the form.  It starts from R, the code's reduction of H
    (_reduced_parity), with the check columns moved first, and the check
    block is invertible exactly when the reduction's pivots are its first
    |D| columns.  Moved back, the result is inv(R[:, cs]) R, which the row
    space of H alone fixes.  Raises ValueError when cs fails, naming the
    failure as verify_check_positions does.
    """
    cols = _check_columns(code, cs)
    if len(cols) != len(code.defining):
        raise ValueError("check positions not verified: cardinality")
    R = _reduced_parity(code)[0]
    order = cols + sorted(set(range(code.length)).difference(cols))
    S, pivots = MatrixGF(code.scalars, R.data[:, order]).rref()
    if pivots != list(range(len(cols))):
        raise ValueError("check positions not verified: rank")
    S.data[:, order] = S.data.copy()
    return S, cols


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
