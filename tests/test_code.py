"""Code layer: parity/generator matrices, verification, distance, encoding.

The linear algebra is checked against a naive row-reduction oracle written
here with scalar-by-scalar field operations.  Code membership is checked
through both routes (syndrome against the parity matrix, and direct root
evaluation) and the two must agree everywhere.
"""

import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abcode.code
import abcode.gf
import abcode.orbit
from abcode.code import (AbelianCode, MatrixGF, check_tensor, contains,
                         distance_at_least, encode, find_low_weight_codeword,
                         generator_matrix, min_distance, parity_matrix,
                         standard_form_parity, verify_check_positions)
from abcode.gamma import CheckSet, build_gamma
from abcode.gf import (FieldError, ScalarField, build_context, kernel_basis,
                       root_of_unity, subfield_coords)
from abcode.orbit import (Ambient, DefiningSet, frobenius_order,
                          from_orbit_reps, orbits, qorbit,
                          validate_defining_set)
from field_fixtures import Labels, elem_add, elem_mul, element

# sample codes reused below
HAMMING = from_orbit_reps(Ambient(2, (7,)), [(1,)])          # [7, 4, 3]
GOLAY3 = from_orbit_reps(Ambient(3, (11,)), [(1,)])          # [11, 6, 5]
QUARTIC = from_orbit_reps(Ambient(4, (5,)), [(1,)])          # [5, 3, 3]
TWO_AXIS = validate_defining_set(Ambient(2, (3, 7)), {
    (1, 1), (2, 2), (1, 4), (2, 1), (1, 2), (2, 4), (0, 3), (0, 5),
    (0, 6), (1, 3), (2, 6), (1, 5), (2, 3), (1, 6), (2, 5)})
C9 = from_orbit_reps(Ambient(2, (9,)), [(1,)])    # [9, 3, 3], odd-weight rows
C315 = from_orbit_reps(Ambient(2, (3, 15)),
                       [(0, 3), (0, 7), (1, 0), (1, 11)])     # [45, 31, 6]
C345 = from_orbit_reps(Ambient(3, (4, 5)),
                       [(0, 0), (0, 1), (1, 0), (2, 0)])      # [20, 12, 4]
C358 = from_orbit_reps(Ambient(3, (5, 8)),                    # [40, 15, 10]
                       [(0, 0), (1, 1), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7)])
C457 = from_orbit_reps(Ambient(4, (5, 7)),                    # [35, 14, 10]
                       [(0, 0), (1, 0), (1, 3), (2, 1), (2, 3)])
C59 = from_orbit_reps(Ambient(2, (5, 9)), [(1, 2), (1, 6)])  # [45, 29, 5]
C77 = from_orbit_reps(Ambient(2, (7, 7)),                     # [49, 27, 8]
                      [(0, 0), (1, 0), (1, 2), (1, 4), (3, 0), (3, 1), (3, 4), (3, 5)])
C513 = from_orbit_reps(Ambient(2, (5, 13)),                   # [65, 40, 8]
                       [(0, 0), (0, 1), (1, 1)])
NAMED = {"HAMMING": HAMMING, "GOLAY3": GOLAY3, "QUARTIC": QUARTIC,
         "TWO_AXIS": TWO_AXIS, "C9": C9, "C315": C315, "C345": C345,
         "C358": C358, "C457": C457, "C59": C59, "C77": C77, "C513": C513}


# ---------- naive linear algebra oracle ----------


def naive_rref(sf: ScalarField, data, col_order):
    """(rows, pivots) of the reduced form ordered by col_order: columns are
    searched for a pivot in that order, and no column outside it pivots.
    With range(n) this is the reduced row echelon form."""
    ops = Labels(sf)
    rows = [[int(v) for v in row] for row in data]
    nrows = len(rows)
    pivots = []
    r = 0
    for col in col_order:
        piv = None
        for i in range(r, nrows):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ops.inv(rows[r][col])
        rows[r] = [ops.mul(inv, v) for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [ops.sub(v, ops.mul(c, w)) for v, w in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows, pivots


def naive_mul_vec(sf, data, vec):
    ops = Labels(sf)
    out = []
    for row in data:
        acc = 0
        for a, b in zip(row, vec):
            acc = ops.add(acc, ops.mul(int(a), int(b)))
        out.append(acc)
    return out


def naive_roots(code):
    """alpha_i, the canonical element of order r_i, for every axis."""
    return [root_of_unity(code.ctx, ri) for ri in code.ambient.r]


def naive_check_tensor(code, basis_shift=0):
    """Check tensor entry by entry: a product of root powers, then one
    coordinate solve per entry.  basis_shift b replaces the basis
    (1, g, ..., g^(d-1)) of each subfield with (g^b, ..., g^(d-1+b))."""
    ctx, amb = code.ctx, code.ambient
    dtype = np.uint8 if amb.q <= 256 else np.uint16
    mat = np.zeros((len(code.defining), amb.length), dtype=dtype)
    row = 0
    for rep in code.defining.orbit_reps():
        d = len(qorbit(amb, rep))
        gens = [ctx.pow(root, e) for root, e in zip(naive_roots(code), rep)]
        shift = ctx.pow(root_of_unity(ctx, amb.q**d - 1), (-basis_shift) % (amb.q**d - 1))
        for j, pos in enumerate(amb.positions()):
            x = shift
            for g, t in zip(gens, pos):
                x = elem_mul(ctx, x, ctx.pow(g, t))
            mat[row:row + d, j] = subfield_coords(ctx, [x], d)[0]
        row += d
    return mat


def naive_evaluate_at_root(code, vec, exponent):
    """P(alpha^e) with one ctx.pow per axis and position."""
    ctx, amb = code.ctx, code.ambient
    roots = naive_roots(code)
    acc = ctx.decode(0)
    for j, pos in enumerate(amb.positions()):
        if vec[j]:
            x = element(ctx, int(vec[j]))
            for root, e, t, r in zip(roots, exponent, pos, amb.r):
                x = elem_mul(ctx, x, ctx.pow(root, e * t % r))
            acc = elem_add(ctx, acc, x)
    return acc


FIELD_SIZES = (2, 3, 4, 5, 8, 9)


def scalar_field(q):
    p, s = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 8: (2, 3), 9: (3, 2),
            16: (2, 4), 256: (2, 8)}[q]
    return ScalarField(build_context(p, s, 1))


def random_matrix(rng, q, shape):
    return np.array([[rng.randrange(q) for _ in range(shape[1])]
                     for _ in range(shape[0])], dtype=np.uint8)


# ---------- MatrixGF ----------


# shapes past one byte and one 64-bit word, with n % 8 != 0
WIDE_SHAPES = ((3, 65), (7, 70), (12, 131))


def shapes(rng, mmax, nmax):
    """25 small random shapes, drawn lazily from rng, then WIDE_SHAPES."""
    for _ in range(25):
        yield rng.randint(1, mmax), rng.randint(1, nmax)
    yield from WIDE_SHAPES


# more rows than columns, so rows past the rank remain; 20 and 40 rows
# reach past q = 16
TALL_SHAPES = ((9, 4), (20, 6), (40, 9))


@pytest.mark.parametrize("q", FIELD_SIZES + (16, 256))
def test_rref_matches_naive(q):
    # the label kernel tabulates the pivot row's multiples by every label
    # when q is at most the row count and by the factors present otherwise:
    # q = 16 runs both, q = 256 only the second
    sf = scalar_field(q)
    rng = random.Random(31)
    for m, n in [*shapes(rng, 6, 8), *TALL_SHAPES]:
        data = random_matrix(rng, q, (m, n))
        if rng.random() < 0.3:
            data[np.array([[rng.random() < 0.6 for _ in range(n)]
                           for _ in range(m)])] = 0
        M = MatrixGF(sf, data.copy())
        R, pivots = M.rref()
        want_rows, want_pivots = naive_rref(sf, data, range(n))
        assert pivots == want_pivots
        # every row in order: the form is unique, so rows past the rank
        # are zero whatever the reduction swapped
        assert R.data.tolist() == want_rows
        assert not R.data[len(pivots):].any()
        # reduction is idempotent
        R2, p2 = R.rref()
        assert np.array_equal(R2.data, R.data)
        assert p2 == want_pivots
        assert M.rank() == len(want_pivots)


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_nullspace_properties(q):
    sf = scalar_field(q)
    rng = random.Random(32)
    for m, n in shapes(rng, 5, 8):
        M = MatrixGF(sf, random_matrix(rng, q, (m, n)))
        N = kernel_basis(*M.rref())
        assert N.shape[1] == n
        assert N.shape[0] == n - M.rank()
        for row in N.data:
            assert not any(naive_mul_vec(sf, M.data, row))
        if N.shape[0]:
            assert N.rank() == N.shape[0]


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_mul_vec(q):
    sf = scalar_field(q)
    rng = random.Random(33)
    A = MatrixGF(sf, random_matrix(rng, q, (4, 6)))
    v = [rng.randrange(q) for _ in range(6)]
    assert list(A.mul_vec(v)) == naive_mul_vec(sf, A.data, v)
    for m, n in WIDE_SHAPES:
        A = MatrixGF(sf, random_matrix(rng, q, (m, n)))
        v = [rng.randrange(q) for _ in range(n)]
        assert list(A.mul_vec(v)) == naive_mul_vec(sf, A.data, v)


def test_row_ints_binary_roundtrip():
    sf = scalar_field(2)
    rng = random.Random(34)
    for n in (70, 1, 8, 64, 131):
        data = random_matrix(rng, 2, (5, n))
        M = MatrixGF(sf, data)
        for row, packed in zip(data, M.row_ints()):
            assert [((packed >> i) & 1) for i in range(n)] == list(map(int, row))
        assert np.array_equal(abcode.gf._unpack_rows(M.row_ints(), n), data)


def test_pack_words_against_bit_sums():
    # bit b of word c is column 64 c + b; at least one word per row, all
    # zero for no columns, and no rows give no words
    rng = np.random.default_rng(35)
    for m, n in ((3, 0), (0, 5), (0, 0), (3, 1), (4, 63), (4, 64), (4, 65), (2, 130)):
        bits = rng.integers(0, 2, size=(m, n)).astype(np.uint8)
        for arr in (bits, bits.astype(bool)):
            words = abcode.code._pack_words(arr)
            assert words.shape == (m, max(1, -(-n // 64)))
            assert words.dtype == np.dtype("<u8")
            for row, packed in zip(bits, words):
                assert [int(v) for v in packed] == [
                    sum(int(row[j]) << (j - 64 * c) for j in range(64 * c, min(n, 64 * c + 64)))
                    for c in range(len(packed))]


# ---------- parity / generator / membership ----------


@pytest.mark.parametrize("D", [HAMMING, GOLAY3, QUARTIC, TWO_AXIS])
def test_parity_and_generator_shapes(D):
    code = AbelianCode(D)
    H = parity_matrix(code)
    G = generator_matrix(code)
    assert H.shape == (len(D), code.length)
    assert H.rank() == len(D)
    assert G.shape == (code.length - len(D), code.length)
    assert G.rank() == code.dimension == code.length - len(D)
    # orthogonality: every generator row is a codeword
    for row in G.data:
        assert not any(H.mul_vec(row))
        assert contains(code, row)


@pytest.mark.parametrize("D", [HAMMING, GOLAY3, TWO_AXIS])
def test_membership_agrees_with_root_evaluation(D):
    code = AbelianCode(D)
    G = generator_matrix(code)
    ops = Labels(code.scalars)
    zero = code.ctx.decode(0)
    rng = random.Random(35)
    for trial in range(20):
        coeffs = [rng.randrange(ops.q) for _ in range(G.shape[0])]
        vec = np.zeros(code.length, dtype=np.int64)
        for c, row in zip(coeffs, G.data):
            for j in range(code.length):
                vec[j] = ops.add(int(vec[j]), ops.mul(c, int(row[j])))
        if trial % 2:
            vec[rng.randrange(code.length)] = rng.randrange(1, ops.q)
        by_parity = contains(code, vec)
        by_roots = all(naive_evaluate_at_root(code, vec, e) == zero
                       for e in sorted(D.members))
        assert by_parity == by_roots


def test_single_position_flip_breaks_every_root():
    code = AbelianCode(HAMMING)
    vec = np.zeros(7, dtype=np.uint8)
    vec[3] = 1
    for e in sorted(HAMMING.members):
        assert naive_evaluate_at_root(code, vec, e) != code.ctx.decode(0)


def test_empty_defining_set_is_the_full_space():
    amb = Ambient(2, (3, 5))
    code = AbelianCode(DefiningSet(amb, frozenset()))
    assert code.dimension == 15
    G = generator_matrix(code)
    assert np.array_equal(G.data, np.eye(15, dtype=G.data.dtype))
    rng = random.Random(36)
    vec = [rng.randrange(2) for _ in range(15)]
    assert contains(code, vec)


def tensor_codes():
    """Named codes, random small ambients over every FIELD_SIZES q with
    n = 1..3, an r_i = 1 axis, empty and full defining sets, and the
    (2;61) code over F_{2^60}."""
    yield from NAMED.items()
    rng = random.Random(41)
    for q in FIELD_SIZES:
        for n in (1, 2, 3):
            r = tuple(rng.choice([v for v in range(2, 10) if math.gcd(v, q) == 1])
                      for _ in range(n))
            amb = Ambient(q, r)
            members = frozenset(m for o in orbits(amb) if rng.random() < 0.5 for m in o)
            yield f"q{q}r{r}", DefiningSet(amb, members)
    for amb in (Ambient(3, (1, 4)), Ambient(2, (7, 1)), Ambient(5, (1,))):
        yield f"{amb.r}-unit-axis", DefiningSet(amb, frozenset(
            m for o in orbits(amb)[1:] for m in o))
    amb = Ambient(4, (3, 5))
    yield "empty", DefiningSet(amb, frozenset())
    yield "full", DefiningSet(amb, frozenset(amb.positions()))
    yield "C61", from_orbit_reps(Ambient(2, (61,)), [(1,)])


TENSOR_CODES = dict(tensor_codes())


@pytest.mark.parametrize("name", sorted(TENSOR_CODES))
def test_check_tensor_matches_naive(name):
    code = AbelianCode(TENSOR_CODES[name])
    got = check_tensor(code)
    want = naive_check_tensor(code)
    assert got.shape == want.shape == (len(code.defining), code.length)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(TENSOR_CODES))
def test_check_tensor_is_basis_independent(name):
    """A shifted subfield basis spans the same row space, of rank |D|."""
    code = AbelianCode(TENSOR_CODES[name])
    sf, rank = code.scalars, len(code.defining)
    base = check_tensor(code)
    for shift in (1, 2, 5):
        other = naive_check_tensor(code, shift)
        assert MatrixGF(sf, other).rank() == rank
        assert MatrixGF(sf, np.vstack([base, other])).rank() == rank


def test_check_tensor_solves_once_per_orbit_size(monkeypatch):
    calls = []

    def counting(ctx, a, d):
        calls.append((len(a), d))
        return subfield_coords(ctx, a, d)

    def solves(D):
        # an orbit of size d reads the powers of the root of order
        # e = gcd(L, q^d - 1), one solve per distinct (e, d)
        L, q = math.lcm(*D.ambient.r), D.ambient.q
        return sorted({(math.gcd(L, q**len(orb) - 1), len(orb)) for orb in D.orbits()})

    monkeypatch.setattr(abcode.gf, "subfield_coords", counting)
    shared = 0
    for name, D in TENSOR_CODES.items():
        # D again, and its last orbit alone: the same context and L
        others = [D, DefiningSet(D.ambient, frozenset(
            t for orb in D.orbits()[-1:] for t in orb))]
        fresh = []
        for other in others:
            build_context.cache_clear()
            fresh.append(check_tensor(AbelianCode(other)).tobytes())
        # a fresh context solves once per distinct (e, d)
        build_context.cache_clear()
        calls.clear()
        check_tensor(AbelianCode(D))
        assert sorted(calls) == solves(D), name
        shared += len(D.orbits()) - len(calls)
        # later codes on that context and L solve nothing
        calls.clear()
        assert [check_tensor(AbelianCode(o)).tobytes() for o in others] == fresh
        assert calls == [], name
        # clearing the context cache drops the tables with the contexts
        build_context.cache_clear()
        check_tensor(AbelianCode(D))
        assert sorted(calls) == solves(D), name
    assert shared > 0   # some orbits share a size, and so a solve
    # one context, one orbit size d = 4, and two values of L, 15 and 5,
    # with e = 15 and 5: no table is shared.  Then one context, d = 3 and
    # L = 21 and 63, both with e = gcd(L, 2^3 - 1) = 7: one table serves both
    by_l = [from_orbit_reps(Ambient(2, (3, 5)), [(1, 1)]),
            from_orbit_reps(Ambient(2, (5,)), [(1,)]),
            from_orbit_reps(Ambient(2, (3, 7)), [(0, 1)]),
            from_orbit_reps(Ambient(2, (7, 9)), [(1, 0)])]
    build_context.cache_clear()
    codes = [AbelianCode(D) for D in by_l]
    assert codes[0].ctx is codes[1].ctx and codes[2].ctx is codes[3].ctx
    calls.clear()
    for code in codes:
        assert check_tensor(code).tobytes() == naive_check_tensor(code).tobytes()
    assert calls == [(15, 4), (5, 4), (7, 3)]


@pytest.mark.parametrize("name", ["HAMMING", "GOLAY3", "QUARTIC", "C358", "C457"])
def test_check_tensor_refuses_a_wrong_orbit_size(monkeypatch, name):
    # each orbit reported as its least element alone, so of size 1: the
    # entries of a larger orbit lie outside F_q, and no block may read F_q
    # coordinates for them
    true_orbits = DefiningSet.orbits
    monkeypatch.setattr(DefiningSet, "orbits",
                        lambda self: [orb[:1] for orb in true_orbits(self)])
    with pytest.raises(FieldError, match="not in F_"):
        check_tensor(AbelianCode(NAMED[name]))


def test_field_past_64_bits_is_refused():
    # ord_67(2) = 66, so the roots of unity need F_{2^66}
    with pytest.raises(FieldError, match="64-bit"):
        AbelianCode(from_orbit_reps(Ambient(2, (67,)), [(1,)]))


def test_q_past_64_bits_is_refused_before_factoring(monkeypatch):
    # the ambient owns q's validity, so the refusal comes before any code,
    # and before the prime-power test, whose float roots assume q <= 2^64
    def no_split(n):
        raise AssertionError(f"split {n}")
    monkeypatch.setattr(abcode.orbit, "prime_power", no_split)
    q = (2**61 - 1) * (2**89 - 1)   # Pollard's rho would need ~2^30 steps
    with pytest.raises(FieldError, match="64-bit"):
        Ambient(q, (2,))


# ---------- verification ----------


def test_verify_accepts_built_positions():
    for D in (HAMMING, GOLAY3, QUARTIC, TWO_AXIS):
        code = AbelianCode(D)
        cs = build_gamma(D)
        res = verify_check_positions(code, cs)
        assert res
        assert res.rank == len(D)
        assert res.reason == "ok"


def test_verify_flags_cardinality():
    code = AbelianCode(HAMMING)
    cs = CheckSet(code.ambient, (0,), frozenset({(0,), (1,)}))
    res = verify_check_positions(code, cs)
    assert not res
    assert res.reason == "cardinality"


def test_verify_flags_rank_deficiency():
    # alpha^0 + alpha^1 = alpha^3 over F_8, so columns {0, 1, 3} are dependent
    code = AbelianCode(HAMMING)
    cs = CheckSet(code.ambient, (0,), frozenset({(0,), (1,), (3,)}))
    res = verify_check_positions(code, cs)
    assert not res
    assert res.reason == "rank"
    assert res.rank == 2
    assert res.expected == 3


def test_verify_rejects_foreign_ambient():
    code = AbelianCode(HAMMING)
    cs = build_gamma(GOLAY3)
    with pytest.raises(ValueError):
        verify_check_positions(code, cs)


def test_verify_empty_set():
    amb = Ambient(2, (7,))
    code = AbelianCode(DefiningSet(amb, frozenset()))
    cs = build_gamma(code.defining)
    assert verify_check_positions(code, cs)


def verify_codes(count):
    """Random codes with q in {2, 3, 4, 5, 7, 8, 9}, l <= 64, 0 < |D| < l
    and |D| <= 24."""
    rng = random.Random(43)
    codes = []
    while len(codes) < count:
        q = rng.choice((2, 3, 4, 5, 7, 8, 9))
        amb = rng.choice(_small_ambients(q, 64))
        members = frozenset(m for o in orbits(amb) if rng.random() < 0.5 for m in o)
        if 0 < len(members) < amb.length and len(members) <= 24:
            codes.append(AbelianCode(DefiningSet(amb, members)))
    return codes


def oracle_subsets(code, rng, count):
    """count random |D|-subsets of the positions, as sorted indices; about
    half of them are rank-deficient on these codes."""
    for _ in range(count):
        yield sorted(rng.sample(range(code.length), len(code.defining)))


def test_verify_matches_naive_rank_with_and_without_the_generator():
    rng = random.Random(44)
    outcomes = set()
    for code in verify_codes(40):
        amb = code.ambient
        H = parity_matrix(code).data
        for cols in oracle_subsets(code, rng, 4):
            want = len(naive_rref(code.scalars, H[:, cols], range(len(cols)))[1])
            cs = CheckSet(amb, tuple(range(amb.n)),
                          frozenset(amb.tuple_of(j) for j in cols))
            # each subset on a fresh code, verified before and after the
            # generator, and on a code whose generator came first
            first = AbelianCode(code.defining)
            got = [verify_check_positions(first, cs)]
            generator_matrix(first)
            got.append(verify_check_positions(first, cs))
            second = AbelianCode(code.defining)
            generator_matrix(second)
            got.append(verify_check_positions(second, cs))
            ok = want == len(cols)
            for res in got:
                assert (res.ok, res.reason, res.rank, res.expected) == \
                    (ok, "ok" if ok else "rank", want, len(cols))
            outcomes.add((ok, want < len(cols) - 1))
    # full rank, deficient by one, and deficient by more all occur
    assert outcomes == {(True, False), (False, False), (False, True)}


def test_scalar_tables_are_built_once_per_field_context(monkeypatch):
    solved = []
    coords = abcode.gf.subfield_coords

    def counting(ctx, a, d):
        solved.append(ctx)
        return coords(ctx, a, d)

    monkeypatch.setattr(abcode.gf, "subfield_coords", counting)
    build_context.cache_clear()
    amb = Ambient(4, (5,))
    first, second = (AbelianCode(from_orbit_reps(amb, reps))
                     for reps in ([(1,)], [(0,), (1,)]))
    assert first.ctx is second.ctx and first.scalars is not second.scalars
    tables = first.scalars.tables()
    assert second.scalars.tables() is tables
    assert len(solved) == 1
    # the tables go with the context
    build_context.cache_clear()
    third = AbelianCode(from_orbit_reps(amb, [(1,)]))
    assert third.ctx is not first.ctx
    assert third.scalars.tables() is not tables
    assert len(solved) == 2
    for old, new in zip(tables, third.scalars.tables()):
        assert (old is None and new is None) or np.array_equal(old, new)


def test_parity_matrix_is_reduced_in_full_once_per_code(monkeypatch):
    reduced = []
    rref = MatrixGF.rref

    def counting(self):
        reduced.append((self, self.shape))
        return rref(self)

    rng = random.Random(45)
    for code in verify_codes(10):
        amb = code.ambient
        # parity_matrix sets up the field, which reduces matrices of its own
        H = parity_matrix(code)
        _, pivots = H.rref()
        gamma = build_gamma(code.defining)
        sets = [sorted(amb.index_of(t) for t in gamma.positions)]
        sets += oracle_subsets(code, rng, 3)
        monkeypatch.setattr(MatrixGF, "rref", counting)
        reduced.clear()
        for cols in sets:
            verify_check_positions(code, CheckSet(
                amb, gamma.ordering, frozenset(amb.tuple_of(j) for j in cols)))
        G = generator_matrix(code)
        S, std_cols = standard_form_parity(code, gamma)
        monkeypatch.undo()
        # H once in full, then per set only the block of rows whose pivot
        # is not in the set, on the set's columns that are no pivot, and
        # the standard form from the reduction R, not from H, with the
        # check columns moved first
        R, _ = abcode.code._reduced_parity(code)
        assert [shape for _, shape in reduced] == [H.shape] + [
            (sum(p not in cols for p in pivots), sum(c not in pivots for c in cols))
            for cols in sets] + [H.shape]
        order = std_cols + [c for c in range(code.length) if c not in std_cols]
        assert reduced[0][0] is H
        assert np.array_equal(reduced[-1][0].data, R.data[:, order])
        assert S.data.tolist() == naive_rref(code.scalars, H.data, std_cols)[0]
        alone = generator_matrix(AbelianCode(code.defining))
        assert G.data.tobytes() == alone.data.tobytes()


def _small_ambients(q, max_len=60):
    """Every ambient over F_q with n <= 2, l <= max_len and F_{q^M} in 64 bits."""
    shapes = [(a,) for a in range(1, max_len + 1)]
    shapes += [(a, b) for a in range(1, max_len + 1)
               for b in range(1, max_len // a + 1)]
    ambients = [Ambient(q, r) for r in shapes
                if all(math.gcd(ri, q) == 1 for ri in r)]
    return [amb for amb in ambients if q ** frobenius_order(amb) <= 1 << 64]


@pytest.mark.parametrize("q", [5, 7, 8, 9])
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_gamma_verifies_over_fields_the_suite_never_builds(q, data):
    """The acceptance suite draws q from {2, 3, 4}; these are the others."""
    amb = data.draw(st.sampled_from(_small_ambients(q)))
    orbs = orbits(amb)
    picked = data.draw(st.lists(st.booleans(), min_size=len(orbs),
                                max_size=len(orbs)))
    D = DefiningSet(amb, frozenset(
        t for orb, keep in zip(orbs, picked) if keep for t in orb))
    cs = build_gamma(D)
    assert len(cs) == len(D)
    assert verify_check_positions(AbelianCode(D), cs)
    for seed in data.draw(st.lists(st.integers(0, 2**32), min_size=2, max_size=2)):
        assert build_gamma(D, rng=random.Random(seed)).positions == cs.positions


# ---------- minimum distance ----------


@pytest.mark.parametrize("D,expect,methods", [
    (HAMMING, 3, ("gray", "full", "bz")),
    (GOLAY3, 5, ("full", "bz")),
    (QUARTIC, 3, ("full", "bz")),
    (TWO_AXIS, None, ("gray", "full", "bz")),
])
def test_min_distance_methods_agree(D, expect, methods):
    code = AbelianCode(D)
    results = {}
    for method in methods:
        res = min_distance(code, method=method)
        assert res.is_exact
        results[method] = res.value
        assert res.witness is not None
        w = int(np.count_nonzero(res.witness))
        assert w == res.value
        assert contains(code, res.witness)
    values = set(results.values())
    assert len(values) == 1
    if expect is not None:
        assert values == {expect}


def test_min_distance_auto_dispatch():
    assert min_distance(AbelianCode(HAMMING)).method == "gray"
    assert min_distance(AbelianCode(GOLAY3)).method == "full"


def test_min_distance_rejects_zero_code():
    amb = Ambient(2, (7,))
    code = AbelianCode(DefiningSet(amb, frozenset(amb.positions())))
    with pytest.raises(ValueError):
        min_distance(code)
    with pytest.raises(ValueError):
        min_distance(AbelianCode(HAMMING), method="nope")
    with pytest.raises(ValueError, match="Gray-code enumeration requires q = 2"):
        min_distance(AbelianCode(GOLAY3), method="gray")


@pytest.mark.parametrize("method", ["auto", "gray", "full", "bz"])
def test_min_distance_refuses_a_negative_budget(method):
    with pytest.raises(ValueError, match="^budget must be non-negative, not -1$"):
        min_distance(AbelianCode(HAMMING), budget=-1, method=method)


def test_gray_budget_gives_bracket():
    amb = Ambient(2, (5, 9))
    code = AbelianCode(from_orbit_reps(amb, [(1, 2), (1, 6)]))  # k = 29
    res = min_distance(code, method="gray", budget=1 << 21)
    assert not res.is_exact
    assert res.lower == 1
    assert 1 < res.upper <= 45
    with pytest.raises(ValueError):
        _ = res.value
    if res.witness is not None:
        assert int(np.count_nonzero(res.witness)) == res.upper
        assert contains(code, res.witness)


def test_distance_at_least():
    code = AbelianCode(HAMMING)
    assert distance_at_least(code, 1)
    assert distance_at_least(code, 3)
    assert not distance_at_least(code, 4)
    golay = AbelianCode(GOLAY3)
    assert distance_at_least(golay, 5)
    assert not distance_at_least(golay, 6)


def test_distance_at_least_via_decision_procedure():
    amb = Ambient(2, (5, 9))
    code = AbelianCode(from_orbit_reps(amb, [(1, 2), (1, 6)]))  # d = 5
    assert distance_at_least(code, 5)
    assert not distance_at_least(code, 6)


def test_distance_decision_past_its_budget_is_refused():
    # [85, 48] over F_3: d >= 8 is decided within the budget, d >= 9 would
    # need every combination of four rows, 3.1 million more evaluations
    code = AbelianCode(from_orbit_reps(Ambient(3, (17, 5, 1)), [
        (0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 3, 0)]))
    assert distance_at_least(code, 8)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"deciding d\\(C\\) > 8 takes more than "
                                         f"{abcode.code._DECIDE_BUDGET} evaluations"):
        distance_at_least(code, 9)
    assert time.perf_counter() - start < 20


def test_distance_at_least_nonbinary_beyond_weight_five():
    code = AbelianCode(C358)
    assert distance_at_least(code, 10)
    assert not distance_at_least(code, 11)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_distance_at_least_is_the_negated_low_weight_search(q):
    # one decision answers both questions, for every d from below 1 to
    # past the length, and it agrees with full enumeration
    rng = random.Random(44)
    trials = 0
    while trials < 10:
        r = tuple(rng.choice([v for v in range(1, 14) if math.gcd(v, q) == 1])
                  for _ in range(rng.randint(1, 2)))
        amb = Ambient(q, r)
        members = frozenset(m for o in orbits(amb) if rng.random() < 0.5 for m in o)
        code = AbelianCode(DefiningSet(amb, members))
        if not 3 <= amb.length <= 30 or q**code.dimension > 1 << 12:
            continue
        l = amb.length
        upper = min_distance(code, method="full").upper if code.dimension else l + 3
        for d in range(-1, l + 3):
            assert (distance_at_least(code, d)
                    == (find_low_weight_codeword(code, d - 1) is None)
                    == (d <= upper)), (code, d)
        trials += 1


@pytest.mark.parametrize("q", [2, 3, 4])
def test_distance_at_least_matches_full(q):
    rng = random.Random(43)
    trials = 0
    while trials < 8:
        r = tuple(rng.choice([v for v in range(2, 14) if math.gcd(v, q) == 1])
                  for _ in range(rng.randint(1, 2)))
        amb = Ambient(q, r)
        if amb.length > 30:
            continue
        members = frozenset(m for o in orbits(amb) if rng.random() < 0.5 for m in o)
        code = AbelianCode(DefiningSet(amb, members))
        if not 0 < code.dimension or q**code.dimension > 1 << 14:
            continue
        upper = min_distance(code, method="full").upper
        for d in range(2, 7):
            assert distance_at_least(code, d) == (upper >= d)
        bz = min_distance(code, method="bz")
        assert bz.is_exact and bz.value == upper
        assert int(np.count_nonzero(bz.witness)) == upper
        assert contains(code, bz.witness)
        trials += 1


# (code, method) -> (lower, upper, method, evaluations, witness) of
# min_distance, pinned so that any change to the row reduction or to the
# enumeration order shows up as a changed witness or evaluation count
PINNED_DISTANCES = {
    ("HAMMING", "auto"): (3, 3, "gray", 16, "1101000"),
    ("HAMMING", "gray"): (3, 3, "gray", 16, "1101000"),
    ("HAMMING", "full"): (3, 3, "full", 16, "1101000"),
    ("HAMMING", "bz"): (3, 3, "bz", 4, "1000110"),
    ("GOLAY3", "auto"): (5, 5, "full", 729, "20121100000"),
    ("GOLAY3", "full"): (5, 5, "full", 729, "20121100000"),
    ("GOLAY3", "bz"): (5, 5, "bz", 72, "10000020121"),
    ("QUARTIC", "auto"): (3, 3, "full", 64, "13100"),
    ("QUARTIC", "full"): (3, 3, "full", 64, "13100"),
    ("QUARTIC", "bz"): (3, 3, "bz", 9, "10013"),
    ("TWO_AXIS", "auto"): (7, 7, "gray", 64, "111111100000000000000"),
    ("TWO_AXIS", "gray"): (7, 7, "gray", 64, "111111100000000000000"),
    ("TWO_AXIS", "full"): (7, 7, "full", 64, "111111100000000000000"),
    ("TWO_AXIS", "bz"): (7, 7, "bz", 6, "000000011111110000000"),
    ("C345", "bz"): (4, 4, "bz", 24, "10002000000000020001"),
    ("C345", "full"): (4, 4, "full", 531441, "12000210000000000000"),
    ("C358", "bz"): (10, 10, "bz", 4090,
                     "0100010000010001000100010100010000200020"),
    ("C457", "bz"): (10, 10, "bz", 10689,
                     "00001100000110000011000001100000110"),
    ("C59", "gray"): (5, 5, "gray", 1 << 29,
                      "100000000100000000100000000100000000100000000"),
    ("C59", "bz"): (5, 5, "bz", 4089,
                    "100000000100000000000000100000100000000000100"),
    ("C513", "bz"): (8, 8, "bz", 10700,
                     "01000000000000000000000000000000000000001000000110010000000011001"),
    ("C77", "auto"): (8, 8, "gray", 1 << 27,
                      "0010111101110000000000000000000000000000000000000"),
}


@pytest.mark.parametrize("name,method", sorted(PINNED_DISTANCES))
def test_min_distance_outputs_pinned(name, method):
    res = min_distance(AbelianCode(NAMED[name]), method=method)
    wit = "".join(str(int(v)) for v in res.witness)
    got = (res.lower, res.upper, res.method, res.evaluations, wit)
    assert got == PINNED_DISTANCES[name, method]


BUDGETS = (0, 1, 2, 5, 10, 30, 100, 300, 10**3, 3 * 10**3, 10**4, 10**5)
BRACKET_CASES = [(name, method, d)
                 for name, d in (("HAMMING", 3), ("TWO_AXIS", 7), ("C9", 3),
                                 ("C315", 6))
                 for method in ("gray", "bz")] + \
                [("GOLAY3", "bz", 5), ("QUARTIC", "bz", 3), ("C345", "bz", 4)] + \
                [(name, "full", d) for name, d in (("HAMMING", 3), ("TWO_AXIS", 7),
                                                   ("GOLAY3", 5), ("QUARTIC", 3))]


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("name,method,d", BRACKET_CASES)
def test_budget_bracket_is_sound(name, method, d, budget):
    code = AbelianCode(NAMED[name])
    res = min_distance(code, budget=budget, method=method)
    assert res.lower <= d <= res.upper
    if res.witness is None:
        assert res.upper == code.length
    else:
        assert int(np.count_nonzero(res.witness)) == res.upper
        assert contains(code, res.witness)
    if res.is_exact:
        assert res.lower == res.upper == d
    if method == "gray":
        assert res.evaluations <= max(budget, 2)
    if method == "full":
        # all q^k messages or none: a budget below q^k expands nothing
        assert res.evaluations <= budget
        assert res.is_exact == (code.ambient.q ** code.dimension <= budget)


def gray_min_direct(rows, l, budget=None, minima=None):
    """The Gray sweep that scans the whole table on every step; each step's
    minimum is appended to minima when it is given."""
    k = len(rows)
    split = min(k, 20)
    if budget is not None:
        split = min(split, max(1, budget.bit_length() - 1))
    nch = (l + 63) // 64
    mask64 = (1 << 64) - 1
    tabs = []
    for c in range(nch):
        t = np.zeros(1, dtype=np.uint64)
        for row in rows[:split]:
            t = np.concatenate([t, t ^ np.uint64((row >> (64 * c)) & mask64)])
        tabs.append(t)
    best, bw, evals, hi = l + 1, None, 0, 0
    for step in range(1 << (k - split)):
        if budget is not None and evals + (1 << split) > budget:
            return (best if bw is not None else l), bw, evals, False
        if step:
            hi ^= rows[split + (step & -step).bit_length() - 1]
        acc = sum(np.bitwise_count(tabs[c] ^ np.uint64((hi >> (64 * c)) & mask64))
                  .astype(np.uint32) for c in range(nch))
        if hi == 0:
            acc[0] = l + 1
        i = int(np.argmin(acc))
        if minima is not None:
            minima.append(int(acc[i]))
        if acc[i] < best:
            best = int(acc[i])
            bw = hi ^ sum(int(tabs[c][i]) << (64 * c) for c in range(nch))
        evals += 1 << split
    return best, bw, evals, True


def gray_ints(rows, l, budget=None):
    """_gray_min on int rows (bit j = column j), in gray_min_direct's form:
    (weight, witness int or None, evaluations, whole sweep).  The engine's
    lower bound is checked on the way: the weight after a whole sweep, 1
    otherwise."""
    G = MatrixGF(scalar_field(2), abcode.gf._unpack_rows(rows, l))
    lower, upper, wit, evals = abcode.code._gray_min(G, budget)
    whole = evals == 1 << len(rows)
    assert lower == (upper if whole else 1)
    if wit is None:
        return upper, None, evals, whole
    assert wit.dtype == G.data.dtype
    return upper, MatrixGF(G.field, [wit]).row_ints()[0], evals, whole


def shared_columns(rows, split=20):
    """Mask of the columns where a tabulated and a walked row both have a 1."""
    low = high = 0
    for row in rows[:split]:
        low |= row
    for row in rows[split:]:
        high |= row
    return low & high


def recombined(rows, rng):
    """The rows times a random invertible matrix, as row additions."""
    rows = list(rows)
    for _ in range(8 * len(rows)):
        i, j = rng.sample(range(len(rows)), 2)
        rows[i] ^= rows[j]
    return rows


GRAY_BUDGETS = BUDGETS + ((1 << 21) - 1, 1 << 21, (1 << 21) + 1, None)


def lifted(rows, rng):
    """Each of the first 20 rows plus a random subset of the later rows."""
    rows = list(rows)
    for i in range(20):
        for j in range(20, len(rows)):
            if rng.random() < 0.5:
                rows[i] ^= rows[j]
    return rows


@pytest.fixture(scope="module")
def gray_cases():
    """Random binary abelian codes with k = 21, ..., 26 whose generator
    rows the sweep screens, each with a recombination of the rows that
    shares 20 or more columns at every cut, so it does not.

    The k = 25 and 26 rows are whole sweeps screened at the k // 2 cut; the
    k = 25 rows are lifted so that step 0 holds no minimum word and the
    first minimum of Gray order is not the first of binary order.  A last
    case screens past the k // 2 cut: the k = 21 rows with the rows 10..19
    added to the rows below 10, so that the cuts 10, 11 and 12 share 20
    columns or more and cut 13 shares 19.
    """
    rng = random.Random(13)
    cases = []
    for k, r in zip((21, 22, 23, 24, 26), ((33,), (35,), (7, 5), (3, 13), (39,))):
        amb = Ambient(2, r)
        orbs = orbits(amb)
        for _ in range(200):
            code = AbelianCode(DefiningSet(amb, frozenset(
                t for orb in orbs if rng.random() < 0.5 for t in orb)))
            if code.dimension != k:
                continue
            rows = generator_matrix(code).row_ints()
            mixed = recombined(rows, rng)
            if shared_columns(rows).bit_count() < 20 <= shared_columns(mixed).bit_count():
                cases.append((code, rows, mixed))
                break
    code = AbelianCode(from_orbit_reps(Ambient(2, (3, 13)), [(1, 0), (1, 1)]))
    rows = lifted(generator_matrix(code).row_ints(), random.Random(10))
    cases.insert(4, (code, rows, recombined(rows, rng)))
    code, rows, mixed = cases[0]
    cases.append((code, [row ^ rows[10 + i] if i < 10 else row
                         for i, row in enumerate(rows)], mixed))
    assert [len(rows) for _, rows, _ in cases] == [21, 22, 23, 24, 25, 26, 21]
    for i, (_, rows, mixed) in enumerate(cases):
        k = len(rows)
        assert shared_columns(rows, k // 2).bit_count() < 20 or i == 6
        assert shared_columns(rows).bit_count() < 20
        assert min(shared_columns(mixed, c).bit_count() for c in range(k // 2, 21)) >= 20
    assert [shared_columns(cases[6][1], c).bit_count() for c in range(10, 14)] == [22, 21, 20, 19]
    return cases


def test_gray_screen_matches_direct_scan(gray_cases):
    # some case has its first minimum word past step 0 and a tie in a
    # later step, ordered otherwise by the steps' combinations: a join
    # that keeps the last tie, or walks rows 20.. in binary order, returns
    # another witness there
    reordered = 0
    for code, rows, mixed in gray_cases:
        l = code.length
        for budget in GRAY_BUDGETS:
            for r in (rows, mixed):
                minima = []
                want = gray_min_direct(r, l, budget, minima)
                assert gray_ints(r, l, budget) == want
                if budget is None and r is rows:
                    ties = [s for s, m in enumerate(minima) if m == want[0]]
                    reordered += ties[0] != min(ties, key=lambda s: s ^ (s >> 1))
                    d = want[0]
        assert d == min_distance(code, method="bz").value
    assert reordered


def test_gray_walk_in_blocks(monkeypatch):
    # systematic rows with 19 random bits each past the identity, where the
    # walked rows of a Gray step sum to a lightest word: steps 12 and 24,
    # in odd blocks of four steps, at k = 25, so that a join keeping the
    # last tie takes step 24; step 9, in an odd block of eight and just
    # past a budget of 9 steps, at k = 26.  Walked in small blocks, odd ones
    # reversed and the last cut short under the budget, the sweep gives
    # what one block gives, and that is the direct scan's
    rng = random.Random(17)
    for k, steps in ((25, (12, 24)), (26, (9,))):
        rows = [1 << i | rng.getrandbits(19) << k for i in range(k)]
        planted = []
        for step in steps:
            walked = [20 + j for j in range(k - 20) if (step ^ step >> 1) >> j & 1]
            rest = 0
            for i in walked[:-1]:
                rest ^= rows[i] >> k
            rows[walked[-1]] = 1 << walked[-1] | rest << k
            planted.append(sum(1 << i for i in walked))
        l = k + 19
        want = [gray_ints(rows, l, b) for b in (None, 10**7)]
        assert want[0] == (planted[0].bit_count(), planted[0], 1 << k, True)
        assert want[1] == gray_min_direct(rows, l, 10**7)
        for block in (4, 1024):
            monkeypatch.setattr(abcode.code, "_WALK_BLOCK", block)
            assert [gray_ints(rows, l, b) for b in (None, 10**7)] == want
            monkeypatch.undo()


def gray_cuts(monkeypatch, rows, l):
    """The whole sweep's result and the cuts its screened sweeps ran at."""
    cuts = []
    screened = abcode.code._screened_sweep

    def spy(bits, cut, split, steps):
        cuts.append(cut)
        return screened(bits, cut, split, steps)

    monkeypatch.setattr(abcode.code, "_screened_sweep", spy)
    try:
        return gray_ints(rows, l), cuts
    finally:
        monkeypatch.undo()


def test_gray_whole_sweep_cuts_at_the_first_cut_sharing_under_20(monkeypatch, gray_cases):
    # C77 (k = 27) shares 20 columns at the cuts 13, 14 and 16..20 and 19 at
    # cut 15, so its whole sweep screens at 15 and returns what scanning the
    # table on every step returns (pinned in PINNED_DISTANCES);
    # gray_cases[6] screens at 13
    rows = generator_matrix(AbelianCode(C77)).row_ints()
    assert [shared_columns(rows, c).bit_count() for c in range(13, 21)] == \
        [20, 20, 19, 20, 20, 20, 20, 20]
    assert gray_cuts(monkeypatch, rows, 49) == ((8, 3828, 1 << 27, True), [15])
    code, rows, _ = gray_cases[6]
    assert gray_cuts(monkeypatch, rows, code.length) == \
        (gray_min_direct(rows, code.length), [13])
    # every cut from k // 2 to 19 shares row 19's 26 columns, which row 0
    # carries too; the 20-row cut shares row 20's at most 5 check columns
    rng = random.Random(29)
    rows = [1 << i | rng.getrandbits(30) << 21 for i in range(21)]
    rows[19] = 1 << 19 | ((1 << 25) - 1) << 21
    rows[0] ^= rows[19]
    rows[20] = 1 << 20 | rng.getrandbits(5) << 21
    assert min(shared_columns(rows, c).bit_count() for c in range(10, 20)) >= 20
    assert gray_cuts(monkeypatch, rows, 51) == (gray_min_direct(rows, 51), [20])
    # the recombined k = 21 rows share 20 columns or more at every cut, so
    # the sweep runs at cut 0, which holds only the zero word
    code, _, mixed = gray_cases[0]
    assert gray_cuts(monkeypatch, mixed, code.length) == \
        (gray_min_direct(mixed, code.length), [0])


def test_gray_screen_past_64_columns():
    # random systematic codes: row i has a 1 in column i and 18 random bits
    # in columns 50..67, across bit 64.  Their minimum often falls on a
    # walked step, on a word that needs a nonzero table entry, where only
    # the screen sees it
    rng = random.Random(5)
    on_the_screen = 0
    for k in (21, 22, 23, 24, 24, 24):
        rows = [1 << i | rng.getrandbits(18) << 50 for i in range(k)]
        shared = shared_columns(rows)
        assert shared.bit_count() < 20 and shared >> 64
        for budget in GRAY_BUDGETS:
            got = gray_ints(rows, 68, budget)
            assert got == gray_min_direct(rows, 68, budget)
        # only row i has a 1 in column i: bits 0..19 of the witness name its
        # table rows, bits 20.. its walked rows
        on_the_screen += bool(got[1] & 0xFFFFF and got[1] >> 20 & 0xF)
    assert on_the_screen >= 2


def test_gray_screen_with_patterns_no_entry_has(gray_cases):
    # each code written twice, the copy 60 columns on: every shared column
    # has a twin, so most patterns of S bits occur in no table entry.  The
    # k = 21..24 generators only: twinned, the later cases screen at no cut
    screened = 0
    for code, rows, _ in gray_cases[:4]:
        l = code.length + 60
        rows = [row | row << 60 for row in rows]
        shared = shared_columns(rows)
        screened += shared.bit_count() < 20
        for budget in GRAY_BUDGETS:
            got = gray_ints(rows, l, budget)
            assert got == gray_min_direct(rows, l, budget)
        assert got[0] == 2 * min_distance(code, method="bz").value
    assert screened >= 2


def test_gray_screen_past_254_columns(monkeypatch):
    # systematic rows with 16 random bits in columns 238..253, at l = 254,
    # the least l whose l + 2 needs uint16; the 2^11 or 2^12 table entries
    # of a whole sweep leave most of the 2^|S| patterns empty, so a type
    # holding only l + 1 would wrap their l + 1 + 1 to 0
    rng = random.Random(23)
    screens = []
    screen = abcode.code._screen

    def spy(x, off, s, l):
        dist = screen(x, off, s, l)
        screens.append((dist.dtype, s, len(np.unique(x)) < 1 << s))
        return dist

    monkeypatch.setattr(abcode.code, "_screen", spy)
    for k in (22, 24):
        rows = [1 << i | rng.getrandbits(16) << 238 for i in range(k)]
        for budget in (None, (1 << 21) + 1, 10**5):
            assert gray_ints(rows, 254, budget) == gray_min_direct(rows, 254, budget)
    assert (np.uint16, 16, True) in screens


def screen_direct(x, off, s):
    """The screen by its definition: for every y < 2^s, the least
    off[i] + wt(x[i] ^ y) over the table entries i."""
    return [int((off + np.bitwise_count(x ^ y)).min()) for y in range(1 << s)]


def test_screen_matches_its_definition():
    # random table patterns x, drawn with repeats so that many patterns
    # occur in no entry, and random off with off + s <= l, over |S| = 0..12:
    # levels on both sides of the transposed copy's split, and l on both
    # sides of 254, where dist outgrows uint8.  At l = 254 a type holding
    # only l + 1 wraps l + 1 + 1 to 0 on a pattern no entry has
    rng = np.random.default_rng(41)
    low = abcode.code._LOW_LEVELS
    assert 0 < low < 12
    dtypes = set()
    missing = 0
    for s in range(13):
        for l in (s, s + 1 + int(rng.integers(40)), 253, 254, 255, 300):
            n = int(rng.integers(1, (1 << s) + 2))
            x = rng.integers(0, 1 << s, n).astype(np.int64)
            off = rng.integers(0, l - s + 1, n).astype(np.int32)
            dist = abcode.code._screen(x, off, s, l)
            assert dist.tolist() == screen_direct(x, off, s)
            assert dist.dtype == np.min_scalar_type(l + 2)
            dtypes.add(dist.dtype)
            missing += len(np.unique(x)) < 1 << s
    assert dtypes == {np.dtype(np.uint8), np.dtype(np.uint16)}
    assert missing >= 40


def full_min_direct(G):
    """Every message sum_j c_j row_j, in index order sum_j c_j q^j, with the
    first nonzero word of least weight; sums and products read tables built
    from the Labels oracle."""
    lab = Labels(G.field)
    q = G.field.q
    k, l = G.shape
    add = np.array([[lab.add(a, b) for b in range(q)] for a in range(q)])
    mul = np.array([[lab.mul(a, b) for b in range(q)] for a in range(q)])
    best, wit = l + 1, None
    for digits in itertools.product(range(q), repeat=k):
        word = np.zeros(l, dtype=np.int64)
        for c, row in zip(reversed(digits), G.data):
            word = add[word, mul[c, row]]
        wt = int(np.count_nonzero(word))
        if 0 < wt < best:
            best, wit = wt, word
    return best, best, wit, q**k


def full_codes(q, rng):
    """The k = 1 code of a random ambient (D: all but the zero orbit), and
    two random codes of odd and two of even k, with q^k <= 1500."""
    r = tuple(rng.choice([v for v in range(2, 12) if math.gcd(v, q) == 1])
              for _ in range(2))
    amb = Ambient(q, r)
    codes = [AbelianCode(DefiningSet(amb, frozenset(amb.positions()[1:])))]
    parities = [0, 0]
    while parities != [2, 2]:
        r = tuple(rng.choice([v for v in range(2, 14) if math.gcd(v, q) == 1])
                  for _ in range(rng.randint(1, 2)))
        amb = Ambient(q, r)
        if amb.length > 30:
            continue
        code = AbelianCode(DefiningSet(amb, frozenset(
            m for o in orbits(amb) if rng.random() < 0.5 for m in o)))
        k = code.dimension
        if 2 <= k and q**k <= 1500 and parities[k % 2] < 2:
            parities[k % 2] += 1
            codes.append(code)
    return codes


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_full_enumeration_matches_direct(q):
    codes = full_codes(q, random.Random(47 + q))
    if q == 4:
        # l = 255 needs a weight dtype wider than a byte, for l + 1
        amb = Ambient(4, (255,))
        codes.append(AbelianCode(DefiningSet(amb, frozenset(
            m for o in orbits(amb)[2:] for m in o))))
    assert {code.dimension % 2 for code in codes} == {0, 1}
    assert min(code.dimension for code in codes) == 1
    for code in codes:
        G = generator_matrix(code)
        want = full_min_direct(G)
        for budget in (None, G.field.q ** code.dimension):
            lower, upper, wit, evals = abcode.code._full_min(G, budget)
            assert (lower, upper, evals) == (want[0], want[1], want[3])
            assert wit.dtype == G.data.dtype
            assert wit.tolist() == want[2].tolist()
        assert abcode.code._full_min(G, want[3] - 1) == (1, code.length, None, 0)


def test_full_enumeration_is_sized_by_its_halves():
    # (3;26,28) with D every orbit but those of (0,1) and (0,2): k = 12,
    # l = 728, so the 3^12 messages would hold 3.9e8 labels, more than
    # 2^28, while the halves hold 2 * 3^6 words
    amb = Ambient(3, (26, 28))
    kept = set(qorbit(amb, (0, 1))) | set(qorbit(amb, (0, 2)))
    code = AbelianCode(DefiningSet(amb, frozenset(
        t for t in amb.positions() if t not in kept)))
    assert (code.dimension, code.length) == (12, 728)
    res = min_distance(code)
    assert res.method == "full" and res.is_exact
    assert res.value == min_distance(code, method="bz").value == 208
    assert int(np.count_nonzero(res.witness)) == 208
    assert contains(code, res.witness)


def test_full_enumeration_refuses_halves_past_the_cap(monkeypatch):
    # the cap admits every code whose q^k messages fit in 2^28 labels, up
    # to the k = 1 halves of q + 1 words
    for q in FIELD_SIZES + (16, 256):
        for k in range(1, 29):
            h = k // 2
            assert (q**h + q**(k - h)) * ((1 << 28) // q**k) <= \
                abcode.code._FULL_HALVES_LIMIT
    # (3;40) with |D| = 11, k = 29: the halves would hold 7.7e8 labels;
    # the refusal comes before any of them is built
    amb = Ambient(3, (40,))
    orbs = orbits(amb)
    code = AbelianCode(DefiningSet(amb, frozenset(
        m for o in (orbs[0], orbs[1], orbs[2], orbs[4]) for m in o)))
    assert code.dimension == 29
    generator_matrix(code)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds the memory budget"):
            min_distance(code, method="full")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 22
    # the cap counts (q^h + q^(k - h)) l labels, q + 1 words at k = 1
    repetition = full_codes(3, random.Random(50))[0]
    assert repetition.dimension == 1
    for code in (AbelianCode(HAMMING), AbelianCode(GOLAY3), repetition):
        q, k, l = code.ambient.q, code.dimension, code.length
        halves = (q**(k // 2) + q**(k - k // 2)) * l
        monkeypatch.setattr(abcode.code, "_FULL_HALVES_LIMIT", halves)
        assert min_distance(code, method="full").is_exact
        monkeypatch.setattr(abcode.code, "_FULL_HALVES_LIMIT", halves - 1)
        with pytest.raises(ValueError, match="exceeds the memory budget"):
            min_distance(code, method="full")


def bits_min_direct(rows, w, best):
    """One XOR per prefix of int rows, recursively, in lexicographic order:
    the first nonzero sum lighter than best, as (weight, int), or
    (best, None)."""
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


def labels_min_direct(f, multiples, w, best):
    """One f.add per (row, scalar) prefix, recursively, in lexicographic
    order: the first nonzero sum lighter than best, as (weight, labels),
    or (best, None)."""
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


def weight_w_direct(f, rows, w, best):
    """bits_min_direct on the rows as ints for q = 2, labels_min_direct on
    their nonzero multiples otherwise; the witness as a list of labels."""
    l = rows.shape[1]
    if f.q == 2:
        best, wit = bits_min_direct(
            [sum(int(v) << j for j, v in enumerate(row)) for row in rows], w, best)
        return best, None if wit is None else [wit >> j & 1 for j in range(l)]
    nonzero = np.arange(1, f.q, dtype=f.dtype)[:, None]
    best, wit = labels_min_direct(f, f.mul(rows[:, None, :], nonzero), w, best)
    return best, None if wit is None else wit.tolist()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_weight_w_scan_matches_the_recursive_walk(monkeypatch, q):
    # random rows, in some of them a nonzero row twice, so that sums of two
    # rows vanish; binary rows also 60 to 131 columns wide, on both sides of
    # one and two 64-bit words; blocks of one combination, of a few and of
    # the default size
    rng = np.random.default_rng(q)
    amb = Ambient(q, (1,))
    f = ScalarField(build_context(amb.p, amb.s, 1))
    found = repeated = wide = 0
    for _ in range(16 if q > 2 else 32):
        k, l = int(rng.integers(1, 7 if q > 2 else 9)), int(rng.integers(1, 9))
        if q == 2 and rng.random() < 0.5:
            l += int(rng.choice((59, 123)))
        rows = rng.integers(0, q, size=(k, l)).astype(f.dtype)
        if k > 2 and rng.random() < 0.5:
            rows[int(rng.integers(1, k))] = rows[0]
            repeated += bool(rows[0].any())
        vals, m, combine, weight, labels = abcode.code._scan_items(f, rows)
        few = 4 * (vals.shape[1] * vals.itemsize + 32)
        for w in range(k + 2):
            if math.comb(k, w) * (q - 1) ** w > 500:
                continue
            for best in (l + 1, int(rng.integers(1, 4))):
                want = weight_w_direct(f, rows, w, best)
                found += want[1] is not None and w > 1
                wide += want[1] is not None and w > 1 and l > 64
                for block in (1, few, None):
                    if block is not None:
                        monkeypatch.setattr(abcode.code, "_COMBO_BLOCK", block)
                    got = abcode.code._weight_w_min(vals, m, combine, weight, w, best)
                    monkeypatch.undo()
                    assert got[0] == want[0]
                    assert (got[1] is None) == (want[1] is None)
                    if got[1] is not None:
                        wit = labels(got[1])
                        assert wit.dtype == f.dtype
                        assert wit.tolist() == want[1]
    assert found >= 10 and repeated >= 2
    assert q > 2 or wide >= 20


def test_translate_bound_moves_the_bracket():
    # nothing enumerated: every nonzero word meets each of the 11 translates
    # of the 6-point information set, so 6 d >= 11 and d >= 2
    res = min_distance(AbelianCode(GOLAY3), budget=1, method="bz")
    assert (res.lower, res.upper, res.witness, res.evaluations) == (2, 11, None, 0)


# ---------- low weight search ----------


def test_find_low_weight_on_known_codes():
    code = AbelianCode(HAMMING)
    assert find_low_weight_codeword(code, 1) is None
    assert find_low_weight_codeword(code, 2) is None
    w3 = find_low_weight_codeword(code, 3)
    assert w3 is not None
    assert int(np.count_nonzero(w3)) == 3
    assert contains(code, w3)


def test_find_low_weight_weight_two_binary():
    # repeated parity columns give X^j - X^i codewords
    amb = Ambient(2, (15,))
    code = AbelianCode(from_orbit_reps(amb, [(5,)]))
    w = find_low_weight_codeword(code, 2)
    assert w is not None
    assert int(np.count_nonzero(w)) == 2
    assert contains(code, w)


def test_find_low_weight_weight_two_nonbinary():
    amb = Ambient(3, (4,))
    code = AbelianCode(validate_defining_set(amb, {(2,)}))
    w = find_low_weight_codeword(code, 2)
    assert w is not None
    assert int(np.count_nonzero(w)) == 2
    assert contains(code, w)


@pytest.mark.parametrize("q", [2, 3])
def test_find_low_weight_agrees_with_distance(q):
    rng = random.Random(37)
    trials = 0
    while trials < 8:
        while True:
            r = rng.randint(3, 13)
            if math.gcd(r, q) == 1:
                break
        amb = Ambient(q, (r,))
        orbs = orbits(amb)
        picked = [o for o in orbs if rng.random() < 0.5]
        if not picked or sum(len(o) for o in picked) == amb.length:
            continue
        code = AbelianCode(DefiningSet(amb, frozenset(m for o in picked for m in o)))
        d = min_distance(code, method="full").value
        for wmax in range(1, 5):
            found = find_low_weight_codeword(code, wmax)
            if wmax < d:
                assert found is None
            else:
                assert found is not None
                assert 0 < int(np.count_nonzero(found)) <= wmax
                assert contains(code, found)
        trials += 1


# ---------- systematic encoding ----------


@pytest.mark.parametrize("D", [HAMMING, GOLAY3, TWO_AXIS])
def test_standard_form_identity_block(D):
    code = AbelianCode(D)
    cs = build_gamma(D)
    H_std, cols = standard_form_parity(code, cs)
    assert cols == sorted(code.ambient.index_of(t) for t in cs.positions)
    block = H_std.data[:, cols]
    assert np.array_equal(block, np.eye(len(cols), dtype=block.dtype))
    # same row space as the plain parity matrix
    sf = code.scalars
    stacked = MatrixGF(sf, np.vstack([H_std.data, parity_matrix(code).data]))
    assert stacked.rank() == len(D)


@pytest.mark.parametrize("D", [HAMMING, GOLAY3, TWO_AXIS])
def test_encode_roundtrip(D):
    code = AbelianCode(D)
    cs = build_gamma(D)
    info = sorted(cs.complement())
    rng = random.Random(38)
    for _ in range(10):
        message = {pos: rng.randrange(code.scalars.q) for pos in info}
        y = encode(code, cs, message)
        assert contains(code, y)
        for pos, val in message.items():
            assert int(y[code.ambient.index_of(pos)]) == val


def test_encode_rejects_bad_input():
    code = AbelianCode(HAMMING)
    cs = build_gamma(HAMMING)
    check_pos = cs.sorted_positions()[0]
    with pytest.raises(ValueError):
        encode(code, cs, {check_pos: 1})
    info_pos = sorted(cs.complement())[0]
    with pytest.raises(ValueError):
        encode(code, cs, {info_pos: 2})


def test_encode_labels_past_255():
    # an empty defining set has no check columns to take a dtype from
    amb = Ambient(257, (2,))
    D = DefiningSet(amb, frozenset())
    y = encode(AbelianCode(D), build_gamma(D), {(0,): 256, (1,): 1})
    assert y.dtype == np.uint16
    assert y.tolist() == [256, 1]


def test_standard_form_requires_verified_positions():
    code = AbelianCode(HAMMING)
    too_few = CheckSet(code.ambient, (0,), frozenset({(0,), (1,)}))
    with pytest.raises(ValueError, match="cardinality"):
        standard_form_parity(code, too_few)
    # alpha^0 + alpha^1 = alpha^3 over F_8, so columns {0, 1, 3} are dependent
    dependent = CheckSet(code.ambient, (0,), frozenset({(0,), (1,), (3,)}))
    with pytest.raises(ValueError, match="rank"):
        standard_form_parity(code, dependent)
    with pytest.raises(ValueError, match="different ambient"):
        standard_form_parity(code, build_gamma(GOLAY3))
