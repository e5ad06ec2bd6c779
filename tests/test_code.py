"""Code layer: parity/generator matrices, verification, distance, encoding.

The linear algebra is checked against a naive row-reduction oracle written
here with scalar-by-scalar field operations.  Code membership is checked
through both routes (syndrome against the parity matrix, and direct root
evaluation) and the two must agree everywhere.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abcode.code
import abcode.orbit
from abcode.code import (AbelianCode, MatrixGF, check_tensor, contains,
                         distance_at_least, encode, find_low_weight_codeword,
                         generator_matrix, min_distance, parity_matrix,
                         standard_form_parity, verify_check_positions)
from abcode.gamma import CheckSet, build_gamma
from abcode.gf import (FieldError, ScalarField, build_context, root_of_unity,
                       subfield_coords)
from abcode.orbit import (Ambient, DefiningSet, frobenius_order,
                          from_orbit_reps, orbits, qorbit,
                          validate_defining_set)
from field_fixtures import Labels, elem_add, element

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
NAMED = {"HAMMING": HAMMING, "GOLAY3": GOLAY3, "QUARTIC": QUARTIC,
         "TWO_AXIS": TWO_AXIS, "C9": C9, "C315": C315, "C345": C345,
         "C358": C358, "C457": C457}


# ---------- naive linear algebra oracle ----------


def naive_rref(sf: ScalarField, data, col_order):
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
    return [row for row in rows if any(row)], pivots


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
                x = ctx.mul(x, ctx.pow(g, t))
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
                x = ctx.mul(x, ctx.pow(root, e * t % r))
            acc = elem_add(ctx, acc, x)
    return acc


FIELD_SIZES = (2, 3, 4, 5, 8, 9)


def scalar_field(q):
    p, s = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 8: (2, 3), 9: (3, 2)}[q]
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


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_rref_matches_naive(q):
    sf = scalar_field(q)
    rng = random.Random(31)
    for m, n in shapes(rng, 6, 8):
        data = random_matrix(rng, q, (m, n))
        cols = list(range(n))
        if rng.random() < 0.5:
            rng.shuffle(cols)
        M = MatrixGF(sf, data.copy())
        R, pivots = M.rref(col_order=cols)
        want_rows, want_pivots = naive_rref(sf, data, cols)
        assert list(pivots) == want_pivots
        assert M.rank() == len(want_pivots)
        got = [list(map(int, row)) for row in R.data if any(row)]
        assert got == want_rows
        # reduction is idempotent
        R2, p2 = R.rref(col_order=cols)
        assert np.array_equal(R2.data[:len(got)], R.data[:len(got)])
        assert list(p2) == want_pivots


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_nullspace_properties(q):
    sf = scalar_field(q)
    rng = random.Random(32)
    for m, n in shapes(rng, 5, 8):
        M = MatrixGF(sf, random_matrix(rng, q, (m, n)))
        N = M.nullspace()
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
        # with no pivot column allowed, rref packs and unpacks rows unchanged
        R, pivots = M.rref(col_order=[])
        assert pivots == []
        assert np.array_equal(R.data, data)


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


def test_field_past_64_bits_is_refused():
    # ord_67(2) = 66, so the roots of unity need F_{2^66}
    with pytest.raises(FieldError, match="64-bit"):
        AbelianCode(from_orbit_reps(Ambient(2, (67,)), [(1,)]))


def test_q_past_64_bits_is_refused_before_factoring(monkeypatch):
    # the ambient owns q's validity, so the refusal comes before any code
    def no_factoring(n):
        raise AssertionError(f"factored {n}")
    monkeypatch.setattr(abcode.orbit, "factorint", no_factoring)
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
    ("C358", "bz"): (10, 10, "bz", 4090,
                     "0100010000010001000100010100010000200020"),
    ("C457", "bz"): (10, 10, "bz", 10689,
                     "00001100000110000011000001100000110"),
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


def gray_min_direct(rows, l, budget=None):
    """The Gray sweep that scans the whole table on every step."""
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
        if acc[i] < best:
            best = int(acc[i])
            bw = hi ^ sum(int(tabs[c][i]) << (64 * c) for c in range(nch))
        evals += 1 << split
    return best, bw, evals, True


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


@pytest.fixture(scope="module")
def gray_cases():
    """Random binary abelian codes with k = 21, 22, 23, 24 whose generator
    rows share fewer than 20 columns, so the sweep screens them, each with a
    recombination of the rows that shares 20 or more, so it does not."""
    rng = random.Random(13)
    cases = []
    for k, r in zip(range(21, 25), ((33,), (35,), (7, 5), (3, 13))):
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
    assert len(cases) == 4
    return cases


def test_gray_screen_matches_direct_scan(gray_cases):
    for code, rows, mixed in gray_cases:
        l = code.length
        for budget in GRAY_BUDGETS:
            for r in (rows, mixed):
                want = gray_min_direct(r, l, budget)
                assert abcode.code._gray_min(r, l, budget) == want
        assert gray_min_direct(rows, l)[0] == min_distance(code, method="bz").value


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
            got = abcode.code._gray_min(rows, 68, budget)
            assert got == gray_min_direct(rows, 68, budget)
        # only row i has a 1 in column i: bits 0..19 of the witness name its
        # table rows, bits 20.. its walked rows
        on_the_screen += bool(got[1] & 0xFFFFF and got[1] >> 20 & 0xF)
    assert on_the_screen >= 2


def test_gray_screen_with_patterns_no_entry_has(gray_cases):
    # each code written twice, the copy 60 columns on: every shared column
    # has a twin, so most patterns of S bits occur in no table entry
    screened = 0
    for code, rows, _ in gray_cases:
        l = code.length + 60
        rows = [row | row << 60 for row in rows]
        shared = shared_columns(rows)
        screened += shared.bit_count() < 20
        for budget in GRAY_BUDGETS:
            got = abcode.code._gray_min(rows, l, budget)
            assert got == gray_min_direct(rows, l, budget)
        assert got[0] == 2 * min_distance(code, method="bz").value
    assert screened >= 2


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
