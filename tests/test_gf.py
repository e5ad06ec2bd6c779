"""Field layer: contexts, element arithmetic, subfield coordinates.

The oracles here are naive dense-polynomial routines written independently
of the implementation.  Frozen constants (moduli, generators) were derived
once from those oracles and are asserted verbatim; the oracle checks stay
in place so a regression points at the real culprit.
"""

import hashlib
import random

import numpy as np
import pytest

import abcode.gf as gf
from abcode.gf import (FieldContext, FieldError, ScalarField, build_context,
                       root_of_unity, subfield_coords)
from field_fixtures import Labels, elem_add, elem_mul, elem_neg, element

# ---------- naive polynomial oracles ----------


def poly_divides(d, f, p):
    """Whether monic d divides f over F_p, by naive long division."""
    rem = list(f)
    dd = len(d) - 1
    while len(rem) - 1 >= dd:
        c = rem[-1]
        if c:
            shift = len(rem) - 1 - dd
            for j in range(len(d)):
                rem[shift + j] = (rem[shift + j] - c * d[j]) % p
        rem.pop()
    return not any(rem)


def irreducible_naive(f, p):
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(f) - 1
    if f[0] == 0:
        return False
    for d in range(1, deg // 2 + 1):
        for enc in range(p**d):
            tail = enc
            cand = []
            for _ in range(d):
                cand.append(tail % p)
                tail //= p
            cand.append(1)
            if poly_divides(cand, f, p):
                return False
    return True


def naive_order(ctx, rep):
    """Multiplicative order by repeated multiplication."""
    acc = rep
    n = 1
    while acc != ctx.one:
        acc = elem_mul(ctx, acc, rep)
        n += 1
        assert n <= ctx.N
    return n


def encoding_to_digits(enc, p, deg):
    out = []
    for _ in range(deg):
        out.append(enc % p)
        enc //= p
    return out


# ---------- frozen deterministic choices ----------

# modulus = first monic irreducible of its degree in the integer-encoding
# order; derived with irreducible_naive and re-verified below
FROZEN_MODULI = {
    (2, 4): (1, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (3, 2): (1, 0, 1),
    (5, 2): (2, 0, 1),
}


@pytest.mark.parametrize("p,deg", sorted(FROZEN_MODULI))
def test_modulus_is_lowest_irreducible(p, deg):
    ctx = build_context(p, 1, deg)
    assert ctx.modulus == FROZEN_MODULI[(p, deg)]
    assert irreducible_naive(list(ctx.modulus), p)
    my_enc = sum(c * p**i for i, c in enumerate(ctx.modulus[:deg]))
    for enc in range(my_enc):
        cand = encoding_to_digits(enc, p, deg) + [1]
        assert not irreducible_naive(cand, p)


# the naive scan starts at encoding 1, so where deg = s * M >= 2 it also
# covers the constants of F_p, which the generator search skips
@pytest.mark.parametrize("p,s,M", [(2, 1, 4), (2, 2, 2), (3, 1, 2), (3, 2, 1), (5, 1, 2),
                                   (2, 1, 6), (3, 1, 3), (7, 1, 2), (11, 1, 2),
                                   (13, 1, 2), (3, 1, 1), (7, 1, 1)])
def test_generator_is_smallest_primitive(p, s, M):
    ctx = build_context(p, s, M)
    assert naive_order(ctx, ctx.generator_rep) == ctx.N
    g_enc = sum(c * p**i for i, c in enumerate(ctx.generator_rep))
    for enc in range(1, g_enc):
        assert naive_order(ctx, ctx.decode(enc)) < ctx.N


# encodings of the smallest primitive elements, pinned so that a change to
# the product or to the candidate order shows up as a different generator;
# 4093 is the largest prime the q <= 4096 policy admits, and its entry was
# checked against poly_mul_mod powers over the prime factors of 4093^2 - 1
FROZEN_GENERATORS = {
    (3, 1, 36): 5,
    (3, 1, 28): 12,
    (3, 1, 30): 3,
    (2, 1, 44): 7,
    (2, 2, 22): 7,
    (3, 1, 10): 34,
    (3, 1, 8): 38,
    (4093, 1, 2): 4103,  # x + 10: the 4 093 constants come first in the order
}


@pytest.mark.parametrize("p,s,M", sorted(FROZEN_GENERATORS))
def test_frozen_generators(p, s, M):
    ctx = build_context(p, s, M)
    assert (sum(c * p**i for i, c in enumerate(ctx.generator_rep))
            == FROZEN_GENERATORS[(p, s, M)])
    assert ctx.generator_rep == tuple(
        encoding_to_digits(FROZEN_GENERATORS[(p, s, M)], p, ctx.deg))


# moduli and generator encodings of extensions whose products use slots
# wider than one byte, as the list-polynomial search found them
WIDE_SLOT_PINS = {
    (5, 1, 16): ((2,) + (0,) * 15 + (1,), 6),
    (7, 1, 8): ((3, 1, 0, 0, 0, 0, 0, 0, 1), 7),
    (11, 1, 3): ((4, 1, 0, 1), 11),
    (13, 1, 2): ((2, 0, 1), 15),
}


@pytest.mark.parametrize("p,s,M", sorted(WIDE_SLOT_PINS))
def test_wide_slot_moduli_and_generators(p, s, M):
    ctx = build_context(p, s, M)
    modulus, gen_enc = WIDE_SLOT_PINS[(p, s, M)]
    assert ctx.modulus == modulus
    assert ctx.generator_rep == tuple(encoding_to_digits(gen_enc, p, ctx.deg))


# every context that criterion 06's 500 codes, the benchmark's certify codes
# and its CLI goldens build (the last two build a subset of the first)
SUITE_CONTEXTS = [
    (2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 6), (2, 1, 8),
    (2, 1, 10), (2, 1, 11), (2, 1, 12), (2, 1, 18), (2, 1, 22), (2, 1, 24),
    (2, 1, 28), (2, 1, 30), (2, 1, 36), (2, 1, 44), (2, 2, 1), (2, 2, 2),
    (2, 2, 3), (2, 2, 4), (2, 2, 5), (2, 2, 6), (2, 2, 9), (2, 2, 10),
    (2, 2, 11), (2, 2, 12), (2, 2, 14), (2, 2, 15), (2, 2, 18), (2, 2, 22),
    (3, 1, 1), (3, 1, 2), (3, 1, 3), (3, 1, 4), (3, 1, 5), (3, 1, 6),
    (3, 1, 8), (3, 1, 10), (3, 1, 11), (3, 1, 12), (3, 1, 16), (3, 1, 18),
    (3, 1, 20), (3, 1, 22), (3, 1, 28), (3, 1, 30), (3, 1, 36),
]
# recorded with the convolution product and the list-polynomial searches
SUITE_CONTEXT_DIGEST = "2a41ad25521352d8c01c854eb43d07a127c159ade666deed8f8f31e5783b765e"


def test_suite_contexts_are_pinned():
    h = hashlib.sha256()
    for p, s, M in SUITE_CONTEXTS:
        ctx = build_context(p, s, M)
        h.update(repr((p, s, M, ctx.modulus, ctx.generator_rep, ctx.eta())).encode())
    assert h.hexdigest() == SUITE_CONTEXT_DIGEST


# recorded before the subfield solver moved to the transposed basis
SUITE_TABLES_DIGEST = "0d498eddb713274fd4fb7690308d17b9028cb1a0d24f1eafe87993c936004e13"


def test_suite_scalar_tables_are_pinned():
    h = hashlib.sha256()
    for p, s, M in SUITE_CONTEXTS:
        for table in ScalarField(build_context(p, s, M)).tables():
            if table is None:
                h.update(b"none")
            else:
                h.update(repr((table.shape, table.dtype.str)).encode())
                h.update(table.tobytes())
    assert h.hexdigest() == SUITE_TABLES_DIGEST


def test_contexts_with_same_parameters_agree():
    a = build_context(2, 1, 4)
    b = FieldContext(2, 1, 4)
    assert a is build_context(2, 1, 4) and a is not b
    assert (a.p, a.s, a.M, a.q, a.order) == (b.p, b.s, b.M, b.q, b.order)
    assert a.modulus == b.modulus
    assert a.generator_rep == b.generator_rep


@pytest.fixture
def search_counts(monkeypatch):
    """Counts of modulus and generator searches, from an empty field cache."""
    counts = {"modulus": 0, "generator": 0}
    lowest, find = gf._lowest_irreducible, FieldContext._find_generator

    def counting_lowest(p, d):
        counts["modulus"] += 1
        return lowest(p, d)

    def counting_find(self):
        counts["generator"] += 1
        return find(self)

    monkeypatch.setattr(gf, "_lowest_irreducible", counting_lowest)
    monkeypatch.setattr(FieldContext, "_find_generator", counting_find)
    build_context.cache_clear()
    yield counts
    build_context.cache_clear()


@pytest.mark.parametrize("M", [3, 11, 22])
def test_extension_is_built_once_for_both_base_fields(search_counts, M):
    ctx = build_context(2, 2, M)
    twin = build_context(2, 1, 2 * M)
    assert search_counts == {"modulus": 1, "generator": 1}
    assert ctx.modulus == twin.modulus and ctx.generator_rep == twin.generator_rep
    assert root_of_unity(ctx, 3) is root_of_unity(twin, 3)
    # built directly, a context equals the cached one and searches nothing
    direct = FieldContext(2, 2, M)
    assert search_counts == {"modulus": 1, "generator": 1}
    assert (direct.p, direct.s, direct.M, direct.q, direct.order) == \
        (ctx.p, ctx.s, ctx.M, ctx.q, ctx.order)
    assert direct.modulus == ctx.modulus and direct.generator_rep == ctx.generator_rep
    assert direct.eta() == ctx.eta()
    assert np.array_equal(direct.powers(direct.eta(), 3), ctx.powers(ctx.eta(), 3))
    # nothing of either field survives the cache
    build_context.cache_clear()
    build_context(2, 1, 2 * M)
    build_context(2, 2, M)
    assert search_counts == {"modulus": 2, "generator": 2}


# wide contexts: deg up to 44, where a product reaches x^86 before the fold
WIDE_CONTEXTS = [(2, 1, 44), (2, 2, 22), (3, 1, 36), (5, 1, 3)]
# the largest degrees at p = 2 and 3, and pairs on either side of the
# largest degree whose product slots deg (p - 1)^2 fit in one byte, with
# the slot width in bytes each one packs into
SLOT_WIDTHS = {(2, 1, 64): 1, (3, 1, 40): 1, (5, 1, 15): 1, (5, 1, 16): 2,
               (7, 1, 7): 1, (7, 1, 8): 2, (4093, 1, 2): 4}


@pytest.mark.parametrize("p,s,M", [(2, 1, 4), (3, 1, 2), (5, 1, 2), (2, 2, 2)]
                         + WIDE_CONTEXTS + sorted(SLOT_WIDTHS))
def test_mul_matches_naive_polynomials(p, s, M):
    # pow is the packed product's one public entry, checked by repeated schoolbook products
    ctx = build_context(p, s, M)
    rng = random.Random(11)
    for _ in range(40):
        a = ctx.decode(rng.randrange(ctx.order))
        acc = ctx.one
        for e in range(6):
            assert ctx.pow(a, e) == acc
            acc = elem_mul(ctx, acc, a)
        e = rng.randrange(ctx.order)
        assert ctx.pow(a, e) == elem_mul(ctx, ctx.pow(a, e // 2), ctx.pow(a, e - e // 2))
    if (p, s, M) in SLOT_WIDTHS:
        assert ctx._arith.width == SLOT_WIDTHS[(p, s, M)]


LINEAR_CONTEXTS = [(2, 1, 4), (2, 2, 2), (2, 2, 3), (3, 1, 2), (3, 2, 1), (5, 1, 2)]


@pytest.mark.parametrize("p,s,M", LINEAR_CONTEXTS + WIDE_CONTEXTS)
def test_mul_matrix_rows_are_products_with_powers_of_x(p, s, M):
    ctx = build_context(p, s, M)
    rng = random.Random(5)
    for _ in range(20):
        a = ctx.decode(rng.randrange(ctx.order))
        m = ctx.mul_matrix(a)
        assert m.shape == (ctx.deg, ctx.deg)
        for i in range(ctx.deg):
            assert m[i].tolist() == list(elem_mul(ctx, a, ctx.decode(p**i)))


@pytest.mark.parametrize("p,s,M", LINEAR_CONTEXTS)
def test_powers_match_running_product(p, s, M):
    ctx = build_context(p, s, M)
    rng = random.Random(6)
    for a in [ctx.decode(0), ctx.one, ctx.generator_rep] + \
            [ctx.decode(rng.randrange(ctx.order)) for _ in range(5)]:
        for n in (1, 2, 3, 7, 8, 9):
            want, acc = [], ctx.one
            for _ in range(n):
                want.append(list(acc))
                acc = elem_mul(ctx, acc, a)
            assert ctx.powers(a, n).tolist() == want


@pytest.mark.parametrize("p,s,M", [(2, 1, 4), (3, 1, 2), (2, 2, 3)])
def test_field_laws(p, s, M):
    ctx = build_context(p, s, M)
    zero = ctx.decode(0)
    rng = random.Random(7)

    def add(x, y):
        return elem_add(ctx, x, y)

    def mul(x, y):
        return elem_mul(ctx, x, y)

    for _ in range(100):
        a = ctx.decode(rng.randrange(ctx.order))
        b = ctx.decode(rng.randrange(ctx.order))
        c = ctx.decode(rng.randrange(ctx.order))
        assert mul(a, b) == mul(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert mul(a, zero) == zero
        if a != zero:
            assert mul(a, ctx.pow(a, ctx.N - 1)) == ctx.one
        assert ctx.pow(a, 5) == mul(a, mul(a, mul(a, mul(a, a))))
        assert ctx.pow(a, 0) == ctx.one


def test_root_of_unity_orders():
    ctx = build_context(2, 1, 4)  # N = 15
    for r in (1, 3, 5, 15):
        assert naive_order(ctx, root_of_unity(ctx, r)) == r
    with pytest.raises(FieldError):
        root_of_unity(ctx, 7)
    with pytest.raises(FieldError):
        root_of_unity(ctx, 0)


def test_root_coords_reads_the_powers_of_the_root_of_order_e():
    # F_16 over F_2 and over F_4: e = 3 with two d each, one root and
    # one table per d
    for ctx in (build_context(2, 1, 4), build_context(2, 2, 2)):
        for e, d in ((3, 2), (3, 4), (5, 4), (15, 4), (1, 1), (3, 1)):
            if ctx.M % d or (ctx.q**d - 1) % e:
                continue
            root = root_of_unity(ctx, e)
            want = subfield_coords(ctx, [ctx.pow(root, i) for i in range(e)], d)
            got = ctx.root_coords(e, d)
            assert got.dtype == np.uint8 and got.tolist() == want.tolist(), (ctx, e, d)


@pytest.mark.parametrize("p,s,M,d", [(2, 1, 4, 2), (2, 1, 4, 4), (2, 2, 2, 2),
                                     (3, 1, 2, 2), (2, 2, 2, 1), (3, 2, 2, 1),
                                     (3, 1, 4, 2), (3, 2, 2, 2)])
def test_subfield_coords_reconstruct(p, s, M, d):
    ctx = build_context(p, s, M)
    gd = root_of_unity(ctx, ctx.q**d - 1)
    sub_size = ctx.q**d
    inside, outside = [], []
    for enc in range(ctx.order):
        a = ctx.decode(enc)
        if ctx.pow(a, ctx.q**d) != a:  # not fixed by Frobenius^d
            with pytest.raises(FieldError):
                subfield_coords(ctx, [a], d)
            outside.append(a)
            continue
        inside.append(a)
        coords = subfield_coords(ctx, [a], d)
        assert coords.shape == (1, d)
        acc = ctx.decode(0)
        gpow = ctx.one
        for label in coords[0].tolist():
            acc = elem_add(ctx, acc, elem_mul(ctx, element(ctx, label), gpow))
            gpow = elem_mul(ctx, gpow, gd)
        assert acc == a
    assert len(inside) == sub_size
    # a batch gives each element the labels it gets alone
    rows = np.array(inside)
    labels = subfield_coords(ctx, rows, d)
    assert labels.shape == (sub_size, d)
    assert labels.tolist() == [subfield_coords(ctx, [a], d)[0].tolist() for a in inside]
    assert subfield_coords(ctx, rows[:0], d).shape == (0, d)
    # one row outside the subfield, anywhere in the batch, is refused
    rng = random.Random(19)
    for a in outside[:8]:
        bad = np.insert(rows, rng.randrange(len(rows) + 1), a, axis=0)
        with pytest.raises(FieldError):
            subfield_coords(ctx, bad, d)


def test_subfield_coords_bad_degree():
    ctx = build_context(2, 1, 4)
    with pytest.raises(FieldError):
        subfield_coords(ctx, [ctx.generator_rep], 3)
    with pytest.raises(FieldError):
        root_of_unity(ctx, ctx.q**3 - 1)


def test_subfield_coords_refuses_primes_past_4096():
    # the coordinate solve row reduces over F_p, whose labels are tabulated,
    # so no context past q = 4096 is built, whatever its degree
    for p, s, M in [(4099, 1, 1), (4099, 1, 2), (2, 13, 1)]:
        with pytest.raises(FieldError, match="base field too large for tabulated"):
            build_context(p, s, M)


def test_labels_are_residues_for_prime_fields():
    ctx = build_context(3, 1, 2)
    sf = ScalarField(ctx)
    a = np.repeat(np.arange(3, dtype=np.uint8), 3)
    b = np.tile(np.arange(3, dtype=np.uint8), 3)
    x, y = a.astype(int), b.astype(int)
    assert sf.add(a, b).tolist() == ((x + y) % 3).tolist()
    assert sf.mul(a, b).tolist() == (x * y % 3).tolist()
    assert sf.neg(a).tolist() == (-x % 3).tolist()
    for label in range(3):
        assert element(ctx, label) == (label, 0)
        assert subfield_coords(ctx, [element(ctx, label)], 1)[0, 0] == label


@pytest.mark.parametrize("p,s,M", [(2, 1, 3), (2, 2, 2), (3, 1, 2), (3, 2, 1),
                                   (2, 3, 2), (2, 4, 1), (5, 2, 2), (3, 3, 1),
                                   (3, 5, 1), (2, 8, 1)])
def test_scalar_field_matches_element_arithmetic(p, s, M):
    """Every pair up to q = 27, 2 000 random pairs past it."""
    ctx = build_context(p, s, M)
    sf = ScalarField(ctx)
    q = sf.q
    mul_t = sf.tables()[1]

    def label(e):
        return subfield_coords(ctx, [e], 1)[0, 0]

    elems = [element(ctx, a) for a in range(q)]
    assert [label(e) for e in elems] == list(range(q))
    if q <= 27:
        pairs = [(a, b) for a in range(q) for b in range(q)]
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
    x, y = (np.array(v, dtype=sf.dtype) for v in zip(*pairs))
    sums, prods, diffs = (op(x, y).tolist() for op in (sf.add, sf.mul, sf.sub))
    for (a, b), s_ab, p_ab, d_ab in zip(pairs, sums, prods, diffs):
        ea, eb = elems[a], elems[b]
        assert s_ab == label(elem_add(ctx, ea, eb))
        assert mul_t[a, b] == p_ab == label(elem_mul(ctx, ea, eb))
        assert d_ab == label(elem_add(ctx, ea, elem_neg(ctx, eb)))
    labels = np.arange(q, dtype=sf.dtype)
    negs = sf.neg(labels).tolist()
    for a, ea in enumerate(elems):
        assert negs[a] == label(elem_neg(ctx, ea))
        if a:
            assert sf.mul(labels[a:a + 1], sf.inv(a)).tolist() == [1]


@pytest.mark.parametrize("p,s,M", [(2, 2, 2), (3, 1, 2), (3, 2, 1)])
def test_scalar_tables_agree_with_scalar_ops(p, s, M):
    sf = ScalarField(build_context(p, s, M))
    add_t, mul_t, log, exp = sf.tables()
    q = sf.q
    labels = np.arange(q, dtype=sf.dtype)
    # only odd p with s > 1 adds through a table
    assert (add_t is None) == (p == 2 or s == 1)
    if add_t is not None:
        assert add_t.tolist() == sf.add(labels[:, None], labels).tolist()
    assert mul_t.tolist() == sf.mul(labels[:, None], labels).tolist()
    for k in range(q - 1):
        assert log[int(exp[k])] == k


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2)])
def test_scalar_array_forms_agree_with_scalar_ops(p, s):
    sf = ScalarField(build_context(p, s, 1))
    ops = Labels(sf)
    q = sf.q
    a = np.repeat(np.arange(q, dtype=np.uint8), q)     # every label pair
    b = np.tile(np.arange(q, dtype=np.uint8), q)
    c = b[::-1].copy()
    x, y, z = a.tolist(), b.tolist(), c.tolist()
    results = {
        "add": (sf.add(a, b), [ops.add(u, v) for u, v in zip(x, y)]),
        "mul": (sf.mul(a, b), [ops.mul(u, v) for u, v in zip(x, y)]),
        "mul by one label": (sf.mul(a, q - 1), [ops.mul(u, q - 1) for u in x]),
        "sub by one label": (sf.sub(a, q - 1), [ops.sub(u, q - 1) for u in x]),
        "neg": (sf.neg(a), [ops.neg(u) for u in x]),
        "sub": (sf.sub(a, b), [ops.sub(u, v) for u, v in zip(x, y)]),
    }
    for name, (got, want) in results.items():
        assert got.dtype == np.uint8, name
        assert got.tolist() == want, name
    rows = sf.mul(a, b).reshape(q, q)
    got = sf.dot(rows, c[:q])
    want = []
    for row in rows.tolist():
        acc = 0
        for u, v in zip(row, z[:q]):
            acc = ops.add(acc, ops.mul(u, v))
        want.append(acc)
    assert got.dtype == np.uint8
    assert got.tolist() == want


@pytest.mark.parametrize("p", [127, 131, 251, 257, 4093])
def test_prime_field_add_where_label_sums_leave_one_byte(p):
    # sums of labels reach 2p - 2: one byte holds them up to p = 127, and
    # from p = 131 they are formed wider although uint8 still holds labels
    sf = ScalarField(build_context(p, 1, 1))
    rng = np.random.default_rng(p)
    a, b = rng.integers(0, p, (2, 20_000)).astype(sf.dtype)
    a[:p], b[:p] = np.arange(p), p - 1          # every a + (p - 1)
    want = ((a.astype(np.int64) + b) % p).tolist()
    for other in (b, b.astype(np.int64)):
        got = sf.add(a, other)
        assert got.dtype == sf.dtype
        assert got.tolist() == want
    assert sf.add(a, p - 1).tolist() == ((a.astype(np.int64) + p - 1) % p).tolist()


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2),
                                 (5, 2), (251, 1), (257, 1)])
def test_neg_is_mul_by_minus_one_in_the_label_dtype(p, s):
    # q = 2, 3, 4, 5, 8, 9, 25, and the largest uint8 and smallest uint16 primes
    sf = ScalarField(build_context(p, s, 1))
    rng = np.random.default_rng(sf.q)
    labels = np.arange(sf.q, dtype=sf.dtype)
    block = rng.integers(0, sf.q, (7, 11)).astype(sf.dtype)
    for a in (labels, block, block.T, labels[::-1]):
        got = sf.neg(a)
        assert got.dtype == sf.dtype
        assert got.tolist() == sf.mul(a, p - 1).tolist()
        assert not np.shares_memory(got, a)


def test_scalar_zero_has_no_inverse():
    sf = ScalarField(build_context(2, 2, 2))
    with pytest.raises(FieldError):
        sf.inv(0)


def test_context_validation():
    with pytest.raises(FieldError):
        build_context(4, 1, 2)  # p not prime
    with pytest.raises(FieldError):
        build_context(2, 0, 3)
    # the 64-bit check comes before the base-field bound
    for p, s, M in [(2, 1, 65), (3, 1, 41), (4099, 1, 6)]:
        with pytest.raises(FieldError, match="exceeds the 64-bit size policy"):
            build_context(p, s, M)
    with pytest.raises(FieldError, match="base field too large"):
        build_context(2**61 - 1, 1, 1)
    assert build_context(4093, 1, 1).q == 4093 and build_context(2, 12, 1).q == 4096


def test_irreducibility_verdict_matches_naive_oracle_at_degree_16():
    from abcode.gf import _is_irreducible, _lowest_irreducible

    # regression: a non-monic intermediate in the gcd chain used to let
    # this reducible candidate through (it has 1 as a root over F_3)
    slipped = [1, 0, 1] + [0] * 13 + [1]
    assert not _is_irreducible(slipped, 3)
    chosen = _lowest_irreducible(3, 16)
    assert irreducible_naive(chosen, 3)

    rng = random.Random(316)
    for p in (3, 5):
        for _ in range(40):
            f = [rng.randrange(p) for _ in range(9)] + [1]
            assert _is_irreducible(f, p) == irreducible_naive(f, p)
