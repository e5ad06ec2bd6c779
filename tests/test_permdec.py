"""Translation/Frobenius subgroup, PD-set checks, decoding, design search.

The group tables are checked against the per-element formula and the
group laws against raw permutation composition; the PD property against
its definition (recomputing served subsets); decoding against the
per-word loop and exact codeword recovery.
"""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.ntheory import n_order

from abcode.code import (AbelianCode, contains, generator_matrix,
                         standard_form_parity)
from abcode.gamma import CheckSet, build_gamma
from abcode.orbit import (Ambient, DefiningSet, frobenius_order,
                          from_orbit_reps, orbits)
import abcode.code
import abcode.permdec
from abcode.permdec import (PD_MODES, PDSet, SearchConstraints, design_report,
                            design_search, enumerate_lambda, is_pd_set,
                            lemma13_check, lemma15_check, permutation_decode,
                            translation_subgroup)
from field_fixtures import Labels

HAMMING = from_orbit_reps(Ambient(2, (7,)), [(1,)])
TWO_AXIS_37 = from_orbit_reps(Ambient(2, (3, 7)), [(0, 3), (1, 1), (1, 3)])
C59 = from_orbit_reps(Ambient(2, (5, 9)), [(1, 0), (1, 2)])   # 29-dim sample
C315 = from_orbit_reps(Ambient(2, (3, 15)),
                       [(0, 3), (0, 7), (1, 0), (1, 11)])     # 31-dim sample
C513 = from_orbit_reps(Ambient(2, (5, 13)), [(0, 0), (0, 1), (1, 1)])
TERNARY_13 = from_orbit_reps(Ambient(3, (13,)), [(1,), (4,)])  # k=7, d=5

# q in {2, 3, 4, 9}, n = 1..3, axes with r_i = 1, and the length-1 ambient
TABLE_AMBIENTS = [Ambient(2, (1,)), Ambient(2, (7,)), Ambient(2, (1, 7)),
                  Ambient(2, (3, 5)), Ambient(2, (3, 1, 5)),
                  Ambient(3, (8,)), Ambient(3, (2, 5)), Ambient(3, (1, 2, 4)),
                  Ambient(4, (5,)), Ambient(4, (3, 5)), Ambient(9, (4,)),
                  Ambient(9, (2, 5))]


def random_codeword(rng, code):
    G = generator_matrix(code)
    ops = Labels(code.scalars)
    vec = np.zeros(code.length, dtype=np.int64)
    for row in G.data:
        c = rng.randrange(ops.q)
        if c:
            for j in range(code.length):
                vec[j] = ops.add(int(vec[j]), ops.mul(c, int(row[j])))
    return vec


def all_codewords(code):
    """Every codeword, one row each: the F_q-span of the generator rows."""
    f = code.scalars
    words = np.zeros((1, code.length), dtype=f.dtype)
    for row in generator_matrix(code).data:
        words = np.concatenate([f.add(words, f.mul(row, c)) for c in range(f.q)])
    return words


# every ambient over F_2, F_3, F_4 with n <= 2 and length 3..21
SMALL_AMBIENTS = [Ambient(q, r) for q in (2, 3, 4)
                  for r in [(a,) for a in range(3, 22)]
                  + [(a, b) for a in range(2, 11) for b in range(2, 22 // a + 1)]
                  if all(math.gcd(ri, q) == 1 for ri in r)]


# ---------- naive oracles ----------


def naive_frobenius_order(amb):
    return math.lcm(*(int(n_order(amb.q, ri)) for ri in amb.r if ri > 1))


def naive_lambda_table(amb):
    """One row per element j -> q^f * (j + v), (frob, shift) lexicographic."""
    rows = []
    for f in range(naive_frobenius_order(amb)):
        mult = amb.q ** f
        for v in amb.positions():
            rows.append([amb.index_of(tuple(mult * (p + w) % r
                                            for p, w, r in zip(pos, v, amb.r)))
                         for pos in amb.positions()])
    return np.array(rows, dtype=np.int64)


def served_by(table, info_idx, subset):
    """Some row maps every position of subset outside the information set."""
    return any(not any(int(row[x]) in info_idx for x in subset)
               for row in table)


def naive_decode(code, H_std, table, info_set, received, t):
    check_cols = [j for j, pos in enumerate(code.ambient.positions())
                  if pos not in info_set]
    ops = Labels(code.scalars)
    for perm in table:
        y = np.empty_like(received)
        y[perm] = received
        syn = H_std.mul_vec(y)
        if int(np.count_nonzero(syn)) <= t:
            c = y.copy()
            for i, col in enumerate(check_cols):
                c[col] = ops.sub(int(c[col]), int(syn[i]))
            return c[perm]
    return None


# ---------- group structure ----------


def test_frobenius_order_values():
    assert frobenius_order(Ambient(2, (5, 9))) == 12
    assert frobenius_order(Ambient(2, (3, 15))) == 4
    assert frobenius_order(Ambient(2, (5, 13))) == 12
    assert frobenius_order(Ambient(2, (1,))) == 1


def test_frobenius_order_matches_per_axis_orders():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for r in itertools.product(range(1, 22, 2), (1, 4, 10, 13)):
            if all(math.gcd(ri, q) == 1 for ri in r):
                amb = Ambient(q, r)
                assert frobenius_order(amb) == naive_frobenius_order(amb)


@pytest.mark.parametrize("amb", TABLE_AMBIENTS, ids=str)
def test_tables_match_the_per_element_formula(amb):
    want = naive_lambda_table(amb)
    l = amb.length
    lam = enumerate_lambda(amb)
    trans = translation_subgroup(amb)
    assert lam.dtype == trans.dtype == np.int64
    assert lam.shape == (frobenius_order(amb) * l, l)
    assert lam.tobytes() == want.tobytes()
    assert trans.shape == (l, l)
    assert trans.tobytes() == want[:l].tobytes()


def test_enumerate_lambda_sizes_and_distinctness():
    amb = Ambient(2, (3, 5))
    lam = enumerate_lambda(amb)
    assert lam.shape == (15 * 4, 15)
    assert np.array_equal(lam[0], np.arange(15))
    assert len({row.tobytes() for row in lam}) == len(lam)
    trans = translation_subgroup(amb)
    assert np.array_equal(trans, lam[:15])


def test_group_laws():
    amb = Ambient(2, (3, 5))
    lam = enumerate_lambda(amb)
    rows = {row.tobytes() for row in lam}
    rng = random.Random(51)
    for _ in range(60):
        a = lam[rng.randrange(len(lam))]
        b = lam[rng.randrange(len(lam))]
        assert a[b].tobytes() in rows
        inv = np.argsort(a)
        assert inv.tobytes() in rows
        assert np.array_equal(a[inv], np.arange(amb.length))


def test_frobenius_normalizes_translations():
    # sigma T_v = T_{q v} sigma, with (P Q)[j] = P[Q[j]]
    amb = Ambient(2, (3, 5))
    l = amb.length
    lam = enumerate_lambda(amb)
    trans = translation_subgroup(amb)
    sigma = lam[l]
    rng = random.Random(52)
    for _ in range(20):
        v = (rng.randrange(3), rng.randrange(5))
        tv = trans[amb.index_of(v)]
        tqv = trans[amb.index_of(amb.scale(v, 2))]
        assert np.array_equal(sigma[tv], tqv[sigma])


@pytest.mark.parametrize("D", [TWO_AXIS_37, C315])
def test_lambda_elements_are_code_automorphisms(D):
    code = AbelianCode(D)
    lam = enumerate_lambda(code.ambient)
    rng = random.Random(53)
    for _ in range(15):
        c = random_codeword(rng, code)
        y = np.empty_like(c)
        y[lam[rng.randrange(len(lam))]] = c
        assert contains(code, y)


# ---------- PD-set predicate ----------


def test_pd_set_positive_single_error():
    code = AbelianCode(HAMMING)
    cs = build_gamma(HAMMING)
    res = is_pd_set(code.ambient, translation_subgroup(code.ambient),
                    cs.complement(), 1)
    assert res
    assert res.witness is None


def test_pd_set_negative_with_witness():
    amb = Ambient(2, (7,))
    cs = build_gamma(HAMMING)
    info = cs.complement()
    identity = np.arange(7)[None]
    res = is_pd_set(amb, identity, info, 1)
    assert not res
    assert len(res.witness) == 1
    # a witness subset is served by no element at all
    for perm in identity:
        assert any(amb.tuple_of(perm[amb.index_of(x)]) in info
                   for x in res.witness)


def test_pd_witness_is_genuinely_unserved():
    amb = Ambient(2, (3, 5))
    cs = build_gamma(from_orbit_reps(amb, [(1, 1)]))
    info = cs.complement()
    elements = translation_subgroup(amb)[:3]
    res = is_pd_set(amb, elements, info, 2)
    if not res:
        for perm in elements:
            assert any(amb.tuple_of(perm[amb.index_of(x)]) in info
                       for x in res.witness)


@pytest.mark.parametrize("amb", [Ambient(2, (3, 5)), Ambient(2, (1, 7)),
                                 Ambient(3, (8,)), Ambient(3, (2, 4)),
                                 Ambient(4, (3, 5))], ids=str)
def test_pd_verdicts_match_brute_force(amb):
    rng = random.Random(amb.q * 100 + amb.length)
    lam = enumerate_lambda(amb)
    trans = translation_subgroup(amb)
    for _ in range(4):
        cs = build_gamma(DefiningSet(amb, frozenset(
            m for o in orbits(amb) if rng.random() < 0.5 for m in o)))
        info = cs.complement()
        info_idx = {amb.index_of(t) for t in info}
        for s in (1, 2, 3):
            for table in (lam, trans, trans[:3]):
                res = is_pd_set(amb, table, info, s)
                subsets = itertools.combinations(range(amb.length), s)
                want = all(served_by(table, info_idx, S) for S in subsets)
                assert res.ok == want
                if not res.ok:
                    assert len(res.witness) == s
                    witness = [amb.index_of(x) for x in res.witness]
                    assert not served_by(table, info_idx, witness)


def pd_walk_direct(amb, elements, info_set, s):
    """The depth-first walk over prefixes, one Python call per node, with
    the served masks as Python ints: (verdict, witness, length of the
    unserved prefix the witness pads)."""
    l = amb.length
    info = {amb.index_of(tuple(t)) for t in info_set}
    masks = [sum(1 << g for g, perm in enumerate(elements) if perm[x] not in info)
             for x in range(l)]
    found = None

    def walk(start, acc, chosen):
        nonlocal found
        if acc == 0 or len(chosen) == s:
            if acc == 0:
                found = chosen
            return acc == 0
        return any(walk(x + 1, acc & masks[x], chosen + [x])
                   for x in range(start, l - (s - len(chosen)) + 1))

    if not walk(0, (1 << len(elements)) - 1, []):
        return True, None, None
    pad = [x for x in range(l) if x not in found][:s - len(found)]
    return False, tuple(amb.tuple_of(x) for x in found + pad), len(found)


def block_sizes(table, s):
    # one subset per block, a few, and the default
    return 1, 3 * (8 * -(-len(table) // 64) + 8 * s), None


def test_pd_walk_matches_the_recursive_walk(monkeypatch):
    # random tables (permutation rows, rows of the group tables, none) and
    # information sets, s from 1 to l
    rng = random.Random(31)
    ambients = [Ambient(2, (1,)), Ambient(2, (7,)), Ambient(2, (3, 5)),
                Ambient(3, (8,)), Ambient(4, (3, 5)), Ambient(2, (3, 1, 5))]
    # passed; failed on an s-subset, on a shorter prefix, on the empty one
    verdicts = {"pass": 0, "leaf": 0, "padded": 0, "root": 0}
    for trial in range(160):
        amb = rng.choice(ambients)
        l = amb.length
        kind = trial % 4
        if kind == 0:
            table = np.empty((0, l), dtype=np.int64)
        elif kind == 1:
            table = np.array([rng.sample(range(l), l)
                              for _ in range(rng.randint(1, 150))]).reshape(-1, l)
        else:
            group = enumerate_lambda(amb) if kind == 2 else translation_subgroup(amb)
            table = group[sorted(rng.sample(range(len(group)),
                                            rng.randint(1, len(group))))]
        info = {t for t in amb.positions() if rng.random() < rng.random()}
        s = rng.choice([1, l, rng.randint(1, min(l, 4))])
        want = pd_walk_direct(amb, table, info, s)
        verdicts["pass" if want[0] else "leaf" if want[2] == s
                 else "padded" if want[2] else "root"] += 1
        for block in block_sizes(table, s):
            if block is not None:
                monkeypatch.setattr(abcode.code, "_COMBO_BLOCK", block)
            res = is_pd_set(amb, table, info, s)
            monkeypatch.undo()
            assert (res.ok, res.witness) == want[:2], (amb, len(table), s, block)
    assert min(verdicts.values()) >= 20, verdicts


def counted_closure_checks(monkeypatch):
    """The verdicts of permdec._closed_under_translations, as they come."""
    seen = []
    check = abcode.permdec._closed_under_translations

    def counted(amb, elements):
        seen.append(check(amb, elements))
        return seen[-1]

    monkeypatch.setattr(abcode.permdec, "_closed_under_translations", counted)
    return seen


@pytest.mark.parametrize("amb", [Ambient(2, (7,)), Ambient(2, (3, 5)),
                                 Ambient(2, (3, 1, 5)), Ambient(3, (8,)),
                                 Ambient(9, (2, 5))], ids=str)
def test_closed_tables_stop_after_position_zero(monkeypatch, amb):
    # whole λ and translation tables are closed under translations, so the
    # walk stops once the subsets that hold position 0 are served; the
    # verdict and witness stay the full walk's
    rng = random.Random(amb.q * 100 + amb.length)
    checks = counted_closure_checks(monkeypatch)
    verdicts = set()
    for table in (enumerate_lambda(amb), translation_subgroup(amb)):
        for _ in range(3):
            info = build_gamma(DefiningSet(amb, frozenset(
                m for o in orbits(amb) if rng.random() < 0.6 for m in o))).complement()
            for s in range(1, min(amb.length, 4) + 1):
                want = pd_walk_direct(amb, table, info, s)[:2]
                verdicts.add(want[0])
                # the lexicographically first unserved subset holds 0
                assert want[0] or want[1][0] == amb.tuple_of(0)
                for block in block_sizes(table, s):
                    with monkeypatch.context() as m:
                        if block is not None:
                            m.setattr(abcode.code, "_COMBO_BLOCK", block)
                        res = is_pd_set(amb, table, info, s)
                    assert (res.ok, res.witness) == want, (len(table), s, block)
    assert verdicts == {True, False}
    assert checks and all(checks)


@pytest.mark.parametrize("s,checks_at,altered", [
    (1, [13], (6, 7)),                        # only row 6 serves {7}
    (2, [1, 4, 9, 12, 13], (0, 1)),           # only row 0 serves {1, 4}
])
def test_a_table_off_by_one_entry_keeps_the_full_walk(monkeypatch, s, checks_at,
                                                      altered):
    # the translation table of (2;3,5) with one entry moved into the
    # information set is still laid out in blocks of l, but it is not
    # closed: it serves every subset that holds position 0, and the full
    # walk's first unserved subset does not hold 0
    amb = Ambient(2, (3, 5))
    info = {amb.tuple_of(x) for x in range(amb.length) if x not in checks_at}
    table = translation_subgroup(amb)
    assert pd_walk_direct(amb, table, info, s)[0]
    table[altered] = amb.index_of(min(info))
    ok, witness, _ = pd_walk_direct(amb, table, info, s)
    assert not ok and amb.index_of(witness[0]) > 0
    checks = counted_closure_checks(monkeypatch)
    for block in block_sizes(table, s):
        with monkeypatch.context() as m:
            if block is not None:
                m.setattr(abcode.code, "_COMBO_BLOCK", block)
            res = is_pd_set(amb, table, info, s)
        assert (res.ok, res.witness) == (False, witness), block
    assert checks == [False, False]


def test_closure_check_past_the_group_table_budget_keeps_the_full_walk(monkeypatch):
    # a table made elsewhere may be one that translation_subgroup would
    # refuse to build for the closure check (its n * l * l coordinate
    # sums); the check then answers "not closed" and the walk goes on
    amb = Ambient(2, (3, 5))
    table = translation_subgroup(amb)
    info = {amb.tuple_of(x) for x in range(15) if x not in (1, 4, 9, 12, 13)}
    assert pd_walk_direct(amb, table, info, 2)[0]
    monkeypatch.setattr(abcode.permdec, "GROUP_TABLE_BUDGET", 2 * 15 * 15 - 1)
    monkeypatch.setattr(abcode.code, "_COMBO_BLOCK", 1)
    checks = counted_closure_checks(monkeypatch)
    assert is_pd_set(amb, table, info, 2)
    assert checks == [False]


def test_pd_budget_counts_every_subset_on_closed_tables():
    # the walk on a closed table stops after the C(l - 1, s - 1) subsets
    # that hold position 0, but the budget still bounds all C(l, s)
    amb = Ambient(2, (3, 5))
    info = build_gamma(from_orbit_reps(amb, [(1, 1)])).complement()
    for table in (enumerate_lambda(amb), translation_subgroup(amb)):
        for s in (1, 2, 3):
            with pytest.raises(ValueError, match="exceeds the subset budget"):
                is_pd_set(amb, table, info, s, budget=math.comb(15, s) - 1)
            assert (is_pd_set(amb, table, info, s, budget=math.comb(15, s))
                    == is_pd_set(amb, table, info, s))


def test_pd_set_empty_table_fails_with_witness():
    amb = Ambient(2, (3, 5))
    info = build_gamma(from_orbit_reps(amb, [(1, 1)])).complement()
    for s in (1, 2, 3):
        res = is_pd_set(amb, np.empty((0, 15), dtype=np.int64), info, s)
        assert not res
        assert len(res.witness) == s


def test_pd_set_budget_and_validation():
    amb = Ambient(2, (3, 5))
    with pytest.raises(ValueError):
        is_pd_set(amb, translation_subgroup(amb), set(), 3, budget=100)
    with pytest.raises(ValueError):
        is_pd_set(amb, translation_subgroup(amb), set(), 0)
    with pytest.raises(ValueError):
        PDSet((), 0, frozenset())


def test_pd_set_refuses_more_errors_than_positions():
    # no s-subset exists past s = l, so no verdict is a sound one
    amb = Ambient(2, (3, 15))
    info = build_gamma(from_orbit_reps(amb, [(0, 0)])).complement()
    for s in (46, 50):
        with pytest.raises(ValueError, match=f"s = {s} exceeds the length 45"):
            is_pd_set(amb, enumerate_lambda(amb), info, s)
    assert is_pd_set(amb, enumerate_lambda(amb), info, 45).ok is False
    small = Ambient(2, (3,))
    assert is_pd_set(small, translation_subgroup(small), set(), 3).ok


@pytest.mark.parametrize("dim_exact", [10, 100])
def test_design_search_refuses_more_errors_than_positions_up_front(dim_exact):
    amb = Ambient(2, (3, 7))
    with pytest.raises(ValueError, match="s = 22 exceeds the length 21"):
        design_search(amb, SearchConstraints(dim_exact=dim_exact, pd_s=22))


def test_pd_set_compares_by_identity():
    table = translation_subgroup(Ambient(2, (3, 5)))
    pd = PDSet(table, 1, frozenset())
    assert pd == pd and pd in {pd}
    assert pd != PDSet(table, 1, frozenset())


def test_group_table_must_fit_the_ambient():
    code = AbelianCode(HAMMING)
    amb = code.ambient
    cs = build_gamma(HAMMING)
    H_std, _ = standard_form_parity(code, cs)
    word = np.zeros(7, dtype=np.uint8)
    for wrong in (translation_subgroup(Ambient(2, (3, 5))), np.arange(7)):
        with pytest.raises(ValueError):
            is_pd_set(amb, wrong, cs.complement(), 1)
        with pytest.raises(ValueError):
            permutation_decode(code, H_std, PDSet(wrong, 1, cs.complement()),
                               word, 1)


def test_group_tables_refuse_past_their_budget_before_building(monkeypatch):
    # (2;127,129) has ord = 14: the lambda table would hold 14 * 16383^2
    # int64 entries, about 30 GB, and the translation sums 2 * 16383^2
    built = []
    monkeypatch.setattr(abcode.permdec, "_coords",
                        lambda amb: built.append(amb))
    amb = Ambient(2, (127, 129))
    for make in (enumerate_lambda, translation_subgroup):
        with pytest.raises(ValueError, match="exceeds the budget"):
            make(amb)
    assert built == []


def test_group_table_budget_is_inclusive(monkeypatch):
    # (2;5,9): ord * l^2 = 12 * 45^2 entries for lambda, n * l^2 = 2 * 45^2
    # for the translation sums
    default = abcode.permdec.GROUP_TABLE_BUDGET
    amb = Ambient(2, (5, 9))
    for make, need in ((enumerate_lambda, 24300), (translation_subgroup, 4050)):
        monkeypatch.setattr(abcode.permdec, "GROUP_TABLE_BUDGET", need)
        assert make(amb).shape[1] == 45
        monkeypatch.setattr(abcode.permdec, "GROUP_TABLE_BUDGET", need - 1)
        with pytest.raises(ValueError, match="exceeds the budget"):
            make(amb)
    # the largest ambient the tests and goldens build a group on still fits
    big = Ambient(2, (31, 33))
    assert frobenius_order(big) * big.length ** 2 <= default


# ---------- sufficient conditions ----------


def test_lemma_checks_require_two_axes():
    code1 = AbelianCode(HAMMING)
    cs1 = build_gamma(HAMMING)
    with pytest.raises(ValueError):
        lemma13_check(code1, cs1)
    with pytest.raises(ValueError):
        lemma15_check(code1, cs1)


def test_lemma13_positive_and_negative():
    code = AbelianCode(C59)
    cs = build_gamma(C59)
    assert lemma13_check(code, cs)
    c7 = AbelianCode(C315)
    assert not lemma13_check(c7, build_gamma(C315))


def test_lemma15_positive_and_negative():
    code = AbelianCode(C513)
    cs = build_gamma(C513)
    assert lemma15_check(code, cs)
    c7 = AbelianCode(C315)
    assert not lemma15_check(c7, build_gamma(C315))
    bare = CheckSet(code.ambient, (0, 1), cs.positions)
    with pytest.raises(ValueError):
        lemma15_check(code, bare)


# ---------- decoding ----------


def test_decode_corrects_single_errors_everywhere():
    code = AbelianCode(HAMMING)
    cs = build_gamma(HAMMING)
    H_std, _ = standard_form_parity(code, cs)
    pd = PDSet(translation_subgroup(code.ambient), 1, cs.complement())
    rng = random.Random(54)
    for _ in range(8):
        c = random_codeword(rng, code)
        for j in range(7):
            r = c.copy()
            r[j] ^= 1
            out = permutation_decode(code, H_std, pd, r, 1)
            assert out is not None
            assert np.array_equal(out, c)


def test_decode_two_errors_sample():
    code = AbelianCode(C315)
    cs = build_gamma(C315)
    H_std, _ = standard_form_parity(code, cs)
    pd = PDSet(translation_subgroup(code.ambient), 2, cs.complement())
    rng = random.Random(55)
    for _ in range(30):
        c = random_codeword(rng, code)
        i, j = rng.sample(range(code.length), 2)
        r = c.copy()
        r[i] ^= 1
        r[j] ^= 1
        out = permutation_decode(code, H_std, pd, r, 2)
        assert out is not None
        assert np.array_equal(out, c)


def test_decode_returns_none_when_nothing_serves():
    code = AbelianCode(HAMMING)
    cs = build_gamma(HAMMING)
    H_std, _ = standard_form_parity(code, cs)
    pd = PDSet(np.arange(7)[None], 1, cs.complement())
    c = np.zeros(7, dtype=np.uint8)
    r = c.copy()
    r[code.ambient.index_of(sorted(cs.complement())[0])] ^= 1
    assert permutation_decode(code, H_std, pd, r, 1) is None


@pytest.mark.parametrize("D", [C315, TERNARY_13], ids=["C315", "q3"])
def test_decode_matches_the_per_word_loop(D):
    code = AbelianCode(D)
    amb = code.ambient
    cs = build_gamma(D)
    H_std, _ = standard_form_parity(code, cs)
    info = cs.complement()
    rng = random.Random(56)
    for table in (translation_subgroup(amb), enumerate_lambda(amb)):
        pd = PDSet(table, 2, info)
        for _ in range(40):
            c = random_codeword(rng, code)
            r = c.copy()
            for j in rng.sample(range(amb.length), rng.randrange(4)):
                r[j] = (r[j] + rng.randrange(1, amb.q)) % amb.q
            got = permutation_decode(code, H_std, pd, r, 2)
            want = naive_decode(code, H_std, table, info, r, 2)
            if want is None:
                assert got is None
            else:
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_decode_returns_the_nearest_codeword(data):
    """Every error of weight <= t on a small code with a verified t-PD-set."""
    amb = data.draw(st.sampled_from(SMALL_AMBIENTS))
    orbs = orbits(amb)
    # orbits left out of D, drawn in a random order up to k <= 12 / log2(q)
    k_max = int(12 / math.log2(amb.q))
    free, k = [], 0
    for i in data.draw(st.permutations(range(len(orbs)))):
        if k + len(orbs[i]) <= k_max and data.draw(st.booleans()):
            free.append(i)
            k += len(orbs[i])
    D = DefiningSet(amb, frozenset(
        m for i, o in enumerate(orbs) if i not in free for m in o))
    code = AbelianCode(D)
    words = all_codewords(code)
    assert len(words) == amb.q ** k <= 1 << 12
    d = min((int(np.count_nonzero(w)) for w in words[1:]), default=0)
    cs = build_gamma(D)
    info = cs.complement()
    table = data.draw(st.sampled_from([enumerate_lambda, translation_subgroup]))(amb)
    # the largest t < d / 2 with at most 1000 error patterns and a PD-set
    t = (d - 1) // 2
    while t >= 1 and (sum(math.comb(amb.length, w) * (amb.q - 1) ** w
                          for w in range(1, t + 1)) > 1000
                      or not is_pd_set(amb, table, info, t)):
        t -= 1
    assume(t >= 1)
    H_std, _ = standard_form_parity(code, cs)
    pd = PDSet(table, t, info)
    sent = words[data.draw(st.integers(0, len(words) - 1))]
    f = code.scalars
    for w in range(t + 1):
        for support in itertools.combinations(range(amb.length), w):
            for values in itertools.product(range(1, amb.q), repeat=w):
                received = sent.copy()
                received[list(support)] = f.add(received[list(support)],
                                                np.array(values, dtype=f.dtype))
                dist = np.count_nonzero(words != received, axis=1)
                nearest = words[int(np.argmin(dist))]
                got = permutation_decode(code, H_std, pd, received, t)
                assert got is not None
                assert np.array_equal(got, nearest)


def test_decode_validates_length():
    code = AbelianCode(HAMMING)
    cs = build_gamma(HAMMING)
    H_std, _ = standard_form_parity(code, cs)
    pd = PDSet(translation_subgroup(code.ambient), 1, cs.complement())
    with pytest.raises(ValueError):
        permutation_decode(code, H_std, pd, np.zeros(6, dtype=np.uint8), 1)


# ---------- design search ----------


def test_design_search_two_error_battery():
    amb = Ambient(2, (5, 9))
    hits = design_search(amb, SearchConstraints(
        dim_exact=29, d_min=5, pd_s=2, pd_mode="exhaustive"))
    got = {frozenset(h.orbit_reps()) for h in hits}
    assert got == {
        frozenset({(1, 0), (1, 1)}), frozenset({(1, 0), (1, 2)}),
        frozenset({(1, 1), (1, 3)}), frozenset({(1, 1), (1, 6)}),
        frozenset({(1, 2), (1, 3)}), frozenset({(1, 2), (1, 6)})}
    for h in hits:
        assert h.dimension == 29
        assert h.d_min_passed == 5
        assert h.pd_ok is True
        assert len(h.defining) == 16
    report = design_report(amb, hits)
    assert "6 hit(s)" in report
    assert report.count("k=29") == 6


def test_design_search_three_error_battery():
    amb = Ambient(2, (5, 13))
    hits = design_search(amb, SearchConstraints(
        dim_exact=40, d_min=8, pd_s=3, pd_mode="lemma15"))
    got = {frozenset(h.orbit_reps()) for h in hits}
    assert got == {
        frozenset({(0, 0), (0, 1), (1, 1)}),
        frozenset({(0, 0), (0, 1), (1, 2)}),
        frozenset({(0, 0), (0, 1), (1, 4)}),
        frozenset({(0, 0), (0, 1), (1, 7)})}
    for h in hits:
        assert h.dimension == 40
        assert h.pd_ok is True


def test_design_search_dimension_filter_only():
    amb = Ambient(2, (3, 5))
    hits = design_search(amb, SearchConstraints(dim_min=13))
    for h in hits:
        assert h.dimension >= 13
        assert h.d_min_passed is None
        assert h.pd_ok is None
    sizes = [len(o) for o in orbits(amb)]
    expect = sum(1 for pick in range(1 << len(sizes))
                 if sum(s for i, s in enumerate(sizes) if pick >> i & 1) <= 2)
    assert len(hits) == expect


def test_design_search_budget():
    amb = Ambient(2, (5, 9))
    with pytest.raises(ValueError):
        design_search(amb, SearchConstraints(budget=4))


@pytest.mark.parametrize("dim_exact", [10, 100])
def test_design_search_rejects_unknown_pd_mode_up_front(dim_exact):
    # the PD check is chosen before the sweep, so an unknown mode is refused
    # even when no orbit union reaches it (dimension 100 matches none)
    amb = Ambient(2, (3, 7))
    with pytest.raises(ValueError, match="unknown pd_mode 'bogus'"):
        design_search(amb, SearchConstraints(dim_exact=dim_exact, pd_s=2,
                                             pd_mode="bogus"))


@pytest.mark.parametrize("mode", ["lemma13", "lemma15"])
@pytest.mark.parametrize("dim_exact", [4, 100])
def test_design_search_refuses_lemma_modes_off_two_axes_up_front(mode, dim_exact):
    # refused before the sweep, so also when no union reaches the PD filter
    amb = Ambient(2, (7,))
    with pytest.raises(ValueError, match="two-variable codes only"):
        design_search(amb, SearchConstraints(dim_exact=dim_exact, pd_s=2,
                                             pd_mode=mode))


def test_design_search_refuses_an_over_budget_pd_request_up_front(monkeypatch):
    # refused before the group table is built and before any orbit union
    # is decided: C(45, 6) exceeds the subset budget, and 46 the length
    def refuse(*args):
        raise AssertionError("work done before the PD request was checked")

    for name in ("enumerate_lambda", "distance_at_least", "build_gamma"):
        monkeypatch.setattr(abcode.permdec, name, refuse)
    amb = Ambient(2, (5, 9))
    with pytest.raises(ValueError, match=r"C\(45, 6\) exceeds the subset budget"):
        design_search(amb, SearchConstraints(d_min=3, pd_s=6))
    with pytest.raises(ValueError, match="s = 46 exceeds the length 45"):
        design_search(amb, SearchConstraints(d_min=3, pd_s=46))


@pytest.mark.parametrize("q,r", [(2, (3, 7)), (2, (3, 5)), (2, (5, 9)),
                                 (4, (3, 5)), (3, (4, 5)), (2, (5, 13))])
def test_lemma_claims_within_capacity_are_pd_sets(q, r):
    # every orbit union: where Lemma 13 (capacity 2) or Lemma 15 (capacity
    # 3) holds, the exhaustive check agrees.  An s-PD-set serves every
    # smaller error count too, so checking at the capacity suffices.
    amb = Ambient(q, r)
    lam = enumerate_lambda(amb)
    orbs = orbits(amb)
    claims = 0
    for pick in itertools.product((False, True), repeat=len(orbs)):
        D = DefiningSet(amb, frozenset(
            m for o, chosen in zip(orbs, pick) if chosen for m in o))
        code, cs = AbelianCode(D), build_gamma(D)
        for check, s in ((lemma13_check, 2), (lemma15_check, 3)):
            if check(code, cs):
                claims += 1
                assert is_pd_set(amb, lam, cs.complement(), s), (D, s)
    assert claims


def test_pd_modes_dispatch_through_the_table(monkeypatch):
    assert set(PD_MODES) == {"exhaustive", "lemma13", "lemma15"}
    amb = Ambient(2, (3, 7))
    calls = []

    def counted(a):
        calls.append(a)
        return enumerate_lambda(a)

    # the exhaustive check looks the group table up when the search runs
    monkeypatch.setattr(abcode.permdec, "enumerate_lambda", counted)
    cons = dict(dim_exact=6, d_min=7, pd_s=2)
    got = {mode: [h.defining for h in design_search(
               amb, SearchConstraints(pd_mode=mode, **cons))]
           for mode in PD_MODES}
    assert calls == [amb]
    assert TWO_AXIS_37 in got["exhaustive"]
    # each lemma is a sufficient condition for its PD-set
    assert got["lemma13"] == got["exhaustive"]
    assert 0 < len(got["lemma15"]) < len(got["exhaustive"])
    assert all(d in got["exhaustive"] for d in got["lemma15"])
