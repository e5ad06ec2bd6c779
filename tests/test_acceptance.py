"""Acceptance suite: one test per numbered criterion.

Each test gathers its sub-checks into a failure list and prints a single
self-contained verdict line (via the real stdout, so it survives capture)
before asserting.  Shared heavy fixtures are cached at module level: the
randomized code suite feeds criteria 6 and 7, the two length-45 batteries
feed criteria 8, 11 and 12, and the length-65 battery feeds 10 and 12.
"""

import math
import random
from functools import lru_cache
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from sympy import n_order

from abcode.code import (AbelianCode, dimension, find_low_weight_codeword,
                         generator_matrix, min_distance, standard_form_parity,
                         verify_check_positions)
from abcode.crt import CrtMap
from abcode.gamma import CheckSet, build_gamma, compute_fg
from abcode.orbit import (Ambient, DefiningSet, RestrictedReps,
                          check_restriction, coset, from_orbit_reps, orbits,
                          restricted_reps, validate_defining_set)
from abcode.permdec import (PDSet, SearchConstraints, design_search,
                            enumerate_lambda, is_pd_set, lemma13_check,
                            lemma15_check, permutation_decode,
                            translation_subgroup)


_CAPSYS = None


@pytest.fixture(autouse=True)
def _verdicts_reach_the_terminal(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def emit(num: int, failures, note: str):
    verdict = "FAIL" if failures else "PASS"
    body = "; ".join(failures) if failures else note
    line = f"criterion {num:02d}: {verdict} - {body}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print("\n" + line, flush=True)
    else:
        print("\n" + line, flush=True)
    if failures:
        raise AssertionError(line)


# ---------- frozen small examples ----------

GAMMA_37 = frozenset({
    (0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
    (1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (1, 4), (1, 5)})

D_333 = frozenset({
    (0, 0, 0), (1, 1, 0), (2, 2, 0), (0, 1, 1), (0, 2, 2), (2, 2, 1),
    (1, 1, 2)})
GAMMA_333 = frozenset({
    (0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 2, 0), (0, 0, 1),
    (1, 0, 1)})

D_35 = frozenset({
    (0, 0), (1, 0), (2, 0), (1, 2), (2, 4), (1, 3), (2, 1)})
GAMMA_35_AXIS1_FIRST = frozenset({
    (0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (1, 1), (1, 2)})
GAMMA_35_AXIS2_FIRST = frozenset({
    (0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (0, 3), (0, 4)})

CYCLIC_D_15 = frozenset({0, 1, 2, 3, 4, 6, 8, 9, 12})
TRANSPORTED_15 = frozenset({
    (0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 1), (2, 2), (1, 4), (2, 3)})
PRODUCT_GAMMA_15 = frozenset({
    (0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (2, 0), (1, 1), (2, 1)})
PULLBACK_15 = (0, 1, 3, 5, 6, 9, 10, 11, 12)

SIX_PAIRS_45 = (
    ((1, 2), (1, 6)), ((1, 1), (1, 6)), ((1, 2), (1, 3)),
    ((1, 1), (1, 3)), ((1, 0), (1, 2)), ((1, 0), (1, 1)))
C7_REPS = ((0, 3), (0, 7), (1, 0), (1, 11))
C8_REPS = ((0, 0), (1, 3), (1, 7), (1, 11))
C7_TEN_LISTED = frozenset({
    (0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
    (1, 0), (2, 0)})


# ---------- shared heavy fixtures ----------


def _field_policy_ok(q: int, r) -> bool:
    # largest extension degree any orbit of this ambient can demand
    need = 1
    for ri in r:
        if ri > 1:
            need = math.lcm(need, n_order(q, ri))
    return q**need <= 1 << 62


@lru_cache(maxsize=1)
def random_code_suite():
    """500 randomized codes: q in {2,3,4}, n <= 3, prod(r) <= 128.

    Rows carry everything criteria 6 and 7 assert on, so the expensive
    pass over the suite happens once.
    """
    rng = random.Random(160815)
    seen = set()
    rows = []
    while len(rows) < 500:
        q = rng.choice((2, 3, 4))
        n = rng.randint(1, 3)
        r = []
        for _ in range(n):
            while True:
                ri = rng.randint(1, 40)
                if math.gcd(ri, q) == 1 and math.prod(r) * ri <= 128:
                    r.append(ri)
                    break
        r = tuple(r)
        if not _field_policy_ok(q, r):
            continue
        amb = Ambient(q, r)
        members = frozenset(
            m for orb in orbits(amb) if rng.random() < 0.5 for m in orb)
        ordering = tuple(rng.sample(range(n), n))
        key = (q, r, members, ordering)
        if key in seen:
            continue
        seen.add(key)

        D = DefiningSet(amb, members)
        code = AbelianCode(D)
        cs = build_gamma(D, ordering=ordering)
        res = verify_check_positions(code, cs)
        invariant = all(
            build_gamma(D, ordering=ordering,
                        rng=random.Random(s)).positions == cs.positions
            for s in (1, 2))
        rows.append(SimpleNamespace(
            q=q, r=r, ordering=ordering, dsize=len(members),
            length=amb.length, gamma_size=len(cs.positions),
            verify_ok=res.ok, verify_reason=res.reason, invariant=invariant,
            dim=dimension(code), gen_rank=generator_matrix(code).rank()))
    return tuple(rows)


@lru_cache(maxsize=1)
def battery_45():
    """The eight length-45 codes: six on (5,9) plus two on (3,15)."""
    amb59 = Ambient(2, (5, 9))
    lam59 = enumerate_lambda(amb59)
    six = []
    for pair in SIX_PAIRS_45:
        D = from_orbit_reps(amb59, pair)
        code = AbelianCode(D)
        cs = build_gamma(D)
        six.append(SimpleNamespace(
            reps=pair, code=code, cs=cs,
            dist=min_distance(code, method="gray"),
            lam_pd=is_pd_set(amb59, lam59, cs.complement(), 2),
            lem13=lemma13_check(code, cs)))

    amb315 = Ambient(2, (3, 15))

    def two_axis(reps, pd_elems, s):
        D = from_orbit_reps(amb315, reps)
        code = AbelianCode(D)
        cs = build_gamma(D)
        return SimpleNamespace(
            reps=reps, code=code, cs=cs,
            dist=min_distance(code),
            pd=is_pd_set(amb315, pd_elems, cs.complement(), s),
            lem13=lemma13_check(code, cs))

    c7 = two_axis(C7_REPS, translation_subgroup(amb315), 2)
    c8 = two_axis(C8_REPS, enumerate_lambda(amb315), 2)
    return SimpleNamespace(amb59=amb59, amb315=amb315, six=six, c7=c7, c8=c8)


@lru_cache(maxsize=1)
def battery_65():
    """The four dimension-40 codes on (5,13)."""
    amb = Ambient(2, (5, 13))
    lam = enumerate_lambda(amb)
    rows = []
    for x in (1, 2, 4, 7):
        D = from_orbit_reps(amb, ((0, 0), (0, 1), (1, x)))
        code = AbelianCode(D)
        cs = build_gamma(D)
        rows.append(SimpleNamespace(
            x=x, code=code, cs=cs,
            dist=min_distance(code, method="bz"),
            lem15=lemma15_check(code, cs),
            lam_pd=is_pd_set(amb, lam, cs.complement(), 3)))
    return SimpleNamespace(amb=amb, rows=rows)


# ---------- criteria ----------


def test_criterion_01_two_axis_check_set_and_tables():
    failures = []
    amb = Ambient(2, (3, 7))
    D = from_orbit_reps(amb, ((0, 3), (1, 1), (1, 3)))
    reps = restricted_reps(D)
    fg = compute_fg(reps)
    want_m = {(0,): 1, (1,): 2, (0, 3): 3, (1, 1): 3, (1, 3): 3}
    for prefix, val in want_m.items():
        if reps.m_table.get(prefix) != val:
            failures.append(f"m{list(prefix)} = {reps.m_table.get(prefix)}, "
                            f"wanted {val}")
    if fg.f[()] != (6, 3):
        failures.append(f"f = {fg.f[()]}, wanted (6, 3)")
    if (fg.g[(1,)], fg.g[(2,)]) != (2, 3):
        failures.append(f"g = {(fg.g[(1,)], fg.g[(2,)])}, wanted (2, 3)")
    cs = build_gamma(D)
    if cs.positions != GAMMA_37:
        failures.append(f"check set has {len(cs.positions)} positions, "
                        f"differs from the 15 expected")
    emit(1, failures, "check set on (2;3,7) reproduces all 15 positions and "
                      "the m/f/g tables exactly")


def test_criterion_02_three_axis_check_set_and_tree():
    failures = []
    amb = Ambient(2, (3, 3, 3))
    D = validate_defining_set(amb, D_333)
    cs = build_gamma(D)
    if cs.positions != GAMMA_333:
        failures.append("check set differs from the 7 expected triples")
    fg = cs.fg
    if fg.f[()] != (2, 1):
        failures.append(f"top thresholds f = {fg.f[()]}, wanted (2, 1)")
    if fg.f[(1,)] != (1,):
        failures.append(f"branch-1 thresholds = {fg.f[(1,)]}, wanted (1,)")
    if fg.f[(2,)] != (3, 1):
        failures.append(f"branch-2 thresholds = {fg.f[(2,)]}, wanted (3, 1)")
    got_g = (fg.g[(1, 1)], fg.g[(2, 1)], fg.g[(2, 2)])
    if got_g != (2, 1, 3):
        failures.append(f"g values {got_g}, wanted (2, 1, 3)")
    emit(2, failures, "check set on (2;3,3,3) reproduces the 7 triples and "
                      "the f/g tables exactly")


def test_criterion_03_axis_ordering_changes_the_check_set():
    failures = []
    amb = Ambient(2, (3, 5))
    D = validate_defining_set(amb, D_35)
    first = build_gamma(D).positions
    second = build_gamma(D, ordering=(1, 0)).positions
    if first != GAMMA_35_AXIS1_FIRST:
        failures.append("axis order 1,2 produced an unexpected check set")
    if second != GAMMA_35_AXIS2_FIRST:
        failures.append("axis order 2,1 produced an unexpected check set")
    if first == second:
        failures.append("the two axis orders produced the same check set")
    emit(3, failures, "both axis orders on (2;3,5) reproduced exactly and "
                      "they differ")


def test_criterion_04_illegal_representative_choice_is_never_made():
    failures = []
    amb = Ambient(2, (3, 3, 3))
    D = validate_defining_set(
        amb, {(0, 0, 0), (0, 1, 1), (0, 2, 2), (0, 2, 1), (0, 1, 2)})
    legal = [{(0, 0, 0), (0, 1, 1), (0, 1, 2)},
             {(0, 0, 0), (0, 2, 1), (0, 2, 2)}]
    forbidden = {(0, 0, 0), (0, 1, 1), (0, 2, 1)}
    for seed in range(50):
        reps = restricted_reps(D, rng=random.Random(seed))
        if set(reps.reps) == forbidden or set(reps.reps) not in legal:
            failures.append(f"seed {seed} emitted an illegal choice "
                            f"{sorted(reps.reps)}")
            break
    # raw harness on the forbidden choice, m from coset sizes alone: the
    # level-2 branch weight must come out as 5, which exceeds the modulus 3
    m = {}
    for t in sorted(forbidden):
        gamma = 1
        for i in range(1, 4):
            m[t[:i]] = len(coset(t[i - 1], amb.r[i - 1], amb.q, gamma))
            gamma *= m[t[:i]]
    raw = RestrictedReps(amb, tuple(sorted(forbidden)), m)
    if check_restriction(raw):
        failures.append("the forbidden choice passed check_restriction")
    total = m[(0, 0)] + m[(0, 1)] + m[(0, 2)]
    if total != 5:
        failures.append(f"branch weight sum {total}, wanted 5")
    if compute_fg(raw).f[(1,)] != (5,):
        failures.append("the raw tables did not surface the weight-5 branch")
    emit(4, failures, "no random seed picks the forbidden representatives; "
                      "the raw harness shows their branch weight 5 > 3")


def test_criterion_05_cyclic_transport_and_alternate_embedding():
    failures = []
    cmap = CrtMap((3, 5))
    D = cmap.transport_defining_set(2, CYCLIC_D_15)
    if D.members != TRANSPORTED_15:
        failures.append("transported defining set differs from the 9 "
                        "expected pairs")
    cs = build_gamma(D)
    if cs.positions != PRODUCT_GAMMA_15:
        failures.append("product-space check set differs from the expected "
                        "9 positions")
    pull = cmap.pullback_positions(cs.positions)
    if tuple(pull) != PULLBACK_15:
        failures.append(f"pullback {pull} differs from {list(PULLBACK_15)}")

    # Negating the first residue cannot change the pullback: every axis-1
    # fibre of the product check set is {0} or {0,1,2}, closed under a -> -a.
    if {((-a) % 3, b) for a, b in PRODUCT_GAMMA_15} != PRODUCT_GAMMA_15:
        failures.append("product check set is not symmetric under negating "
                        "the first residue")
    alt = CrtMap((3, 5), units=(2, 1))
    cs_alt = build_gamma(alt.transport_defining_set(2, CYCLIC_D_15))
    if cs_alt.positions != cs.positions:
        failures.append("alternate embedding changed the product-space "
                        "check set")
    pull_alt = alt.pullback_positions(cs_alt.positions)
    if tuple(pull_alt) != PULLBACK_15:
        failures.append(f"units (2,1) pull back to {pull_alt}, not "
                        f"{list(PULLBACK_15)}")

    # Twisting the second residue does move the information set.
    twist = CrtMap((3, 5), units=(1, 4))
    cs_twist = build_gamma(twist.transport_defining_set(2, CYCLIC_D_15))
    if cs_twist.positions != cs.positions:
        failures.append("units (1,4) changed the product-space check set")
    pull_twist = twist.pullback_positions(cs_twist.positions)
    want_twist = sorted(t for t in range(15)
                        if (t % 3, 4 * t % 5) in PRODUCT_GAMMA_15)
    if pull_twist != want_twist:
        failures.append(f"units (1,4) pull back to {pull_twist}, brute-force "
                        f"inverse gives {want_twist}")
    if tuple(want_twist) == PULLBACK_15:
        failures.append("units (1,4) do not give a different pullback")

    # Each pullback is a genuine check set of the length-15 cyclic code.
    amb1 = Ambient(2, (15,))
    cyc = AbelianCode(validate_defining_set(amb1, {(t,) for t in CYCLIC_D_15}))
    for units, pulled in (((1, 1), pull), ((2, 1), pull_alt),
                          ((1, 4), pull_twist)):
        res = verify_check_positions(
            cyc, CheckSet(amb1, (0,), frozenset((t,) for t in pulled)))
        if not res.ok:
            failures.append(f"units {units}: pullback {pulled} fails rank "
                            f"verification on the cyclic code ({res.reason})")
    emit(5, failures,
         f"cyclic transport, product check set and pullback reproduced; the "
         f"product check set is symmetric under negating the first residue, "
         f"so units (2,1) pull back to the same {list(PULLBACK_15)}, while "
         f"units (1,4) pull back to the different {pull_twist}; all three "
         f"pullbacks pass rank verification as check sets of the length-15 "
         f"cyclic code")


def test_criterion_06_verifier_and_counting_over_500_random_codes():
    failures = []
    rows = random_code_suite()
    if len(rows) < 500:
        failures.append(f"only {len(rows)} codes sampled")
    bad_verify = [r for r in rows if not r.verify_ok]
    if bad_verify:
        b = bad_verify[0]
        failures.append(
            f"{len(bad_verify)} of {len(rows)} codes failed verification, "
            f"first: q={b.q} r={b.r} ordering={b.ordering} "
            f"reason={b.verify_reason}")
    bad_count = [r for r in rows if r.gamma_size != r.dsize]
    if bad_count:
        b = bad_count[0]
        failures.append(
            f"{len(bad_count)} codes broke |check set| = |defining set|, "
            f"first: q={b.q} r={b.r} {b.gamma_size} != {b.dsize}")
    bad_inv = [r for r in rows if not r.invariant]
    if bad_inv:
        b = bad_inv[0]
        failures.append(
            f"{len(bad_inv)} codes changed check set under random "
            f"representative choices, first: q={b.q} r={b.r}")
    by_q = {q: sum(1 for r in rows if r.q == q) for q in (2, 3, 4)}
    emit(6, failures,
         f"all {len(rows)} random codes (q=2: {by_q[2]}, q=3: {by_q[3]}, "
         f"q=4: {by_q[4]}; lengths up to "
         f"{max(r.length for r in rows)}) pass verification with "
         f"|check set| = |defining set| and representative-choice "
         f"invariance")


def test_criterion_07_dimension_equals_generator_rank_on_the_suite():
    failures = []
    rows = random_code_suite()
    bad = [r for r in rows
           if r.dim != r.length - r.dsize or r.gen_rank != r.dim]
    if bad:
        b = bad[0]
        failures.append(
            f"{len(bad)} codes broke dimension = generator rank, first: "
            f"q={b.q} r={b.r} dim={b.dim} rank={b.gen_rank}")
    emit(7, failures,
         f"dimension equals generator rank (= length - |defining set|) on "
         f"all {len(rows)} codes of the random suite")


def test_criterion_08_length_45_two_error_codes():
    failures = []
    b = battery_45()
    for row in b.six:
        k = dimension(row.code)
        if k != 29:
            failures.append(f"orbits {row.reps}: dimension {k}, wanted 29")
        if not (row.dist.is_exact and row.dist.value == 5):
            failures.append(f"orbits {row.reps}: distance "
                            f"[{row.dist.lower},{row.dist.upper}], wanted "
                            f"exactly 5")
        if not row.lam_pd.ok:
            failures.append(f"orbits {row.reps}: the full shift-and-"
                            f"Frobenius group is not a 2-PD-set")
    c7, c8 = b.c7, b.c8
    if dimension(c7.code) != 31:
        failures.append(f"first (3,15) code: dimension {dimension(c7.code)}, "
                        f"wanted 31")
    if not (c7.dist.is_exact and c7.dist.value == 6):
        failures.append(f"first (3,15) code: distance "
                        f"[{c7.dist.lower},{c7.dist.upper}], wanted exactly 6")
    if not c7.pd.ok:
        failures.append("first (3,15) code: the translation group is not a "
                        "2-PD-set")
    # The ten listed positions are {0}x[0,8) u [0,3)x{0}, which is what
    # f=(8,1) would give; a [45,31] code needs 45 - 31 = 14 check positions,
    # and the stated thresholds f=(8,3), g=(1,3) give exactly those.
    gamma7 = c7.cs.positions
    if not C7_TEN_LISTED <= gamma7:
        failures.append(f"first (3,15) code: check set misses the listed "
                        f"positions {sorted(C7_TEN_LISTED - gamma7)}")
    if len(gamma7) != 45 - dimension(c7.code):
        failures.append(f"first (3,15) code: {len(gamma7)} check positions, "
                        f"wanted 45 - {dimension(c7.code)}")
    fg7 = c7.cs.fg
    f7, g7 = fg7.f[()], (fg7.g[(1,)], fg7.g[(2,)])
    if f7 != (8, 3) or g7 != (1, 3):
        failures.append(f"first (3,15) code: thresholds f={f7}, g={g7}, "
                        f"wanted f=(8,3), g=(1,3)")
    want7 = frozenset({(0, j) for j in range(8)}
                      | {(i, j) for i in range(3) for j in range(3)})
    if gamma7 != want7:
        failures.append(f"first (3,15) code: check set {sorted(gamma7)} is "
                        f"not {{0}}x[0,8) u [0,3)x[0,3)")
    if not verify_check_positions(c7.code, c7.cs).ok:
        failures.append("first (3,15) code: check set fails rank "
                        "verification")
    if dimension(c8.code) != 32:
        failures.append(f"second (3,15) code: dimension "
                        f"{dimension(c8.code)}, wanted 32")
    if not (c8.dist.is_exact and c8.dist.value == 6):
        failures.append(f"second (3,15) code: distance "
                        f"[{c8.dist.lower},{c8.dist.upper}], wanted exactly 6")
    if not c8.pd.ok:
        failures.append("second (3,15) code: the full shift-and-Frobenius "
                        "group is not a 2-PD-set")
    emit(8, failures, "all eight length-45 codes have the stated dimension, "
                      "exact distance and verified 2-PD-sets; the dimension-"
                      "31 (3,15) code has thresholds f=(8,3), g=(1,3) and the "
                      "14-position check set {0}x[0,8) u [0,3)x[0,3), which "
                      "holds the 10 listed positions and passes rank "
                      "verification")


def test_criterion_09_no_length_45_code_beats_dimension_32():
    failures = []
    counts = {}
    for r in ((5, 9), (3, 15)):
        amb = Ambient(2, r)
        hits = design_search(amb, SearchConstraints(dim_min=33))
        counts[r] = len(hits)
        if not hits:
            failures.append(f"({amb.q};{r}): no orbit unions of dimension "
                            f">= 33 at all")
        for h in hits:
            if h.dimension < 33:
                failures.append(f"({amb.q};{r}): search returned dimension "
                                f"{h.dimension}")
                break
            if find_low_weight_codeword(AbelianCode(h.defining), 4) is None:
                failures.append(
                    f"({amb.q};{r}): orbits {h.orbit_reps()} give k = "
                    f"{h.dimension} >= 33 with no codeword of weight <= 4")
    emit(9, failures,
         f"every orbit-union code of dimension >= 33 contains a codeword "
         f"of weight <= 4 ({counts[(5, 9)]} codes on (5,9), "
         f"{counts[(3, 15)]} on (3,15))")


def test_criterion_10_length_65_three_error_codes():
    failures = []
    b = battery_65()
    for row in b.rows:
        tag = f"orbit (1,{row.x})"
        k = dimension(row.code)
        if k != 40:
            failures.append(f"{tag}: dimension {k}, wanted 40")
        if not (row.dist.is_exact and row.dist.value == 8):
            failures.append(f"{tag}: distance "
                            f"[{row.dist.lower},{row.dist.upper}], wanted "
                            f"exactly 8")
        if not row.lem15:
            failures.append(f"{tag}: the threshold-shape condition for a "
                            f"3-PD-set does not hold")
        if not row.lam_pd.ok:
            failures.append(f"{tag}: the full shift-and-Frobenius group "
                            f"fails the exhaustive 3-PD check")
    emit(10, failures, "all four (5,13) codes have dimension 40, exact "
                       "distance 8, and an exhaustively verified 3-PD-set "
                       "over all 43680 triples")


def test_criterion_11_decoder_corrects_every_pattern_of_weight_up_to_2():
    failures = []
    b = battery_45()
    code, cs = b.c7.code, b.c7.cs
    H_std, _ = standard_form_parity(code, cs)
    pd = PDSet(translation_subgroup(b.amb315), 2, cs.complement())
    G = generator_matrix(code)
    rng = random.Random(1212)
    l, k = code.ambient.length, dimension(code)
    patterns = [(j,) for j in range(l)] + list(combinations(range(l), 2))
    assert len(patterns) == 1035
    miscorrected = 0
    undecoded = 0
    for _ in range(10):
        coeffs = np.array([rng.randrange(2) for _ in range(k)])
        sent = (coeffs @ G.data) % 2
        for pat in patterns:
            y = sent.copy()
            for j in pat:
                y[j] ^= 1
            out = permutation_decode(code, H_std, pd, y, 2)
            if out is None:
                undecoded += 1
            elif not np.array_equal(out, sent):
                miscorrected += 1
    if undecoded:
        failures.append(f"{undecoded} of 10350 corrupted words came back "
                        f"undecoded")
    if miscorrected:
        failures.append(f"{miscorrected} of 10350 corrupted words decoded "
                        f"to the wrong codeword")
    emit(11, failures, "all 1035 error patterns of weight 1 and 2 on each "
                       "of 10 random codewords decode back to the sent "
                       "word, zero miscorrections")


def test_criterion_12_fast_pd_conditions_agree_with_exhaustive_checks():
    failures = []
    b45 = battery_45()
    b65 = battery_65()
    applicable = 0
    for row in b45.six:
        if not row.lem13:
            failures.append(f"orbits {row.reps}: the orbit-coverage "
                            f"condition unexpectedly fails")
            continue
        applicable += 1
        if not row.lam_pd.ok:
            failures.append(f"orbits {row.reps}: fast 2-PD condition holds "
                            f"but the exhaustive check fails")
    # the two (3,15) codes do not satisfy the coverage condition, so they
    # put no obligation on the fast path; record that we checked
    for tag, row in (("first", b45.c7), ("second", b45.c8)):
        if row.lem13:
            applicable += 1
            exhaustive = is_pd_set(b45.amb315, enumerate_lambda(b45.amb315),
                                   row.cs.complement(), 2)
            if not exhaustive.ok:
                failures.append(f"{tag} (3,15) code: fast 2-PD condition "
                                f"holds but the exhaustive check fails")
    for row in b65.rows:
        if not row.lem15:
            failures.append(f"orbit (1,{row.x}): the threshold-shape "
                            f"condition unexpectedly fails")
            continue
        applicable += 1
        if not row.lam_pd.ok:
            failures.append(f"orbit (1,{row.x}): fast 3-PD condition holds "
                            f"but the exhaustive check fails")
    if applicable < 10:
        failures.append(f"only {applicable} codes exercised the fast paths")
    emit(12, failures, f"fast PD conditions agree with the exhaustive "
                       f"subset checks on all {applicable} codes where "
                       f"their hypotheses hold")
