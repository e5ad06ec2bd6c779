"""Check-position construction: parameter tables, f/g tables, boxes.

Three fully worked two- and three-axis codes are frozen here with their
m/f/g tables and exact position sets; the remaining tests are properties
(counting identity, representative invariance, ordering sensitivity) over
seeded random codes.
"""

import itertools
import math
import random

from abcode.code import AbelianCode, verify_check_positions
from abcode.gamma import build_gamma, compute_fg
from abcode.orbit import (Ambient, DefiningSet, orbits, qorbit,
                          restricted_reps, unpermute, validate_defining_set)

from orbit_fixtures import (check_restriction, gamma_of, hand_wired_reps,
                            permuted, random_ambient, random_defining_set)

# ---------- frozen two-axis code on (3, 7) ----------

AMB_37 = Ambient(2, (3, 7))
D_37 = validate_defining_set(AMB_37, {
    (1, 1), (2, 2), (1, 4), (2, 1), (1, 2), (2, 4), (0, 3), (0, 5),
    (0, 6), (1, 3), (2, 6), (1, 5), (2, 3), (1, 6), (2, 5)})
GAMMA_37 = {
    (0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
    (1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (1, 4), (1, 5)}

# ---------- frozen three-axis code on (3, 3, 3) ----------

AMB_333 = Ambient(2, (3, 3, 3))
D_333 = validate_defining_set(AMB_333, {
    (0, 0, 0), (1, 1, 0), (2, 2, 0), (0, 1, 1), (0, 2, 2), (2, 2, 1), (1, 1, 2)})
GAMMA_333 = {
    (0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 2, 0), (0, 0, 1), (1, 0, 1)}

# ---------- frozen ordering-sensitive code on (3, 5) ----------

AMB_35 = Ambient(2, (3, 5))
D_35 = validate_defining_set(AMB_35, {
    (0, 0), (1, 0), (2, 0), (1, 2), (2, 4), (1, 3), (2, 1)})
GAMMA_35_AXIS1_FIRST = {(0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (1, 1), (1, 2)}
GAMMA_35_AXIS2_FIRST = {(0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (0, 3), (0, 4)}


def gamma_oracle(reps, ordering):
    """Gamma from the m-table alone, with no f/g tables.

    In the reps' processing order, with P_t the length-t prefixes of the reps:
    W_{n-1}(e) sums m(x) over the children x of e, W_{t-1}(e) sums m(x)
    over the children x of e with W_t(x) > i_{t+1}, and i lies in Gamma
    iff i_1 < W_0(()).
    """
    n = reps.ambient.n
    m = reps.m_table
    children = {}
    for t in reps.reps:
        for i in range(n):
            children.setdefault(t[:i], set()).add(t[:i + 1])

    def weight(e, i):
        kids = children.get(e, ())
        if len(e) == n - 1:
            return sum(m[x] for x in kids)
        return sum(m[x] for x in kids if weight(x, i) > i[len(e) + 1])

    return {unpermute(i, ordering)
            for i in itertools.product(*map(range, reps.ambient.r))
            if i[0] < weight((), i)}


# ---------- frozen tables ----------


def test_tables_on_37():
    reps = restricted_reps(D_37)
    assert sorted(reps.reps) == [(0, 3), (1, 1), (1, 3)]
    assert reps.m_table == {(0,): 1, (1,): 2, (0, 3): 3, (1, 1): 3, (1, 3): 3}
    assert gamma_of(reps, (0, 3)) == 3
    assert gamma_of(reps, (1, 1)) == 6
    fg = compute_fg(reps)
    assert fg.f == {(): (6, 3)}
    assert fg.g == {(1,): 2, (2,): 3}


def test_gamma_on_37():
    cs = build_gamma(D_37)
    assert cs.positions == frozenset(GAMMA_37)
    assert len(cs) == len(D_37) == 15
    assert cs.complement() == frozenset(set(AMB_37.positions()) - GAMMA_37)


def test_tables_on_333():
    reps = restricted_reps(D_333)
    assert sorted(reps.reps) == [(0, 0, 0), (0, 1, 1), (1, 1, 0), (1, 1, 2)]
    m = reps.m_table
    assert m[(1,)] == 2
    assert m[(0, 1)] == 2
    for prefix in [(0,), (0, 0), (1, 1), (0, 0, 0), (0, 1, 1), (1, 1, 0), (1, 1, 2)]:
        assert m[prefix] == 1
    assert len(m) == 9
    fg = compute_fg(reps)
    assert fg.f == {(): (2, 1), (1,): (1,), (2,): (3, 1)}
    assert fg.g == {(1, 1): 2, (2, 1): 1, (2, 2): 3}


def test_gamma_on_333():
    cs = build_gamma(D_333)
    assert cs.positions == frozenset(GAMMA_333)
    assert len(cs) == 7


# ---------- ordering sensitivity ----------


def test_gamma_on_35_depends_on_ordering():
    cs1 = build_gamma(D_35)
    cs2 = build_gamma(D_35, ordering=(1, 0))
    assert cs1.positions == frozenset(GAMMA_35_AXIS1_FIRST)
    assert cs2.positions == frozenset(GAMMA_35_AXIS2_FIRST)
    assert cs1.positions != cs2.positions


def test_tables_on_35_both_orderings():
    r1 = restricted_reps(D_35)
    assert sorted(r1.reps) == [(0, 0), (1, 0), (1, 2)]
    assert r1.m_table == {(0,): 1, (1,): 2, (0, 0): 1, (1, 0): 1, (1, 2): 2}
    fg1 = compute_fg(r1)
    assert fg1.f == {(): (3, 1)}
    assert fg1.g == {(1,): 2, (2,): 3}

    r2 = restricted_reps(permuted(D_35, (1, 0)))
    # processed layout, second axis first: (2, 1) in the ambient is (1, 2)
    assert r2.reps == ((0, 0), (0, 1), (1, 2))
    assert r2.m_table == {(0,): 1, (1,): 4, (0, 0): 1, (0, 1): 2, (1, 2): 1}
    fg2 = compute_fg(r2)
    assert fg2.f == {(): (3, 1)}
    assert fg2.g == {(1,): 1, (2,): 5}


# ---------- the illegal-choice guard ----------


def test_forbidden_representatives_break_the_formulas():
    amb = Ambient(2, (3, 3, 3))
    D = validate_defining_set(
        amb, {(0, 0, 0), (0, 1, 1), (0, 2, 2), (0, 2, 1), (0, 1, 2)})
    legal = [
        {(0, 0, 0), (0, 1, 1), (0, 1, 2)},
        {(0, 0, 0), (0, 2, 1), (0, 2, 2)},
    ]
    forbidden = {(0, 0, 0), (0, 1, 1), (0, 2, 1)}

    assert set(restricted_reps(D).reps) == legal[0]
    for seed in range(50):
        reps = restricted_reps(D, rng=random.Random(seed))
        assert set(reps.reps) in legal
        assert set(reps.reps) != forbidden
        assert check_restriction(reps)

    # wire the forbidden choice in by hand: the level-2 branch weight
    # exceeds the modulus, so no threshold interval can realize it
    raw = hand_wired_reps(amb, sorted(forbidden))
    assert not check_restriction(raw)
    assert raw.m_table[(0, 0)] + raw.m_table[(0, 1)] + raw.m_table[(0, 2)] == 5
    # the single level-1 prefix (0,) carries the whole weight 5
    f = compute_fg(raw).f
    assert f[(1,)] == (5,)
    assert f[(1,)][0] > amb.r[1]


# ---------- properties over random codes ----------


def test_counting_identity_and_rep_invariance():
    rng = random.Random(21)
    for _ in range(80):
        amb = random_ambient(rng)
        D = random_defining_set(rng, amb)
        order = tuple(rng.sample(range(amb.n), amb.n))
        cs = build_gamma(D, ordering=order)
        assert len(cs) == len(D)
        assert cs.positions <= set(amb.positions())
        for seed in range(3):
            again = build_gamma(D, ordering=order, rng=random.Random(seed))
            assert again.positions == cs.positions


def test_box_counts_add_up():
    # the tables' own bookkeeping: sum of box volumes equals |D|
    rng = random.Random(22)
    for _ in range(40):
        amb = random_ambient(rng)
        D = random_defining_set(rng, amb)
        fg = build_gamma(D).fg
        total = 0
        for path, count in fg.g.items():
            for j, u in enumerate(path):
                F = fg.f[path[:j]]
                count *= F[u - 1] - (F[u] if u < len(F) else 0)
            total += count
        assert total == len(D)


def test_single_axis_gamma_is_a_prefix():
    rng = random.Random(23)
    for _ in range(30):
        q = rng.choice((2, 3, 5))
        while True:
            r = rng.randint(2, 40)
            if math.gcd(r, q) == 1:
                break
        amb = Ambient(q, (r,))
        D = random_defining_set(rng, amb)
        cs = build_gamma(D)
        assert cs.positions == {(i,) for i in range(len(D))}
        assert cs.fg.f == {}
        assert cs.fg.g == {(): len(D)}


def test_empty_defining_set():
    amb = Ambient(2, (3, 5))
    cs = build_gamma(DefiningSet(amb, frozenset()))
    assert len(cs) == 0
    assert cs.complement() == frozenset(amb.positions())


def test_full_defining_set():
    amb = Ambient(2, (3, 5))
    D = DefiningSet(amb, frozenset(amb.positions()))
    cs = build_gamma(D)
    assert cs.positions == frozenset(amb.positions())


def test_gamma_tables_match_orbit_sizes():
    rng = random.Random(24)
    for _ in range(30):
        amb = random_ambient(rng)
        D = random_defining_set(rng, amb)
        order = tuple(rng.sample(range(amb.n), amb.n))
        reps = restricted_reps(permuted(D, order),
                               rng=random.Random(rng.randrange(1000)))
        # the m recorded during selection, against coset sizes recomputed
        recomputed = hand_wired_reps(reps.ambient, reps.reps)
        assert reps.m_table == recomputed.m_table
        for t in reps.reps:
            assert gamma_of(reps, t) == len(qorbit(amb, unpermute(t, order)))


def small_ambients(qs=(2, 3, 4, 5, 7, 8, 9), max_len=7, max_axes=3):
    """Every ambient of the exhaustive slice, in a fixed order.

    At most max_axes axes, gcd(r_i, q) = 1, length at most max_len, and
    r_i >= 2 on every axis once there are two or more.
    """
    out = []
    for q in qs:
        for n in range(1, max_axes + 1):
            lo = 1 if n == 1 else 2
            for r in itertools.product(range(lo, max_len + 1), repeat=n):
                if math.prod(r) <= max_len and all(math.gcd(v, q) == 1 for v in r):
                    out.append(Ambient(q, r))
    return out


def test_construction_on_every_small_abelian_code():
    """Gamma on every orbit union of every ambient in the slice.

    The slice: q in {2, 3, 4, 5, 7, 8, 9}, at most three axes, coprime
    r_i, l <= 7, and r_i >= 2 on every axis when there are two or more:
    42 ambients, 602 orbit unions, 826 (union, axis ordering) pairs.  For
    each pair, Gamma from the default representatives and from two seeded
    choices (2 478 builds) has |D| positions, passes
    verify_check_positions, and is the same set each time.  This takes under a second; l <= 8 (about 9 s) or
    r_i = 1 axes (about 8 s) belong in a benchmark workload instead.
    """
    ambients = small_ambients()
    assert len(ambients) == 42
    unions = 0
    for amb in ambients:
        orbs = orbits(amb)
        for pick in itertools.product((False, True), repeat=len(orbs)):
            D = DefiningSet(amb, frozenset(
                m for o, chosen in zip(orbs, pick) if chosen for m in o))
            code = AbelianCode(D)
            unions += 1
            for order in itertools.permutations(range(amb.n)):
                first = None
                for seed in (None, 1, 2):
                    cs = build_gamma(D, ordering=order, rng=None if seed is None
                                     else random.Random(seed))
                    assert len(cs) == len(D), (D, order, seed)
                    assert verify_check_positions(code, cs), (D, order, seed)
                    first = cs.positions if first is None else first
                    assert cs.positions == first, (D, order, seed)
    assert unions == 602


def test_gamma_matches_the_tree_free_oracle():
    rng = random.Random(25)
    for _ in range(60):
        amb = random_ambient(rng)
        D = random_defining_set(rng, amb)
        order = tuple(rng.sample(range(amb.n), amb.n))
        for seed in (None, 1, 2):
            cs = build_gamma(
                D, ordering=order, rng=None if seed is None else random.Random(seed))
            assert cs.positions == gamma_oracle(cs.reps, cs.ordering)
