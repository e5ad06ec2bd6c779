"""Orbit layer: cosets, q-orbits, defining sets, restricted representatives.

Brute-force oracles recompute cosets and orbit sizes from their definitions;
the lcm law for joint orbits and the level-by-level restriction rule are the
two facts everything downstream leans on.
"""

import hashlib
import math
import random

import pytest

from abcode.orbit import (Ambient, NotOrbitClosed, check_restriction, coset,
                          from_orbit_reps, normalize_ordering, orbits, permute,
                          qorbit, restricted_reps, unpermute,
                          validate_defining_set)

from orbit_fixtures import (hand_wired_reps, permuted, random_ambient,
                            random_defining_set)

# ---------- oracles ----------


def coset_naive(a, r, q, power=1):
    """All images of a under repeated multiplication by q^power mod r."""
    if r == 1:
        return (0,)
    step = pow(q, power, r)
    return tuple(sorted({(a * pow(step, k, r)) % r for k in range(r)}))


def orbit_naive(q, moduli, t):
    out = set()
    cur = tuple(v % m for v, m in zip(t, moduli))
    while cur not in out:
        out.add(cur)
        cur = tuple((v * q) % m for v, m in zip(cur, moduli))
    return tuple(sorted(out))


# ---------- Ambient ----------


def test_ambient_validation():
    with pytest.raises(ValueError):
        Ambient(2, (4,))  # gcd(4, 2) = 2
    with pytest.raises(ValueError):
        Ambient(1, (3,))
    with pytest.raises(ValueError):
        Ambient(2, ())
    with pytest.raises(ValueError):
        Ambient(2, (0, 3))


def test_ambient_indexing_roundtrip():
    amb = Ambient(2, (3, 5, 7))
    pos = amb.positions()
    assert len(pos) == amb.length == 105
    assert pos == sorted(pos)  # lexicographic
    for i, t in enumerate(pos):
        assert amb.index_of(t) == i
        assert amb.tuple_of(i) == t
    assert amb.reduce((4, -1, 9)) == (1, 4, 2)
    assert amb.scale((1, 2, 3), 2) == (2, 4, 6)


# ---------- cosets and orbits ----------


@pytest.mark.parametrize("q", [2, 3, 5])
def test_coset_matches_naive(q):
    for r in [1, 2, 3, 5, 7, 9, 11, 15]:
        if math.gcd(r, q) != 1:
            continue
        for power in (1, 2, 3):
            for a in range(r):
                got = coset(a, r, q, power)
                assert got == coset_naive(a, r, q, power)
                step = pow(q, power, r) if r > 1 else 0
                assert all((x * step) % r in got for x in got)


def test_coset_requires_coprime():
    with pytest.raises(ValueError, match=r"^gcd\(r, q\) must be 1, got r=4, q=2$"):
        coset(1, 4, 2)
    with pytest.raises(ValueError):
        coset(0, 0, 2)


def test_qorbit_matches_naive_and_lcm_law():
    rng = random.Random(5)
    for _ in range(40):
        amb = random_ambient(rng)
        for _ in range(5):
            t = tuple(rng.randrange(ri) for ri in amb.r)
            orb = qorbit(amb, t)
            assert orb == orbit_naive(amb.q, amb.r, t)
            sizes = [len(coset(v, ri, amb.q)) for v, ri in zip(t, amb.r)]
            assert len(orb) == math.lcm(*sizes)


def test_orbits_partition_the_ambient():
    rng = random.Random(6)
    for _ in range(25):
        amb = random_ambient(rng)
        orbs = orbits(amb)
        flat = [t for o in orbs for t in o]
        assert len(flat) == amb.length
        assert set(flat) == set(amb.positions())
        assert [o[0] for o in orbs] == sorted(o[0] for o in orbs)


# ---------- defining sets ----------


def test_validate_accepts_orbit_unions():
    rng = random.Random(7)
    for _ in range(25):
        amb = random_ambient(rng)
        D = random_defining_set(rng, amb)
        same = validate_defining_set(amb, D.members)
        assert same.members == D.members
        reps = same.orbit_reps()
        assert frozenset(m for t in reps for m in qorbit(amb, t)) == D.members
        for t in reps:
            assert t == qorbit(amb, t)[0]


def test_validate_rejects_with_witness():
    amb = Ambient(2, (7,))
    # {1} is not closed: 1 -> 2 missing
    with pytest.raises(NotOrbitClosed) as exc:
        validate_defining_set(amb, {(1,)})
    member, image = exc.value.witness
    assert image == amb.scale(member, 2)
    with pytest.raises(ValueError):
        validate_defining_set(amb, {(7,)})  # out of range
    with pytest.raises(ValueError):
        validate_defining_set(amb, {(1, 2)})  # wrong arity


def test_from_orbit_reps():
    amb = Ambient(2, (3, 7))
    D = from_orbit_reps(amb, [(1, 1)])
    assert D.members == frozenset(qorbit(amb, (1, 1)))
    assert len(D) == 6


# ---------- orderings ----------


def test_normalize_ordering():
    assert normalize_ordering(3, None) == (0, 1, 2)
    assert normalize_ordering(2, (1, 0)) == (1, 0)
    with pytest.raises(ValueError):
        normalize_ordering(2, (0, 2))
    with pytest.raises(ValueError):
        normalize_ordering(3, (0, 1))


def test_permute_roundtrip():
    rng = random.Random(8)
    for _ in range(50):
        n = rng.randint(1, 4)
        order = tuple(rng.sample(range(n), n))
        t = tuple(rng.randrange(10) for _ in range(n))
        assert unpermute(permute(t, order), order) == t
        assert permute(unpermute(t, order), order) == t


# ---------- restricted representatives ----------


def test_restricted_reps_cover_each_orbit_once():
    rng = random.Random(9)
    for _ in range(60):
        amb = random_ambient(rng)
        D = random_defining_set(rng, amb)
        order = tuple(rng.sample(range(amb.n), amb.n))
        D = permuted(D, order)
        reps = restricted_reps(D)
        assert reps.ambient == D.ambient
        orbs = {qorbit(D.ambient, t) for t in D.members}
        assert len(reps.reps) == len(orbs)
        assert {qorbit(D.ambient, t) for t in reps.reps} == orbs
        for t in reps.reps:
            assert t in D.members
        assert check_restriction(reps)


def test_restricted_reps_m_table_consistent():
    rng = random.Random(10)
    for _ in range(40):
        amb = random_ambient(rng)
        D = random_defining_set(rng, amb)
        order = tuple(rng.sample(range(amb.n), amb.n))
        reps = restricted_reps(permuted(D, order),
                               rng=random.Random(rng.randrange(1000)))
        moduli = reps.ambient.r
        # m is recorded for exactly the prefixes of the representatives
        assert set(reps.m_table) == {t[:i] for t in reps.reps
                                     for i in range(1, amb.n + 1)}
        for t in reps.reps:
            gamma = 1
            for i in range(1, len(t) + 1):
                prefix = t[:i]
                assert reps.m_table[prefix] == len(coset(
                    prefix[-1], moduli[i - 1], amb.q, gamma))
                gamma *= reps.m_table[prefix]
                assert reps.gamma(prefix) == gamma
            # full product is the joint orbit size
            assert gamma == len(qorbit(amb, unpermute(t, order)))


def test_restricted_reps_random_choices_stay_legal():
    rng_codes = random.Random(11)
    for _ in range(25):
        amb = random_ambient(rng_codes)
        D = random_defining_set(rng_codes, amb)
        base = restricted_reps(D)
        orbs = {qorbit(amb, t) for t in base.reps}
        for seed in range(6):
            reps = restricted_reps(D, rng=random.Random(seed))
            assert {qorbit(amb, t) for t in reps.reps} == orbs
            assert check_restriction(reps)


def test_default_reps_are_the_orbit_minima():
    # the check tensor reads D.orbits() where Gamma reads the default reps:
    # both walk the same least elements, in the same order, with gamma the
    # size of each orbit
    rng = random.Random(13)
    for _ in range(120):
        amb = random_ambient(rng, qs=(2, 3, 4, 5, 7, 8, 9))
        D = random_defining_set(rng, amb)
        reps = restricted_reps(D)
        orbs = D.orbits()
        assert list(reps.reps) == [orb[0] for orb in orbs] == D.orbit_reps()
        assert [reps.gamma(t) for t in reps.reps] == [len(orb) for orb in orbs]


PINNED_REPS_DIGEST = (
    "20c6aa0c2fb48571af0c78cfa4eeaba49532bdb34aba51149a19d10f048fe874")


def test_seeded_choices_are_pinned():
    # digest recorded when restricted_reps still rescanned every member
    # prefix per branch; the order of rng.choice calls must not change.
    # 82 of the 120 seeded picks differ from the default pick.
    rng = random.Random(12)
    out = []
    for _ in range(40):
        amb = random_ambient(rng)
        D = random_defining_set(rng, amb)
        order = tuple(rng.sample(range(amb.n), amb.n))
        for seed in (None, 1, 2, 3):
            reps = restricted_reps(
                permuted(D, order), rng=None if seed is None else random.Random(seed))
            out.append((tuple(unpermute(t, order) for t in reps.reps),
                        sorted(reps.m_table.items())))
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digest == PINNED_REPS_DIGEST


def test_check_restriction_flags_bad_choice():
    # two-axis set where the second-level picks must be shared across
    # branches with equal first-level coset size
    amb = Ambient(2, (3, 3, 3))
    D = validate_defining_set(
        amb, {(0, 0, 0), (0, 1, 1), (0, 2, 2), (0, 2, 1), (0, 1, 2)})
    good = restricted_reps(D)
    assert check_restriction(good)
    bad = hand_wired_reps(amb, ((0, 0, 0), (0, 1, 1), (0, 2, 1)))
    assert not check_restriction(bad)


def test_restricted_reps_single_axis():
    amb = Ambient(2, (15,))
    D = from_orbit_reps(amb, [(1,), (3,), (5,)])
    reps = restricted_reps(D)
    assert sorted(reps.reps) == [(1,), (3,), (5,)]
    assert reps.m_table[(1,)] == 4
    assert reps.m_table[(3,)] == 4
    assert reps.m_table[(5,)] == 2
