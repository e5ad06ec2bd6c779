"""Test helpers shared by the orbit and Gamma tests: hand-wired
representatives, the restriction-rule oracle, permuted defining sets and
seeded random ambients and defining sets."""

import math

from abcode.orbit import (Ambient, DefiningSet, RestrictedReps, coset, orbits,
                          permute)


def hand_wired_reps(amb, reps):
    """RestrictedReps on hand-picked reps, m from coset sizes."""
    m = {}
    for t in reps:
        gamma = 1
        for i in range(1, len(t) + 1):
            m[t[:i]] = len(coset(t[i - 1], amb.r[i - 1], amb.q, gamma))
            gamma *= m[t[:i]]
    return RestrictedReps(amb, tuple(reps), m)


def gamma_of(reps, prefix):
    """Product of m over the nonempty subprefixes: the joint q-orbit size."""
    return math.prod(reps.m_table[prefix[:i]] for i in range(1, len(prefix) + 1))


def check_restriction(reps):
    """Directly verify the restriction rule on a representative list."""
    moduli = reps.ambient.r
    q = reps.ambient.q
    for e in reps.reps:
        for ep in reps.reps:
            for t in range(1, len(moduli) + 1):
                g1 = gamma_of(reps, e[:t - 1])
                if g1 != gamma_of(reps, ep[:t - 1]):
                    continue
                ct = coset(e[t - 1], moduli[t - 1], q, g1)
                if ep[t - 1] in ct and e[t - 1] != ep[t - 1]:
                    return False
    return True


def permuted(D, order):
    """D with its axes taken in the given order: slot k holds axis order[k]."""
    amb = D.ambient
    return DefiningSet(Ambient(amb.q, permute(amb.r, order)),
                       frozenset(permute(t, order) for t in D.members))


def random_ambient(rng, qs=(2, 3, 5), max_len=60):
    q = rng.choice(qs)
    n = rng.randint(1, 3)
    moduli = []
    for _ in range(n):
        while True:
            ri = rng.randint(1, 15)
            if math.gcd(ri, q) == 1 and math.prod(moduli) * ri <= max_len:
                moduli.append(ri)
                break
    return Ambient(q, tuple(moduli))


def random_defining_set(rng, amb):
    orbs = orbits(amb)
    picked = [o for o in orbs if rng.random() < 0.5]
    if not picked:
        picked = [rng.choice(orbs)]
    return DefiningSet(amb, frozenset(m for o in picked for m in o))
