"""Number theory: isprime, factorint, prime_power and crt against sympy as the oracle."""

import math
import random
from collections import Counter

import pytest
import sympy
from sympy.ntheory.modular import crt as sympy_crt

from abcode.gf import MAX_FIELD_BITS
from abcode.nt import crt, factorint, isprime, prime_power

# Composites below 2^64 that weak tests call prime: Carmichael numbers;
# strong pseudoprimes to base 2 and to bases 2 and 3; the smallest strong
# pseudoprimes to the primes up to 5, 7, 11, 13, 17 and 31 (Pomerance,
# Selfridge and Wagstaff 1980; Jaeschke 1993); and a base-2 one near 2^64.
PSEUDOPRIMES = [
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
    2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633,
    1373653, 1530787, 1987021, 2284453, 3116107, 5173601, 6787327,
    25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
    3825123056546413051, 18446744066047760377,
]


def test_isprime_small():
    assert [n for n in range(10_001) if isprime(n)] == list(sympy.primerange(10_001))


@pytest.mark.parametrize("bits", [62, 64])
def test_isprime_random(bits):
    rng = random.Random(bits)
    ns = [rng.getrandbits(bits) | 1 << (bits - 1) for _ in range(300)]
    ns += [sympy.nextprime(n) for n in ns[:20]]
    assert [isprime(n) for n in ns] == [sympy.isprime(n) for n in ns]


def test_isprime_pseudoprimes():
    assert not any(sympy.isprime(n) for n in PSEUDOPRIMES)
    assert not any(isprime(n) for n in PSEUDOPRIMES)


def field_group_orders():
    """Every p^deg - 1 with p < 50 that the 64-bit field policy admits."""
    return [p**deg - 1 for p in sympy.primerange(50)
            for deg in range(1, MAX_FIELD_BITS + 1)
            if p**deg <= 1 << MAX_FIELD_BITS]


def test_factorint_field_group_orders():
    ns = field_group_orders()
    assert len(ns) == 302
    for n in ns:
        assert factorint(n) == sympy.factorint(n), n


def test_factorint_semiprimes():
    rng = random.Random(31)
    for _ in range(20):
        a, b = (sympy.nextprime(rng.getrandbits(31) | 1 << 30) for _ in range(2))
        assert factorint(a * b) == Counter([a, b])


@pytest.mark.parametrize("n", [
    1, 2, 4, 3**40, 997**6, 1009**2, 1009**6, 65537**4, 4294967291**2,
    2**64, 6**24, 1009**3 * 1013**2,
])
def test_factorint_prime_powers_and_units(n):
    assert factorint(n) == sympy.factorint(n)
    assert list(factorint(n)) == sorted(factorint(n))


@pytest.mark.parametrize("n", [1009 * 1709, 1031 * 2389])
def test_factorint_moves_on_when_the_rho_cycle_closes_on_n(n):
    # past trial division, y -> y^2 + 1 from 2 meets both factors in the
    # same round, so the gcd is n itself; 1031 * 2389 fails for c = 2 too
    assert factorint(n) == sympy.factorint(n)


def test_factorint_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorint(0)


def test_prime_power_splits_as_factorint_does():
    count = 0
    for p in sympy.primerange(5000):
        s = 1
        while p**s <= 1 << MAX_FIELD_BITS:
            assert prime_power(p**s) == (p, s) == next(iter(factorint(p**s).items()))
            count += 1
            s += 1
    assert count == 3968


@pytest.mark.parametrize("n", [
    6, 12, 1000, 2**64 - 1, 3**20 * 2, 1009**3 * 1013**2, 4294967291 * 4294967279,
])
def test_prime_power_refuses_other_integers(n):
    assert prime_power(n) is None


def coprime_moduli(rng, count):
    out = []
    while len(out) < count:
        m = rng.randint(1, 10**6)
        if all(math.gcd(m, o) == 1 for o in out):
            out.append(m)
    return out


def test_crt_random():
    rng = random.Random(5)
    for count in [1, 1, 2, 3, 5, 8] * 10:
        moduli = coprime_moduli(rng, count)
        if rng.random() < 0.2:
            moduli[rng.randrange(count)] = 1
        residues = [rng.randrange(m) for m in moduli]
        x = crt(moduli, residues)
        assert 0 <= x < math.prod(moduli)
        assert x == sympy_crt(moduli, residues)[0]


def test_crt_edge_moduli():
    assert crt([1], [0]) == 0
    assert crt([7], [3]) == 3
    assert crt([1, 5], [0, 4]) == 4
    assert crt([3, 5], [2, 3]) == 8
