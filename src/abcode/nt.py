"""The number theory that field and code construction need.

`isprime` is deterministic Miller-Rabin, `factorint` trial division
followed by Pollard's rho with Floyd's cycle finding (Pollard 1975, "A
Monte Carlo method for factorization"), and `crt` the pairwise Chinese
remainder map.
Callers pass p, q = p^s and the group orders p^deg - 1 of fields within
the 64-bit size policy, so every input they factor is at most 2^64.
"""

from __future__ import annotations

import itertools
import math

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# no strong pseudoprime to all of these bases lies below 3.18 * 10^23
# (Sorenson and Webster 2015), far past 2^64
_MR_BASES = _SMALL_PRIMES[:12]
_TRIAL_PRIMES = tuple(p for p in range(2, 1000)
                      if all(p % d for d in range(2, math.isqrt(p) + 1)))


def isprime(n: int) -> bool:
    """Primality; exact below 3.18 * 10^23, a strong probable-prime test above."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 47 * 47:
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _split(n: int, out: dict) -> None:
    """Add the prime factorization of n to out."""
    if n == 1:
        return
    if isprime(n):
        out[n] = out.get(n, 0) + 1
        return
    root = math.isqrt(n)
    if root * root == n:
        _split(root, out)
        _split(root, out)
        return
    for c in itertools.count(1):  # y -> y^2 + c; the next c when gcd is n
        x, y, d = 2, 2, 1
        while d == 1:  # Floyd: x takes one step per round, y two
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(x - y, n)
        if d != n:
            break
    _split(d, out)
    _split(n // d, out)


def factorint(n: int) -> dict:
    """{prime: exponent} for n >= 1, primes in increasing order."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    _split(n, out)
    return dict(sorted(out.items()))


def crt(moduli, residues) -> int:
    """The x in [0, prod(moduli)) with x = r_i mod m_i, for coprime moduli."""
    x, m = 0, 1
    for mi, ri in zip(moduli, residues, strict=True):
        x += m * ((ri - x) * pow(m, -1, mi) % mi)
        m *= mi
    return x
