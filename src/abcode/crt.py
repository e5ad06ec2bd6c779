"""Cyclic-to-abelian transport when the length splits into coprime factors.

A cyclic code of length l = r_1 * ... * r_n with pairwise coprime r_i is
the same thing as an abelian code on Z_{r_1} x ... x Z_{r_n}: the residue
map t -> (t mod r_1, ..., t mod r_n) is a group isomorphism.  Composing
each coordinate with a unit multiplier gives the other isomorphisms of
interest; all of them commute with multiplication by q, so defining sets
transport forward and check/information positions pull back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .nt import crt
from .orbit import Ambient, DefiningSet, NotOrbitClosed, as_int, validate_defining_set


@dataclass(frozen=True)
class CrtMap:
    """Isomorphism Z_l -> Z_{r_1} x ... x Z_{r_n}, t -> (u_i * t mod r_i)."""

    factors: tuple
    units: tuple

    def __init__(self, factors, units=None):
        factors = tuple(as_int(r, "factor") for r in factors)
        if not factors or any(r < 1 for r in factors):
            raise ValueError("factors must be positive")
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                if math.gcd(factors[i], factors[j]) != 1:
                    raise ValueError(
                        f"factors {factors[i]} and {factors[j]} are not coprime")
        if units is None:
            units = (1,) * len(factors)
        if len(units) != len(factors):
            raise ValueError("one unit per factor required")
        units = tuple(as_int(u, "unit") % r for u, r in zip(units, factors))
        for u, r in zip(units, factors):
            if math.gcd(u, r) != 1:
                raise ValueError(f"unit {u} is not invertible mod {r}")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "units", units)

    @property
    def length(self) -> int:
        return math.prod(self.factors)

    def forward(self, t: int):
        if not 0 <= t < self.length:
            raise ValueError(f"residue {t} out of range for length {self.length}")
        return tuple((u * t) % r for u, r in zip(self.units, self.factors))

    def inverse(self, tup) -> int:
        tup = tuple(as_int(x, "coordinate") for x in tup)
        if len(tup) != len(self.factors):
            raise ValueError("wrong number of coordinates")
        for x, r in zip(tup, self.factors):
            if not 0 <= x < r:
                raise ValueError(f"coordinate {x} out of range mod {r}")
        residues = [(pow(u, -1, r) * x) % r for u, x, r in
                    zip(self.units, tup, self.factors)]
        return crt(self.factors, residues)

    def transport_defining_set(self, q: int, members) -> DefiningSet:
        """Image of a cyclic defining set in the product ambient.

        The input must be closed under multiplication by q mod l; the image
        is then automatically orbit-closed, which validate re-checks.
        """
        l = self.length
        mem = {as_int(t, "residue") % l for t in members}
        for t in mem:
            img = (t * q) % l
            if img not in mem:
                raise NotOrbitClosed(t, img)
        amb = Ambient(q, self.factors)
        return validate_defining_set(amb, {self.forward(t) for t in mem})

    def pullback_positions(self, positions):
        """Inverse image of product-ambient positions, as a sorted list."""
        out = sorted(self.inverse(t) for t in positions)
        if len(set(out)) != len(out):
            raise AssertionError("pullback collided (unreachable for a bijection)")
        return out
