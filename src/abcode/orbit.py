"""Cyclotomic cosets, q-orbits and restricted orbit representatives.

Index tuples live in Z_{r_1} x ... x Z_{r_n} with standard residues
0..r_i - 1.  A defining set must be closed under the componentwise
multiplication-by-q map; restricted representatives pick one element per
q-orbit, level by level, so that the parameter tables built on them are
well defined.  The selection records m(prefix), the size of the coset the
last entry was picked from, for every prefix of every representative;
gamma(prefix), the product of m over the subprefixes, is the size of the
prefix's joint q-orbit in the truncated ambient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence


class NotOrbitClosed(ValueError):
    """Raised when a candidate defining set is not a union of q-orbits."""

    def __init__(self, member, image):
        self.witness = (member, image)
        super().__init__(
            f"set is not closed under multiplication by q: contains {member} "
            f"but not its multiple {image}"
        )


@dataclass(frozen=True)
class Ambient:
    """The index space Z_{r_1} x ... x Z_{r_n} together with the field size q."""

    q: int
    r: tuple

    def __post_init__(self):
        object.__setattr__(self, "r", tuple(int(v) for v in self.r))
        if self.q < 2:
            raise ValueError("q must be at least 2")
        if not self.r:
            raise ValueError("at least one axis required")
        for ri in self.r:
            if ri < 1:
                raise ValueError("moduli must be positive")
            if math.gcd(ri, self.q) != 1:
                raise ValueError(f"gcd(r_i, q) must be 1, got r_i={ri}, q={self.q}")

    @property
    def n(self) -> int:
        return len(self.r)

    @property
    def length(self) -> int:
        return math.prod(self.r)

    def positions(self):
        """All index tuples in lexicographic order."""
        out = [()]
        for ri in self.r:
            out = [t + (v,) for t in out for v in range(ri)]
        return out

    def index_of(self, t) -> int:
        idx = 0
        for v, ri in zip(t, self.r):
            idx = idx * ri + v
        return idx

    def tuple_of(self, idx: int) -> tuple:
        out = []
        for ri in reversed(self.r):
            out.append(idx % ri)
            idx //= ri
        return tuple(reversed(out))

    def reduce(self, t) -> tuple:
        return tuple(v % ri for v, ri in zip(t, self.r))

    def scale(self, t, factor: int) -> tuple:
        return tuple((v * factor) % ri for v, ri in zip(t, self.r))


def coset(a: int, r: int, q: int, power: int = 1) -> tuple:
    """The q^power-cyclotomic coset of a mod r, as a sorted tuple."""
    if r < 1:
        raise ValueError("modulus must be positive")
    if math.gcd(r, q) != 1:
        raise ValueError(f"gcd(r, q) must be 1, got r={r}, q={q}")
    step = pow(q, power, r) if r > 1 else 0
    a %= r
    out = {a}
    cur = (a * step) % r if r > 1 else 0
    while cur not in out:
        out.add(cur)
        cur = (cur * step) % r
    return tuple(sorted(out))


def frobenius_order(amb: Ambient) -> int:
    """Multiplicative order of q modulo lcm(r_1, ..., r_n).

    This is the number of distinct position maps j -> q^f * j, and the
    smallest M with every r_i dividing q^M - 1.
    """
    return len(coset(1, math.lcm(*amb.r), amb.q))


def qorbit(amb: Ambient, a) -> tuple:
    """The joint q-orbit of an index tuple, as a sorted tuple of tuples."""
    a = amb.reduce(a)
    out = {a}
    cur = amb.scale(a, amb.q)
    while cur not in out:
        out.add(cur)
        cur = amb.scale(cur, amb.q)
    return tuple(sorted(out))


def _partition(amb: Ambient, elements):
    """The q-orbits met by a sorted walk over elements, in order of first meeting."""
    seen = set()
    out = []
    for t in elements:
        if t not in seen:
            orb = qorbit(amb, t)
            seen.update(orb)
            out.append(orb)
    return out


def orbits(amb: Ambient):
    """All q-orbits of the ambient, sorted by their smallest element."""
    return _partition(amb, amb.positions())


@dataclass(frozen=True)
class DefiningSet:
    """An orbit-closed subset of the ambient index space."""

    ambient: Ambient
    members: frozenset

    def __len__(self) -> int:
        return len(self.members)

    def sorted_members(self):
        return sorted(self.members)

    def orbit_reps(self):
        """Smallest element of each q-orbit contained in the set."""
        return [orb[0] for orb in _partition(self.ambient, self.sorted_members())]


def validate_defining_set(amb: Ambient, members: Iterable) -> DefiningSet:
    """Check orbit closure and freeze the set; witness on failure."""
    normalized = set()
    for t in members:
        t = tuple(int(v) for v in t)
        if len(t) != amb.n:
            raise ValueError(f"index {t} has wrong arity for {amb.r}")
        for v, ri in zip(t, amb.r):
            if not 0 <= v < ri:
                raise ValueError(f"index {t} out of range for moduli {amb.r}")
        normalized.add(t)
    for t in sorted(normalized):
        image = amb.scale(t, amb.q)
        if image not in normalized:
            raise NotOrbitClosed(t, image)
    return DefiningSet(amb, frozenset(normalized))


def from_orbit_reps(amb: Ambient, reps: Iterable) -> DefiningSet:
    """Union of the q-orbits of the given representatives."""
    members = set()
    for t in reps:
        members.update(qorbit(amb, t))
    return DefiningSet(amb, frozenset(members))


def normalize_ordering(n: int, ordering: Optional[Sequence]) -> tuple:
    """0-based axis permutation; slot k of the result is processed k-th."""
    if ordering is None:
        return tuple(range(n))
    ordering = tuple(int(v) for v in ordering)
    if sorted(ordering) != list(range(n)):
        raise ValueError(f"ordering {ordering} is not a permutation of 0..{n - 1}")
    return ordering


def permute(t, ordering) -> tuple:
    return tuple(t[axis] for axis in ordering)


def unpermute(t, ordering) -> tuple:
    out = [0] * len(ordering)
    for slot, axis in enumerate(ordering):
        out[axis] = t[slot]
    return tuple(out)


def _gamma(m_table, prefix) -> int:
    """Product of m over the nonempty subprefixes of prefix."""
    return math.prod(m_table[prefix[:i]] for i in range(1, len(prefix) + 1))


@dataclass(frozen=True)
class RestrictedReps:
    """One representative per q-orbit of a defining set, chosen level by level.

    reps are stored in the original axis layout; processed() gives them in
    the computation order.  The selection guarantees the restriction rule:
    whenever two representatives agree on gamma at some level and their
    entries there share a q^gamma-coset, the entries are equal.  m_table
    maps every processed prefix of a representative to its m.
    """

    ambient: Ambient
    ordering: tuple
    reps: tuple
    m_table: dict = field(compare=False, repr=False)

    def processed(self):
        return [permute(t, self.ordering) for t in self.reps]

    def gamma(self, prefix) -> int:
        """gamma of a processed prefix: the size of its joint q-orbit."""
        return _gamma(self.m_table, prefix)

    def processed_moduli(self) -> tuple:
        return permute(self.ambient.r, self.ordering)

    def __len__(self) -> int:
        return len(self.reps)


def restricted_reps(D: DefiningSet, ordering=None, rng=None) -> RestrictedReps:
    """Level-by-level representative selection.

    Default choice is the numerically smallest coset element, which is
    deterministic and automatically consistent across branches with equal
    gamma.  With rng, a random but still consistent choice is made (one
    shared pick per (gamma, coset) pair at each level).
    """
    amb = D.ambient
    n = amb.n
    ordering = normalize_ordering(n, ordering)
    moduli = permute(amb.r, ordering)
    q = amb.q

    ext = {}  # member prefix -> the entries that extend it
    for t in D.members:
        t = permute(t, ordering)
        for level in range(n):
            ext.setdefault(t[:level], set()).add(t[level])

    m_table = {}
    prefixes = [()]
    for level in range(n):
        ri = moduli[level]
        chosen = {}  # (gamma, coset) -> representative
        new_prefixes = []
        for e in prefixes:
            g = _gamma(m_table, e)
            seen = set()
            for a in sorted(ext.get(e, ())):
                if a in seen:
                    continue
                cs = coset(a, ri, q, g)
                seen.update(cs)
                key = (g, cs)
                if key not in chosen:
                    chosen[key] = cs[0] if rng is None else rng.choice(cs)
                rep = chosen[key]
                new_prefix = e + (rep,)
                m_table[new_prefix] = len(cs)
                new_prefixes.append(new_prefix)
        prefixes = sorted(new_prefixes)

    reps = tuple(unpermute(t, ordering) for t in prefixes)
    return RestrictedReps(amb, ordering, reps, m_table)


def check_restriction(reps: RestrictedReps) -> bool:
    """Directly verify the restriction rule on a representative list."""
    processed = reps.processed()
    moduli = reps.processed_moduli()
    q = reps.ambient.q
    for e in processed:
        for ep in processed:
            for t in range(1, len(moduli) + 1):
                g1 = reps.gamma(e[:t - 1])
                if g1 != reps.gamma(ep[:t - 1]):
                    continue
                ct = coset(e[t - 1], moduli[t - 1], q, g1)
                if ep[t - 1] in ct and e[t - 1] != ep[t - 1]:
                    return False
    return True
