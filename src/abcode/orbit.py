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

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .limits import MAX_FIELD_BITS, MAX_LENGTH, FieldError
from .nt import prime_power


class NotOrbitClosed(ValueError):
    """Raised when a candidate defining set is not a union of q-orbits."""

    def __init__(self, member, image):
        self.witness = (member, image)
        super().__init__(
            f"set is not closed under multiplication by q: contains {member} "
            f"but not its multiple {image}"
        )


def as_int(value, what: str) -> int:
    """A Python or numpy integer as an int; a bool or any other type is a ValueError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, not {value!r}")


@dataclass(frozen=True)
class Ambient:
    """The index space Z_{r_1} x ... x Z_{r_n} together with the field size q.

    q = p^s is a prime power within the 64-bit field-size policy, and the
    length r_1 * ... * r_n is at most MAX_LENGTH; p and s take no part in
    equality."""

    q: int
    r: tuple
    p: int = field(init=False, repr=False, compare=False)
    s: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        q = as_int(self.q, "q")
        r = tuple(as_int(v, "r_i") for v in self.r)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        if q < 2:
            raise ValueError("q must be at least 2")
        if not r:
            raise ValueError("at least one axis required")
        for ri in r:
            if ri < 1:
                raise ValueError("moduli must be positive")
            if math.gcd(ri, q) != 1:
                raise ValueError(f"gcd(r_i, q) must be 1, got r_i={ri}, q={q}")
        # no field past the size policy gets built; prime_power assumes q <= 2^64
        if q > 1 << MAX_FIELD_BITS:
            raise FieldError(f"q = {q} exceeds the {MAX_FIELD_BITS}-bit size policy")
        split = prime_power(q)
        if split is None:
            raise ValueError(f"q = {q} is not a prime power")
        p, s = split
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "s", s)
        if self.length > MAX_LENGTH:
            raise ValueError(f"length {self.length} exceeds the limit of "
                             f"{MAX_LENGTH} positions")

    @property
    def n(self) -> int:
        return len(self.r)

    @property
    def length(self) -> int:
        return math.prod(self.r)

    def positions(self):
        """All index tuples in lexicographic order."""
        return list(itertools.product(*map(range, self.r)))

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
    step = pow(q, power, r)
    out, cur = set(), a % r
    while cur not in out:
        out.add(cur)
        cur = cur * step % r
    return tuple(sorted(out))


def frobenius_order(amb: Ambient) -> int:
    """Multiplicative order of q modulo lcm(r_1, ..., r_n).

    This is the number of distinct position maps j -> q^f * j, and the
    smallest M with every r_i dividing q^M - 1.
    """
    return len(coset(1, math.lcm(*amb.r), amb.q))


def qorbit(amb: Ambient, a) -> tuple:
    """The joint q-orbit of an index tuple, as a sorted tuple of tuples."""
    out, cur = set(), amb.reduce(a)
    while cur not in out:
        out.add(cur)
        cur = amb.scale(cur, amb.q)
    return tuple(sorted(out))


def _partition(amb: Ambient, elements):
    """The q-orbits met by a sorted walk over elements, in order of first meeting."""
    seen, out = set(), []
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

    def orbits(self):
        """The q-orbits contained in the set, in order of least element."""
        return _partition(self.ambient, self.sorted_members())

    def orbit_reps(self):
        """Smallest element of each q-orbit contained in the set."""
        return [orb[0] for orb in self.orbits()]


def validate_defining_set(amb: Ambient, members: Iterable) -> DefiningSet:
    """Check orbit closure and freeze the set; witness on failure."""
    normalized = set()
    for t in members:
        t = tuple(as_int(v, "index entry") for v in t)
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
    return DefiningSet(amb, frozenset(m for t in reps for m in qorbit(amb, t)))


def normalize_ordering(n: int, ordering: Optional[Sequence]) -> tuple:
    """0-based axis permutation; slot k of the result is processed k-th."""
    if ordering is None:
        return tuple(range(n))
    ordering = tuple(as_int(v, "ordering entry") for v in ordering)
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


@dataclass(frozen=True)
class RestrictedReps:
    """One representative per q-orbit of a defining set, chosen level by level.

    The levels are the axes of the defining set's ambient, first to last; a
    caller that wants another axis order permutes the set first.  The
    selection guarantees the restriction rule: whenever two representatives
    agree on gamma at some level and their entries there share a
    q^gamma-coset, the entries are equal.  m_table maps every prefix of a
    representative to its m.
    """

    ambient: Ambient
    reps: tuple
    m_table: dict = field(compare=False, repr=False)


def restricted_reps(D: DefiningSet, rng=None) -> RestrictedReps:
    """Level-by-level representative selection, first axis first.

    Default choice is the numerically smallest coset element, which is
    deterministic and automatically consistent across branches with equal
    gamma.  With rng, a random but still consistent choice is made (one
    shared pick per (gamma, coset) pair at each level).
    """
    amb = D.ambient
    ext = {}  # member prefix -> the entries that extend it
    for t in D.members:
        for level in range(amb.n):
            ext.setdefault(t[:level], set()).add(t[level])

    m_table = {}
    gamma = {(): 1}  # prefix -> the product of m over its subprefixes
    prefixes = [()]
    for ri in amb.r:
        chosen = {}  # (gamma, coset) -> representative
        new_prefixes = []
        for e in prefixes:
            g = gamma[e]
            seen = set()
            for a in sorted(ext.get(e, ())):
                if a in seen:
                    continue
                cs = coset(a, ri, amb.q, g)
                seen.update(cs)
                key = (g, cs)
                if key not in chosen:
                    chosen[key] = cs[0] if rng is None else rng.choice(cs)
                new_prefix = e + (chosen[key],)
                m_table[new_prefix] = len(cs)
                gamma[new_prefix] = g * len(cs)
                new_prefixes.append(new_prefix)
        prefixes = sorted(new_prefixes)

    return RestrictedReps(amb, tuple(prefixes), m_table)
