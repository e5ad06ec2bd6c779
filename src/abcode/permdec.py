"""Permutation decoding with the translation/Frobenius subgroup.

Coordinate translations T_v and the Frobenius position map j -> q*j
generate a subgroup of the permutation automorphisms of every abelian
code on the ambient.  Elements are kept in the normal form
j -> q^i * (j + v), using sigma T_v = T_{q v} sigma.  A PD-set drawn from
this subgroup moves any small error pattern entirely into the check
positions, at which point one syndrome computation repairs the word.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from sympy.ntheory import n_order

from .code import (AbelianCode, MatrixGF, distance_at_least,
                   generator_matrix, standard_form_parity)
from .gamma import CheckSet, build_gamma
from .orbit import Ambient, DefiningSet, orbits

_PD_SUBSET_BUDGET = 2_000_000


def frobenius_order(amb: Ambient) -> int:
    """Multiplicative order of q modulo lcm(r_1, ..., r_n)."""
    m = math.lcm(*amb.r)
    return int(n_order(amb.q, m)) if m > 1 else 1


@dataclass(frozen=True)
class LambdaElem:
    """Position permutation j -> q^frob * (j + shift), componentwise."""

    ambient: Ambient
    shift: tuple
    frob: int

    def __post_init__(self):
        amb = self.ambient
        object.__setattr__(self, "shift",
                           tuple(int(v) % r for v, r in zip(self.shift, amb.r)))
        object.__setattr__(self, "frob", int(self.frob) % frobenius_order(amb))
        if len(self.shift) != amb.n:
            raise ValueError("shift length does not match the ambient")

    def apply(self, pos):
        amb = self.ambient
        mult = pow(amb.q, self.frob)
        return tuple((mult * (p + v)) % r
                     for p, v, r in zip(pos, self.shift, amb.r))

    def inverse(self) -> "LambdaElem":
        amb = self.ambient
        ordq = frobenius_order(amb)
        mult = pow(amb.q, self.frob)
        inv_shift = tuple((-mult * v) % r for v, r in zip(self.shift, amb.r))
        return LambdaElem(amb, inv_shift, (ordq - self.frob) % ordq)

    def compose(self, other: "LambdaElem") -> "LambdaElem":
        """self after other: (self.compose(other)).apply == self.apply(other.apply(.))."""
        amb = self.ambient
        if other.ambient != amb:
            raise ValueError("elements act on different ambients")
        ordq = frobenius_order(amb)
        q_inv_pow = pow(amb.q, (ordq - other.frob) % ordq)
        shift = tuple((ov + q_inv_pow * sv) % r
                      for ov, sv, r in zip(other.shift, self.shift, amb.r))
        return LambdaElem(amb, shift, self.frob + other.frob)

    def as_permutation(self) -> np.ndarray:
        """Index array perm with perm[j] = index of the image of position j."""
        amb = self.ambient
        return np.array([amb.index_of(self.apply(pos)) for pos in amb.positions()],
                        dtype=np.int64)

    def is_identity(self) -> bool:
        return self.frob == 0 and not any(self.shift)


def identity_elem(amb: Ambient) -> LambdaElem:
    return LambdaElem(amb, (0,) * amb.n, 0)


def enumerate_lambda(amb: Ambient):
    """The full subgroup, identity first, then (frob, shift) lexicographic."""
    ordq = frobenius_order(amb)
    out = []
    for i in range(ordq):
        for v in amb.positions():
            out.append(LambdaElem(amb, v, i))
    return out


def translation_subgroup(amb: Ambient):
    """Just the coordinate translations T_v (frob = 0)."""
    return [LambdaElem(amb, v, 0) for v in amb.positions()]


def apply_to_vector(tau: LambdaElem, vec) -> np.ndarray:
    vec = np.asarray(vec)
    perm = tau.as_permutation()
    out = np.empty_like(vec)
    out[perm] = vec
    return out


@dataclass(frozen=True)
class PDSet:
    elements: tuple
    s: int
    info_set: frozenset

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "info_set",
                           frozenset(tuple(t) for t in self.info_set))
        if self.s < 1:
            raise ValueError("claimed error capacity must be at least 1")


def lambda_pd_set(cs: CheckSet, s: int) -> PDSet:
    """PDSet built from the whole subgroup, serving the complement of cs."""
    return PDSet(enumerate_lambda(cs.ambient), s, frozenset(cs.complement()))


@dataclass
class PDResult:
    ok: bool
    witness: Optional[tuple] = None

    def __bool__(self):
        return self.ok


def is_pd_set(amb: Ambient, elements, info_set, s: int,
              budget: int = _PD_SUBSET_BUDGET) -> PDResult:
    """Exhaustive Definition-style check over all s-subsets of positions.

    A subset S is served when some element maps it entirely outside the
    information set.  Per position we keep the bitmask of serving elements;
    a subset is served iff the AND of its masks is nonzero, and any zero
    partial AND already dooms every superset, which prunes the walk.
    """
    if s < 1:
        raise ValueError("s must be at least 1")
    l = amb.length
    if math.comb(l, s) > budget:
        raise ValueError(f"C({l}, {s}) exceeds the subset budget {budget}")
    elements = list(elements)
    positions = amb.positions()
    info_idx = {amb.index_of(tuple(t)) for t in info_set}
    masks = [0] * l
    for ti, tau in enumerate(elements):
        perm = tau.as_permutation()
        bit = 1 << ti
        for xi in range(l):
            if int(perm[xi]) not in info_idx:
                masks[xi] |= bit

    witness = None

    def walk(start, acc, chosen):
        nonlocal witness
        if len(chosen) == s:
            if acc == 0:
                witness = tuple(chosen)
                return True
            return False
        remaining = s - len(chosen)
        if acc == 0:
            pad = [x for x in range(l) if x not in chosen][:remaining]
            witness = tuple(chosen + pad)
            return True
        for x in range(start, l - remaining + 1):
            if walk(x + 1, acc & masks[x], chosen + [x]):
                return True
        return False

    full = (1 << len(elements)) - 1
    if walk(0, full, []):
        return PDResult(False, tuple(positions[x] for x in witness))
    return PDResult(True)


def check_pd_set(code: AbelianCode, pd: PDSet,
                 budget: int = _PD_SUBSET_BUDGET) -> PDResult:
    return is_pd_set(code.ambient, pd.elements, pd.info_set, pd.s, budget)


# ---------- sufficient conditions for two-variable codes ----------


def _hits_all_orbits(amb: Ambient, positions) -> bool:
    pos = set(positions)
    return all(any(member in pos for member in orb) for orb in orbits(amb))


def lemma13_check(code: AbelianCode, cs: CheckSet) -> bool:
    """Two-variable sufficient condition for a 2-PD-set.

    True iff the check set meets every q-orbit of the whole ambient; the
    caller is responsible for the code actually correcting 2 errors.
    """
    if code.ambient.n != 2:
        raise ValueError("condition is stated for two-variable codes only")
    return _hits_all_orbits(code.ambient, cs.positions)


def lemma15_check(code: AbelianCode, cs: CheckSet) -> bool:
    """Two-variable sufficient condition for a 3-PD-set.

    Requires the top threshold to exhaust the second processed modulus,
    the last block count to exhaust the first, and the check set to meet
    every q-orbit.  The caller guarantees the code corrects 3 errors.
    """
    if code.ambient.n != 2:
        raise ValueError("condition is stated for two-variable codes only")
    if cs.tree is None or cs.reps is None:
        raise ValueError("check set carries no construction data")
    r1p, r2p = cs.reps.processed_moduli()
    root = cs.tree.root
    if root is None or not root.f:
        return False
    if root.f[0] != r2p:
        return False
    if root.children[-1] != r1p:
        return False
    return _hits_all_orbits(code.ambient, cs.positions)


# ---------- the decoding loop ----------


def permutation_decode(code: AbelianCode, H_std: MatrixGF, pd: PDSet,
                       received, t: int):
    """Try group elements until the error lands in the check positions.

    Success criterion per element: syndrome weight of the permuted word is
    at most t.  The repaired word is a codeword within distance t of the
    permuted input, so the returned word is within t of the input; with a
    verified t-PD-set and true error weight <= t this is the sent codeword.
    Returns None when no element works.
    """
    amb = code.ambient
    f = code.scalars
    received = np.asarray(received)
    if received.shape != (amb.length,):
        raise ValueError("received word has the wrong length")
    info = {tuple(t_) for t_ in pd.info_set}
    check_cols = [j for j, pos in enumerate(amb.positions()) if pos not in info]
    for tau in pd.elements:
        perm = tau.as_permutation()
        y = np.empty_like(received)
        y[perm] = received
        syn = H_std.mul_vec(y)
        if int(np.count_nonzero(syn)) <= t:
            c = y.copy()
            for i, col in enumerate(check_cols):
                c[col] = f.sub(int(c[col]), int(syn[i]))
            return c[perm]
    return None


# ---------- exhaustive design search over orbit unions ----------


@dataclass
class SearchConstraints:
    dim_exact: Optional[int] = None
    dim_min: Optional[int] = None
    d_min: Optional[int] = None
    pd_s: Optional[int] = None
    pd_mode: str = "exhaustive"  # or "lemma13" / "lemma15"
    budget: int = 1 << 20


@dataclass
class SearchHit:
    defining: DefiningSet
    dimension: int
    check_set: CheckSet
    d_min_passed: Optional[int]
    pd_ok: Optional[bool]

    def orbit_reps(self):
        return self.defining.orbit_reps()


def design_search(amb: Ambient, constraints: SearchConstraints):
    """Enumerate unions of q-orbits and keep those meeting all constraints.

    Filters run cheapest first: dimension from orbit sizes alone, then
    minimum distance, then the PD condition.  Hits come back sorted by
    dimension descending, ties broken by the sorted defining set.
    """
    orbs = orbits(amb)
    if 2 ** len(orbs) > constraints.budget:
        raise ValueError(f"2^{len(orbs)} orbit unions exceed the search budget")
    lam = None
    if constraints.pd_s is not None and constraints.pd_mode == "exhaustive":
        lam = enumerate_lambda(amb)
    hits = []
    l = amb.length
    for pick in itertools.product((False, True), repeat=len(orbs)):
        size = sum(len(o) for o, chosen in zip(orbs, pick) if chosen)
        k = l - size
        if constraints.dim_exact is not None and k != constraints.dim_exact:
            continue
        if constraints.dim_min is not None and k < constraints.dim_min:
            continue
        members = frozenset(m for o, chosen in zip(orbs, pick) if chosen
                            for m in o)
        ds = DefiningSet(amb, members)
        code = AbelianCode(ds)
        d_passed = None
        if constraints.d_min is not None:
            if k == 0:
                continue
            if not distance_at_least(code, constraints.d_min):
                continue
            d_passed = constraints.d_min
        cs = build_gamma(ds)
        pd_ok = None
        if constraints.pd_s is not None:
            if constraints.pd_mode == "exhaustive":
                pd_ok = bool(is_pd_set(amb, lam, cs.complement(),
                                       constraints.pd_s))
            elif constraints.pd_mode == "lemma13":
                pd_ok = lemma13_check(code, cs)
            elif constraints.pd_mode == "lemma15":
                pd_ok = lemma15_check(code, cs)
            else:
                raise ValueError(f"unknown pd_mode {constraints.pd_mode!r}")
            if not pd_ok:
                continue
        hits.append(SearchHit(ds, k, cs, d_passed, pd_ok))
    hits.sort(key=lambda h: (-h.dimension, h.defining.sorted_members()))
    return hits


def design_report(amb: Ambient, hits) -> str:
    """Plain-text table of search results."""
    lines = [f"ambient q={amb.q} r={amb.r}: {len(hits)} hit(s)"]
    for h in hits:
        reps = ",".join(str(t) for t in h.orbit_reps())
        dpart = f" d>={h.d_min_passed}" if h.d_min_passed is not None else ""
        pdpart = f" pd={h.pd_ok}" if h.pd_ok is not None else ""
        lines.append(f"  k={h.dimension} |D|={len(h.defining)} orbits=[{reps}]"
                     f"{dpart}{pdpart}")
    return "\n".join(lines)
