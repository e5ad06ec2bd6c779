"""Permutation decoding with the translation/Frobenius subgroup.

Coordinate translations T_v and the Frobenius position map j -> q*j
generate a subgroup of the permutation automorphisms of every abelian
code on the ambient.  Each element has the normal form j -> q^f * (j + v),
using sigma T_v = T_{q v} sigma.  A group is one int64 table of shape
(|G|, l): row i is a permutation, and perm[j] is the index of the image of
position j.  A PD-set drawn from this subgroup moves any small error
pattern entirely into the check positions, at which point one syndrome
computation repairs the word.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .code import AbelianCode, MatrixGF, distance_at_least
from .gamma import CheckSet, build_gamma
from .orbit import Ambient, DefiningSet, frobenius_order, orbits

PD_SUBSET_BUDGET = 2_000_000   # s-subsets is_pd_set may walk
SEARCH_BUDGET = 1 << 20        # orbit unions design_search may enumerate

# bench/spans.py looks up this former class to count calls of its
# as_permutation; a group element is now a row of a group table.
LambdaElem = np.ndarray


def _coords(amb: Ambient) -> np.ndarray:
    """(n, l) coordinates of the positions in lexicographic order."""
    return np.indices(amb.r).reshape(amb.n, -1)


def _index_table(amb: Ambient, coords: np.ndarray) -> np.ndarray:
    """Position indices of coordinates (axis 0), reduced mod r."""
    return np.ravel_multi_index(tuple(coords), amb.r,
                                mode="wrap").astype(np.int64)


def translation_subgroup(amb: Ambient) -> np.ndarray:
    """The coordinate translations as an (l, l) table.

    Row v is T_v: entry j is the index of position j + v.  Row 0 is the
    identity.
    """
    x = _coords(amb)
    return _index_table(amb, x[:, :, None] + x[:, None, :])


def enumerate_lambda(amb: Ambient) -> np.ndarray:
    """The whole subgroup as an (ord * l, l) table.

    Row i is the element j -> q^f * (j + v) with f = i // l and
    v = amb.tuple_of(i % l): the identity first, then (frob, shift)
    lexicographic.  The rows for frob f are M_f[T], where T is the
    translation table and M_f the index map j -> q^f * j.
    """
    T = translation_subgroup(amb)
    x = _coords(amb)
    rows = []
    for f in range(frobenius_order(amb)):
        mult = np.array([pow(amb.q, f, ri) for ri in amb.r]).reshape(-1, 1)
        rows.append(_index_table(amb, mult * x)[T])
    return np.concatenate(rows)


def _group_table(amb: Ambient, elements) -> np.ndarray:
    elements = np.asarray(elements)
    if elements.ndim != 2 or elements.shape[1] != amb.length:
        raise ValueError(f"group table of shape {elements.shape} does not "
                         f"act on the {amb.length} positions of the ambient")
    return elements


def _info_mask(amb: Ambient, info_set) -> np.ndarray:
    mask = np.zeros(amb.length, dtype=bool)
    mask[[amb.index_of(tuple(t)) for t in info_set]] = True
    return mask


@dataclass(frozen=True, eq=False)
class PDSet:
    """A claimed s-PD-set: a (|G|, l) group table and the set it serves.

    Equality and hashing are by identity, since a table has no truth value.
    """

    elements: np.ndarray
    s: int
    info_set: frozenset

    def __post_init__(self):
        object.__setattr__(self, "elements", np.asarray(self.elements))
        object.__setattr__(self, "info_set",
                           frozenset(tuple(t) for t in self.info_set))
        if self.s < 1:
            raise ValueError("claimed error capacity must be at least 1")


@dataclass
class PDResult:
    ok: bool
    witness: Optional[tuple] = None

    def __bool__(self):
        return self.ok


def check_pd_errors(l: int, s: int, budget: int) -> None:
    """Refuse an s-PD-set check before any group table is built.

    The check needs 1 <= s <= l, since past l there is no s-subset, and
    walks all C(l, s) subsets, which must stay within the budget.
    """
    if s < 1:
        raise ValueError("s must be at least 1")
    if s > l:
        raise ValueError(f"s = {s} exceeds the length {l}")
    if math.comb(l, s) > budget:
        raise ValueError(f"C({l}, {s}) exceeds the subset budget {budget}")


def is_pd_set(amb: Ambient, elements, info_set, s: int,
              budget: int = PD_SUBSET_BUDGET) -> PDResult:
    """Exhaustive Definition-style check over all s-subsets of positions.

    elements is a (|G|, l) group table.  A subset S is served when some
    row maps it entirely outside the information set.  Per position we keep
    the bitmask of serving rows; a subset is served iff the AND of its masks
    is nonzero, and any zero partial AND already dooms every superset, which
    prunes the walk.
    """
    l = amb.length
    check_pd_errors(l, s, budget)
    elements = _group_table(amb, elements)
    # served[x, g]: row g moves position x outside the information set
    served = ~_info_mask(amb, info_set)[elements.T]
    packed = np.packbits(served, axis=1, bitorder="little")
    masks = [int.from_bytes(row.tobytes(), "little") for row in packed]

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
        return PDResult(False, tuple(amb.tuple_of(x) for x in witness))
    return PDResult(True)


# ---------- sufficient conditions for two-variable codes ----------


def _hits_all_orbits(amb: Ambient, positions) -> bool:
    pos = set(positions)
    return all(any(member in pos for member in orb) for orb in orbits(amb))


def _require_two_axes(amb: Ambient) -> None:
    if amb.n != 2:
        raise ValueError("condition is stated for two-variable codes only")


def lemma13_check(code: AbelianCode, cs: CheckSet) -> bool:
    """Two-variable sufficient condition for a 2-PD-set.

    True iff the check set meets every q-orbit of the whole ambient; the
    caller is responsible for the code actually correcting 2 errors.
    """
    _require_two_axes(code.ambient)
    return _hits_all_orbits(code.ambient, cs.positions)


def lemma15_check(code: AbelianCode, cs: CheckSet) -> bool:
    """Two-variable sufficient condition for a 3-PD-set.

    Requires the top threshold to exhaust the second processed modulus,
    the last block count to exhaust the first, and the check set to meet
    every q-orbit.  The caller guarantees the code corrects 3 errors.
    """
    _require_two_axes(code.ambient)
    if cs.fg is None or cs.reps is None:
        raise ValueError("check set carries no construction data")
    r1p, r2p = cs.reps.ambient.r
    f = cs.fg.f[()]
    if not f or f[0] != r2p or cs.fg.g[(len(f),)] != r1p:
        return False
    return _hits_all_orbits(code.ambient, cs.positions)


def _exhaustive_check(amb: Ambient, s: int):
    check_pd_errors(amb.length, s, PD_SUBSET_BUDGET)
    lam = enumerate_lambda(amb)
    return lambda code, cs: bool(is_pd_set(amb, lam, cs.complement(), s))


def _lemma_check(name: str, check, capacity: int):
    """make(amb, s) for a lemma stated for PD-sets of up to capacity errors."""
    def make(amb: Ambient, s: int):
        _require_two_axes(amb)
        if s > capacity:
            raise ValueError(f"pd_mode {name} certifies at most {capacity} "
                             f"errors, not {s}")
        return check
    return make


# pd_mode -> make(amb, s): refuses an ambient or an s the mode cannot
# serve, else returns the check(code, cs) design_search applies to each
# union.  The exhaustive mode looks enumerate_lambda up when called, so a
# wrapper installed later (the traced benchmark installs one) sees the call.
PD_MODES = {"exhaustive": _exhaustive_check,
            "lemma13": _lemma_check("lemma13", lemma13_check, 2),
            "lemma15": _lemma_check("lemma15", lemma15_check, 3)}


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
    perms = _group_table(amb, pd.elements)
    check_cols = np.flatnonzero(~_info_mask(amb, pd.info_set))
    for perm in perms:
        c = np.empty_like(received)
        c[perm] = received
        syn = H_std.mul_vec(c)
        if int(np.count_nonzero(syn)) <= t:
            c[check_cols] = f.sub(c[check_cols], syn)
            return c[perm]
    return None


# ---------- exhaustive design search over orbit unions ----------


@dataclass
class SearchConstraints:
    dim_exact: Optional[int] = None
    dim_min: Optional[int] = None
    d_min: Optional[int] = None
    pd_s: Optional[int] = None
    pd_mode: str = "exhaustive"  # a key of PD_MODES
    budget: int = SEARCH_BUDGET


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
    pd_check = None
    if constraints.pd_s is not None:
        if constraints.pd_mode not in PD_MODES:
            raise ValueError(f"unknown pd_mode {constraints.pd_mode!r}")
        pd_check = PD_MODES[constraints.pd_mode](amb, constraints.pd_s)
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
        if pd_check is not None:
            pd_ok = pd_check(code, cs)
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
