"""Check-position sets for abelian codes, computed from the defining set.

Given restricted representatives of an orbit-closed defining set and the
coset sizes m recorded while they were chosen, the construction walks
coordinates from the last to the first.  At each stage it sorts the
surviving branch weights into a strictly decreasing threshold sequence
f[...]; each choice of threshold index narrows the admissible range of
one position coordinate, and the first coordinate finally gets a prefix
0..g-1.  The union of the resulting boxes is the check-position set
Gamma; its complement is an information set, and |Gamma| always equals
the size of the defining set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .orbit import (Ambient, DefiningSet, RestrictedReps, normalize_ordering,
                    restricted_reps, unpermute)


@dataclass
class FGNode:
    """One threshold sequence of the f/g tree.

    level is the position coordinate it constrains (2..n).  f is the
    strictly decreasing sequence of surviving branch weights, with an
    implicit trailing 0.  values maps each prefix (length level-1) to its
    branch weight; children holds, per threshold index u (1-based), the
    FGNode one level down, or the final g value when level == 2.
    """

    level: int
    f: tuple
    values: dict = field(repr=False)
    children: tuple = ()

    def interval(self, u: int):
        """Admissible coordinate range [f[u+1], f[u]) for threshold index u."""
        hi = self.f[u - 1]
        lo = self.f[u] if u < len(self.f) else 0
        return range(lo, hi)


@dataclass
class FGTree:
    """Threshold tree; for n = 1 it degenerates to the single count total."""

    n: int
    root: Optional[FGNode]
    total: int

    def g(self, u_list) -> int:
        """g[u_n, ..., u_2] along a full choice of threshold indices."""
        node = self.root
        for u in u_list[:-1]:
            node = node.children[u - 1]
        return node.children[u_list[-1] - 1]


def _build_tree(prefixes_by_len, m, n) -> Optional[FGNode]:
    """prefixes_by_len[i] = sorted prefixes of length i (processed layout)."""

    ext = {}
    for i in range(1, n):
        for t in prefixes_by_len[i + 1]:
            ext.setdefault(t[:i], []).append(t[-1])

    def make_node(level, values):
        f = tuple(sorted({v for v in values.values() if v > 0}, reverse=True))
        children = []
        for thr in f:
            if level == 2:
                children.append(sum(m[e] for e, v in values.items() if v >= thr))
            else:
                sub = {}
                for e in prefixes_by_len[level - 2]:
                    total = 0
                    for a in ext.get(e, []):
                        if values[e + (a,)] >= thr:
                            total += m[e + (a,)]
                    sub[e] = total
                children.append(make_node(level - 1, sub))
        return FGNode(level, f, values, tuple(children))

    base = {}
    for e in prefixes_by_len[n - 1]:
        base[e] = sum(m[e + (a,)] for a in ext.get(e, []))
    return make_node(n, base)


def compute_fg(reps: RestrictedReps) -> FGTree:
    """The f sequences and g counts for a representative list."""
    n = reps.ambient.n
    processed = reps.processed()
    if n == 1:
        total = sum(reps.m_table[t] for t in set(processed))
        return FGTree(1, None, total)
    prefixes_by_len = {
        i: sorted({t[:i] for t in processed}) for i in range(1, n + 1)
    }
    root = _build_tree(prefixes_by_len, reps.m_table, n)
    return FGTree(n, root, 0)


@dataclass(frozen=True)
class CheckSet:
    """A verified-shape set of check positions with its provenance."""

    ambient: Ambient
    ordering: tuple
    positions: frozenset
    reps: Optional[RestrictedReps] = field(default=None, compare=False, repr=False)
    tree: Optional[FGTree] = field(default=None, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.positions)

    def sorted_positions(self):
        return sorted(self.positions)

    def complement(self):
        return frozenset(set(self.ambient.positions()) - self.positions)


def _boxes(tree: FGTree):
    """Yield (i_1 count, [range for i_2, ..., range for i_n]) per threshold path."""

    def walk(node, tail):
        for u in range(1, len(node.f) + 1):
            rng = node.interval(u)
            child = node.children[u - 1]
            if node.level == 2:
                yield child, [rng] + tail
            else:
                yield from walk(child, [rng] + tail)

    yield from walk(tree.root, [])


def build_gamma(D: DefiningSet, ordering=None, rng=None) -> CheckSet:
    """The check-position set Gamma(C) for a defining set and axis order."""
    amb = D.ambient
    n = amb.n
    ordering = normalize_ordering(n, ordering)
    reps = restricted_reps(D, ordering, rng=rng)
    tree = compute_fg(reps)
    positions = set()
    if n == 1:
        positions = {(i,) for i in range(tree.total)}
    else:
        for g, ranges in _boxes(tree):
            for tail in itertools.product(*ranges):
                for i1 in range(g):
                    positions.add(unpermute((i1,) + tail, ordering))
    cs = CheckSet(amb, ordering, frozenset(positions), reps, tree)
    if len(cs.positions) != len(D):
        raise AssertionError(
            f"check-position count {len(cs.positions)} != defining set size {len(D)}"
        )
    return cs
