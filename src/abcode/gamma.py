"""Check-position sets for abelian codes, computed from the defining set.

Given restricted representatives of an orbit-closed defining set and the
coset sizes m recorded while they were chosen, the construction walks
coordinates from the last to the first.  At each stage it sorts the
surviving branch weights into a strictly decreasing threshold sequence,
and each threshold index narrows the admissible range of one position
coordinate.  Two path-keyed tables hold the result: f maps each threshold
path (u_n, ..., u_{t+1}) to its sequence f[u_n, ..., u_{t+1}], and g maps
each full path (u_n, ..., u_2) to the count g[u_n, ..., u_2], which gives
the first coordinate the prefix 0..g-1.  The union of the resulting boxes
is the check-position set Gamma; its complement is an information set,
and |Gamma| always equals the size of the defining set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .orbit import (Ambient, DefiningSet, RestrictedReps, normalize_ordering,
                    permute, restricted_reps, unpermute)


@dataclass(frozen=True)
class FGTables:
    """The threshold sequences f and block counts g, keyed by path.

    f[path] is strictly decreasing with an implicit trailing 0, and index
    u (1-based) of the path's next step admits the coordinate range
    [f[path][u], f[path][u-1]).  For n = 1, f is empty and g[()] = |D|.
    """

    f: dict
    g: dict


def compute_fg(reps: RestrictedReps) -> FGTables:
    """The f sequences and g counts for a representative list."""
    n = reps.ambient.n
    m = reps.m_table
    f, g = {}, {}

    def weights(children):
        """Per parent prefix, the sum of m over the given child prefixes."""
        out = {}
        for c in children:
            out[c[:-1]] = out.get(c[:-1], 0) + m[c]
        return out

    def walk(path, values):
        """values maps each prefix of length n - 1 - len(path) to its weight."""
        if len(path) == n - 1:
            g[path] = values.get((), 0)
            return
        f[path] = F = tuple(sorted(set(values.values()), reverse=True))
        for u, thr in enumerate(F, start=1):
            walk(path + (u,), weights(c for c, v in values.items() if v >= thr))

    walk((), weights(reps.reps))
    return FGTables(f, g)


@dataclass(frozen=True)
class CheckSet:
    """A verified-shape set of check positions with its provenance.

    positions are in the ambient's axis order; reps and fg are in processing
    order, where slot k holds axis ordering[k].
    """

    ambient: Ambient
    ordering: tuple
    positions: frozenset
    reps: Optional[RestrictedReps] = field(default=None, compare=False, repr=False)
    fg: Optional[FGTables] = field(default=None, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.positions)

    def sorted_positions(self):
        return sorted(self.positions)

    def complement(self):
        return frozenset(set(self.ambient.positions()) - self.positions)


def build_gamma(D: DefiningSet, ordering=None, rng=None) -> CheckSet:
    """The check-position set Gamma(C) for a defining set and axis order."""
    amb = D.ambient
    ordering = normalize_ordering(amb.n, ordering)
    processed = DefiningSet(Ambient(amb.q, permute(amb.r, ordering)),
                            frozenset(permute(t, ordering) for t in D.members))
    reps = restricted_reps(processed, rng=rng)
    fg = compute_fg(reps)
    positions = set()
    for path, count in fg.g.items():
        spans = []
        for j, u in enumerate(path):
            F = fg.f[path[:j]]
            spans.append(range(F[u] if u < len(F) else 0, F[u - 1]))
        for pos in itertools.product(range(count), *reversed(spans)):
            positions.add(unpermute(pos, ordering))
    cs = CheckSet(amb, ordering, frozenset(positions), reps, fg)
    if len(cs.positions) != len(D):
        raise AssertionError(
            f"check-position count {len(cs.positions)} != defining set size {len(D)}"
        )
    return cs
