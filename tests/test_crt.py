"""Cyclic-to-product transport: residue maps, unit twists, pullbacks.

The frozen example is the length-15 binary cyclic code whose product-space
image and pulled-back check set are worked out in full; the property tests
check that any unit twist leaves the product-space check set unchanged and
that pullbacks remain verified check positions for the cyclic code.
"""

import math
import random

import numpy as np
import pytest

from abcode.code import AbelianCode, verify_check_positions
from abcode.crt import CrtMap
from abcode.gamma import CheckSet, build_gamma
from abcode.orbit import Ambient, NotOrbitClosed, validate_defining_set

# length-15 binary cyclic code: residues of the root exponents
CYCLIC_15 = frozenset({0, 1, 2, 3, 4, 6, 8, 9, 12})
TRANSPORTED_15 = {
    (0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 1), (2, 2), (1, 4), (2, 3)}
PRODUCT_GAMMA_15 = {
    (0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (2, 0), (1, 1), (2, 1)}
PULLBACK_15 = [0, 1, 3, 5, 6, 9, 10, 11, 12]


def cyclic_closure(rng, q, l, n_orbits):
    members = set()
    for _ in range(n_orbits):
        t = rng.randrange(l)
        while t not in members:
            members.add(t)
            t = (t * q) % l
    return members


# ---------- map construction ----------


def test_map_validation():
    with pytest.raises(ValueError):
        CrtMap((6, 10))  # not coprime
    with pytest.raises(ValueError):
        CrtMap((3, 5), units=(0, 1))  # 0 not a unit
    for units in [(1,), (1, 2, 4)]:  # wrong arity
        with pytest.raises(ValueError, match="one unit per factor required"):
            CrtMap((3, 5), units=units)
    with pytest.raises(ValueError):
        CrtMap(())
    m = CrtMap((3, 5), units=(5, 11))  # units normalized mod factors
    assert m.units == (2, 1)
    assert m.length == 15
    # factors and units are integers, read as Ambient reads its moduli
    for factors, units in [([3.7, 5], None), ([3, 5.0], None), ([True, 5], None),
                           (["3", 5], None), ([3, 5], [True, 1]), ([3, 5], [1.0, 1])]:
        with pytest.raises(ValueError, match="must be an integer"):
            CrtMap(factors, units)
    m = CrtMap(np.array([3, 5]), np.array([2, 1]))
    assert (m.factors, m.units) == ((3, 5), (2, 1))
    assert all(type(v) is int for v in m.factors + m.units)


@pytest.mark.parametrize("factors,units", [
    ((3, 5), None),
    ((3, 5), (2, 1)),
    ((3, 5), (1, 4)),
    ((5, 9), (3, 7)),
    ((3, 5, 7), (2, 3, 4)),
])
def test_forward_inverse_bijection(factors, units):
    m = CrtMap(factors, units)
    seen = set()
    for t in range(m.length):
        tup = m.forward(t)
        assert all(0 <= x < r for x, r in zip(tup, factors))
        assert m.inverse(tup) == t
        seen.add(tup)
    assert len(seen) == m.length
    with pytest.raises(ValueError):
        m.forward(m.length)
    with pytest.raises(ValueError):
        m.inverse((0,) * (len(factors) - 1))


def test_forward_is_the_residue_map_with_units():
    m = CrtMap((3, 5), units=(2, 1))
    for t in range(15):
        assert m.forward(t) == ((2 * t) % 3, t % 5)


# ---------- transport ----------


def test_transport_frozen_example():
    m = CrtMap((3, 5))
    D = m.transport_defining_set(2, CYCLIC_15)
    assert D.members == frozenset(TRANSPORTED_15)
    cs = build_gamma(D)
    assert cs.positions == frozenset(PRODUCT_GAMMA_15)
    assert m.pullback_positions(cs.positions) == PULLBACK_15


def test_transport_rejects_open_sets():
    m = CrtMap((3, 5))
    with pytest.raises(NotOrbitClosed) as exc:
        m.transport_defining_set(2, {1})
    assert exc.value.witness == (1, 2)


def test_unit_twist_keeps_product_gamma_fixed():
    # the twisted image is a different defining set, but the check set in
    # the product space is identical; only the pullback can move
    rng = random.Random(41)
    base = CrtMap((3, 5))
    for trial in range(20):
        members = cyclic_closure(rng, 2, 15, rng.randint(1, 3))
        g0 = build_gamma(base.transport_defining_set(2, members))
        for _ in range(4):
            u1 = rng.choice([1, 2])
            u2 = rng.choice([1, 2, 3, 4])
            tw = CrtMap((3, 5), units=(u1, u2))
            g1 = build_gamma(tw.transport_defining_set(2, members))
            assert g1.positions == g0.positions
            pb = tw.pullback_positions(g1.positions)
            assert len(pb) == len(members)


def test_pullback_of_complement_is_complement_of_pullback():
    m = CrtMap((3, 5), units=(1, 4))
    D = m.transport_defining_set(2, CYCLIC_15)
    cs = build_gamma(D)
    pb_check = set(m.pullback_positions(cs.positions))
    pb_info = set(m.pullback_positions(cs.complement()))
    assert pb_check | pb_info == set(range(15))
    assert not pb_check & pb_info


@pytest.mark.parametrize("l,factors", [(15, (3, 5)), (21, (3, 7)), (45, (5, 9))])
def test_pullback_verifies_against_the_cyclic_code(l, factors):
    # the pulled-back positions must be genuine check positions of the
    # original one-axis code; verified by rank, not by construction
    rng = random.Random(42)
    for trial in range(6):
        members = cyclic_closure(rng, 2, l, rng.randint(1, 3))
        if len(members) == l:
            continue
        units = tuple(rng.choice([u for u in range(1, r) if math.gcd(u, r) == 1])
                      for r in factors)
        m = CrtMap(factors, units)
        cs = build_gamma(m.transport_defining_set(2, members))
        pulled = m.pullback_positions(cs.positions)

        amb1 = Ambient(2, (l,))
        cyc = AbelianCode(validate_defining_set(amb1, {(t,) for t in members}))
        claimed = CheckSet(amb1, (0,), frozenset((t,) for t in pulled))
        assert verify_check_positions(cyc, claimed)
