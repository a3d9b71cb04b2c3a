"""The closure walk against the power-set oracles in enumeration_oracle."""

import random
from itertools import combinations, product

import pytest

from conftest import relabel
from enumeration_oracle import (
    hyperideal_scan,
    power_set_ideals,
    power_set_multiplicative_sets,
)
from hyperideal import (
    FIXTURE_NAMES,
    analysis,
    cyclic_ring,
    enumerate_hyperideals,
    enumerate_multiplicative_sets,
    fixtures,
    generated_hyperideal,
    is_hyperideal,
)
from hyperideal.analysis import bit_members

LARGE = ("z16", "z2^4", "paper-example^2")
# lifts of Z_k past (2,2) (conftest.lift); z12-as-24 and z8-as-42 reach n = 4 and m = 4
LIFTED = ("z8-as-33", "z12-as-33", "z12-as-24", "z8-as-42")
MODES = ("lenient", "strict")


def ring_named(name, large_rings, lifted_rings=None):
    for rings in (large_rings, lifted_rings or {}):
        if name in rings:
            return rings[name]
    return fixtures(name)


@pytest.mark.parametrize("name", FIXTURE_NAMES + LARGE + LIFTED)
def test_ideals_match_the_power_set(name, large_rings, lifted_rings):
    ring = ring_named(name, large_rings, lifted_rings)
    expected = power_set_ideals(ring)
    for mode in MODES:
        walked = [s.bits for s in enumerate_hyperideals(ring, mode)]
        assert walked == list(expected[mode]), mode


@pytest.mark.parametrize("name", FIXTURE_NAMES + LARGE + LIFTED)
def test_multiplicative_sets_match_the_power_set(name, large_rings, lifted_rings):
    ring = ring_named(name, large_rings, lifted_rings)
    walked = [s.bits for s in enumerate_multiplicative_sets(ring)]
    assert walked == list(power_set_multiplicative_sets(ring))


def test_close_rebuilds_the_powers_it_is_not_given(lifted_rings):
    """Called without the powers S^2, ..., S^(n-1), as the seen-set walk of
    tests/compare_walks.py calls it, ``close`` must rebuild them from S: on
    this (3,3) ring S^2 need not lie in S, so starting them empty would miss
    products of an old member pair with the added element."""
    ring = lifted_rings["z8-as-33"]
    close, family = ring.analysis.close, ring.analysis.closed_sets(analysis.MS)
    assert len(family) == 65  # the empty set too
    # some S has a square outside it
    assert any(not s >> ring.multiply(a, b, ring.one) & 1 for s in family for a, b in product(bit_members(s), repeat=2))
    for s in family:
        for x in range(ring.order):
            if not s >> x & 1:
                assert close(s, 1 << x, analysis.MS) == close(0, s | 1 << x, analysis.MS), (s, x)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_generated_hyperideal_is_the_least_containing_ideal(name):
    ring = fixtures(name)
    expected = power_set_ideals(ring)
    for mode in MODES:
        ideals = expected[mode]
        for size in (1, 2):
            for seed in combinations(range(ring.order), size):
                seed_bits = sum(1 << x for x in seed)
                least = ring.full_bits
                for bits in ideals:
                    if not seed_bits & ~bits:
                        least &= bits
                assert generated_hyperideal(ring, ring.subset(seed), mode).bits == least, (mode, seed)


@pytest.mark.parametrize("name", ("paper-example", "z4", "z6", "z8", "z2xz3"))
def test_hyperideal_verdicts_match_the_multiset_scan(name):
    ring = fixtures(name)
    zero_bit = 1 << ring.zero
    for mode in MODES:
        for bits in range(1, ring.full_bits + 1):
            if bits & zero_bit:
                subset = ring.subset_from_bits(bits)
                assert is_hyperideal(ring, subset, mode) == hyperideal_scan(ring, bits, mode), (mode, bits)


def test_z32_ideals_are_walked_not_filtered(monkeypatch):
    """2^32 masks could not be filtered in a test; the walk visits 6 ideals."""
    ring = cyclic_ring(32)
    divisor_ideals = sorted(
        sum(1 << x for x in range(0, 32, d)) for d in (1, 2, 4, 8, 16, 32)
    )
    for mode in MODES:
        assert [s.bits for s in enumerate_hyperideals(ring, mode)] == divisor_ideals


def test_z40_multiplicative_sets_fit_the_walk_budget():
    assert len(enumerate_multiplicative_sets(cyclic_ring(40))) == 19_549


def test_each_multiplicative_set_is_closed_once(monkeypatch, large_rings):
    """Close-by-One reaches each MS once, from its canonical parent: 52,468
    lookups on z2^4 and 41,554 on z32, where extending every MS by every
    missing element took 581,882 and 4,966,530."""
    monkeypatch.setattr(analysis, "WALK_BUDGET", 1 << 17)
    for ring, count in ((large_rings["z2^4"], 4959), (cyclic_ring(32), 2171)):
        assert len(ring.analysis.closed_sets(analysis.MS)) == 1 + count  # the empty set too


@pytest.mark.parametrize("name", ("z12", "z24", "z2^4", "paper-example^2"))
def test_closed_sets_do_not_depend_on_labels(name, large_rings):
    """The walk breaks ties in its element order by index; relabelling every
    element, 0 and 1 included, must move each family with the elements."""
    ring = cyclic_ring(24) if name == "z24" else ring_named(name, large_rings)
    families = {kind: ring.analysis.closed_sets(kind) for kind in (analysis.MS, *MODES)}
    rng = random.Random(name)
    for _ in range(3):
        perm = list(range(ring.order))
        rng.shuffle(perm)
        image = relabel(ring, perm)
        for kind, family in families.items():
            back = sorted(
                sum(1 << x for x in range(ring.order) if bits >> perm[x] & 1)
                for bits in image.analysis.closed_sets(kind)
            )
            assert tuple(back) == family, (perm, kind)
