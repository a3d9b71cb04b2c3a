"""Multiplicative sets, S-classification, residuals, saturation."""

import pytest

from hyperideal import (
    SVerdict,
    Verdict,
    check_theorem,
    classify_ideal,
    cyclic_ring,
    classify_s,
    enumerate_hyperideals,
    enumerate_multiplicative_sets,
    fixtures,
    generated_hyperideal,
    identity_hom,
    is_hyperideal,
    is_multiplicative_set,
    is_s_hyperideal,
    is_sr_hyperideal,
    maximal_ms_for,
    minimal_primes_over,
    multiplicative_set,
    prime_hyperideals,
    primary_decomposition,
    proper_hyperideals,
    quotient_ring,
    radical,
    radical_power_diagnostic,
    residual,
    run_suite,
    s_maximal_hyperideals,
    saturation,
    special_sets,
    transport_ideal,
)
from hyperideal.errors import (
    EmptySubset,
    HypothesisViolation,
    InternalContradiction,
    NotAHyperideal,
    NotMultiplicative,
    RingMismatch,
)


# ---------------------------------------------------------------------------
# multiplicative sets


def test_paper_ms_examples(paper):
    assert is_multiplicative_set(paper, paper.subset([2])).ok
    assert is_multiplicative_set(paper, paper.subset([1])).ok
    assert is_multiplicative_set(paper, paper.subset([1, 2])).ok


def test_identity_singleton_is_ms(all_fixture_rings):
    for ring in all_fixture_rings:
        assert is_multiplicative_set(ring, ring.subset([ring.one])).ok


def test_non_ms_has_witness(z6):
    verdict = is_multiplicative_set(z6, z6.subset([2, 3]))
    assert not verdict.ok
    assert verdict.witness == (2, 2)  # 2*2 = 4 escapes, first in scan order


def test_ms_constructor_rejects(z6):
    with pytest.raises(NotMultiplicative):
        multiplicative_set(z6, z6.subset([2, 3]))
    with pytest.raises(EmptySubset):
        is_multiplicative_set(z6, z6.subset([]))


def test_enumerate_ms_paper(paper):
    got = [s.members() for s in enumerate_multiplicative_sets(paper)]
    assert got == [(0,), (1,), (0, 1), (2,), (0, 2), (1, 2), (0, 1, 2)]


def test_enumerate_ms_matches_naive_filter(z6, z12):
    for ring in (z6, z12):
        naive = [
            bits
            for bits in range(1, ring.full_bits + 1)
            if is_multiplicative_set(ring, ring.subset_from_bits(bits)).ok
        ]
        got = [s.bits for s in enumerate_multiplicative_sets(ring)]
        assert got == naive


# ---------------------------------------------------------------------------
# S-classification


def test_paper_02_not_s_hyperideal(paper):
    cl = classify_s(paper, paper.subset([0, 2]), paper.subset([2]))
    assert cl.verdict is SVerdict.NEITHER
    assert cl.witness.tuple_ == (1, 1, 2)
    assert cl.witness.position == 3
    assert cl.witness.product == 2
    assert cl.witness.substituted == 1


def test_paper_zero_is_s_hyperideal(paper):
    cl = classify_s(paper, paper.subset([0]), paper.subset([2]))
    assert cl.verdict is SVerdict.S_HYPERIDEAL
    assert cl.witness is None


def test_identity_ms_accepts_every_proper_ideal(all_fixture_rings):
    for ring in all_fixture_rings:
        one = ring.subset([ring.one])
        for p in proper_hyperideals(ring):
            assert classify_s(ring, p, one).verdict is SVerdict.S_HYPERIDEAL


def test_s_hyperideal_implies_sr(all_fixture_rings):
    for ring in all_fixture_rings:
        for s in enumerate_multiplicative_sets(ring):
            for p in proper_hyperideals(ring):
                if is_s_hyperideal(ring, p, s):
                    assert is_sr_hyperideal(ring, p, s)


def test_s_predicates_are_bools_matching_the_verdict(all_fixture_rings):
    for ring in all_fixture_rings:
        for s in enumerate_multiplicative_sets(ring):
            for p in proper_hyperideals(ring):
                verdict = classify_s(ring, p, s).verdict
                assert is_s_hyperideal(ring, p, s) is (verdict is SVerdict.S_HYPERIDEAL)
                assert is_sr_hyperideal(ring, p, s) is (verdict is not SVerdict.NEITHER)


def test_disjointness_of_s_hyperideals(all_fixture_rings):
    for ring in all_fixture_rings:
        for s in enumerate_multiplicative_sets(ring):
            for p in proper_hyperideals(ring):
                if classify_s(ring, p, s).verdict is SVerdict.S_HYPERIDEAL:
                    assert (p & s).is_empty


def test_classify_requires_hyperideal(z6):
    with pytest.raises(NotAHyperideal):
        classify_s(z6, z6.subset([0, 4]), z6.subset([1]))


def test_all_witnesses_flag(paper):
    cl = classify_s(paper, paper.subset([0, 2]), paper.subset([2]), all_witnesses=True)
    assert cl.witnesses
    assert cl.witnesses[0] == cl.witness or cl.witness in cl.witnesses


def test_witness_is_lexicographically_first(z6):
    # {0} against S={2,4}: products 2*3=0 (position 1) comes before 4*3
    s = z6.subset([2, 4])
    assert is_multiplicative_set(z6, s).ok
    cl = classify_s(z6, z6.subset([0]), s)
    assert cl.verdict is not SVerdict.S_HYPERIDEAL
    assert cl.witness.tuple_ == (2, 3)
    assert cl.witness.position == 1


def test_verdict_matches_direct_radical_scan(all_fixture_rings):
    # three-way verdict agrees with independent scans against P and r(P)
    for ring in all_fixture_rings:
        for s in enumerate_multiplicative_sets(ring):
            for p in proper_hyperideals(ring):
                cl = classify_s(ring, p, s)
                rad = radical(ring, p)
                s_ok = True
                sr_ok = True
                for tup, prod, subs in ring.g_tuples:
                    if prod not in p:
                        continue
                    for i in range(ring.n):
                        if tup[i] not in s:
                            continue
                        if subs[i] not in p:
                            s_ok = False
                        if subs[i] not in rad:
                            sr_ok = False
                if s_ok:
                    assert cl.verdict is SVerdict.S_HYPERIDEAL
                elif sr_ok:
                    assert cl.verdict is SVerdict.SR_ONLY
                else:
                    assert cl.verdict is SVerdict.NEITHER


# ---------------------------------------------------------------------------
# residual and saturation


def test_residual_by_identity_is_identity_map(all_fixture_rings):
    for ring in all_fixture_rings:
        one = ring.subset([ring.one])
        for p in enumerate_hyperideals(ring):
            assert residual(ring, p, one) == p


def test_residual_paper(paper):
    assert residual(paper, paper.subset([0]), paper.subset([2])).members() == (0,)


def test_residual_z6(z6):
    assert residual(z6, z6.subset([0]), z6.subset([3])).members() == (0, 2, 4)


def test_saturation_paper(paper):
    res = saturation(paper, paper.subset([0]), paper.subset([1, 2]))
    assert res.subset.members() == (0,)
    assert res.one_in_s and res.proper


def test_saturation_by_identity_is_identity_map(all_fixture_rings):
    for ring in all_fixture_rings:
        one = ring.subset([ring.one])
        for q in enumerate_hyperideals(ring):
            assert saturation(ring, q, one).subset == q


def test_saturation_z6(z6):
    res = saturation(z6, z6.subset([0]), z6.subset([1, 3]))
    assert res.subset.members() == (0, 2, 4)


def test_saturation_vacuous_flag(paper):
    res = saturation(paper, paper.subset([0, 2]), paper.subset([1, 2]))
    assert not res.proper
    assert res.vacuous


def test_saturation_without_one_flagged(z6):
    res = saturation(z6, z6.subset([0]), z6.subset([3]))
    assert not res.one_in_s
    assert res.subset.members() == (0, 2, 4)


# ---------------------------------------------------------------------------
# the largest compatible MS


def test_maximal_ms_paper(paper):
    assert maximal_ms_for(paper, paper.subset([0])).subset.members() == (1, 2)


def test_maximal_ms_z6(z6):
    assert maximal_ms_for(z6, z6.subset([0, 2, 4])).subset.members() == (1, 3, 5)


def test_maximal_ms_contains_identity(all_fixture_rings):
    for ring in all_fixture_rings:
        for p in proper_hyperideals(ring):
            assert ring.one in maximal_ms_for(ring, p).subset


def test_maximal_ms_dominates_every_compatible_ms(all_fixture_rings):
    for ring in all_fixture_rings:
        for p in proper_hyperideals(ring):
            smax = maximal_ms_for(ring, p).subset
            assert classify_s(ring, p, smax).verdict is SVerdict.S_HYPERIDEAL
            for s in enumerate_multiplicative_sets(ring):
                if classify_s(ring, p, s).verdict is SVerdict.S_HYPERIDEAL:
                    assert s.issubset(smax)


# ---------------------------------------------------------------------------
# maximal S-hyperideals and decomposition


def test_s_maximal_paper(paper):
    got = s_maximal_hyperideals(paper, paper.subset([1, 2]))
    assert [p.members() for p in got] == [(0,)]


def test_s_maximal_z6_identity_ms(z6):
    got = sorted(p.members() for p in s_maximal_hyperideals(z6, z6.subset([1])))
    assert got == [(0, 2, 4), (0, 3)]


def test_s_maximal_field_units(z2):
    got = s_maximal_hyperideals(z2, z2.subset([1]))
    assert [p.members() for p in got] == [(0,)]


def test_primary_decomposition_z6(z6):
    parts = primary_decomposition(
        z6, z6.subset([0]), [z6.subset([0, 2, 4]), z6.subset([0, 3])]
    )
    assert [p.members() for p in parts] == [(0, 2, 4), (0, 3)]
    inter = parts[0] & parts[1]
    assert inter.members() == (0,)


def test_primary_decomposition_single_prime(paper):
    parts = primary_decomposition(paper, paper.subset([0]), [paper.subset([0])])
    assert [p.members() for p in parts] == [(0,)]


def test_primary_decomposition_hypothesis_errors(z6):
    with pytest.raises(HypothesisViolation):
        primary_decomposition(z6, z6.subset([0]), [z6.subset([0])])  # not minimal prime
    with pytest.raises(HypothesisViolation):
        # {0} is not an S-hyperideal for S = complement of {0,2,4}
        primary_decomposition(z6, z6.subset([0]), [z6.subset([0, 2, 4])])


def test_primary_decomposition_needs_a_prime(z6):
    with pytest.raises(HypothesisViolation, match="^at least one minimal prime is required$"):
        primary_decomposition(z6, z6.subset([0]), [])


def _lying_ms(monkeypatch, ring):
    """Make the ring's MS verdict refuse every set, with a witness."""
    monkeypatch.setattr(ring.analysis, "ms", lambda bits: Verdict(False, "g-closure", (1, 1), "product 1 escapes"))


def test_primary_decomposition_refuses_a_complement_that_is_not_an_ms(monkeypatch):
    ring = cyclic_ring(6)
    _lying_ms(monkeypatch, ring)
    with pytest.raises(HypothesisViolation, match="^the complement of the union is not multiplicatively closed$"):
        primary_decomposition(ring, ring.subset([0]), [ring.subset([0, 2, 4]), ring.subset([0, 3])])


def test_maximal_ms_for_names_a_candidate_that_is_not_an_ms(monkeypatch):
    ring = cyclic_ring(6)
    _lying_ms(monkeypatch, ring)
    with pytest.raises(InternalContradiction) as info:
        maximal_ms_for(ring, ring.subset([0, 2, 4]))
    assert str(info.value) == "candidate {1,3,5} is not multiplicatively closed at (1,1)"


def test_tri_equivalence_small(z6):
    # the three characterisations agree on every (ideal, MS) pair
    for s in enumerate_multiplicative_sets(z6):
        for p in proper_hyperideals(z6):
            direct = classify_s(z6, p, s).verdict is SVerdict.S_HYPERIDEAL
            res_fixed = all(residual(z6, p, z6.subset([t])) == p for t in s)
            sat_fixed = saturation(z6, p, s).subset == p
            assert direct == res_fixed == sat_fixed


def test_intersection_of_s_hyperideals(z6, z12):
    from itertools import combinations

    for ring in (z6, z12):
        for s in enumerate_multiplicative_sets(ring):
            family = [
                p for p in proper_hyperideals(ring)
                if classify_s(ring, p, s).verdict is SVerdict.S_HYPERIDEAL
            ]
            for a, b in combinations(family, 2):
                inter = a & b
                assert classify_s(ring, inter, s).verdict is SVerdict.S_HYPERIDEAL


def test_radical_of_s_hyperideal(all_fixture_rings):
    for ring in all_fixture_rings:
        for s in enumerate_multiplicative_sets(ring):
            for p in proper_hyperideals(ring):
                if classify_s(ring, p, s).verdict is not SVerdict.S_HYPERIDEAL:
                    continue
                r = radical(ring, p)
                if r.is_full:
                    continue
                assert classify_s(ring, r, s).verdict is SVerdict.S_HYPERIDEAL


# ---------------------------------------------------------------------------
# masks and multiplicative sets built on another ring


@pytest.fixture
def foreign(z4, z6):
    """z6 with its hyperideal {0,3}, and the MS {1,3} of z4: bits that name
    other elements on z6."""
    return z6, z6.subset([0, 3]), multiplicative_set(z4, z4.subset([1, 3]))


FOREIGN_ENTRY_POINTS = {
    "is_multiplicative_set": lambda ring, ideal, ms: is_multiplicative_set(ring, ms.subset),
    "multiplicative_set": lambda ring, ideal, ms: multiplicative_set(ring, ms.subset),
    "classify_s": lambda ring, ideal, ms: classify_s(ring, ideal, ms),
    "classify_s-mask": lambda ring, ideal, ms: classify_s(ring, ideal, ms.subset),
    "is_s_hyperideal": lambda ring, ideal, ms: is_s_hyperideal(ring, ideal, ms),
    "is_sr_hyperideal": lambda ring, ideal, ms: is_sr_hyperideal(ring, ideal, ms),
    "saturation": lambda ring, ideal, ms: saturation(ring, ideal, ms),
    "residual-by": lambda ring, ideal, ms: residual(ring, ideal, ms.subset),
    "s_maximal_hyperideals": lambda ring, ideal, ms: s_maximal_hyperideals(ring, ms),
    "generated_hyperideal": lambda ring, ideal, ms: generated_hyperideal(ring, ms.subset),
    "is_hyperideal": lambda ring, ideal, ms: is_hyperideal(ring, ms.subset),
    "transport_ideal-image": lambda ring, ideal, ms: transport_ideal(
        identity_hom(ring), "image", ms.subset),
    "transport_ideal-preimage": lambda ring, ideal, ms: transport_ideal(
        identity_hom(ring), "preimage", ms.subset),
    # z2xz3's mask with the bits of z6's minimal prime {0,3}
    "primary_decomposition": lambda ring, ideal, ms: primary_decomposition(
        ring, ideal, [fixtures("z2xz3").subset_from_bits(ideal.bits)]),
}


@pytest.mark.parametrize("entry", sorted(FOREIGN_ENTRY_POINTS))
def test_foreign_ring_argument_is_refused(foreign, entry):
    # unchecked, the z4 bits name unrelated z6 elements and give an answer;
    # checked, every entry point refuses them as the kernel's operations do
    with pytest.raises(RingMismatch, match="different ring|expects a subset of the"):
        FOREIGN_ENTRY_POINTS[entry](*foreign)


def test_same_ring_arguments_still_accepted(foreign, z6):
    ring, ideal, _ = foreign
    ms = multiplicative_set(z6, z6.subset([1, 5]))
    assert classify_s(ring, ideal, ms).verdict is SVerdict.S_HYPERIDEAL
    assert residual(ring, ideal, z6.subset([1])) == ideal
    assert primary_decomposition(ring, ideal, [ideal]) == [ideal]


# ---------------------------------------------------------------------------
# modes and empty arguments


MODE_ENTRY_POINTS = {
    "is_hyperideal": lambda ring, ideal, ms, mode: is_hyperideal(ring, ideal, mode),
    "classify_ideal": lambda ring, ideal, ms, mode: classify_ideal(ring, ideal, mode),
    "radical": lambda ring, ideal, ms, mode: radical(ring, ideal, mode),
    "radical_power_diagnostic": lambda ring, ideal, ms, mode: radical_power_diagnostic(
        ring, ideal, 2, mode),
    "minimal_primes_over": lambda ring, ideal, ms, mode: minimal_primes_over(ring, ideal, mode),
    "generated_hyperideal": lambda ring, ideal, ms, mode: generated_hyperideal(ring, ideal, mode),
    "enumerate_hyperideals": lambda ring, ideal, ms, mode: enumerate_hyperideals(ring, mode),
    "prime_hyperideals": lambda ring, ideal, ms, mode: prime_hyperideals(ring, mode),
    "special_sets": lambda ring, ideal, ms, mode: special_sets(ring, mode),
    "classify_s": lambda ring, ideal, ms, mode: classify_s(ring, ideal, ms, mode),
    "residual": lambda ring, ideal, ms, mode: residual(ring, ideal, ms.subset, mode),
    "saturation": lambda ring, ideal, ms, mode: saturation(ring, ideal, ms, mode),
    "maximal_ms_for": lambda ring, ideal, ms, mode: maximal_ms_for(ring, ideal, mode),
    "s_maximal_hyperideals": lambda ring, ideal, ms, mode: s_maximal_hyperideals(ring, ms, mode),
    "primary_decomposition": lambda ring, ideal, ms, mode: primary_decomposition(
        ring, ideal, [ideal], mode),
    "quotient_ring": lambda ring, ideal, ms, mode: quotient_ring(ring, ideal, mode),
    "check_theorem": lambda ring, ideal, ms, mode: check_theorem(ring, "T1.1", mode),
    "run_suite": lambda ring, ideal, ms, mode: run_suite([ring], mode, ["T1.1"]),
}


@pytest.mark.parametrize("entry", sorted(MODE_ENTRY_POINTS))
def test_an_unknown_mode_is_refused(z6, entry):
    """Each call checks its mode once; where it takes a hyperideal, through
    ``is_hyperideal``, after the mask's ring and before anything else."""
    args = z6, z6.subset([0, 3]), multiplicative_set(z6, z6.subset([1, 5]))
    assert MODE_ENTRY_POINTS[entry](*args, "lenient") is not None
    with pytest.raises(ValueError, match=r"mode must be one of \('strict', 'lenient'\), got 'Strict'"):
        MODE_ENTRY_POINTS[entry](*args, "Strict")


def test_a_mask_of_another_ring_is_named_before_an_unknown_mode(foreign, z4):
    ring, _, _ = foreign
    with pytest.raises(RingMismatch):
        classify_ideal(ring, z4.subset([0, 2]), "Strict")


@pytest.mark.parametrize("call, message", [
    (lambda r: generated_hyperideal(r, r.subset([])), "generating set must be non-empty"),
    (lambda r: residual(r, r.subset([0, 3]), r.subset([])), "residual divisor must be non-empty"),
], ids=["generated_hyperideal-seed", "residual-divisor"])
def test_an_empty_argument_is_refused(z6, call, message):
    with pytest.raises(EmptySubset, match=message):
        call(z6)
