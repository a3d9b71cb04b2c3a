"""Hyperideal recognition, enumeration, classification, radicals."""

import pytest

from hyperideal import (
    classify_ideal,
    enumerate_hyperideals,
    generated_hyperideal,
    is_hyperideal,
    minimal_primes_over,
    prime_hyperideals,
    proper_hyperideals,
    radical,
    radical_power_diagnostic,
    special_sets,
)
from hyperideal.errors import EmptySubset, ImproperIdeal, NotAHyperideal


def masks(ring, *member_lists):
    return [ring.subset(m) for m in member_lists]


# ---------------------------------------------------------------------------
# recognition


def test_paper_02_lenient_vs_strict(paper):
    p = paper.subset([0, 2])
    assert is_hyperideal(paper, p, "lenient").ok
    verdict = is_hyperideal(paper, p, "strict")
    assert not verdict.ok
    assert verdict.clause == "negation-closure"
    assert verdict.witness == (2,)


def test_zero_ideal_both_modes(all_fixture_rings):
    for ring in all_fixture_rings:
        z = ring.subset([ring.zero])
        assert is_hyperideal(ring, z, "lenient").ok
        assert is_hyperideal(ring, z, "strict").ok


def test_non_ideal_has_witness(z6):
    verdict = is_hyperideal(z6, z6.subset([0, 1]))
    assert not verdict.ok
    assert verdict.witness is not None


def test_mask_without_zero_fails_zero_membership(z6):
    verdict = is_hyperideal(z6, z6.subset([3]))
    assert (verdict.ok, verdict.clause, verdict.witness, verdict.detail) == (
        False, "zero-membership", (0,), "zero is missing")
    with pytest.raises(NotAHyperideal, match=r"\{3\} fails zero-membership at \(0\)"):
        radical(z6, z6.subset([3]))


def test_empty_subset_rejected(z6):
    with pytest.raises(EmptySubset):
        is_hyperideal(z6, z6.subset([]))


# ---------------------------------------------------------------------------
# generation


def test_generated_paper_singleton(paper):
    assert generated_hyperideal(paper, paper.subset([2])).members() == (0, 2)
    assert generated_hyperideal(paper, paper.subset([0])).members() == (0,)


def test_generated_paper_strict_mode_closes_negation(paper):
    assert generated_hyperideal(paper, paper.subset([2]), "strict").is_full


def test_generated_z6(z6):
    assert generated_hyperideal(z6, z6.subset([2])).members() == (0, 2, 4)
    assert generated_hyperideal(z6, z6.subset([0])).members() == (0,)


def test_generated_contains_seed(all_fixture_rings):
    for ring in all_fixture_rings:
        for x in range(ring.order):
            assert x in generated_hyperideal(ring, ring.subset([x]))


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_paper_lenient(paper):
    assert enumerate_hyperideals(paper, "lenient") == masks(paper, [0], [0, 2], [0, 1, 2])


def test_enumerate_paper_strict(paper):
    assert enumerate_hyperideals(paper, "strict") == masks(paper, [0], [0, 1, 2])


def test_enumerate_z2(z2):
    assert enumerate_hyperideals(z2) == masks(z2, [0], [0, 1])


def test_enumerate_z6(z6):
    assert enumerate_hyperideals(z6) == masks(z6, [0], [0, 3], [0, 2, 4], [0, 1, 2, 3, 4, 5])


def test_enumerate_z12_matches_divisor_oracle(z12):
    # classical: ideals of a cyclic ring are the divisor sublattices
    expected = {frozenset(range(0, 12, d)) for d in (1, 2, 3, 4, 6, 12)}
    got = {frozenset(s.members()) for s in enumerate_hyperideals(z12)}
    assert got == expected


@pytest.mark.parametrize("mode", ["lenient", "strict"])
def test_the_whole_ring_is_the_last_hyperideal(all_fixture_rings, large_rings, rings_past_2_2, mode):
    """``RingAnalysis.proper`` is ``ideals`` less its last member: the list
    ascends and the whole ring is the greatest hyperideal of either mode."""
    for ring in [*all_fixture_rings, *large_rings.values(), *rings_past_2_2]:
        assert ring.analysis.ideals[mode][-1] == ring.full_bits, ring.name
        every = enumerate_hyperideals(ring, mode)
        assert proper_hyperideals(ring, mode) == [s for s in every if not s.is_full], ring.name


# ---------------------------------------------------------------------------
# classification


def test_classify_paper_zero(paper):
    profile = classify_ideal(paper, paper.subset([0]))
    assert profile.prime.ok
    assert profile.primary.ok
    assert profile.semiprime.ok
    assert not profile.maximal.ok
    assert profile.maximal.witness == (0, 2)


def test_classify_paper_02(paper):
    profile = classify_ideal(paper, paper.subset([0, 2]))
    assert profile.prime.ok
    assert profile.maximal.ok


def test_classify_z6_zero(z6):
    profile = classify_ideal(z6, z6.subset([0]))
    assert not profile.prime.ok
    assert profile.prime.witness == (2, 3)
    assert not profile.primary.ok
    assert profile.primary.witness == (2, 3)


def test_classify_rejects_non_ideal(z6):
    with pytest.raises(NotAHyperideal):
        classify_ideal(z6, z6.subset([0, 1]))


def test_classify_rejects_improper(z6):
    with pytest.raises(ImproperIdeal):
        classify_ideal(z6, z6.full_subset())


def test_prime_implies_semiprime_and_primary(all_fixture_rings):
    for ring in all_fixture_rings:
        for p in proper_hyperideals(ring):
            profile = classify_ideal(ring, p)
            if profile.prime.ok:
                assert profile.semiprime.ok
                assert profile.primary.ok
                assert radical(ring, p) == p


def test_maximal_implies_prime(all_fixture_rings):
    for ring in all_fixture_rings:
        for p in proper_hyperideals(ring):
            profile = classify_ideal(ring, p)
            if profile.maximal.ok:
                assert profile.prime.ok


def test_classify_is_pure(z6):
    a = classify_ideal(z6, z6.subset([0]))
    b = classify_ideal(z6, z6.subset([0]))
    assert a == b


# ---------------------------------------------------------------------------
# radical


def test_radical_paper(paper):
    assert radical(paper, paper.subset([0])).members() == (0,)
    assert radical(paper, paper.full_subset()).is_full


def test_radical_z6(z6):
    assert radical(z6, z6.subset([0])).members() == (0,)
    assert radical(z6, z6.subset([0, 2, 4])).members() == (0, 2, 4)


def test_radical_z4_matches_nilpotents(z4):
    # in z4 the radical of {0} is the unique prime {0,2}
    assert radical(z4, z4.subset([0])).members() == (0, 2)


def test_radical_laws(all_fixture_rings):
    for ring in all_fixture_rings:
        ideals = enumerate_hyperideals(ring)
        for p in ideals:
            r = radical(ring, p)
            assert p.issubset(r)
            assert radical(ring, r) == r
        for p in ideals:
            for q in ideals:
                inter = p & q
                if is_hyperideal(ring, inter).ok:
                    assert radical(ring, inter).issubset(radical(ring, p) & radical(ring, q))


def test_power_diagnostic_paper(paper):
    diag = radical_power_diagnostic(paper, paper.subset([0, 2]), 2)
    assert diag.in_radical and diag.exponent == 1 and not diag.anomaly


def test_power_diagnostic_membership_first_power(all_fixture_rings):
    for ring in all_fixture_rings:
        for p in proper_hyperideals(ring):
            for x in p:
                diag = radical_power_diagnostic(ring, p, x)
                assert diag.exponent == 1


def test_power_diagnostic_never_anomalous(all_fixture_rings):
    for ring in all_fixture_rings:
        for p in enumerate_hyperideals(ring):
            for x in range(ring.order):
                assert not radical_power_diagnostic(ring, p, x).anomaly


@pytest.mark.parametrize("mode", ["lenient", "strict"])
def test_power_diagnostic_matches_the_power_orbit(all_fixture_rings, large_rings, rings_past_2_2,
                                                  census_rings, mode):
    """Against the orbit p, p^2, ..., p^(order+1) read from ``power``: a
    finite orbit repeats within ``order`` steps, so a power in the ideal shows
    there or never."""
    rings = [*all_fixture_rings, *large_rings.values(), *rings_past_2_2, *census_rings.values()]
    for ring in rings:
        for p in proper_hyperideals(ring, mode):
            rad = radical(ring, p, mode)
            for x in range(ring.order):
                orbit = [ring.power(x, w) for w in range(1, ring.order + 2)]
                exponent = next((w for w, value in enumerate(orbit, 1) if value in p), None)
                diag = radical_power_diagnostic(ring, p, x, mode)
                assert (diag.element, diag.in_radical, diag.exponent) == (x, x in rad, exponent)
                assert diag.anomaly == (x in rad and exponent is None)


def test_power_diagnostic_z6(z6):
    diag = radical_power_diagnostic(z6, z6.subset([0, 2, 4]), 2)
    assert diag.in_radical and diag.exponent == 1


@pytest.mark.parametrize("p", [6, -1, 100])
def test_power_diagnostic_rejects_out_of_range_element(z6, p):
    with pytest.raises(ValueError, match=f"element index {p} out of range"):
        radical_power_diagnostic(z6, z6.subset([0, 3]), p)


# ---------------------------------------------------------------------------
# special sets


def test_special_sets_paper(paper):
    sets = special_sets(paper)
    assert sets.units.members() == (1,)
    assert sets.jacobson.members() == (0, 2)
    assert [q.members() for q in sets.min_primes] == [(0,)]
    assert sets.regulars.is_full


def test_special_sets_z2(z2):
    sets = special_sets(z2)
    assert sets.units.members() == (1,)
    assert sets.jacobson.members() == (0,)
    assert [q.members() for q in sets.min_primes] == [(0,)]


def test_special_sets_z6(z6):
    sets = special_sets(z6)
    assert sets.units.members() == (1, 5)
    assert sets.jacobson.members() == (0,)
    assert sorted(q.members() for q in sets.min_primes) == [(0, 2, 4), (0, 3)]
    assert sets.regulars.is_full


def test_special_sets_z4(z4):
    sets = special_sets(z4)
    assert sets.units.members() == (1, 3)
    assert sets.jacobson.members() == (0, 2)


def test_jacobson_contains_small_ideals(all_fixture_rings):
    for ring in all_fixture_rings:
        sets = special_sets(ring)
        maximals = [
            p for p in proper_hyperideals(ring) if classify_ideal(ring, p).maximal.ok
        ]
        for p in proper_hyperideals(ring):
            if all(p.issubset(mx) for mx in maximals):
                assert p.issubset(sets.jacobson)


@pytest.mark.parametrize("mode", ["lenient", "strict"])
def test_no_proper_hyperideal_holds_one_and_jacobson_meets_the_maximals(
    all_fixture_rings, large_rings, rings_past_2_2, census_rings, mode
):
    """A proper hyperideal with 1 would absorb g(1, r, 1^(n-2)) = r for
    every r, so the complement of any union of proper hyperideals is never
    empty; and the Jacobson-style radical is the intersection of the proper
    hyperideals whose ``maximal`` verdict holds."""
    for ring in [*all_fixture_rings, *large_rings.values(), *rings_past_2_2, *census_rings.values()]:
        proper = proper_hyperideals(ring, mode)
        assert not any(ring.one in p for p in proper), ring.name
        jacobson = ring.full_subset()
        for p in proper:
            if classify_ideal(ring, p, mode).maximal.ok:
                jacobson &= p
        assert special_sets(ring, mode).jacobson == jacobson, ring.name


# ---------------------------------------------------------------------------
# minimal primes over an ideal


def test_minimal_primes_over_paper(paper):
    assert [q.members() for q in minimal_primes_over(paper, paper.subset([0]))] == [(0,)]


def test_minimal_primes_over_z6(z6):
    got = sorted(q.members() for q in minimal_primes_over(z6, z6.subset([0])))
    assert got == [(0, 2, 4), (0, 3)]


def test_prime_is_its_own_minimal_prime(all_fixture_rings):
    for ring in all_fixture_rings:
        for p in prime_hyperideals(ring):
            assert minimal_primes_over(ring, p) == [p]


def test_walk_budget_guards_every_subset_walk(monkeypatch):
    # each entry walks the ideals of a fresh ring, so each meets the budget;
    # once the walk is done, the memo answers without another walk
    from hyperideal import analysis, classify_s, cyclic_ring, s_maximal_hyperideals
    from hyperideal.errors import WalkBudgetExceeded

    z6 = cyclic_ring(6)
    # {3} escapes S*({0,3}), so classify_s needs the radical
    ideal, s = z6.subset([0, 3]), z6.subset([3])
    calls = [
        lambda: classify_ideal(z6, ideal),
        lambda: radical(z6, ideal),
        lambda: radical_power_diagnostic(z6, ideal, 2),
        lambda: prime_hyperideals(z6),
        lambda: minimal_primes_over(z6, ideal),
        lambda: classify_s(z6, ideal, s),
        lambda: s_maximal_hyperideals(z6, s),
    ]
    monkeypatch.setattr(analysis, "WALK_BUDGET", 0)
    for call in calls:
        with pytest.raises(WalkBudgetExceeded, match="lenient hyperideal walk on z6"):
            call()
    monkeypatch.undo()
    answers = [call() for call in calls]
    monkeypatch.setattr(analysis, "WALK_BUDGET", 0)
    assert [call() for call in calls] == answers


@pytest.mark.parametrize("walk", ["multiplicative-set", "lenient hyperideal"])
def test_refused_walk_is_refused_again_without_walking(monkeypatch, walk):
    from hyperideal import analysis, cyclic_ring, enumerate_multiplicative_sets
    from hyperideal.errors import WalkBudgetExceeded

    z6 = cyclic_ring(6)
    call = {"multiplicative-set": lambda: enumerate_multiplicative_sets(z6),
            "lenient hyperideal": lambda: proper_hyperideals(z6)}[walk]
    monkeypatch.setattr(analysis, "WALK_BUDGET", 20)
    with pytest.raises(WalkBudgetExceeded, match=f"{walk} walk on z6") as first:
        call()

    def no_walk(*args):
        raise AssertionError("walked again")

    with monkeypatch.context() as m:
        m.setattr(z6.analysis, "close", no_walk)
        with pytest.raises(WalkBudgetExceeded) as again:
            call()
    assert again.value is not first.value
    assert str(again.value) == str(first.value)
    monkeypatch.undo()  # under the default budget the walk runs again
    assert call()
