"""The mask path of S-classification, residual and saturation, checked
against the definitions it replaces.

``RingAnalysis`` decides S-membership from one mask per ideal: P is an
S-hyperideal exactly when S lies in ``compatible(P, P)``, and an
S_r-hyperideal when S lies in ``compatible(P, radical(P))``.  Residuals and
saturations are intersections and unions of the colon ideals.  The tests
below recompute each of these from the tuples themselves.
"""

from itertools import product

import pytest

from hyperideal import (
    DEFAULT_SUITE_FIXTURES,
    FIXTURE_NAMES,
    MulSet,
    SVerdict,
    classify_s,
    enumerate_hyperideals,
    enumerate_multiplicative_sets,
    fixtures,
    is_s_hyperideal,
    is_sr_hyperideal,
    proper_hyperideals,
    radical,
    require_ring,
    residual,
    run_suite,
    saturation,
)
from hyperideal.analysis import RingAnalysis

MODES = ("lenient", "strict")


def compatible_by_definition(ring, p_bits, target):
    """x such that, for every ordered (n-1)-tuple r, g(x, r) in P implies
    g(1, r) in the target."""
    rests = list(product(range(ring.order), repeat=ring.n - 1))
    return {
        x for x in range(ring.order)
        if all(not p_bits >> ring.multiply(x, *r) & 1 or target >> ring.multiply(ring.one, *r) & 1
               for r in rests)
    }


def old_scan(ring, p, s, mode):
    """The per-pair scan the masks replace: verdict, reported witness and
    every witness, over all n-tuples in lexicographic order."""
    rad = radical(ring, p, mode).bits
    found, s_first, sr_first = [], None, None
    for tup, prod, subs in ring.g_tuples:
        if not p.bits >> prod & 1:
            continue
        for i in range(ring.n):
            if s.bits >> tup[i] & 1 and not p.bits >> subs[i] & 1:
                wit = (tup, i + 1, prod, subs[i])
                found.append(wit)
                s_first = s_first or wit
                if not rad >> subs[i] & 1:
                    sr_first = sr_first or wit
    if s_first is None:
        return SVerdict.S_HYPERIDEAL, None, found
    if sr_first is None:
        return SVerdict.SR_ONLY, s_first, found
    return SVerdict.NEITHER, sr_first, found


def test_some_singleton_is_sr_only():
    # keeps the SR_ONLY cases below from vanishing: in z8, 2 * r lies in
    # {0,4} for every r in {0,2,4,6}, the radical of {0,4}
    z8 = fixtures("z8")
    assert z8.analysis.classify_s(0b10001, 0b100, "lenient") is SVerdict.SR_ONLY


def as_tuple(w):
    return None if w is None else (w.tuple_, w.position, w.product, w.substituted)


def ring_cases(large_rings):
    return [fixtures(name) for name in FIXTURE_NAMES] + list(large_rings.values())


@pytest.mark.parametrize("mode", MODES)
def test_compatible_matches_the_tuple_definition(large_rings, mode):
    for ring in ring_cases(large_rings):
        a = ring.analysis
        for p in a.proper(mode):
            for target in (p, a.radical[p, mode]):
                mask = a.compatible[p, target]
                expected = compatible_by_definition(ring, p, target)
                assert {x for x in range(ring.order) if mask >> x & 1} == expected, (
                    ring.name, ring.render_bits(p), ring.render_bits(target))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_mask_verdicts_residual_and_saturation_match_the_per_pair_formulas(name):
    ring = fixtures(name)
    a = ring.analysis
    sets = enumerate_multiplicative_sets(ring)
    divisors = sets + [ring.subset([x]) for x in range(ring.order)]
    candidates = [MulSet(s, ring.one in s) for s in divisors]
    for mode in MODES:
        for p in enumerate_hyperideals(ring, mode):
            for x in divisors:
                expected = {c for c in range(ring.order)
                            if all(p.bits >> ring.scalar_multiply(c, t) & 1 for t in x)}
                assert set(residual(ring, p, x, mode)) == expected
            for s in sets:
                expected = {c for c in range(ring.order)
                            if any(p.bits >> ring.scalar_multiply(t, c) & 1 for t in s)}
                assert set(saturation(ring, p, s, mode).subset) == expected
            if p.is_full:
                continue
            # a MulSet is trusted, so the singletons reach SR_ONLY, which no
            # multiplicative set on these rings does
            for s in candidates:
                verdict, witness, found = old_scan(ring, p, s.subset, mode)
                s_bits = s.subset.bits
                assert a.classify_s(p.bits, s_bits, mode) is verdict
                assert a.is_s(p.bits, s_bits) is (verdict is SVerdict.S_HYPERIDEAL)
                full = classify_s(ring, p, s, mode, all_witnesses=True)
                assert full.verdict is verdict and as_tuple(full.witness) == witness
                assert [as_tuple(w) for w in full.witnesses] == found
                short = classify_s(ring, p, s, mode)
                assert short.verdict is verdict and as_tuple(short.witness) == witness
                assert short.witnesses == ()


@pytest.mark.parametrize("mode", MODES)
def test_suite_never_scans_per_pair(monkeypatch, mode):
    rings = [require_ring(fixtures(name).spec) for name in DEFAULT_SUITE_FIXTURES]
    expected = run_suite(rings, mode).to_json()

    def refuse(*_args, **_kwargs):
        raise AssertionError("the theorem suite called the witness scan")

    monkeypatch.setattr(RingAnalysis, "scan_s", refuse)
    fresh = [require_ring(fixtures(name).spec) for name in DEFAULT_SUITE_FIXTURES]
    assert run_suite(fresh, mode).to_json() == expected


@pytest.mark.parametrize("mode", MODES)
def test_s_questions_never_scan(monkeypatch, mode):
    """``is_s_hyperideal`` and ``is_sr_hyperideal`` answer from the verdict
    of ``classify_s``, without its witness scan."""
    pairs = []
    for name in DEFAULT_SUITE_FIXTURES:
        ring = fixtures(name)
        for p in proper_hyperideals(ring, mode):
            for s in enumerate_multiplicative_sets(ring):
                pairs.append((ring, p, s, classify_s(ring, p, s, mode).verdict))
    assert {SVerdict.S_HYPERIDEAL, SVerdict.NEITHER} <= {verdict for *_, verdict in pairs}

    def refuse(*_args, **_kwargs):
        raise AssertionError("an S-question called the witness scan")

    monkeypatch.setattr(RingAnalysis, "scan_s", refuse)
    for ring, p, s, verdict in pairs:
        assert is_s_hyperideal(ring, p, s, mode) is (verdict is SVerdict.S_HYPERIDEAL)
        assert is_sr_hyperideal(ring, p, s, mode) is (verdict is not SVerdict.NEITHER)
