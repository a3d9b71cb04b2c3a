"""The mask-algebra checkers against the loop oracles in harness_oracle, and
the failure branches of the loop checkers under the same lying layers."""

import random

import pytest
from conftest import relabel
from harness_oracle import ORACLES, oracle_report

from hyperideal import (
    FIXTURE_NAMES,
    SVerdict,
    check_theorem,
    classify_s,
    cyclic_ring,
    enumerate_multiplicative_sets,
    fixtures,
    proper_hyperideals,
    require_ring,
)
from hyperideal import analysis, harness
from hyperideal.analysis import Verdict, _Memo
from hyperideal.harness import MAX_COUNTEREXAMPLES

MODES = ("lenient", "strict")


@pytest.fixture(scope="session")
def mask_rings(large_rings, census_rings, lifted_rings):
    """The rings of each engine-oracle comparison, by key.  z8-as-33 has MS
    S with S^2 outside S, so T3's tuple scan checks ``compatible`` where the
    binary rows and the n-tuples could part."""
    rings = {name: [fixtures(name)] for name in FIXTURE_NAMES}
    rings.update((name, [ring]) for name, ring in large_rings.items())
    rings["census"] = list(census_rings.values())
    rings["z8-as-33"] = [lifted_rings["z8-as-33"]]
    return rings


RING_KEYS = (*FIXTURE_NAMES, "z16", "z2^4", "paper-example^2", "census", "z8-as-33")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("key", RING_KEYS)
def test_engine_matches_oracle(mask_rings, monkeypatch, key, mode):
    for ring in mask_rings[key]:
        for ident in ORACLES:
            if (key, ident, mode) == ("z2^4", "TAVOID", "strict"):
                # the oracle's loop takes about 1 s here, and it would repeat
                # the lenient comparison: in z2^4 every element is its own
                # negative, so both modes have the same hyperideals
                assert ring.analysis.ideals[mode] == ring.analysis.ideals["lenient"]
                continue
            engine = check_theorem(ring, ident, mode).to_dict()
            oracle, _ = oracle_report(monkeypatch, ring, ident, mode)
            assert engine == oracle.to_dict(), (ring.name, ident)


@pytest.mark.parametrize("key", (*RING_KEYS, "z24-relabelled"))
def test_ms_index_is_its_definition(mask_rings, key):
    # bit i of containing[x] is set exactly when x lies in ms_all[i]
    if key == "z24-relabelled":
        perm = list(range(24))
        random.Random(key).shuffle(perm)
        rings = [relabel(cyclic_ring(24), perm)]
    else:
        rings = mask_rings[key]
    for ring in rings:
        a = ring.analysis
        assert a.containing == [
            sum(1 << i for i, s in enumerate(a.ms_all) if s >> x & 1) for x in range(ring.order)
        ], ring.name


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("key", RING_KEYS)
def test_image_of_every_multiplicative_set_is_one(mask_rings, key, mode):
    # THOM-PRE, THOM-IMG and TQUOT read the whole MS family as the MS whose
    # image is an MS: every map they use keeps products, so this is a lemma
    for ring in mask_rings[key]:
        for hom in harness._transfers(ring, mode):
            ms = hom.target.analysis.ms
            for s in ring.analysis.ms_all:
                assert ms[hom.image_bits(s)].ok, (ring.name, hom.target.name, s)


# f11={1}, f12={0,1,2}, f22={2}, g22=0: not distributive in the equality form
SR_RING = "o3-1-012-2-0"


def test_census_counterexample_cells_are_compared(census_rings):
    # the engine-oracle comparison above covers real counterexample payloads
    failing = {
        (name, ident)
        for name, ring in census_rings.items()
        for mode in MODES
        for ident in ORACLES
        if check_theorem(ring, ident, mode).status == "counterexample"
    }
    assert failing == {
        (SR_RING, "T1.3"), (SR_RING, "P2"), (SR_RING, "T7"), ("o3-1-012-2-2", "P8"),
    }


def _liar(name, lie):
    """Replace the memo ``name`` on a ring's analysis ``a`` by one that
    answers ``lie(a, real, *args)``; a two-argument memo is keyed by the pair."""

    def install(monkeypatch, ring):
        a = ring.analysis
        real = getattr(a, name)
        monkeypatch.setattr(a, name, _Memo(lambda key: lie(a, real, *(key if isinstance(key, tuple) else (key,)))))

    return install


Z12 = (1 << 12) - 1
EVERYTHING_COMPATIBLE = _liar("compatible", lambda a, real, p, target: Z12)
# S*(P) is everything unless P is its own radical, so T1.2 must read the radical
COMPATIBLE_BELOW_RADICALS = _liar(
    "compatible",
    lambda a, real, p, target: Z12 if a.radical[p, "lenient"] != p else real[p, target],
)
# the unit 7 leaves S*(P) on z12 but not on its quotients
COMPATIBLE_WITHOUT_7 = _liar("compatible", lambda a, real, p, target: real[p, target] & ~(1 << 7))
NO_HYPERIDEALS = _liar("hyperideal", lambda a, real, bits, mode: Verdict(False, "lie"))
# every colon misses its ideal, so no saturation covers it
EMPTY_COLONS = _liar("colons", lambda a, real, q: (0,) * 12)
# (q : t) is R \ {t} and only such masks pass as hyperideals, so in T1.3
# every residual by two or more elements fails, and every single one passes
COLON_COMPLEMENTS = _liar("colons", lambda a, real, q: tuple(Z12 & ~(1 << t) for t in range(12)))
ONE_MISSING_ONLY = _liar(
    "hyperideal",
    lambda a, real, bits, mode: Verdict((Z12 & ~bits).bit_count() == 1, "lie"),
)

# the colons of {0} are true and every other (x : t) with t != 1 is the
# whole ring, so a proper saturation of {0} is not its own saturation
FULL_COLONS_ABOVE_ZERO = _liar("colons", lambda a, real, q: real[q] if q == 1 else tuple(
    c if t == 1 else Z12 for t, c in enumerate(real[q])))

# two non-ideals taken for hyperideals: (2) lies in (3) and {0,2,4,8,10}
# together but in neither alone, and the S inside S*((3)) = R \ (3) that
# contain 1 and meet the other slot do not keep it inside (3)
EXTRA_COVERS = _liar("ideals", lambda a, real, mode: tuple(sorted(
    {*real[mode], sum(1 << x for x in (0, 3, 9)), sum(1 << x for x in (0, 2, 4, 8, 10))})))

# (2) admits no S, so an ideal under (2) alone, as (4) is, has no prime
# S-hyperideal over it for the S that (3) admits
EVENS_ADMIT_NOTHING = _liar(
    "compatible",
    lambda a, real, p, target: 0 if p == sum(1 << x for x in range(0, 12, 2)) else real[p, target],
)

# per checker, faults on z12 that make it fail more than the cap
LIARS = [
    ("T1.1", (EVERYTHING_COMPATIBLE,)),
    ("T1.2", (COMPATIBLE_BELOW_RADICALS,)),
    ("T1.3", (NO_HYPERIDEALS,)),
    ("T1.3", (COLON_COMPLEMENTS, ONE_MISSING_ONLY)),
    ("T5", (EMPTY_COLONS,)),
    ("THOM-PRE", (COMPATIBLE_WITHOUT_7,)),
    ("THOM-IMG", (EVERYTHING_COMPATIBLE,)),
    ("TQUOT", (EVERYTHING_COMPATIBLE,)),
    ("FW-SR", (EVERYTHING_COMPATIBLE,)),
    ("TAVOID", (EXTRA_COVERS,)),
    ("T6", (COMPATIBLE_BELOW_RADICALS,)),
    ("T4", (EMPTY_COLONS,)),
    ("T4", (NO_HYPERIDEALS,)),
    ("T4", (FULL_COLONS_ABOVE_ZERO,)),
    ("T4", (EVERYTHING_COMPATIBLE,)),
    ("P2", (COMPATIBLE_WITHOUT_7,)),
    ("T7", (COMPATIBLE_BELOW_RADICALS,)),
    ("PINT", (NO_HYPERIDEALS,)),
    ("P8", (EVERYTHING_COMPATIBLE,)),
    ("P2", (EVENS_ADMIT_NOTHING,)),
]


@pytest.mark.parametrize("ident, liars", LIARS)
def test_lying_layer_pins_emission_order_and_cap(monkeypatch, ident, liars):
    assert {i for i, _ in LIARS} == set(ORACLES)
    ring = require_ring(fixtures("z12").spec)  # fresh identity, cold caches
    for liar in liars:
        liar(monkeypatch, ring)
    engine = check_theorem(ring, ident)
    oracle, failures = oracle_report(monkeypatch, ring, ident, "lenient")
    assert len(failures) > MAX_COUNTEREXAMPLES
    assert engine.status == "counterexample"
    assert len(engine.counterexamples) == MAX_COUNTEREXAMPLES
    assert engine.to_dict() == oracle.to_dict()


def test_t4_liars_fire_every_clause(monkeypatch):
    # together the T4 liars make the loop fail at each of its four clauses
    fired = set()
    for ident, liars in LIARS:
        if ident == "T4":
            ring = require_ring(fixtures("z12").spec)
            with monkeypatch.context() as m:
                for liar in liars:
                    liar(m, ring)
                fired |= set(oracle_report(m, ring, ident, "lenient")[1])
    assert fired == {
        "saturation does not contain the ideal",
        "saturation is not an S-hyperideal",
        "saturation is not idempotent",
        "a smaller S-hyperideal contains the ideal",
    }


@pytest.mark.parametrize("liar", (COMPATIBLE_WITHOUT_7, EVENS_ADMIT_NOTHING))
def test_p2_liars_fire_both_clauses(monkeypatch, liar):
    ring = require_ring(fixtures("z12").spec)
    liar(monkeypatch, ring)
    _, failures = oracle_report(monkeypatch, ring, "P2", "lenient")
    assert set(failures) == {"prime-disjoint", "prime-extension"}


def test_p8_fails_on_the_other_side_too(monkeypatch):
    # without 7 in any S*(P), some S inside the units fail "every proper
    # hyperideal is an S-hyperideal"
    ring = require_ring(fixtures("z12").spec)
    COMPATIBLE_WITHOUT_7(monkeypatch, ring)
    engine = check_theorem(ring, "P8")
    oracle, failures = oracle_report(monkeypatch, ring, "P8", "lenient")
    assert len(failures) == 2
    assert {cx["all_ideals"] for cx in engine.counterexamples} == {"False"}
    assert engine.to_dict() == oracle.to_dict()


def test_t1_3_naming_walk_stops_at_the_budget(monkeypatch):
    # the liars give T1.3 more failures than the cap; a lowered budget cuts
    # the walk over the sets Q that names them
    ring = require_ring(fixtures("z12").spec)
    ring.analysis.ms_all, ring.analysis.proper("lenient")  # walk these first
    for liar in (COLON_COMPLEMENTS, ONE_MISSING_ONLY):
        liar(monkeypatch, ring)
    full = check_theorem(ring, "T1.3").to_dict()
    assert len(full["counterexamples"]) == MAX_COUNTEREXAMPLES
    assert not full.pop("truncated")
    monkeypatch.setattr(analysis, "WALK_BUDGET", 40)
    cut = check_theorem(ring, "T1.3").to_dict()
    named = cut.pop("counterexamples")
    assert 0 < len(named) < MAX_COUNTEREXAMPLES
    assert named == full.pop("counterexamples")[: len(named)]
    assert cut.pop("truncated")
    assert cut == full  # counted in closed form, so the counts stay
    # cut before the first name, the largest Q of a failing residual is named
    monkeypatch.setattr(analysis, "WALK_BUDGET", 0)
    cut = check_theorem(ring, "T1.3")
    assert cut.status == "counterexample" and cut.truncated
    [cx] = cut.counterexamples
    p, q = (ring.subset_from_names(cx[k].strip("{}").split(",")) for k in "PQ")
    assert not p.bits & q.bits
    assert cx["residual"] == ring.render_bits(ring.analysis.residual(p.bits, q.bits))
    assert (cx["P"], cx["Q"]) == ("{0}", "{1,2,3,4,5,6,7,8,9,10,11}")


@pytest.mark.parametrize("mode", MODES)
def test_tavoid_is_complete_on_the_boolean_ring(large_rings, mode):
    # every cover is walked and every instance counted, more than 10^6
    report = check_theorem(large_rings["z2^4"], "TAVOID", mode)
    assert report.status == "holds"
    assert (report.instances_checked, report.hypothesis_met) == (1_230_080, 7_576)
    assert not report.truncated


def test_t3_compares_the_maximal_set_with_the_tuple_scan(monkeypatch):
    # with every element taken as compatible, S*(P) is the whole ring, an MS
    # that every S lies in; only the n-tuple scan tells it from the real one
    ring = require_ring(fixtures("z12").spec)
    real = ring.analysis.compatible
    EVERYTHING_COMPATIBLE(monkeypatch, ring)
    report = check_theorem(ring, "T3")
    proper = ring.analysis.proper("lenient")
    assert report.status == "counterexample"
    assert report.instances_checked == report.hypothesis_met == len(proper)
    assert report.counterexamples == tuple(
        {"P": ring.render_bits(p), "S": ring.render_bits(Z12),
         "direct": ring.render_bits(real[p, p]),
         "clause": "maximal set disagrees with the n-tuple scan"}
        for p in proper
    )


def test_fw_sr_sees_the_sr_only_pairs(census_rings):
    ring = census_rings[SR_RING]
    pairs = [
        (repr(p), repr(s))
        for p in proper_hyperideals(ring, "strict")
        for s in enumerate_multiplicative_sets(ring)
        if classify_s(ring, p, s, "strict").verdict is SVerdict.SR_ONLY
    ]
    assert pairs == [("{0}", "{0}"), ("{0}", "{0,1}"), ("{0}", "{0,2}"), ("{0}", "{0,1,2}")]
    report = check_theorem(ring, "FW-SR", "strict")
    assert report.status == "holds"
    assert report.hypothesis_met >= 1


def test_fw_sr_catches_sr_only_folded_into_neither(census_rings, monkeypatch):
    ring = require_ring(census_rings[SR_RING].spec)
    real = ring.analysis.compatible
    # the radical target becomes P itself, so every SR_ONLY verdict reads NEITHER
    monkeypatch.setattr(ring.analysis, "compatible", _Memo(lambda key: real[key[0], key[0]]))
    report = check_theorem(ring, "FW-SR", "strict")
    assert report.status == "counterexample"
    assert [(cx["P"], cx["S"], cx["clause"], cx["verdict"], cx["direct"])
            for cx in report.counterexamples] == [
        ("{0}", s, "classifier disagrees with the direct scan", "neither", "True")
        for s in ("{0}", "{0,1}", "{0,2}", "{0,1,2}")
    ]


@pytest.mark.parametrize("order, instances", [(24, 357_981_811), (32, 38_571_540_425)])
def test_t1_3_counts_large_carriers_in_closed_form(monkeypatch, order, instances):
    # 2^(order - |P|) - 1 sets Q per admissible pair: counted, not walked
    report = check_theorem(cyclic_ring(order), "T1.3")
    assert report.status == "holds"
    assert report.instances_checked == report.hypothesis_met == instances


NOT_MS = _liar("ms", lambda a, real, bits: Verdict(False, "lie"))
NOT_PRIMARY = _liar("primary", lambda a, real, bits, mode: Verdict(False, "lie"))
ALL_COMPATIBLE = _liar("compatible", lambda a, real, p, target: a.ring.full_bits)
NONE_COMPATIBLE = _liar("compatible", lambda a, real, p, target: 0)
# only {0} has the substitution property, so it is the one maximal S-hyperideal
ZERO_ONLY_COMPATIBLE = _liar(
    "compatible",
    lambda a, real, p, target: a.ring.full_bits if p == 1 << a.ring.zero else 0,
)

# per loop checker: a ring on which it holds, a liar, and the payload keys
# (in order) with the clause or anomaly of every counterexample it then names
LOOP_FAILURES = [
    ("T3", "z12", NOT_MS, {(("anomaly", "P", "S"), "candidate set is not multiplicatively closed")}),
    ("TPRIMARY-EQ", "z12", NOT_MS, {(("anomaly", "Q"), "complement of a minimal prime is not an MS")}),
    ("TPRIMARY-EQ", "z12", NOT_PRIMARY, {(("P", "Q", "S", "s_hyperideal", "q_primary"), None)}),
    ("TDECOMP", "z12", NOT_MS, {(("anomaly", "primes"), "complement of the union is not an MS")}),
    ("TDECOMP", "z12", ALL_COMPATIBLE, {(("P", "S", "intersection", "components"), None)}),
    ("TDECOMP", "z12", NOT_PRIMARY,
     {(("P", "Q", "component", "clause"), "component is not primary for its prime")}),
    ("T9-FWD", "paper-example", NOT_MS, {(("anomaly", "S"), "nonzero elements of a domain fail closure")}),
    ("T9-FWD", "paper-example", NONE_COMPATIBLE, {(("P", "S", "clause"), "zero ideal is not an S-hyperideal")}),
    ("T9-FWD", "paper-example", ALL_COMPATIBLE, {(("P", "S", "clause"), "a second S-hyperideal exists")}),
    ("T10", "z4", NOT_MS, {(("Q", "S", "clause"), "shifted image is not multiplicatively closed")}),
    ("T10", "z8", ZERO_ONLY_COMPATIBLE, {
        (("Q", "S", "P", "clause"), "ideal containing Q is not an S-hyperideal"),
        (("Q", "S", "P", "clause"), "maximal S-hyperideal misses Q"),
    }),
    ("T12", "z12", NOT_MS, {(("anomaly", "S"), "complement of the minimal primes is not an MS")}),
    ("T12", "z12", NONE_COMPATIBLE, {(("P", "S"), None)}),
    ("TPROD", "z4", ALL_COMPATIBLE, {(("P1", "P2", "S1", "S2", "product", "componentwise"), None)}),
]


@pytest.mark.parametrize("ident, name, liar, shapes", LOOP_FAILURES)
def test_loop_checkers_name_their_failures(monkeypatch, ident, name, liar, shapes):
    assert check_theorem(fixtures(name), ident).status == "holds"
    ring = require_ring(fixtures(name).spec)  # fresh identity, cold caches
    liar(monkeypatch, ring)
    report = check_theorem(ring, ident)
    assert report.status == "counterexample"
    assert {(tuple(cx), cx.get("clause", cx.get("anomaly"))) for cx in report.counterexamples} == shapes
