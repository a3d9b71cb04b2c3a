"""The axiom verifier against pinned reports and a naive oracle.

Every single-entry mutation of paper-example, z4 and z2-as-33 (262 specs)
is verified.  The joined reports are pinned by hash, so a changed witness or
detail fails here, and each family's verdict is checked against
``axiom_oracle.NaiveOracle``.

``verify_axioms`` decides associativity and distributivity by a row check
and leaves failures and rings whose ids do not fit in a byte to the scans.
A wrong row check shows in a report only when it passes a failing ring; one
that fails a good ring just hands over to the scan.  So the tests below
lower the bound ``kernel._BYTE_IDS`` to send every ring to the scans, and
``_both_ways`` runs the scan next to every row check and records both
verdicts.  Reversibility is decided by its row pass alone, at every order,
and is held to the scan of ``axiom_oracle.reversibility_scan``.
"""

import hashlib
from itertools import combinations, combinations_with_replacement, islice, product

import pytest
from axiom_oracle import (
    NaiveOracle,
    fixture_mutations,
    negation_of,
    reversibility_scan,
    single_entry_mutations,
    spec_reversibility_scan,
)
from conftest import order3_spec

from hyperideal import AxiomReport, Verdict, fixtures, kernel, product_ring, verify_axioms
from hyperideal.analysis import bit_members
from hyperideal.kernel import AXIOM_ORDER, HyperRing, HyperRingSpec

# the bound that sends every ring to the scans
SCAN_ONLY = {"_BYTE_IDS": 0}

# sha256 of the joined ``AxiomReport.lines`` of all 262 mutations, recorded
# on the verifier that keyed every lookup by a sorted tuple
MUTATION_REPORTS_SHA256 = "2185498af1a7b3d1596ac8264aa3548efbd52e7d8d630a9011366f0c09311cc8"


def _report(spec) -> AxiomReport:
    result = verify_axioms(spec)
    return result if isinstance(result, AxiomReport) else result.axiom_report


def _set_bounds(monkeypatch, bounds: dict) -> None:
    for name, value in bounds.items():
        monkeypatch.setattr(kernel, name, value)


def _both_ways(monkeypatch) -> list:
    """Make ``verify_axioms`` run the scan next to each row check it makes;
    returns the list it fills with (row verdict, scan verdict) pairs.  The
    reports stay those of the row check."""
    verdicts = []
    decide = kernel._decide

    def both(rows_fit, rows_hold, scan):
        status = scan()
        if not rows_fit:
            return status
        by_rows = decide(rows_fit, rows_hold, lambda: Verdict(False))
        verdicts.append((by_rows.ok, status.ok))
        return by_rows if by_rows.ok else status

    monkeypatch.setattr(kernel, "_decide", both)
    return verdicts


def _mutation_reports_digest() -> str:
    lines = []
    count = 0
    for spec in fixture_mutations():
        lines.extend(_report(spec).lines(spec.elements))
        count += 1
    assert count == 262
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def test_mutation_reports_are_pinned():
    assert _mutation_reports_digest() == MUTATION_REPORTS_SHA256


@pytest.mark.parametrize("bounds", [SCAN_ONLY, {}], ids=["scan", "rows"])
def test_mutation_reports_are_pinned_on_each_path(monkeypatch, bounds):
    _set_bounds(monkeypatch, bounds)
    verdicts = _both_ways(monkeypatch)
    assert _mutation_reports_digest() == MUTATION_REPORTS_SHA256
    assert all(by_rows == by_scan for by_rows, by_scan in verdicts)
    # three row checks per spec
    assert len(verdicts) == (0 if bounds == SCAN_ONLY else 3 * 262)


def _paper_times_z2_as_33():
    return product_ring([fixtures("paper-example"), fixtures("z2-as-33")]).spec


@pytest.mark.parametrize("make_spec, count", [
    (lambda: fixtures("z8").spec, 252),
    (_paper_times_z2_as_33, 280),
], ids=["z8", "paper-example x z2-as-33"])
def test_row_check_agrees_with_scan_on_g_mutations(monkeypatch, make_spec, count):
    base = make_spec()
    assert base.order <= kernel._BYTE_IDS  # so the default path is the row check
    specs = list(single_entry_mutations(base, tables="g"))
    assert len(specs) == count
    by_rows = [_report(spec) for spec in specs]
    _set_bounds(monkeypatch, SCAN_ONLY)
    assert [_report(spec) for spec in specs] == by_rows
    assert {report.all_pass for report in by_rows} == {False}


def test_ids_past_a_byte_fall_back_to_the_scan(monkeypatch):
    """With the byte bound at its 8 distinct f values, the images that
    distributivity interns on paper-example x z2-as-33 overflow mid-check;
    the scan then decides, so the ring and every 14th g mutation keep their
    reports."""
    base = _paper_times_z2_as_33()
    specs = [base, *islice(single_entry_mutations(base, tables="g"), 0, None, 14)]
    expected = [_report(spec) for spec in specs]
    overflows = []

    def counting_intern(ids, value):
        try:
            return real_intern(ids, value)
        except kernel._IdsOverflow:
            overflows.append(value)
            raise

    real_intern = kernel._intern
    _set_bounds(monkeypatch, {"_BYTE_IDS": 8, "_intern": counting_intern})
    assert [_report(spec) for spec in specs] == expected
    assert overflows


def _census() -> list:
    values = [set(c) for k in (1, 2, 3) for c in combinations(range(3), k)]
    return [
        order3_spec(f11, f12, f22, g22)
        for f11, f12, f22 in product(values, repeat=3) for g22 in range(3)
    ]


def test_census_verdicts_match_the_oracle(monkeypatch):
    """Each of the 1029 order-3 (2,2) candidates of ``order3_spec``, verified
    by the row check (the default) and by the scans, agrees
    with the naive oracle family by family, and every witness is a real
    violation.  The candidates hold 343 hyperadditions, many multi-valued,
    and some accepted rings distribute only as containment, so the row
    check is also held to the scan verdict by verdict."""
    specs = _census()
    assert len(specs) == 1029
    oracles = [NaiveOracle(spec) for spec in specs]
    families = [oracle.family_holds() for oracle in oracles]
    disagreements = []
    accepted = set()
    verdicts = []
    # the scans run second: ``_both_ways`` stays in place and, with no ring
    # fitting the byte bound, hands every check to the scan
    for path, bounds in (("rows", {}), ("scan", SCAN_ONLY)):
        _set_bounds(monkeypatch, bounds)
        if path == "rows":
            verdicts = _both_ways(monkeypatch)
        for spec, oracle, holds in zip(specs, oracles, families):
            report = _report(spec)
            if report.all_pass:
                accepted.add((path, spec.name))
            for family in AXIOM_ORDER:
                status = report.entries[family]
                if status.ok != holds[family]:
                    disagreements.append((path, spec.name, family, status))
                elif not status.ok and not oracle.witness_violates(family, status.witness):
                    disagreements.append((path, spec.name, family, "witness is no violation"))
    assert disagreements == []
    assert len(accepted) == 20  # the same 10 rings on each path
    assert len(verdicts) == 3 * 1029
    assert [pair for pair in verdicts if pair[0] != pair[1]] == []
    assert (True, True) in verdicts and (False, False) in verdicts


def test_row_check_passes_every_ring_that_holds(monkeypatch):
    """On rings that satisfy every axiom, the row check decides alone: the
    scan would agree and is never needed."""
    z2_as_33 = fixtures("z2-as-33")
    rings = [fixtures(name) for name in ("z2", "z2-as-33", "z6", "z8", "z12", "z2xz3")] + [
        product_ring([z2_as_33, z2_as_33]),
        product_ring([fixtures("paper-example"), z2_as_33]),
        product_ring([fixtures("z4"), fixtures("z2")]),
    ]
    verdicts = _both_ways(monkeypatch)
    for ring in rings:
        assert isinstance(verify_axioms(ring.spec), HyperRing)
    assert verdicts == [(True, True)] * 3 * len(rings)


def _z6_and_paper_times_z2_as_33_f_mutations():
    yield from islice(single_entry_mutations(fixtures("z6").spec, tables="f"), 0, None, 3)
    yield from islice(single_entry_mutations(_paper_times_z2_as_33(), tables="f"), 0, None, 7)


@pytest.mark.parametrize("make_specs, compared, failing", [
    (fixture_mutations, 159, 104),
    (_census, 252, 207),
    (_z6_and_paper_times_z2_as_33_f_mutations, 611, 611),
], ids=["fixture mutations", "census", "z6 and paper-example x z2-as-33 f mutations"])
def test_reversibility_names_the_scans_witness(make_specs, compared, failing):
    """Where inverses are unique, the verifier's reversibility entry, decided
    by the row pass, is the multiset scan's verdict, witness and detail."""
    verdicts = []
    for spec in make_specs():
        by_scan = spec_reversibility_scan(spec)
        if by_scan is not None:
            assert _report(spec).entries["reversibility"] == by_scan, spec.name
            verdicts.append(by_scan.ok)
    assert (len(verdicts), verdicts.count(False)) == (compared, failing)


def _z257(f_change: dict) -> HyperRingSpec:
    """The integers modulo 257 as a spec, with ``f_change`` over its f table;
    not verified, which would take about 25 s."""
    pairs = list(combinations_with_replacement(range(257), 2))
    return HyperRingSpec(
        name="z257", m=2, n=2, elements=tuple(map(str, range(257))), zero="0", one="1",
        f_table={**{(a, b): frozenset({(a + b) % 257}) for a, b in pairs}, **f_change},
        g_table={(a, b): a * b % 257 for a, b in pairs},
    )


@pytest.mark.parametrize("f_change, expected", [
    ({}, Verdict(True)),
    ({(1, 2): frozenset({3, 4})},
     Verdict(False, witness=(1, 2), detail="element 4 cannot be reversed at position 1")),
], ids=["z257", "z257 with f(1,2) = {3,4}"])
def test_reversibility_past_a_byte(f_change, expected):
    """Order 257 is past the byte ids of the other row checks; the
    reversibility pass takes its ids as a list and names the scan's witness."""
    spec = _z257(f_change)
    f, _ = kernel._dense_tables(spec)
    values = list(dict.fromkeys(f))
    ids = {bits: i for i, bits in enumerate(values)}
    negation = negation_of(spec, f)
    verdict = kernel._reversibility(
        spec.order, spec.m, f, [ids[bits] for bits in f], list(map(bit_members, values)), negation,
    )
    assert spec.order > kernel._BYTE_IDS
    assert verdict == reversibility_scan(spec.order, spec.m, f, negation) == expected


def test_verifier_agrees_with_naive_oracle():
    disagreements = []
    for spec in fixture_mutations():
        report = _report(spec)
        oracle = NaiveOracle(spec)
        holds = oracle.family_holds()
        for family in AXIOM_ORDER:
            status = report.entries[family]
            if status.ok != holds[family]:
                disagreements.append((spec.name, family, status, holds[family]))
            elif not status.ok and not oracle.witness_violates(family, status.witness):
                disagreements.append((spec.name, family, status, "witness is no violation"))
    assert disagreements == []


def test_mutations_reach_every_checked_family():
    failing = set()
    for spec in fixture_mutations():
        failing.update(_report(spec).failures())
    assert failing == set(AXIOM_ORDER) - {"g-commutativity"}


def test_distributivity_is_containment():
    """paper-example distributes only in the containment form
    ``summed ⊆ image``; the equality form fails at 6 (q, p) pairs."""
    ring = fixtures("paper-example")
    assert ring.axiom_report.entries["distributivity"].ok
    oracle = NaiveOracle(ring.spec)
    unequal = []
    for q in combinations_with_replacement(range(ring.order), ring.m):
        for p in combinations_with_replacement(range(ring.order), ring.n - 1):
            image = oracle.g_of_sets([oracle.f(q)] + [{x} for x in p])
            summed = oracle.f([oracle.g((qi, *p)) for qi in q])
            assert summed <= image
            if summed != image:
                unequal.append((q, p))
    assert len(unequal) == 6
    assert ((1, 2, 2), (2, 2)) in unequal
