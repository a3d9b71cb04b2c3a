"""The axiom verifier against pinned reports, the multiset scans and a naive
oracle.

Every single-entry mutation of paper-example, z4 and z2-as-33 (262 specs)
is verified.  The joined reports are pinned by hash, so a changed witness or
detail fails here, and each family's verdict is checked against
``axiom_oracle.NaiveOracle``.

``verify_axioms`` decides associativity, reversibility and distributivity by
row passes that name their own witnesses.  Each entry is held to the scan
of ``axiom_oracle`` that once decided it, verdict, witness and detail.  The
passes compose rows with ``bytes.translate`` where ids fit in a byte and as
lists past that, so the tests run with ``kernel._BYTE_IDS`` at its default
and at 0, where every ring takes the list composition.
"""

import hashlib
from dataclasses import replace
from itertools import combinations, combinations_with_replacement, islice, product

import pytest
from axiom_oracle import (
    NaiveOracle,
    fixture_mutations,
    negation_of,
    reversibility_scan,
    single_entry_mutations,
    spec_reversibility_scan,
    spec_scans,
    z257_spec,
)
from conftest import lift, order3_spec, z2_ternary_spec

from hyperideal import AxiomReport, Verdict, cyclic_ring, fixtures, kernel, product_ring, verify_axioms
from hyperideal.fixture_rings import FIXTURE_NAMES
from hyperideal.analysis import bit_members
from hyperideal.kernel import AXIOM_ORDER, HyperRing

# the bound that sends every ring to the list composition
LISTS_ONLY = {"_BYTE_IDS": 0}

# sha256 of the joined ``AxiomReport.lines`` of all 262 mutations, recorded
# on the verifier that keyed every lookup by a sorted tuple
MUTATION_REPORTS_SHA256 = "2185498af1a7b3d1596ac8264aa3548efbd52e7d8d630a9011366f0c09311cc8"


def _report(spec) -> AxiomReport:
    result = verify_axioms(spec)
    return result if isinstance(result, AxiomReport) else result.axiom_report


def _set_bounds(monkeypatch, bounds: dict) -> None:
    for name, value in bounds.items():
        monkeypatch.setattr(kernel, name, value)


def _scan_differences(specs) -> list:
    """(spec number, family, entry, scan) for each entry of ``specs``'
    reports that differs from the scan of ``axiom_oracle``."""
    differences = []
    for i, spec in enumerate(specs):
        entries = _report(spec).entries
        for family, scan in spec_scans(spec).items():
            if entries[family] != scan:
                differences.append((i, family, entries[family], scan))
    return differences


def _mutation_reports_digest() -> str:
    lines = []
    count = 0
    for spec in fixture_mutations():
        lines.extend(_report(spec).lines(spec.elements))
        count += 1
    assert count == 262
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def test_strided_mutations_are_every_kth_mutation(z6):
    """A stride builds only the specs that ``islice`` would keep of all."""
    for tables in ("f", "g", "fg"):
        for stride in (1, 3, 14):
            every = single_entry_mutations(z6.spec, tables)
            assert list(single_entry_mutations(z6.spec, tables, stride)) == list(
                islice(every, 0, None, stride)), (tables, stride)


def test_mutation_reports_are_pinned():
    assert _mutation_reports_digest() == MUTATION_REPORTS_SHA256


@pytest.mark.parametrize("bounds", [{}, LISTS_ONLY], ids=["bytes", "lists"])
def test_mutation_reports_are_pinned_on_each_path(monkeypatch, bounds):
    _set_bounds(monkeypatch, bounds)
    assert _mutation_reports_digest() == MUTATION_REPORTS_SHA256
    assert _scan_differences(fixture_mutations()) == []


def _paper_times_z2_as_33():
    return product_ring([fixtures("paper-example"), fixtures("z2-as-33")]).spec


@pytest.mark.parametrize("make_spec, count", [
    (lambda: fixtures("z8").spec, 252),
    (_paper_times_z2_as_33, 280),
], ids=["z8", "paper-example x z2-as-33"])
def test_row_check_agrees_with_scan_on_g_mutations(monkeypatch, make_spec, count):
    """Every g mutation fails, with the scans' entries, in both compositions."""
    base = make_spec()
    assert base.order <= kernel._BYTE_IDS  # so the default composition is by bytes
    specs = list(single_entry_mutations(base, tables="g"))
    assert len(specs) == count
    by_bytes = [_report(spec) for spec in specs]
    assert {report.all_pass for report in by_bytes} == {False}
    assert _scan_differences(specs) == []
    _set_bounds(monkeypatch, LISTS_ONLY)
    assert [_report(spec) for spec in specs] == by_bytes


def test_ids_past_a_byte_take_the_list_composition(monkeypatch):
    """With the byte bound at its 8 distinct f values, paper-example x
    z2-as-33 has more images for distributivity than a byte would name; that
    pass composes lists while g-associativity, on 6 elements, keeps bytes.
    The ring and every 14th g mutation keep their reports."""
    base = _paper_times_z2_as_33()
    specs = [base, *single_entry_mutations(base, tables="g", stride=14)]
    expected = [_report(spec) for spec in specs]
    widths = []

    def recording_composer(row, byte_ids):
        widths.append(byte_ids)
        return composer(row, byte_ids)

    composer = kernel._composer
    _set_bounds(monkeypatch, {"_BYTE_IDS": 8, "_composer": recording_composer})
    assert [_report(spec) for spec in specs] == expected
    assert set(widths) == {False, True}
    assert _scan_differences(specs) == []


def _census() -> list:
    values = [set(c) for k in (1, 2, 3) for c in combinations(range(3), k)]
    return [
        order3_spec(f11, f12, f22, g22)
        for f11, f12, f22 in product(values, repeat=3) for g22 in range(3)
    ]


def test_census_verdicts_match_the_oracle(monkeypatch):
    """Each of the 1029 order-3 (2,2) candidates of ``order3_spec``, composed
    by bytes (the default) and by lists, agrees with the naive oracle
    family by family, and every witness is a real violation.  The
    candidates hold 343 hyperadditions, many multi-valued, and some accepted
    rings distribute only as containment, so the entries are also held to
    the scans, verdict, witness and detail."""
    specs = _census()
    assert len(specs) == 1029
    oracles = [NaiveOracle(spec) for spec in specs]
    families = [oracle.family_holds() for oracle in oracles]
    disagreements = []
    accepted = set()
    for path, bounds in (("bytes", {}), ("lists", LISTS_ONLY)):
        _set_bounds(monkeypatch, bounds)
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
        assert _scan_differences(specs) == [], path
    assert disagreements == []
    assert len(accepted) == 20  # the same 10 rings on each path


def test_row_check_passes_every_ring_that_holds(monkeypatch):
    """On rings that satisfy every axiom, each pass decides alone in either
    composition, and the scans agree."""
    z2_as_33 = fixtures("z2-as-33")
    rings = [fixtures(name) for name in ("z2", "z2-as-33", "z6", "z8", "z12", "z2xz3")] + [
        product_ring([z2_as_33, z2_as_33]),
        product_ring([fixtures("paper-example"), z2_as_33]),
        product_ring([fixtures("z4"), fixtures("z2")]),
    ]
    for ring in rings:
        assert set(spec_scans(ring.spec).values()) == {Verdict(True)}
    for bounds in ({}, LISTS_ONLY):
        _set_bounds(monkeypatch, bounds)
        for ring in rings:
            assert isinstance(verify_axioms(ring.spec), HyperRing)


def _sorted_lookup_tables(spec) -> tuple[list[int], list[int]]:
    """The dense lists built the plain way: every ordered tuple sorted and
    looked up in the spec."""
    full = range(spec.order)
    f_bits = {key: sum(1 << v for v in value) for key, value in spec.f_table.items()}
    f = [f_bits[tuple(sorted(t))] for t in product(full, repeat=spec.m)]
    g = [spec.g_table[tuple(sorted(t))] for t in product(full, repeat=spec.n)]
    return f, g


def test_dense_tables_match_the_sorted_lookup():
    """``_dense_tables`` spreads each sorted key over its orderings; the
    lists equal the sorted lookup's on every fixture, the (3,3) products,
    z257, rings of mixed or higher arity and the order-3 census."""
    z2_as_33, paper = fixtures("z2-as-33"), fixtures("paper-example")
    specs = [fixtures(name).spec for name in FIXTURE_NAMES] + [
        product_ring([z2_as_33, z2_as_33]).spec,
        product_ring([paper, z2_as_33]).spec,
        product_ring([paper, paper]).spec,
        z257_spec({}),
        z2_ternary_spec(),
        *(lift(cyclic_ring(k).spec, m, n) for k, m, n in ((12, 2, 4), (8, 4, 2), (6, 2, 5), (4, 5, 3))),
        *_census(),
    ]
    for spec in specs:
        assert kernel._dense_tables(spec) == _sorted_lookup_tables(spec), spec.name


def test_witness_is_the_least_column_over_every_grouping(monkeypatch):
    """On the (3,3) ring paper-example x z2-as-33 with f(0|0, 0|1, 0|1) =
    {0|1}, each row M has six groupings to compare, and the scan's witness
    comes only from the least column at which any of them differs."""
    base = _paper_times_z2_as_33()
    spec = replace(base, f_table={**base.f_table, (0, 1, 1): frozenset({1})})
    expected = Verdict(
        False, witness=(0, 0, 1, 1, 2),
        detail="grouping (0, 0, 1) gives [2] but grouping (0, 1, 1) gives [3]",
    )
    assert spec_scans(spec)["f-associativity"] == expected
    for bounds in ({}, LISTS_ONLY):
        _set_bounds(monkeypatch, bounds)
        assert _report(spec).entries["f-associativity"] == expected


def _z6_and_paper_times_z2_as_33_f_mutations():
    yield from single_entry_mutations(fixtures("z6").spec, tables="f", stride=3)
    yield from single_entry_mutations(_paper_times_z2_as_33(), tables="f", stride=7)


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


@pytest.mark.parametrize("f_change, expected", [
    ({}, Verdict(True)),
    ({(1, 2): frozenset({3, 4})},
     Verdict(False, witness=(1, 2), detail="element 4 cannot be reversed at position 1")),
], ids=["z257", "z257 with f(1,2) = {3,4}"])
def test_reversibility_past_a_byte(f_change, expected):
    """At order 257, past a byte, the reversibility pass takes its ids as a
    list and names the scan's witness."""
    spec = z257_spec(f_change)
    f, _ = kernel._dense_tables(spec)
    values = list(dict.fromkeys(f))
    ids = {bits: i for i, bits in enumerate(values)}
    negation = negation_of(spec, f)
    f_rows = kernel._rows([ids[bits] for bits in f], spec.order, spec.m)
    verdict = kernel._reversibility(spec.order, f, f_rows, list(map(bit_members, values)), negation)
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
