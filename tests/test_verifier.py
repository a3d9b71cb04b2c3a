"""The axiom verifier against pinned reports, the multiset scans and a naive
oracle.

Every single-entry mutation of paper-example, z4 and z2-as-33 (262 specs)
is verified.  The joined reports are pinned by hash, so a changed witness or
detail fails here, and each family's verdict is checked against
``axiom_oracle.NaiveOracle``.

``verify_axioms`` decides associativity, reversibility and distributivity by
passes that name their own witnesses.  Each entry is held to the scan of
``axiom_oracle`` that once decided it, verdict, witness and detail.  The
associativity and distributivity passes compose planes with
``bytes.translate`` where ids fit in a byte and as lists past that, so the
tests run with ``kernel._BYTE_IDS`` at its default and at 0, where every
ring takes the list composition.

Past (2,2), ``verify_axioms`` first tries the binary reducts: when the
tables are the lifts of the reducts and the reducts pass, the ring passes.
Every failing spec is decided by the n-ary passes, so the pinned reports
and the scans test that route; the passing rings past (2,2) are run
through the n-ary passes directly, and both routes must agree on them.
"""

import hashlib
from dataclasses import replace
from itertools import combinations, combinations_with_replacement, islice, product

import pytest
from axiom_oracle import (
    NaiveOracle,
    dense_tables,
    fixture_mutations,
    nary_route,
    negation_of,
    reversibility_scan,
    single_entry_mutations,
    spec_reversibility_scan,
    spec_scans,
    z257_spec,
)
from conftest import lift, order3_spec, z2_ternary_spec

from hyperideal import (
    AxiomReport, Verdict, cyclic_ring, fixtures, kernel, product_ring, ring_from_ring_table, verify_axioms,
)
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


def _arity_4_mutations(lifted_rings) -> list:
    """Strided single-entry mutations of the tables of arity 4 and 2 of the
    lift of Z8 to (4,2), 16 and 4, and of the table of arity 4 of the lift
    of Z12 to (2,4), 5: the f mutations of the latter would each pay for a
    passing g-associativity scan at arity 4."""
    z8_as_42, z12_as_24 = lifted_rings["z8-as-42"].spec, lifted_rings["z12-as-24"].spec
    return [
        *single_entry_mutations(z8_as_42, tables="f", stride=5239),
        *single_entry_mutations(z8_as_42, tables="g", stride=63),
        *single_entry_mutations(z12_as_24, tables="g", stride=3003),
    ]


def test_arity_4_mutations_get_the_scans_entries(monkeypatch, lifted_rings):
    """No fixture mutation has m or n = 4.  Strided mutations of the (4,2)
    and (2,4) lifts run the n-ary passes at arity 4, where each prefix has
    20 splits and a repeated member makes some of them equal; every spec
    fails, and in both compositions each entry equals the scans'."""
    specs = _arity_4_mutations(lifted_rings)
    assert len(specs) == 25
    scans = [spec_scans(spec) for spec in specs]
    for bounds in ({}, LISTS_ONLY):
        _set_bounds(monkeypatch, bounds)
        reports = [_report(spec) for spec in specs]
        assert not any(report.all_pass for report in reports)
        assert [{family: report.entries[family] for family in scan} for report, scan in zip(reports, scans)] == scans


def test_ids_past_a_byte_take_the_list_composition(monkeypatch):
    """With the byte bound at its 8 distinct f values, paper-example x
    z2-as-33 has more images for distributivity than a byte would name; that
    pass composes lists while g-associativity, on 6 elements, keeps bytes.
    The ring and every 14th g mutation keep their reports."""
    base = _paper_times_z2_as_33()
    specs = [base, *single_entry_mutations(base, tables="g", stride=14)]
    expected = [_report(spec) for spec in specs]
    widths = []

    def recording_compose(rows, tables, byte_ids):
        widths.append(byte_ids)
        return compose(rows, tables, byte_ids)

    compose = kernel._compose
    _set_bounds(monkeypatch, {"_BYTE_IDS": 8, "_compose": recording_compose})
    assert [_report(spec) for spec in specs] == expected
    assert set(widths) == {False, True}
    assert _scan_differences(specs) == []


def _census() -> list:
    values = [set(c) for k in (1, 2, 3) for c in combinations(range(3), k)]
    return [
        order3_spec(f11, f12, f22, g22)
        for f11, f12, f22 in product(values, repeat=3) for g22 in range(3)
    ]


def test_every_krasner_quotient_verifies(krasner_rings):
    """Each Krasner quotient Z_k/G (``conftest.krasner_spec``, k <= 30)
    verifies, has a multivalued sum and distributes in the equality form:
    g2(f2(a, b), c) = f2(g2(a, c), g2(b, c)) for all a, b and c."""
    assert len(krasner_rings) == 130
    assert all(isinstance(ring, HyperRing) for ring in krasner_rings)
    assert {ring.order for ring in krasner_rings} == {*range(2, 17), 18, 20, 21}
    for ring in krasner_rings:
        order, f2, g2 = ring.order, ring.f2, ring.g2
        assert any(bits & (bits - 1) for bits in f2), ring.name
        for a, b, c in product(range(order), repeat=3):
            image = sum({1 << g2[w * order + c] for w in bit_members(f2[a * order + b])})
            assert f2[g2[a * order + c] * order + g2[b * order + c]] == image, (ring.name, a, b, c)


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


def _reduct_route(spec):
    """What the reduct route of ``verify_axioms`` gives on ``spec``: the
    report and negation of the binary reducts, or None where it defers."""
    f, g, f_ids, f_values = dense_tables(spec)
    return kernel._verify_reducts(
        spec.order, spec.m, spec.n, f, g, spec.index(spec.zero), spec.index(spec.one))


def test_row_check_passes_every_ring_that_holds(monkeypatch):
    """On rings that satisfy every axiom, each n-ary pass decides alone in
    either composition, and the scans agree.  The passes are called on each
    ring's own tables, since ``verify_axioms`` decides a valid ring past
    (2,2) on its binary reducts."""
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
            report, negation = nary_route(ring.spec)
            assert report.all_pass and negation == ring.negation, ring.name


def test_both_routes_give_equal_reports_past_2_2(monkeypatch, rings_past_2_2):
    """Every passing ring past (2,2) that the tests build is decided on its
    binary reducts, and the n-ary passes on its own tables give the same
    entries and negation, in either composition.  The reduct route's
    report keeps one timing per axiom."""
    assert len(rings_past_2_2) == 13
    for bounds in ({}, LISTS_ONLY):
        _set_bounds(monkeypatch, bounds)
        for ring in rings_past_2_2:
            by_reducts = _reduct_route(ring.spec)
            assert by_reducts is not None, ring.name
            assert by_reducts == nary_route(ring.spec) == (ring.axiom_report, ring.negation), ring.name
            assert len(by_reducts[0].timings_s) == len(AXIOM_ORDER)


def test_census_lifts_verify_exactly_when_their_candidates_do():
    """Each of the 1029 order-3 candidates, lifted to (3,3) by
    ``conftest.lift``, which builds the lift on its own, verifies exactly
    when the candidate does.  A failing lift's entries are the scans'."""
    mismatched, differences, accepted = [], [], 0
    for spec in _census():
        lifted = lift(spec, 3, 3)
        result = verify_axioms(lifted)
        if isinstance(result, HyperRing) != isinstance(verify_axioms(spec), HyperRing):
            mismatched.append(spec.name)
        elif isinstance(result, HyperRing):
            accepted += 1
        else:
            differences += [
                (spec.name, family) for family, scan in spec_scans(lifted).items()
                if result.entries[family] != scan
            ]
    assert (mismatched, differences, accepted) == ([], [], 10)


def test_a_ring_whose_reducts_verify_but_is_no_lift_is_refused():
    """paper-example with f(1,1,1) = {0,1} keeps its binary reducts, which
    verify, but it is not their lift: the n-ary passes refuse it with the
    scans' witnesses."""
    paper = fixtures("paper-example").spec
    spec = replace(paper, f_table={**paper.f_table, (1, 1, 1): frozenset({0, 1})})
    f, g = dense_tables(spec)[:2]
    reducts = kernel._reduct(f, 3, 3, 0), kernel._reduct(g, 3, 3, 1)
    assert kernel._verify_tables(3, 2, 2, *reducts, 0, 1, *kernel._interned(reducts[0]))[0].all_pass
    assert _reduct_route(spec) is None
    report = _report(spec)
    assert report.failures() == ["f-associativity", "reversibility"]
    assert report.entries["f-associativity"] == Verdict(
        False, witness=(0, 0, 1, 1, 1), detail="grouping (0, 0, 1) gives [0, 1] but grouping (0, 1, 1) gives [1]")
    assert report.entries["reversibility"] == Verdict(
        False, witness=(1, 1, 1), detail="element 0 cannot be reversed at position 1")
    assert all(report.entries[family] == scan for family, scan in spec_scans(spec).items())


def _sorted_lookup_tables(spec) -> tuple[list[int], list[int]]:
    """The dense lists built the plain way: every ordered tuple sorted and
    looked up in the spec."""
    full = range(spec.order)
    f_bits = {key: sum(1 << v for v in value) for key, value in spec.f_table.items()}
    f = [f_bits[tuple(sorted(t))] for t in product(full, repeat=spec.m)]
    g = [spec.g_table[tuple(sorted(t))] for t in product(full, repeat=spec.n)]
    return f, g


def test_dense_tables_match_the_sorted_lookup():
    """``_dense_tables`` spreads the f and g values of the sorted keys, in
    ``combinations_with_replacement`` order, over their orderings; the lists
    equal the sorted lookup's on every fixture, the (3,3) products, z257,
    rings of mixed or higher arity and the order-3 census, with set values
    taken as their frozensets.  Validation hands over exactly those value
    lists, whether or not a table is in sorted key order."""
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
        order, m, n = spec.order, spec.m, spec.n
        f_values = [spec.f_table[key] for key in combinations_with_replacement(range(order), m)]
        g_values = [spec.g_table[key] for key in combinations_with_replacement(range(order), n)]
        reordered = replace(spec, f_table=dict(reversed(spec.f_table.items())),
                            g_table=dict(reversed(spec.g_table.items())))
        assert kernel._validated(spec) == kernel._validated(reordered) == (f_values, g_values), spec.name
        f, g, f_ids, masks = kernel._dense_tables(order, m, n, f_values, g_values)
        assert (f, g) == _sorted_lookup_tables(spec), spec.name
        # the ids number the masks by first appearance in dense order
        assert (f_ids, masks) == kernel._interned(f), spec.name
        assert kernel._dense_tables(order, m, n, list(map(set, f_values)), g_values) == (f, g, f_ids, masks)


def test_the_passes_take_f_ids_from_the_dense_build(monkeypatch):
    """``_dense_tables`` numbers f's distinct masks once; on the (2,2) route
    its ids reach ``_verify_tables`` as they are, and on the reduct route
    they are renumbered among f2's own masks.  Either way they are the ids
    of interning the f that the passes read."""
    z2_as_33, paper = fixtures("z2-as-33"), fixtures("paper-example")
    # Z_6 with each residue r at index r - 1, so that 0 is the last element:
    # the reduct f(., ., 0) then meets its values in another order than f
    shifted = [[(((a + 1) + (b + 1)) % 6 - 1) % 6 for b in range(6)] for a in range(6)]
    times = [[(((a + 1) * (b + 1)) % 6 - 1) % 6 for b in range(6)] for a in range(6)]
    z6_shifted = lift(ring_from_ring_table(shifted, times, 5, 0, "z6-shifted"), 3, 3)
    specs = [fixtures("z6").spec, paper.spec, product_ring([paper, z2_as_33]).spec, z6_shifted, cyclic_ring(48).spec]
    calls = []
    verify_tables = kernel._verify_tables

    def recorded(order, m, n, f, g, zero, one, f_ids, f_values):
        calls.append((f_ids, f_values) == kernel._interned(f))
        return verify_tables(order, m, n, f, g, zero, one, f_ids, f_values)

    monkeypatch.setattr(kernel, "_verify_tables", recorded)
    for spec in specs:  # one call each, on the (2,2) route or the reduct route
        assert isinstance(verify_axioms(spec), HyperRing)
    assert calls == [True] * 5


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
    f = dense_tables(spec)[0]
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
