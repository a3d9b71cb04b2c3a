"""Theorem catalog, suite aggregation, fixtures."""

import contextlib
import gc
import io
import sys
import weakref
from itertools import permutations

import pytest

from conftest import relabel, seeded_perms, unordered_sets
from hyperideal import (
    CATALOG,
    HyperRing,
    DEFAULT_SUITE_FIXTURES,
    FIXTURE_NAMES,
    check_theorem,
    cli,
    cyclic_ring,
    fixtures,
    parse_spec,
    product_ring,
    quotient_ring,
    require_ring,
    run_suite,
    serialize_spec,
    verify_axioms,
)
from hyperideal.analysis import _Memo
from hyperideal.errors import UnknownFixture, UnknownTheorem
from hyperideal.harness import MAX_COUNTEREXAMPLES


def test_catalog_has_22_entries():
    assert len(CATALOG) == 22
    assert list(CATALOG) == [
        "T1.1", "T1.2", "T1.3", "P2", "T7", "T6", "T3", "T4", "T5",
        "TPRIMARY-EQ", "TDECOMP", "PINT", "P8", "T9-FWD", "T10", "T12",
        "TAVOID", "THOM-PRE", "THOM-IMG", "TQUOT", "TPROD", "FW-SR",
    ]


def test_fixture_registry(all_fixture_rings):
    for ring in all_fixture_rings:
        assert ring.axiom_report.all_pass


def test_paper_fixture_shape(paper):
    assert paper.order == 3 and paper.m == 3 and paper.n == 3


def test_z6_fixture_ideal_count(z6):
    from hyperideal import enumerate_hyperideals

    assert len(enumerate_hyperideals(z6)) == 4


def test_unknown_fixture():
    with pytest.raises(UnknownFixture):
        fixtures("z7")


def test_unknown_theorem(paper):
    with pytest.raises(UnknownTheorem):
        check_theorem(paper, "T99")


def test_t11_holds_on_paper(paper):
    report = check_theorem(paper, "T1.1")
    assert report.status == "holds"
    assert report.hypothesis_met >= 1


def test_t5_holds_on_paper(paper):
    report = check_theorem(paper, "T5")
    assert report.status == "holds"
    assert report.hypothesis_met >= 1


def test_t9_fwd_on_paper(paper):
    # the order-3 example is a hyperintegral domain
    report = check_theorem(paper, "T9-FWD")
    assert report.status == "holds"
    assert report.hypothesis_met == 1


def test_t9_fwd_never_met_on_z6(z6):
    report = check_theorem(z6, "T9-FWD")
    assert report.status == "hypothesis-never-met"


def test_tavoid_exercised_on_z6(z6):
    report = check_theorem(z6, "TAVOID")
    assert report.status == "holds"
    assert report.hypothesis_met >= 1
    assert not report.truncated


def test_tavoid_cap_counts_only_checked_instances(z12, monkeypatch):
    # cut short by the walk budget, TAVOID counts the covers it walked
    from hyperideal import analysis

    full = check_theorem(z12, "TAVOID")  # also walks the ideals and MS of z12
    assert (full.instances_checked, full.truncated) == (2520, False)
    monkeypatch.setattr(analysis, "WALK_BUDGET", 50)
    report = check_theorem(z12, "TAVOID")
    assert report.instances_checked == 882
    assert report.truncated


def test_tavoid_never_met_on_small_fixtures(paper, z2):
    for ring in (paper, z2):
        assert check_theorem(ring, "TAVOID").status == "hypothesis-never-met"


def test_tdecomp_on_z6(z6):
    report = check_theorem(z6, "TDECOMP")
    assert report.status == "holds"


def test_tprod_never_met_above_order_4(z6):
    assert check_theorem(z6, "TPROD").status == "hypothesis-never-met"


def test_report_invariants(all_fixture_rings):
    for ring in all_fixture_rings:
        for ident in CATALOG:
            report = check_theorem(ring, ident)
            if report.status == "holds":
                assert report.hypothesis_met >= 1
                assert not report.counterexamples
            if report.status == "counterexample":
                assert report.counterexamples
            if report.status == "hypothesis-never-met":
                assert report.hypothesis_met == 0


def test_suite_on_reference_rings():
    rings = [fixtures(n) for n in ("paper-example", "z6", "z2xz3", "z6-mod-3")]
    result = run_suite(rings)
    assert all(r.status != "counterexample" for _, r in result.entries)
    exercised = {}
    for _, r in result.entries:
        exercised[r.id] = exercised.get(r.id, 0) + r.hypothesis_met
    assert all(v >= 1 for v in exercised.values())
    assert result.aggregate == "pass"


TRUNCATION_RINGS = ("paper-example", "z6", "z2xz3", "z6-mod-3", "z12")


def test_truncated_suite_aggregates_as_truncated(monkeypatch):
    from hyperideal import analysis

    rings = [fixtures(n) for n in TRUNCATION_RINGS]
    assert run_suite(rings).aggregate == "pass"  # walks the ideals and MS first
    monkeypatch.setattr(analysis, "WALK_BUDGET", 50)
    result = run_suite(rings)
    assert {(ring, r.id) for ring, r in result.entries if r.truncated} == {("z12", "TAVOID")}
    assert all(r.status != "counterexample" for _, r in result.entries)
    assert result.aggregate == "truncated"


def test_truncated_suite_cli_line_and_exit_code(monkeypatch, capsys):
    from hyperideal import analysis, cli

    # each argument loads as a fixture ring whose walks are already done
    rings = {name: fixtures(name) for name in TRUNCATION_RINGS}
    run_suite(list(rings.values()))
    monkeypatch.setattr(cli, "_load_ring", rings.__getitem__)
    monkeypatch.setattr(analysis, "WALK_BUDGET", 50)
    assert cli.run(["theorems", *rings]) == 0
    assert capsys.readouterr().out.endswith("aggregate: truncated\n")


def test_suite_filter(paper):
    result = run_suite([paper], only=["T1.1"])
    assert len(result.entries) == 1
    assert result.entries[0][1].id == "T1.1"


def test_suite_gap_on_single_trivial_field(z2):
    result = run_suite([z2])
    statuses = {r.id: r.status for _, r in result.entries}
    assert statuses["TAVOID"] == "hypothesis-never-met"
    assert result.aggregate == "hypothesis-gap"


def test_suite_reports_deterministic(z6):
    a = run_suite([z6]).to_json()
    b = run_suite([z6]).to_json()
    assert a == b


def test_strict_mode_suite_clean_on_classical(z6):
    result = run_suite([z6], mode="strict")
    assert all(r.status != "counterexample" for _, r in result.entries)


def test_strict_mode_surfaces_p8_tension_on_paper(paper):
    # with negation-closed hyperideals the example ring keeps only {0}, so
    # "every proper hyperideal is an S-hyperideal" holds for a non-unit MS
    report = check_theorem(paper, "P8", mode="strict")
    assert report.status == "counterexample"
    assert report.counterexamples[0]["S"] == "{1,2}"


def test_checker_reports_injected_disjointness_violation(monkeypatch):
    # a classifier that wrongly accepts an overlapping pair must surface as
    # a counterexample, not vanish into the hypothesis bookkeeping
    from hyperideal import harness, require_ring

    ring = require_ring(fixtures("z6").spec)  # fresh identity, cold caches
    bad_p = (1 << 0) | (1 << 3)
    bad_s = 1 << 3
    real = ring.analysis.compatible

    def lying(key):
        # S*(P) wrongly admits the overlapping set S
        if key == (bad_p, bad_p):
            return real[key] | bad_s
        return real[key]

    monkeypatch.setattr(ring.analysis, "compatible", _Memo(lying))
    report = harness.check_theorem(ring, "T1.1")
    assert report.status == "counterexample"
    assert report.counterexamples[0]["P"] == "{0,3}"


def test_checker_reports_injected_saturation_drift(monkeypatch):
    from hyperideal import harness, require_ring

    ring = require_ring(fixtures("z6").spec)
    real = ring.analysis.colons

    def lying(q):
        # the saturation of {0} by S={1}, the union of the colons (q : t)
        # over t in S, drifts to take in 2
        out = real[q]
        if q == 1:
            return out[:1] + (out[1] | 1 << 2,) + out[2:]
        return out

    monkeypatch.setattr(ring.analysis, "colons", _Memo(lying))
    report = harness.check_theorem(ring, "T5")
    assert report.status == "counterexample"


@pytest.mark.parametrize("ident", ["THOM-IMG", "TQUOT"])
def test_a_target_mask_that_is_no_hyperideal_admits_no_s(monkeypatch, ident):
    from hyperideal import Verdict, harness, require_ring

    ring = require_ring(fixtures("z4").spec)
    assert harness.check_theorem(ring, ident).status == "holds"
    # every target, the ring itself (the identity) and its quotients, now
    # calls each mask no hyperideal
    targets = [hom.target for hom in harness._transfers(ring, "lenient")]
    for target in targets:
        monkeypatch.setattr(target.analysis, "hyperideal", _Memo(lambda key: Verdict(False, "zero-membership")))
    report = harness.check_theorem(ring, ident)
    assert report.status == "counterexample"
    assert report.hypothesis_met > 0


def test_default_suite_fixture_list():
    assert DEFAULT_SUITE_FIXTURES == (
        "paper-example", "z2", "z4", "z6", "z8", "z12", "z2xz3", "z6-mod-3",
    )
    assert set(DEFAULT_SUITE_FIXTURES) <= set(FIXTURE_NAMES)


def test_ring_is_freed_with_its_analysis():
    # z4 is small enough for TPROD, which builds a product ring of it
    ring = require_ring(parse_spec(serialize_spec(fixtures("z4").spec)))
    run_suite([ring])
    alive = weakref.ref(ring)
    del ring
    gc.collect()
    assert alive() is None


def test_ring_and_analysis_die_without_the_cyclic_collector():
    # TPROD builds a product and T9/TQUOT fill quotients: none refers back
    gc.disable()
    try:
        ring = require_ring(parse_spec(serialize_spec(fixtures("z4").spec)))
        run_suite([ring])
        assert ring.analysis.quotients
        alive = weakref.ref(ring), weakref.ref(ring.analysis)
        del ring
        assert [ref() for ref in alive] == [None, None]
    finally:
        gc.enable()


def test_theorems_call_leaves_no_ring_behind(tmp_path, capsys):
    paths = []
    for name in DEFAULT_SUITE_FIXTURES:
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(serialize_spec(fixtures(name).spec), encoding="utf-8")
    fixtures("z2-as-33")  # TPROD's companion for the (3,3) rings
    gc.collect()
    gc.disable()
    try:
        # the fixtures() cache and what other tests keep; type() is, not
        # isinstance, so a proxy could neither pass nor raise
        before = [o for o in gc.get_objects() if type(o) is HyperRing]
        assert cli.run(["theorems", *map(str, paths)]) == 0
        known = {id(o) for o in before}
        assert [o for o in gc.get_objects() if type(o) is HyperRing and id(o) not in known] == []
    finally:
        gc.enable()
    capsys.readouterr()


def _left_to_the_collector(call) -> list:
    """The objects that ``call()`` leaves in reference cycles, once the
    caches that a first call fills are full."""
    call()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)  # what the collector frees is kept in gc.garbage
    try:
        call()
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def _text_theorems(tmp_path) -> None:
    paths = []
    for name in DEFAULT_SUITE_FIXTURES:
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(serialize_spec(fixtures(name).spec), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["theorems", *map(str, paths)]) == 0


@pytest.mark.parametrize("call", [
    _text_theorems,
    lambda _: verify_axioms(parse_spec(serialize_spec(cyclic_ring(64).spec))),
    lambda _: serialize_spec(cyclic_ring(64).spec),
    lambda _: cyclic_ring(64),
    lambda _: product_ring([fixtures("z2")] * 4),
    lambda _: quotient_ring(fixtures("z6"), fixtures("z6").subset([0, 3])),
], ids=["theorems", "parse-verify-z64", "serialize-z64", "cyclic", "product", "quotient"])
def test_calls_leave_nothing_to_the_cyclic_collector(call, tmp_path):
    # a memo whose build function reads the memo itself is a cycle, as the
    # ids memo of the dense tables once was (35 cycles per theorems call);
    # the JSON format is left out: the stdlib's pure-Python indent encoder
    # leaves its own cycles
    assert _left_to_the_collector(lambda: call(tmp_path)) == []


def test_repeated_parse_and_suite_retains_nothing():
    doc = serialize_spec(fixtures("z12").spec)

    def one_round():
        run_suite([require_ring(parse_spec(doc))])

    one_round()  # the first round also fills interpreter-level caches
    gc.collect()
    before = sys.getallocatedblocks()
    for _ in range(5):
        one_round()
    gc.collect()
    # a retained ring with its lists and memos is ~40k blocks
    assert sys.getallocatedblocks() - before < 1000


# ---------------------------------------------------------------------------
# isomorphic rings have the same catalog


def _cells(ring, mode):
    """What an isomorphism keeps of each cell: everything but the names."""
    return [(r.id, r.status, r.instances_checked, r.hypothesis_met, r.truncated,
             len(r.counterexamples)) for _, r in run_suite([ring], mode).entries]


def _named(ring, mode, name):
    """The counterexamples of each cell that names fewer than the cap, up to
    the order of the list and of the names inside each rendered set; the
    ring's own name is read as ``name``."""
    return [
        sorted(sorted((key, unordered_sets(value.replace(ring.name, name))) for key, value in cx.items())
               for cx in r.counterexamples)
        for _, r in run_suite([ring], mode).entries
        if len(r.counterexamples) < MAX_COUNTEREXAMPLES
    ]


def _same_catalog_under(ring, perm, mode):
    relabelled = relabel(ring, perm)
    assert _cells(relabelled, mode) == _cells(ring, mode), perm
    assert _named(relabelled, mode, ring.name) == _named(ring, mode, ring.name), perm


@pytest.mark.parametrize("mode", ("lenient", "strict"))
@pytest.mark.parametrize("name", ("paper-example", "z12", "z8", "z6-mod-3"))
def test_catalog_does_not_depend_on_labels(name, mode):
    # every element may move, 0 and 1 included
    ring = fixtures(name)
    for perm in seeded_perms(ring):
        _same_catalog_under(ring, perm, mode)


@pytest.mark.parametrize("mode", ("lenient", "strict"))
def test_census_catalog_does_not_depend_on_labels(census_rings, mode):
    # every relabelling of the order-3 census; in strict mode two of its
    # rings name T1.3, P2, T7 and P8 failures
    for ring in census_rings.values():
        for perm in permutations(range(3)):
            _same_catalog_under(ring, list(perm), mode)


@pytest.mark.parametrize("mode", ("lenient", "strict"))
@pytest.mark.parametrize("k, factors", [(6, (2, 3)), (12, (4, 3)), (24, (8, 3))])
def test_chinese_remainder_pairs_have_the_same_catalog(k, factors, mode):
    name = "x".join(f"z{f}" for f in factors)
    product = product_ring([cyclic_ring(f) for f in factors], name=name)
    assert _cells(product, mode) == _cells(cyclic_ring(k), mode)
