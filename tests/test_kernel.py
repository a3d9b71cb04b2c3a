"""Kernel: parsing, serialization, operations, and axiom verification."""

import json
from dataclasses import replace

import pytest

from hyperideal import (
    AxiomReport,
    HyperRing,
    cyclic_ring,
    fixtures,
    parse_spec,
    product_ring,
    proper_hyperideals,
    quotient_ring,
    require_ring,
    serialize_spec,
    verify_axioms,
)
from hyperideal.errors import (
    ArityMismatch,
    ArityOutOfRange,
    AxiomsFailed,
    CosetsNotPartition,
    EmptyHyperValue,
    InducedOpIllDefined,
    MissingEntry,
    RingMismatch,
    SpecFormatError,
    TablesTooLarge,
    UnknownElement,
)
from hyperideal.kernel import MODES


def paper_doc() -> dict:
    return json.loads(serialize_spec(fixtures("paper-example").spec))


# ---------------------------------------------------------------------------
# parsing and serialization


def test_paper_document_parses(paper):
    spec = parse_spec(serialize_spec(paper.spec))
    assert spec.m == 3 and spec.n == 3
    assert spec.elements == ("0", "1", "2")


def test_z2_document_round_trip(z2):
    doc = serialize_spec(z2.spec)
    spec = parse_spec(doc)
    assert spec == z2.spec
    assert serialize_spec(spec) == doc


def test_round_trip_byte_identity_all_fixtures(all_fixture_rings):
    for ring in all_fixture_rings:
        doc = serialize_spec(ring.spec)
        assert serialize_spec(parse_spec(doc)) == doc


def test_missing_entry_rejected():
    doc = paper_doc()
    del doc["f"]["0,0,2"]
    with pytest.raises(MissingEntry):
        parse_spec(json.dumps(doc))


def test_unknown_element_rejected():
    doc = paper_doc()
    doc["f"]["0,0,2"] = ["3"]
    with pytest.raises(UnknownElement):
        parse_spec(json.dumps(doc))


def test_empty_hypervalue_rejected():
    doc = paper_doc()
    doc["f"]["0,0,2"] = []
    with pytest.raises(EmptyHyperValue):
        parse_spec(json.dumps(doc))


def test_arity_out_of_range_rejected():
    doc = paper_doc()
    doc["m"] = 1
    with pytest.raises(ArityOutOfRange):
        parse_spec(json.dumps(doc))


def test_zero_equal_one_rejected():
    doc = paper_doc()
    doc["one"] = "0"
    with pytest.raises(SpecFormatError):
        parse_spec(json.dumps(doc))


Z2_F = {(0, 0): frozenset({0}), (0, 1): frozenset({1}), (1, 1): frozenset({0})}
Z2_G = {(0, 0): 0, (0, 1): 0, (1, 1): 1}


# a spec built in code reaches verify_axioms without parse_spec, so
# validate_spec is its only guard; each edit of z2's spec breaks one rule
@pytest.mark.parametrize("edit, error, match", [
    ({"m": 1}, ArityOutOfRange, "m=1"),
    ({"n": 0}, ArityOutOfRange, "n=0"),
    ({"n": 11}, TablesTooLarge, "arity limit"),
    ({"elements": ()}, SpecFormatError, "no elements"),
    ({"elements": ("0", "0")}, SpecFormatError, "not distinct"),
    ({"elements": ("0", "1,2"), "one": "1,2"}, SpecFormatError, "'1,2' is not allowed"),
    ({"elements": ("0", ""), "one": ""}, SpecFormatError, "'' is not allowed"),
    ({"zero": "2"}, UnknownElement, "'2' in zero"),
    ({"one": "2"}, UnknownElement, "'2' in one"),
    ({"zero": "1"}, SpecFormatError, "must be distinct"),
    ({"f_table": {k: v for k, v in Z2_F.items() if k != (0, 1)}}, MissingEntry, "'f'.* 0,1"),
    ({"f_table": {**Z2_F, (1, 1): frozenset()}}, EmptyHyperValue, "1,1 is empty"),
    ({"f_table": {**Z2_F, (1, 1): frozenset({2})}}, SpecFormatError, r"f value out of range at \(1, 1\)"),
    ({"f_table": {**Z2_F, (1, 0): frozenset({1})}}, SpecFormatError, "f table has surplus keys"),
    ({"g_table": {k: v for k, v in Z2_G.items() if k != (1, 1)}}, MissingEntry, "'g'.* 1,1"),
    ({"g_table": {**Z2_G, (1, 1): -1}}, SpecFormatError, r"g value out of range at \(1, 1\)"),
    ({"g_table": {**Z2_G, (0, 1): 2}}, SpecFormatError, r"g value out of range at \(0, 1\)"),
    ({"g_table": {**Z2_G, (1, 0): 0}}, SpecFormatError, "g table has surplus keys"),
    # wrong types, refused before any comparison; True would pass as element 1
    ({"m": "2"}, ArityOutOfRange, "m='2'"),
    ({"elements": ("0", 1), "one": 1}, SpecFormatError, "element name 1 is not allowed"),
    ({"g_table": {**Z2_G, (1, 1): "1"}}, SpecFormatError, r"g value at \(1, 1\) is not an element index"),
    ({"f_table": {**Z2_F, (0, 0): frozenset({0.0})}}, SpecFormatError,
     r"f value at \(0, 0\) is not a set of element indices"),
    ({"g_table": {**Z2_G, (1, 1): True}}, SpecFormatError, r"g value at \(1, 1\) is not an element index"),
    # each verified once into a ring whose own document did not reload as it
    ({"name": None}, SpecFormatError, "field 'name' must be a string"),
    ({"name": "z\ud8002"}, SpecFormatError, "without lone surrogates"),
    ({"elements": ["0", "1"]}, SpecFormatError, "elements must be a tuple"),
    # tables that are not mappings, refused before any entry is looked up
    ({"f_table": None}, SpecFormatError, "field 'f_table' must be a mapping"),
    ({"g_table": None}, SpecFormatError, "field 'g_table' must be a mapping"),
    ({"f_table": list(Z2_F.values())}, SpecFormatError, "field 'f_table' must be a mapping"),
    ({"g_table": list(Z2_G.values())}, SpecFormatError, "field 'g_table' must be a mapping"),
])
def test_specs_built_in_code_are_validated(z2, edit, error, match):
    assert z2.spec.f_table == Z2_F and z2.spec.g_table == Z2_G
    with pytest.raises(error, match=match):
        verify_axioms(replace(z2.spec, **edit))


def _z2_document(table: str, key: str, value) -> str:
    doc = json.loads(serialize_spec(fixtures("z2").spec))
    doc[table][key] = value
    return json.dumps(doc)


@pytest.mark.parametrize("document, match", [
    ("[]", "document root must be an object"),
    (_z2_document("f", "1,0", ["1"]), "duplicate f entry for multiset '1,0'"),
    (_z2_document("g", "1,0", "0"), "duplicate g entry for multiset '1,0'"),
], ids=["root-array", "duplicate-f", "duplicate-g"])
def test_documents_are_refused_while_resolving_keys(document, match):
    with pytest.raises(SpecFormatError, match=match):
        parse_spec(document)


def test_every_accepted_spec_round_trips(all_fixture_rings, census_rings, large_rings):
    """The fixtures, the census rings, the products the tests build and the
    quotients of each fixture by each proper hyperideal, in both modes."""
    z2_as_33 = fixtures("z2-as-33")
    rings = [
        *all_fixture_rings, *census_rings.values(), *large_rings.values(),
        product_ring([cyclic_ring(2), cyclic_ring(3)]),
        product_ring([fixtures("z4"), fixtures("z2")]),
        product_ring([z2_as_33, z2_as_33]),
        product_ring([fixtures("paper-example"), z2_as_33]),
    ]
    for ring in all_fixture_rings:
        for mode in MODES:
            for ideal in proper_hyperideals(ring, mode):
                try:
                    rings.append(quotient_ring(ring, ideal, mode).quotient)
                except (CosetsNotPartition, InducedOpIllDefined):
                    pass
    assert len(rings) == 9 + 10 + 3 + 4 + 40
    for ring in rings:
        assert parse_spec(serialize_spec(ring.spec)) == ring.spec, ring.name


def test_require_ring_raises_axioms_failed(z2):
    # 1 * 1 = 0 breaks the scalar identity
    spec = replace(z2.spec, g_table={**Z2_G, (1, 1): 0})
    with pytest.raises(AxiomsFailed, match="scalar-identity") as info:
        require_ring(spec)
    assert isinstance(info.value.report, AxiomReport)
    assert "scalar-identity" in info.value.report.failures()


def test_unordered_keys_are_canonicalised():
    doc = paper_doc()
    value = doc["f"].pop("0,0,2")
    doc["f"]["2,0,0"] = value
    spec = parse_spec(json.dumps(doc))
    assert "0,0,2" in json.loads(serialize_spec(spec))["f"]


# ---------------------------------------------------------------------------
# operations against printed-table oracles


def test_hyperadd_paper_values(paper):
    assert paper.hyperadd(1, 1, 2).members() == (0, 1, 2)
    assert paper.hyperadd(1, 2, 2).members() == (0, 1, 2)
    assert paper.hyperadd(0, 1, 2).members() == (0, 1, 2)
    for x in range(3):
        assert paper.hyperadd(x, 0, 0).members() == (x,)


def test_hyperadd_subset_union(paper):
    # union of f(0,0,2), f(0,2,2), f(2,2,2) over all choice tuples
    result = paper.hyperadd(paper.subset([0, 2]), paper.subset([0, 2]), paper.subset([2]))
    assert result.members() == (2,)


def test_hyperadd_arity_checked(paper):
    with pytest.raises(ArityMismatch):
        paper.hyperadd(1, 2)


def test_multiply_paper_values(paper):
    assert paper.multiply(1, 1, 2) == 2
    assert paper.multiply(1, 2, 2) == 2
    assert paper.multiply(2, 2, 2) == 2
    for x in range(3):
        for y in range(3):
            assert paper.multiply(0, x, y) == 0


def test_multiply_identity_law(all_fixture_rings):
    for ring in all_fixture_rings:
        ones = (ring.one,) * (ring.n - 1)
        for x in range(ring.order):
            assert ring.multiply(x, *ones) == x


def test_multiply_subset_extension(paper):
    result = paper.multiply(paper.subset([0, 1, 2]), 2, 1)
    assert result.members() == (0, 2)


def test_power_paper(paper):
    assert paper.power(2, 2) == 2
    for p in range(3):
        assert paper.power(p, 1) == p


def test_power_z6_matches_modular_arithmetic(z6):
    for p in range(6):
        for w in range(1, 8):
            assert z6.power(p, w) == pow(p, w, 6)


def test_power_composition(all_fixture_rings):
    for ring in all_fixture_rings:
        bound = 2 * ring.n
        for p in range(ring.order):
            for a in range(1, bound + 1):
                for b in range(1, bound + 1):
                    assert ring.power(p, a * b) == ring.power(ring.power(p, a), b)


def test_scalar_multiply_is_identity_padded_product(paper, z6):
    for ring in (paper, z6):
        pad = (ring.one,) * (ring.n - 2)
        for a in range(ring.order):
            for b in range(ring.order):
                assert ring.scalar_multiply(a, b) == ring.multiply(a, b, *pad)
            assert ring.scalar_row(a) == [ring.multiply(a, b, *pad) for b in range(ring.order)]


def test_negate_paper(paper):
    assert paper.negate(2) == 1
    assert paper.negate(0) == 0


@pytest.mark.parametrize("call", [
    lambda r: r.multiply(1, 4),
    lambda r: r.multiply(-1, 1),
    lambda r: r.multiply([1, 4], 1),
    lambda r: r.hyperadd(-1, 0),
    lambda r: r.hyperadd(0, [2, 4]),
    lambda r: r.negate(-1),
    lambda r: r.negate(4),
    lambda r: r.power(7, 2),
    lambda r: r.power(-1, 5),
    lambda r: r.scalar_multiply(4, 1),
    lambda r: r.scalar_multiply(1, -1),
], ids=["multiply-4", "multiply-neg", "multiply-subset", "hyperadd-neg", "hyperadd-subset",
        "negate-neg", "negate-4", "power-7", "power-neg", "scalar-4", "scalar-neg"])
def test_operations_refuse_elements_outside_the_carrier(z4, call):
    # unchecked, z4 answers multiply(1, 4) with 0, multiply(-1, 1) with 3,
    # hyperadd(-1, 0) with {3} and negate(-1) with 1
    with pytest.raises(ValueError, match="element index -?[0-9]+ out of range"):
        call(z4)


@pytest.mark.parametrize("call, error, match", [
    (lambda r: r.power(1, 0), ValueError, "power exponent must be >= 1"),
    (lambda r: r.multiply(1), ArityMismatch, "expected 2 arguments, got 1"),
    (lambda r: r.multiply(1, 1, 1), ArityMismatch, "expected 2 arguments, got 3"),
    (lambda r: r.subset_from_bits(1 << 4), ValueError, "mask bits out of range"),
    (lambda r: r.subset_from_bits(-1), ValueError, "mask bits out of range"),
    (lambda r: setattr(r.subset([1]), "bits", 0), AttributeError, "SubsetMask is immutable"),
], ids=["power-0", "multiply-1-argument", "multiply-3-arguments", "mask-bit-4", "mask-negative",
        "mask-assignment"])
def test_malformed_calls_are_refused(z4, call, error, match):
    with pytest.raises(error, match=match):
        call(z4)


def test_negate_z6(z6):
    assert z6.negate(2) == 4
    for x in range(6):
        assert z6.negate(x) == (-x) % 6


def test_negation_involution(all_fixture_rings):
    for ring in all_fixture_rings:
        assert ring.negate(ring.zero) == ring.zero
        for x in range(ring.order):
            assert ring.negate(ring.negate(x)) == x


def test_neutral_scan(all_fixture_rings):
    for ring in all_fixture_rings:
        zeros = (ring.zero,) * (ring.m - 1)
        for x in range(ring.order):
            assert ring.hyperadd(x, *zeros).members() == (x,)
        rest = (ring.zero,) * (ring.n - 1)
        assert ring.multiply(ring.zero, *rest) == ring.zero


# ---------------------------------------------------------------------------
# verification


def test_paper_example_passes_all_axioms(paper):
    assert paper.axiom_report.all_pass


def test_z2_passes(z2):
    assert isinstance(z2, HyperRing)


def test_zero_absorption_mutation_caught():
    doc = paper_doc()
    doc["g"]["0,1,1"] = "1"
    result = verify_axioms(parse_spec(json.dumps(doc)))
    assert isinstance(result, AxiomReport)
    status = result.entries["zero-absorption"]
    assert not status.ok
    assert status.witness == (0, 1, 1)


def test_g_associativity_mutation_caught():
    doc = paper_doc()
    doc["g"]["2,2,2"] = "0"
    result = verify_axioms(parse_spec(json.dumps(doc)))
    assert isinstance(result, AxiomReport)
    status = result.entries["g-associativity"]
    assert not status.ok
    assert status.witness == (1, 1, 2, 2, 2)
    # the damage is confined to associativity
    assert result.failures() == ["g-associativity"]


def test_f_associativity_mutation_caught():
    doc = paper_doc()
    doc["f"]["0,1,2"] = ["0", "1"]
    result = verify_axioms(parse_spec(json.dumps(doc)))
    assert isinstance(result, AxiomReport)
    assert not result.entries["f-associativity"].ok
    assert result.entries["f-associativity"].witness is not None


def test_reversibility_mutation_caught():
    # dropping 0 from f(1,1,2) keeps inverses unique but breaks reversal
    doc = paper_doc()
    doc["f"]["1,1,2"] = ["1", "2"]
    result = verify_axioms(parse_spec(json.dumps(doc)))
    assert isinstance(result, AxiomReport)
    assert result.entries["unique-inverses"].ok
    status = result.entries["reversibility"]
    assert not status.ok
    assert status.witness == (0, 1, 2)


def test_verification_deterministic():
    doc = json.dumps(paper_doc())
    first = verify_axioms(parse_spec(doc))
    second = verify_axioms(parse_spec(doc))
    assert first.axiom_report.entries == second.axiom_report.entries


def test_mask_ring_mismatch_rejected(paper, z6):
    with pytest.raises(RingMismatch):
        paper.subset([0]) | z6.subset([0])


def test_operations_refuse_a_mask_of_another_ring(z2, z4):
    # bit 1 of z2's mask would read as z4's element 1
    foreign = z2.subset([1])
    with pytest.raises(RingMismatch):
        z4.multiply(foreign, 1)
    with pytest.raises(RingMismatch):
        z4.hyperadd(1, foreign)
    assert z4.multiply(z4.subset([1]), 1) == z4.subset([1])


def test_require_ring_returns_ring(paper):
    assert require_ring(paper.spec).order == 3
