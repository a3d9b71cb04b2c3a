"""Products, quotients, homomorphisms, ideal transport."""

import re
from itertools import combinations_with_replacement, permutations
from itertools import product as tuples
from types import SimpleNamespace

import pytest

from conftest import z2_ternary_spec
from construction_oracle import (
    homomorphism_scan,
    induced_outcomes,
    induced_tables_scan,
    product_scan,
    sum_scan,
)
from hyperideal import (
    FIXTURE_NAMES,
    AxiomReport,
    HyperRingHom,
    check_homomorphism,
    classify_s,
    constructions,
    cyclic_ring,
    enumerate_hyperideals,
    enumerate_multiplicative_sets,
    fixtures,
    identity_hom,
    product_ring,
    proper_hyperideals,
    quotient_ring,
    require_ring,
    ring_from_ring_table,
    transport_ideal,
    SVerdict,
    Verdict,
)
from hyperideal.errors import (
    ArityMismatch,
    CosetsNotPartition,
    HypothesisViolation,
    InducedOpIllDefined,
    NotARing,
    RingMismatch,
    SpecFormatError,
)
from hyperideal.kernel import _index


# ---------------------------------------------------------------------------
# classical fixture builder


def test_ring_from_tables_z6():
    add = [[(a + b) % 6 for b in range(6)] for a in range(6)]
    mul = [[(a * b) % 6 for b in range(6)] for a in range(6)]
    spec = ring_from_ring_table(add, mul, 0, 1)
    ring = require_ring(spec)
    assert ring.order == 6 and ring.m == 2 and ring.n == 2


def test_only_ring_from_ring_table_calls_the_verifier(monkeypatch):
    # cyclic rings, products and quotients carry their proof; only tables
    # that come from a user are verified
    from hyperideal import kernel

    z2, z3, z6 = fixtures("z2"), cyclic_ring(3), fixtures("z6")
    verified = []
    real = kernel.verify_axioms

    def counting(spec):
        verified.append(spec.name)
        return real(spec)

    monkeypatch.setattr(kernel, "verify_axioms", counting)
    monkeypatch.setattr(constructions, "verify_axioms", counting)
    cyclic_ring(6)
    product_ring([z2, z3])
    quotient_ring(z6, z6.subset([0, 3]))
    assert verified == []
    add = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    mul = [[a * b % 3 for b in range(3)] for a in range(3)]
    ring_from_ring_table(add, mul, 0, 1, name="z3")
    assert verified == ["z3"]


def test_ring_from_tables_rejects_bad_multiplication():
    add = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    mul = [[(a * b) % 4 for b in range(4)] for a in range(4)]
    mul[3][3] = 0  # breaks associativity/identity structure
    mul[3] = list(mul[3])
    with pytest.raises(NotARing):
        ring_from_ring_table(add, mul, 0, 1)


_Z3_ADD = [[(a + b) % 3 for b in range(3)] for a in range(3)]
_Z3_MUL = [[(a * b) % 3 for b in range(3)] for a in range(3)]


@pytest.mark.parametrize("add, mul, zero, one, names, message", [
    (_Z3_ADD, [[0, 0, 0], [0, 1, 2], [0, 2]], 0, 1, None, "square of order 3"),
    (_Z3_ADD, _Z3_MUL[:2], 0, 1, None, "square of order 3"),
    ([[0, 1], [1, 2, 0], [2, 0, 1]], _Z3_MUL, 0, 1, None, "square of order 3"),
    (_Z3_ADD, _Z3_MUL, 3, 1, None, "zero 3 and one 1 must index elements 0..2"),
    (_Z3_ADD, _Z3_MUL, 0, -1, None, "zero 0 and one -1 must index elements 0..2"),
    (_Z3_ADD, _Z3_MUL, 0, 1, ("a", "b"), "2 element names given for 3 elements"),
    (_Z3_ADD, [[0, 0, 0], [0, 1, 2], [0, 1, 1]], 0, 1, None, "tables are not commutative"),
], ids=["ragged-mul-row", "short-mul", "ragged-add-row", "zero-outside", "one-negative",
        "few-names", "non-commutative"])
def test_ring_from_tables_rejects_malformed_tables(add, mul, zero, one, names, message):
    # unchecked, these raise IndexError, or (one=-1) silently take the last element
    with pytest.raises(NotARing, match=message):
        ring_from_ring_table(add, mul, zero, one, element_names=names)


def test_tables_share_one_f_value_per_sum():
    # 2,080 keys, one frozenset object per distinct sum
    assert len({id(value) for value in cyclic_ring(64).spec.f_table.values()}) == 64


def test_a_true_sum_is_not_merged_with_an_equal_int():
    # 0 + 1 = 1 comes first; a memo keyed by value alone would hand (2, 2)
    # the same frozenset({1}), since True == 1, and the spec would pass
    add = [row[:] for row in _Z3_ADD]
    add[2][2] = True
    with pytest.raises(SpecFormatError, match=re.escape("f value at (2, 2) is not a set of element indices")):
        ring_from_ring_table(add, _Z3_MUL, 0, 1)


@pytest.mark.parametrize("build, message", [
    (lambda: product_ring([]), "at least one factor is required"),
    (lambda: cyclic_ring(1), "modulus must be at least 2"),
], ids=["product-of-none", "z1"])
def test_degenerate_constructions_are_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# ---------------------------------------------------------------------------
# products


def test_product_z2_z3_behaves_like_z6(z6):
    prod = product_ring([cyclic_ring(2), cyclic_ring(3)])
    assert prod.order == 6
    assert len(enumerate_hyperideals(prod)) == len(enumerate_hyperideals(z6))


def test_product_ideal_lattice_multiplies():
    z2, z4 = cyclic_ring(2), cyclic_ring(4)
    prod = product_ring([z2, z4])
    assert len(enumerate_hyperideals(prod)) == (
        len(enumerate_hyperideals(z2)) * len(enumerate_hyperideals(z4))
    )


def test_product_arity_mismatch():
    with pytest.raises(ArityMismatch):
        product_ring([cyclic_ring(2), fixtures("paper-example")])


def test_arity_mismatch_names_both_pairs():
    # only n differs, so naming m alone would read "expected 2, got 2"
    z2, z2_23 = cyclic_ring(2), require_ring(z2_ternary_spec())
    for call in (lambda: product_ring([z2, z2_23]), lambda: check_homomorphism(z2, z2_23, (0, 1))):
        with pytest.raises(ArityMismatch, match=re.escape("(m, n) = (2, 2) and (2, 3) do not match")):
            call()


def test_singleton_product_is_identical(z6):
    prod = product_ring([z6])
    assert prod.order == z6.order
    assert prod.spec.f_table == z6.spec.f_table
    assert prod.spec.g_table == z6.spec.g_table


def test_product_of_33_rings():
    prod = product_ring([fixtures("paper-example"), fixtures("z2-as-33")])
    assert prod.order == 6 and prod.m == 3 and prod.n == 3
    assert prod.axiom_report.all_pass


# ---------------------------------------------------------------------------
# quotients


def test_quotient_z6_by_03(z6):
    q = quotient_ring(z6, z6.subset([0, 3]))
    assert q.quotient.order == 3
    assert len(enumerate_hyperideals(q.quotient)) == 2
    assert [c.members() for c in q.cosets] == [(0, 3), (1, 4), (2, 5)]


def test_quotient_by_zero_is_isomorphic_copy(z6):
    q = quotient_ring(z6, z6.subset([0]))
    assert q.quotient.order == z6.order
    assert len(enumerate_hyperideals(q.quotient)) == len(enumerate_hyperideals(z6))


def test_quotient_paper_02_fails_partition(paper):
    with pytest.raises(CosetsNotPartition) as err:
        quotient_ring(paper, paper.subset([0, 2]))
    assert err.value.first == ("0", "2")
    assert err.value.second == ("0", "1", "2")


def test_quotient_projection_is_epimorphism(z6):
    q = quotient_ring(z6, z6.subset([0, 3]))
    assert q.projection.surjective
    assert q.projection.kernel == z6.subset([0, 3])


def test_z12_quotients_match_cyclic(z12):
    q = quotient_ring(z12, z12.subset([0, 4, 8]))
    assert q.quotient.order == 4
    assert len(enumerate_hyperideals(q.quotient)) == len(enumerate_hyperideals(cyclic_ring(4)))


def _failing_verifier(monkeypatch):
    """Make the constructions' verifier fail every spec at distributivity."""
    report = AxiomReport({"distributivity": Verdict(False, "distributivity", (0, 0, 0), "")})
    monkeypatch.setattr(constructions, "verify_axioms", lambda spec: report)


def test_a_product_does_not_consult_the_verifier(monkeypatch, z2, z6):
    # with the constructions' verifier failing every spec, the product is
    # still built, and the real verify_axioms passes it unchanged
    _failing_verifier(monkeypatch)
    ring = product_ring([z2, z6])
    again = require_ring(ring.spec)
    assert (again.f_dense, again.g_dense, again.negation) == (ring.f_dense, ring.g_dense, ring.negation)


def test_a_product_name_must_be_text(z2):
    # the one spec field that does not come from the verified factors
    with pytest.raises(SpecFormatError, match="'name' must be a string"):
        product_ring([z2, z2], name=b"z2xz2")


def test_a_quotient_does_not_consult_the_verifier(monkeypatch, z6):
    # with the constructions' verifier failing every spec, the quotient is
    # still built, and the real verify_axioms passes it unchanged
    _failing_verifier(monkeypatch)
    ring = quotient_ring(z6, z6.subset([0, 3])).quotient
    again = require_ring(ring.spec)
    assert (again.f_dense, again.g_dense, again.negation) == (ring.f_dense, ring.g_dense, ring.negation)


# ---------------------------------------------------------------------------
# homomorphisms


def test_identity_hom_valid(z6):
    hom = identity_hom(z6)
    assert hom.surjective
    assert hom.kernel.members() == (0,)


def test_swap_map_violates_identity_clause(z2):
    result = check_homomorphism(z2, z2, (1, 0))
    assert isinstance(result, Verdict) and not result.ok
    assert result.clause == "identity"


def test_non_hom_multiplication_witness(z6):
    # x -> 0 except 1 -> 1: preserves neither sums nor products
    mapping = tuple(1 if x == 1 else 0 for x in range(6))
    result = check_homomorphism(z6, z6, mapping)
    assert isinstance(result, Verdict) and not result.ok


@pytest.mark.parametrize("mapping", [(0, 1, 5, 1), (0, 1, -1, 1), (0, True, 0, 1)])
def test_mapping_outside_the_target_is_refused(z4, z2, mapping):
    # unchecked, these raise IndexError and "negative shift count", and True
    # passes as the element 1
    with pytest.raises(ValueError, match="mapping must send every element into the target"):
        check_homomorphism(z4, z2, mapping)


@pytest.mark.parametrize("mapping, message", [
    ({0: 0, 1: 1}, "mapping must be total on the source"),
    ((0, 1.0, 0, 1), "mapping must send every element into the target"),
    ("0101", "mapping must send every element into the target"),
    ({0: 0, 1: "1", 2: 0, 3: 1}, "mapping must send every element into the target"),
    ({0: 0, 1: 1, 2: 0, 3: 1, 9: 7, "x": 0}, "mapping keys must be elements of the source"),
    ({False: 0, True: 1, 2: 0, 3: 1}, "mapping keys must be elements of the source"),
], ids=["dict-missing-elements", "float-image", "string", "dict-string-image",
        "dict-keys-outside-the-source", "dict-bool-keys"])
def test_malformed_mapping_is_refused(z4, z2, mapping, message):
    # unchecked, the first four raise KeyError and TypeError, and the last
    # two pass as x -> x mod 2: stray keys are dropped, and False and True
    # stand for 0 and 1
    with pytest.raises(ValueError, match=message):
        check_homomorphism(z4, z2, mapping)


def test_projection_reverified(z6):
    q = quotient_ring(z6, z6.subset([0, 3]))
    again = check_homomorphism(z6, q.quotient, q.projection.mapping)
    assert isinstance(again, HyperRingHom)


# ---------------------------------------------------------------------------
# transport


@pytest.mark.parametrize("method, ring, members, message", [
    ("preimage_of", 8, [0], "preimage expects a subset of the target"),
    ("preimage_of", 6, [0], "preimage expects a subset of the target"),
    ("image_of", 8, [7], "image expects a subset of the source"),
    ("image_of", 4, [1], "image expects a subset of the source"),
], ids=["preimage-z8", "preimage-source", "image-z8", "image-z4"])
def test_image_and_preimage_refuse_masks_of_other_rings(z6, method, ring, members, message):
    # unchecked, the z8 preimage reads {0,3}, the z8 image raises IndexError
    # and the z4 image is a wrong mask
    projection = quotient_ring(z6, z6.subset([0, 3])).projection
    other = z6 if ring == 6 else cyclic_ring(ring)
    with pytest.raises(RingMismatch, match=message):
        getattr(projection, method)(other.subset(members))


@pytest.mark.parametrize("method, bits", [
    ("image_bits", 1 << 7),
    ("image_bits", 1 << 6),
    ("image_bits", -1),
    ("preimage_bits", 0b1001),
    ("preimage_bits", -1),
])
def test_image_and_preimage_bits_refuse_bits_outside_the_carrier(z6, method, bits):
    # unchecked, image_bits(1 << 7) raises IndexError and preimage_bits(0b1001)
    # drops bit 3 and returns the preimage of {0}, 0b1001
    projection = quotient_ring(z6, z6.subset([0, 3])).projection
    with pytest.raises(ValueError, match="mask bits out of range"):
        getattr(projection, method)(bits)
    assert projection.image_bits(0b111111) == 0b111
    assert projection.preimage_bits(0b001) == 0b001001


def _diagonal_z2():
    """Z2 into Z2 x Z2 by x -> (x, x): a homomorphism that is not onto."""
    z2 = fixtures("z2")
    hom = check_homomorphism(z2, product_ring([z2, z2]), (0, 3))
    assert isinstance(hom, HyperRingHom) and not hom.surjective
    return hom


@pytest.mark.parametrize("make_hom, direction, error, message", [
    (_diagonal_z2, "image", HypothesisViolation, "requires a surjective homomorphism"),
    (lambda: identity_hom(fixtures("z2")), "inverse", ValueError,
     "direction must be 'image' or 'preimage', got 'inverse'"),
], ids=["not-onto", "direction"])
def test_transport_refuses_what_it_cannot_carry(make_hom, direction, error, message):
    hom = make_hom()
    with pytest.raises(error, match=message):
        transport_ideal(hom, direction, hom.source.subset([0]))


def test_preimage_of_zero_is_modulus(z6):
    q = quotient_ring(z6, z6.subset([0, 3]))
    zero = q.quotient.subset([q.quotient.zero])
    assert transport_ideal(q.projection, "preimage", zero) == z6.subset([0, 3])


def test_image_of_modulus_is_zero_coset(z6):
    q = quotient_ring(z6, z6.subset([0, 3]))
    img = transport_ideal(q.projection, "image", z6.subset([0, 3]))
    assert img.members() == (q.quotient.zero,)


def test_image_requires_kernel_inside(z6):
    q = quotient_ring(z6, z6.subset([0, 3]))
    with pytest.raises(HypothesisViolation):
        transport_ideal(q.projection, "image", z6.subset([0, 2, 4]))


def test_transport_respects_composition(z12):
    q1 = quotient_ring(z12, z12.subset([0, 6]))
    mid = q1.quotient
    # modulus {0,3} of the order-6 quotient (cosets of 3 and 9 collapse)
    inner = mid.subset([mid.zero, next(
        c for c in range(mid.order)
        if mid.elements[c].startswith("3+") or "+3" in mid.elements[c]
    )])
    q2 = quotient_ring(mid, inner)
    for target_bits in range(1, q2.quotient.full_bits + 1):
        target = q2.quotient.subset_from_bits(target_bits)
        via_two = transport_ideal(
            q1.projection, "preimage", transport_ideal(q2.projection, "preimage", target)
        )
        composed = tuple(
            q2.projection.mapping[q1.projection.mapping[x]] for x in range(z12.order)
        )
        direct_bits = 0
        for x in range(z12.order):
            if composed[x] in target:
                direct_bits |= 1 << x
        assert via_two.bits == direct_bits


def test_preimage_keeps_s_property(z6):
    # preimage of an image-MS hyperideal is an S-hyperideal on the source
    q = quotient_ring(z6, z6.subset([0, 3]))
    proj = q.projection
    target = q.quotient
    for s in enumerate_multiplicative_sets(z6):
        img_s = proj.image_of(s)
        for upper in proper_hyperideals(target):
            if classify_s(target, upper, img_s).verdict is not SVerdict.S_HYPERIDEAL:
                continue
            pre = proj.preimage_of(upper)
            assert classify_s(z6, pre, s).verdict is SVerdict.S_HYPERIDEAL


# ---------------------------------------------------------------------------
# row checks against the scans
#
# ``check_homomorphism`` and ``_induced_tables`` decide by rows and name a
# failure from the row that differs (``constructions._differences``).
# ``tests/construction_oracle.py`` keeps the key-by-key scans they replaced;
# every result must be the same.


@pytest.mark.parametrize("name", ["z4", "paper-example"])
def test_rows_commute_sees_every_entry(name):
    """Each multiset is read through one sorted prefix, so a change to any
    one entry, in every order of its arguments, must show: as each of its
    orders with a sorted prefix, the first being the scan's key."""
    ring = fixtures(name)
    g, order, n = ring.g_dense, ring.order, ring.n
    identity = list(range(order))
    assert next(constructions._differences(n, g, identity, g, order), None) is None
    for key in combinations_with_replacement(range(order), n):
        changed = list(g)
        orders = set(permutations(key))
        for args in orders:
            changed[_index(args, order)] += order
        found = list(constructions._differences(n, changed, identity, g, order))
        # the changed values lie past the carrier, and map to themselves
        source = SimpleNamespace(order=order, n=n, g_at=lambda t: changed[_index(t, order)])
        assert found[0] == product_scan(source, ring, range(2 * order)) == key
        assert sorted(found) == sorted(t for t in orders if list(t[:-1]) == sorted(t[:-1]))


@pytest.mark.parametrize("source, target", [
    ("z4", "z2"), ("z4", "z4"), ("paper-example", "paper-example"),
])
def test_first_difference_is_the_first_failing_key(source, target):
    """Whatever the identity clause says, the first differing tuple of each
    clause is the scan's first failing sorted key, on every map."""
    source, target = fixtures(source), fixtures(target)
    failing = {"sums": 0, "products": 0}
    for mapping in tuples(range(target.order), repeat=source.order):
        hom = HyperRingHom(source, target, mapping, False)
        sums = [hom.image_bits(bits) for bits in source.f_dense]
        products = [mapping[x] for x in source.g_dense]
        for clause, arity, values, table, scan in (
            ("sums", source.m, sums, target.f_dense, sum_scan),
            ("products", source.n, products, target.g_dense, product_scan),
        ):
            first = next(constructions._differences(arity, values, mapping, table, target.order), None)
            assert first == scan(source, target, mapping), (clause, mapping)
            failing[clause] += first is not None
    assert all(failing.values())


def _fixture_quotients():
    for name in FIXTURE_NAMES:
        ring = fixtures(name)
        for mode in ("lenient", "strict"):
            for ideal in proper_hyperideals(ring, mode):
                try:
                    yield quotient_ring(ring, ideal, mode)
                except (CosetsNotPartition, InducedOpIllDefined):
                    continue


def _xor_rings():
    """The field of four elements and the Boolean ring z2 x z2, both on
    0..3 with XOR as addition and 1 as identity: the identity map keeps sums
    and 1 but not products."""
    xor = [[a ^ b for b in range(4)] for a in range(4)]
    swap = (0, 3, 2, 1)  # relabels z2 x z2 (bitwise AND, identity 3) to identity 1
    boolean = [[swap[swap[a] & swap[b]] for b in range(4)] for a in range(4)]
    f4 = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]
    return [require_ring(ring_from_ring_table(xor, mul, 0, 1, name)) for mul, name in
            ((boolean, "z2xz2"), (f4, "f4"))]


def test_homomorphism_rows_agree_with_the_scan(z4, z2):
    boolean, f4 = _xor_rings()
    cases = [(z4, z2, h) for h in tuples(range(2), repeat=4)]
    cases += [(z4, z4, h) for h in tuples(range(4), repeat=4)]
    cases += [(boolean, f4, h) for h in tuples(range(4), repeat=4)]
    cases += [(q.base, q.quotient, q.projection.mapping) for q in _fixture_quotients()]
    assert len(cases) == 16 + 256 + 256 + 40
    by_rows = [check_homomorphism(*case) for case in cases]
    assert by_rows == [homomorphism_scan(*case) for case in cases]
    clauses = [r.clause if isinstance(r, Verdict) else "hom" for r in by_rows]
    assert {"identity", "hyperaddition", "multiplication", "hom"} <= set(clauses)


def test_projections_pass_check_homomorphism():
    # quotient_ring builds its projection unchecked: its independence test
    # compares the lists that the sum and product clauses would
    quotients = list(_fixture_quotients())
    assert len(quotients) == 40
    for q in quotients:
        assert check_homomorphism(q.base, q.quotient, q.projection.mapping) == q.projection


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_identity_hom_is_the_checked_identity(name):
    ring = fixtures(name)
    assert identity_hom(ring) == check_homomorphism(ring, ring, tuple(range(ring.order)))


@pytest.mark.parametrize("name, partitions, tables", [
    ("z6", 203, 4), ("paper-example", 5, 2),
])
def test_quotient_rows_agree_with_the_scan(name, partitions, tables):
    """Only a partition that is not the coset partition of a hyperideal
    reaches the "depends on the representatives" branch; the quotients of
    the fixtures never do."""
    ring = fixtures(name)
    by_rows = induced_outcomes(ring, constructions._induced_tables)
    assert len(by_rows) == partitions
    refused = [o for o in by_rows if isinstance(o[0], str)]
    assert len(refused) == partitions - tables
    assert {kind for kind, _ in refused} == {"InducedOpIllDefined"}
    assert all(message.endswith("depends on the representatives") for _, message in refused)
    assert induced_outcomes(ring, induced_tables_scan) == by_rows
