"""Products, quotients, homomorphisms, ideal transport."""

import re

import pytest

from conftest import z2_ternary_spec
from hyperideal import (
    HyperRingHom,
    check_homomorphism,
    classify_s,
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
    NotARing,
)


# ---------------------------------------------------------------------------
# classical fixture builder


def test_ring_from_tables_z6():
    add = [[(a + b) % 6 for b in range(6)] for a in range(6)]
    mul = [[(a * b) % 6 for b in range(6)] for a in range(6)]
    spec = ring_from_ring_table(add, mul, 0, 1)
    ring = require_ring(spec)
    assert ring.order == 6 and ring.m == 2 and ring.n == 2


def test_cyclic_ring_verifies_once(monkeypatch):
    # products and quotients too: each construction verifies its spec once
    from hyperideal import constructions, kernel

    z2, z3, z6 = fixtures("z2"), cyclic_ring(3), fixtures("z6")
    verified = []
    real = kernel.verify_axioms

    def counting(spec):
        verified.append(spec.name)
        return real(spec)

    monkeypatch.setattr(kernel, "verify_axioms", counting)
    monkeypatch.setattr(constructions, "verify_axioms", counting)
    cyclic_ring(6)
    assert verified == ["z6"]
    verified.clear()
    product_ring([z2, z3])
    assert verified == ["z2xz3"]
    verified.clear()
    quotient_ring(z6, z6.subset([0, 3]))
    assert verified == ["z6/{0,3}"]


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
], ids=["ragged-mul-row", "short-mul", "ragged-add-row", "zero-outside", "one-negative",
        "few-names"])
def test_ring_from_tables_rejects_malformed_tables(add, mul, zero, one, names, message):
    # unchecked, these raise IndexError, or (one=-1) silently take the last element
    with pytest.raises(NotARing, match=message):
        ring_from_ring_table(add, mul, zero, one, element_names=names)


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


@pytest.mark.parametrize("mapping", [(0, 1, 5, 1), (0, 1, -1, 1)])
def test_mapping_outside_the_target_is_refused(z4, z2, mapping):
    # unchecked, these raise IndexError and "negative shift count"
    with pytest.raises(ValueError, match="mapping must send every element into the target"):
        check_homomorphism(z4, z2, mapping)


@pytest.mark.parametrize("mapping, message", [
    ({0: 0, 1: 1}, "mapping must be total on the source"),
    ((0, 1.0, 0, 1), "mapping must send every element into the target"),
    ("0101", "mapping must send every element into the target"),
    ({0: 0, 1: "1", 2: 0, 3: 1}, "mapping must send every element into the target"),
], ids=["dict-missing-elements", "float-image", "string", "dict-string-image"])
def test_malformed_mapping_is_refused(z4, z2, mapping, message):
    # unchecked, these raise KeyError and TypeError
    with pytest.raises(ValueError, match=message):
        check_homomorphism(z4, z2, mapping)


def test_projection_reverified(z6):
    q = quotient_ring(z6, z6.subset([0, 3]))
    again = check_homomorphism(z6, q.quotient, q.projection.mapping)
    assert isinstance(again, HyperRingHom)


# ---------------------------------------------------------------------------
# transport


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
