"""Products, quotients, homomorphisms, ideal transport."""

import pytest

from hyperideal import (
    HomViolation,
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
    from hyperideal import constructions, kernel

    verified = []
    real = kernel.verify_axioms

    def counting(spec):
        verified.append(spec.name)
        return real(spec)

    monkeypatch.setattr(kernel, "verify_axioms", counting)
    monkeypatch.setattr(constructions, "verify_axioms", counting)
    cyclic_ring(6)
    assert verified == ["z6"]


def test_ring_from_tables_rejects_bad_multiplication():
    add = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    mul = [[(a * b) % 4 for b in range(4)] for a in range(4)]
    mul[3][3] = 0  # breaks associativity/identity structure
    mul[3] = list(mul[3])
    with pytest.raises(NotARing):
        ring_from_ring_table(add, mul, 0, 1)


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
    assert isinstance(result, HomViolation)
    assert result.clause == "identity"


def test_non_hom_multiplication_witness(z6):
    # x -> 0 except 1 -> 1: preserves neither sums nor products
    mapping = tuple(1 if x == 1 else 0 for x in range(6))
    result = check_homomorphism(z6, z6, mapping)
    assert isinstance(result, HomViolation)


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
