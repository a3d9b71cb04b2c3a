"""Products, quotients, homomorphisms, and ideal transport.

Quotient construction never assumes well-definedness: cosets must partition
the carrier and both induced operations must be independent of the chosen
representatives, otherwise construction fails loudly.  Lenient-mode
hyperideals can and do break these conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product

from .analysis import Verdict
from .errors import (
    ArityMismatch,
    CosetsNotPartition,
    HypothesisViolation,
    InducedOpIllDefined,
    InternalContradiction,
    NotARing,
    RingMismatch,
)
from .ideals import require_proper_hyperideal
from .kernel import (
    LENIENT,
    AxiomReport,
    HyperRing,
    HyperRingSpec,
    SubsetMask,
    bit_members,
    check_mode,
    check_table_size,
    verify_axioms,
)


@dataclass(frozen=True)
class HyperRingHom:
    """A verified structure-preserving map between rings of equal arities."""

    source: HyperRing
    target: HyperRing
    mapping: tuple[int, ...]
    surjective: bool

    def image_bits(self, bits: int) -> int:
        out = 0
        for x in range(bits.bit_length()):
            if bits >> x & 1:
                out |= 1 << self.mapping[x]
        return out

    def preimage_bits(self, bits: int) -> int:
        out = 0
        for x in range(self.source.order):
            if bits >> self.mapping[x] & 1:
                out |= 1 << x
        return out

    def image_of(self, subset: SubsetMask) -> SubsetMask:
        return SubsetMask(self.target, self.image_bits(subset.bits))

    def preimage_of(self, subset: SubsetMask) -> SubsetMask:
        return SubsetMask(self.source, self.preimage_bits(subset.bits))

    @property
    def kernel(self) -> SubsetMask:
        return self.preimage_of(SubsetMask(self.target, 1 << self.target.zero))


@dataclass(frozen=True)
class QuotientRing:
    base: HyperRing
    modulus: SubsetMask
    cosets: tuple[SubsetMask, ...]
    quotient: HyperRing
    projection: HyperRingHom


def check_homomorphism(
    source: HyperRing, target: HyperRing, mapping: dict[int, int] | tuple[int, ...]
) -> HyperRingHom | Verdict:
    """Exhaustively verify the three homomorphism clauses; a violation is
    returned as a failing Verdict naming the clause and witness, never raised."""
    if source.m != target.m or source.n != target.n:
        raise ArityMismatch((source.m, source.n), (target.m, target.n))
    if isinstance(mapping, dict):  # a missing element shortens the tuple
        mapping = tuple(mapping[x] for x in range(source.order) if x in mapping)
    if len(mapping) != source.order:
        raise ValueError("mapping must be total on the source")
    if not all(isinstance(y, int) and 0 <= y < target.order for y in mapping):
        raise ValueError("mapping must send every element into the target")
    if mapping[source.one] != target.one:
        return Verdict(False, "identity", (source.one,), "the identity is not preserved")
    hom = HyperRingHom(source, target, tuple(mapping), len(set(mapping)) == target.order)
    for key in combinations_with_replacement(range(source.order), source.m):
        if hom.image_bits(source.f_bits(key)) != target.f_bits([mapping[x] for x in key]):
            return Verdict(False, "hyperaddition", key, "images of the sum differ")
    for key in combinations_with_replacement(range(source.order), source.n):
        if mapping[source.g_at(key)] != target.g_at(tuple(mapping[x] for x in key)):
            return Verdict(False, "multiplication", key, "images of the product differ")
    return hom


def identity_hom(ring: HyperRing) -> HyperRingHom:
    hom = check_homomorphism(ring, ring, tuple(range(ring.order)))
    assert isinstance(hom, HyperRingHom)
    return hom


def transport_ideal(hom: HyperRingHom, direction: str, subset: SubsetMask) -> SubsetMask:
    """Pointwise image or preimage of a subset along a verified hom.

    Image transport requires a surjective hom whose kernel the set contains;
    those hypotheses are checked, not assumed.
    """
    if direction == "preimage":
        if subset.ring is not hom.target:
            raise RingMismatch("preimage expects a subset of the target")
        return hom.preimage_of(subset)
    if direction == "image":
        if subset.ring is not hom.source:
            raise RingMismatch("image expects a subset of the source")
        if not hom.surjective:
            raise HypothesisViolation("image transport requires a surjective homomorphism")
        if not hom.kernel.issubset(subset):
            raise HypothesisViolation("image transport requires the kernel inside the ideal")
        return hom.image_of(subset)
    raise ValueError(f"direction must be 'image' or 'preimage', got {direction!r}")


# ---------------------------------------------------------------------------
# products


def product_ring(rings: list[HyperRing], name: str = "") -> HyperRing:
    """Componentwise product; element names join the factor names with '|'.

    The resulting tables are re-verified as a sanity gate; a product past the
    verifier's table limit is refused (``TablesTooLarge``) before any is built.
    """
    if not rings:
        raise ValueError("at least one factor is required")
    m, n = rings[0].m, rings[0].n
    for r in rings[1:]:
        if r.m != m or r.n != n:
            raise ArityMismatch((m, n), (r.m, r.n))
    total = 1
    for r in rings:
        total *= r.order
    check_table_size(total, m, n)
    tuples = list(product(*(range(r.order) for r in rings)))
    index_of = {t: i for i, t in enumerate(tuples)}
    names = tuple("|".join(r.elements[x] for r, x in zip(rings, t)) for t in tuples)
    zero = "|".join(r.elements[r.zero] for r in rings)
    one = "|".join(r.elements[r.one] for r in rings)

    f_table: dict[tuple[int, ...], frozenset[int]] = {}
    for key in combinations_with_replacement(range(total), m):
        pools = [bit_members(r.f_bits([tuples[i][j] for i in key])) for j, r in enumerate(rings)]
        f_table[key] = frozenset(index_of[c] for c in product(*pools))
    g_table: dict[tuple[int, ...], int] = {}
    for key in combinations_with_replacement(range(total), n):
        value = tuple(r.g_at(tuple(tuples[i][j] for i in key)) for j, r in enumerate(rings))
        g_table[key] = index_of[value]

    spec = HyperRingSpec(
        name=name or "x".join(r.name for r in rings),
        m=m,
        n=n,
        elements=names,
        zero=zero,
        one=one,
        f_table=f_table,
        g_table=g_table,
    )
    result = verify_axioms(spec)
    if isinstance(result, AxiomReport):
        raise InternalContradiction("product of valid rings failed axiom verification")
    return result


# ---------------------------------------------------------------------------
# quotients


def quotient_ring(ring: HyperRing, modulus: SubsetMask, mode: str = LENIENT) -> QuotientRing:
    """Quotient by a proper hyperideal via cosets f(x, P, 0^(m-2)).

    Raises CosetsNotPartition when two distinct cosets overlap and
    InducedOpIllDefined when an induced table entry depends on the chosen
    representatives.
    """
    check_mode(mode)
    require_proper_hyperideal(ring, modulus, mode)
    zero_pad = (ring.zero,) * (ring.m - 2)
    coset_bits = [
        ring._hyperadd_bits(x, modulus, *zero_pad) for x in range(ring.order)
    ]
    # by least member; overlapping cosets that tie keep their first-seen order
    distinct = sorted(dict.fromkeys(coset_bits), key=lambda b: b & -b)
    for i, a in enumerate(distinct):
        for b in distinct[i + 1 :]:
            if a & b:
                raise CosetsNotPartition(ring.names_of_bits(a), ring.names_of_bits(b))
    covered = sum(distinct)  # the cosets are disjoint by now
    if covered != ring.full_bits:
        raise CosetsNotPartition(ring.names_of_bits(covered), ())

    coset_index = [distinct.index(coset_bits[x]) for x in range(ring.order)]
    members = [[x for x in range(ring.order) if b >> x & 1] for b in distinct]
    order = len(distinct)
    names = tuple("+".join(ring.elements[x] for x in mem) for mem in members)

    def induced(arity: int, of_reps, operation: str) -> dict:
        """The table of cosets keyed like ``arity``-ary entries, each value
        ``of_reps`` of the representatives, which must not depend on them."""
        table = {}
        for key in combinations_with_replacement(range(order), arity):
            values = {of_reps(reps) for reps in product(*(members[c] for c in key))}
            if len(values) > 1:
                raise InducedOpIllDefined(
                    f"{operation} of cosets {tuple(names[c] for c in key)} "
                    "depends on the representatives"
                )
            (table[key],) = values
        return table

    f_table = induced(
        ring.m,
        lambda reps: frozenset(coset_index[z] for z in bit_members(ring.f_bits(reps))),
        "hyperaddition",
    )
    g_table = induced(ring.n, lambda reps: coset_index[ring.g_at(reps)], "multiplication")

    spec = HyperRingSpec(
        name=f"{ring.name}/{ring.render_bits(modulus.bits)}",
        m=ring.m,
        n=ring.n,
        elements=names,
        zero=names[coset_index[ring.zero]],
        one=names[coset_index[ring.one]],
        f_table=f_table,
        g_table=g_table,
    )
    result = verify_axioms(spec)
    if isinstance(result, AxiomReport):
        raise InducedOpIllDefined(
            "quotient tables are representative-independent but fail axiom "
            f"verification: {', '.join(result.failures())}"
        )
    quotient = result
    hom = check_homomorphism(ring, quotient, tuple(coset_index))
    if not isinstance(hom, HyperRingHom):
        raise InternalContradiction("canonical projection is not a homomorphism")
    return QuotientRing(
        base=ring,
        modulus=modulus,
        cosets=tuple(SubsetMask(ring, b) for b in distinct),
        quotient=quotient,
        projection=hom,
    )


# ---------------------------------------------------------------------------
# classical fixtures


def ring_from_ring_table(
    add_table: list[list[int]],
    mul_table: list[list[int]],
    zero: int,
    one: int,
    name: str = "ring",
    element_names: tuple[str, ...] | None = None,
) -> HyperRingSpec:
    """Present a finite commutative unital ring as a (2,2)-hyperring with
    singleton hyperaddition; the axiom verifier is the ring detector."""
    return _ring_from_tables(add_table, mul_table, zero, one, name, element_names).spec


def _ring_from_tables(
    add_table: list[list[int]], mul_table: list[list[int]], zero: int, one: int,
    name: str, element_names: tuple[str, ...] | None,
) -> HyperRing:
    order = len(add_table)
    if any(len(table) != order or any(len(row) != order for row in table)
           for table in (add_table, mul_table)):
        raise NotARing(f"tables must both be square of order {order}")
    if not (0 <= zero < order and 0 <= one < order):
        raise NotARing(f"zero {zero} and one {one} must index elements 0..{order - 1}")
    if element_names is None:
        element_names = tuple(str(i) for i in range(order))
    elif len(element_names) != order:
        raise NotARing(f"{len(element_names)} element names given for {order} elements")
    f_table: dict[tuple[int, ...], frozenset[int]] = {}
    g_table: dict[tuple[int, ...], int] = {}
    for key in combinations_with_replacement(range(order), 2):
        a, b = key
        f_table[key] = frozenset({add_table[a][b]})
        g_table[key] = mul_table[a][b]
        if add_table[a][b] != add_table[b][a] or mul_table[a][b] != mul_table[b][a]:
            raise NotARing("tables are not commutative")
    spec = HyperRingSpec(
        name=name,
        m=2,
        n=2,
        elements=element_names,
        zero=element_names[zero],
        one=element_names[one],
        f_table=f_table,
        g_table=g_table,
    )
    result = verify_axioms(spec)
    if isinstance(result, AxiomReport):
        failing = ", ".join(result.failures())
        raise NotARing(f"tables do not define a ring: {failing}")
    return result


def cyclic_ring(k: int) -> HyperRing:
    """The integers modulo k as a (2,2)-hyperring."""
    if k < 2:
        raise ValueError("modulus must be at least 2")
    add = [[(a + b) % k for b in range(k)] for a in range(k)]
    mul = [[(a * b) % k for b in range(k)] for a in range(k)]
    return _ring_from_tables(add, mul, 0, 1, f"z{k}", None)
