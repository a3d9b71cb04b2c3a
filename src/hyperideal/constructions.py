"""Products, quotients, homomorphisms, and ideal transport.

Quotient construction never assumes well-definedness: cosets must partition
the carrier and both induced operations must be independent of the chosen
representatives, otherwise construction fails loudly.  Lenient-mode
hyperideals can and do break these conditions.

Homomorphism clauses and the independence of representatives are decided a
whole row of the last argument at a time (``_differences``), as the
verifier decides associativity.  The same comparison names the failure: it
yields the differing tuples of a row that differs, and its first yield is
the first failing sorted key.  The projection of a quotient and the
identity are homomorphisms by construction and are not checked again.

``cyclic_ring``, ``product_ring`` and ``quotient_ring`` carry their proof:
each builds its ring through ``_proven_ring`` from the values it computed,
with the all-pass report and the negation it knows, and no ``verify_axioms``
call.  Only ``ring_from_ring_table``, whose tables come from a user,
verifies.  The proofs (Davvaz & Leoreanu-Fotea, *Hyperring Theory and
Applications*, 2007; Mirvakili & Davvaz, Eur. J. Combin. 31, 2010):

- Z_k is a commutative ring; -x is -x mod k.
- A product of Krasner (m,n)-hyperrings of one arity, which only
  ``verify_axioms`` and these constructions make, satisfies every axiom
  componentwise; -x is componentwise.
- R/P: let pi send x to its coset.  Once the cosets partition R and both
  induced tables pass ``_differences`` against themselves at the least
  members, F(pi x_1, ..., pi x_m) = pi f(x_1, ..., x_m) for any
  representatives, and so for G: pi is a surjective strong homomorphism.
  So associativity, the neutral element, g-associativity, distributivity
  (either form), zero absorption and the scalar identity carry over to the
  image.  Reversibility: lift pi w in F(pi x_1, ...) to some w' in
  f(x_1, ...), reverse in R, project.  Unique inverses: if pi 0 is in
  F(pi x, pi y, pi 0, ...), some z in f(x, y, 0, ...) lies in the coset of
  0, which is P, and reversibility in R puts y in f2(-x, z), inside the
  coset of -x: pi y = pi(-x), so -pi x = pi(-x).  P need not be closed
  under negation, so lenient moduli are covered.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations_with_replacement, product
from operator import add, or_
from typing import Iterable, Iterator, Sequence

from .analysis import Verdict
from .errors import (
    ArityMismatch,
    CosetsNotPartition,
    HypothesisViolation,
    InducedOpIllDefined,
    NotARing,
    RingMismatch,
    SpecFormatError,
)
from .ideals import require_proper_hyperideal
from .kernel import (
    LENIENT,
    AxiomReport,
    HyperRing,
    HyperRingSpec,
    SubsetMask,
    _dense_tables,
    _index,
    _Memo,
    _passing_report,
    bit_members,
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
        if bits < 0 or bits >> self.source.order:
            raise ValueError("mask bits out of range for the source")
        out = 0
        for x in bit_members(bits):
            out |= 1 << self.mapping[x]
        return out

    def preimage_bits(self, bits: int) -> int:
        if bits < 0 or bits >> self.target.order:
            raise ValueError("mask bits out of range for the target")
        out = 0
        for x in range(self.source.order):
            if bits >> self.mapping[x] & 1:
                out |= 1 << x
        return out

    def image_of(self, subset: SubsetMask) -> SubsetMask:
        if subset.ring is not self.source:
            raise RingMismatch("image expects a subset of the source")
        return SubsetMask(self.target, self.image_bits(subset.bits))

    def preimage_of(self, subset: SubsetMask) -> SubsetMask:
        if subset.ring is not self.target:
            raise RingMismatch("preimage expects a subset of the target")
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
    if isinstance(mapping, dict):
        # exact int keys: a bool would stand for 0 or 1, other keys be dropped
        if not all(type(x) is int and 0 <= x < source.order for x in mapping):
            raise ValueError("mapping keys must be elements of the source")
        mapping = tuple(mapping[x] for x in range(source.order) if x in mapping)
    if len(mapping) != source.order:
        raise ValueError("mapping must be total on the source")
    # exact ints: a bool would pass as the element 0 or 1
    if not all(type(y) is int and 0 <= y < target.order for y in mapping):
        raise ValueError("mapping must send every element into the target")
    if mapping[source.one] != target.one:
        return Verdict(False, "identity", (source.one,), "the identity is not preserved")
    hom = HyperRingHom(source, target, tuple(mapping), len(set(mapping)) == target.order)
    mapping = hom.mapping
    sums = list(map(_Memo(hom.image_bits).__getitem__, source.f_dense))
    key = next(_differences(source.m, sums, mapping, target.f_dense, target.order), None)
    if key is not None:
        return Verdict(False, "hyperaddition", key, "images of the sum differ")
    products = list(map(mapping.__getitem__, source.g_dense))
    key = next(_differences(source.n, products, mapping, target.g_dense, target.order), None)
    if key is not None:
        return Verdict(False, "multiplication", key, "images of the product differ")
    return hom


def _differences(
    arity: int, values: list, h: Sequence[int], target: list, target_order: int,
) -> Iterator[tuple[int, ...]]:
    """The ordered arity-tuples t over ``range(len(h))``, each with a sorted
    (arity-1)-prefix, at which ``values`` differs from ``target`` at h(t).
    Both lists are dense (see ``kernel``) and symmetric in their arguments,
    so for each sorted prefix p the row ``values(p, .)`` is compared whole
    with the row of h(p) in ``target``, read at h(c) for every c; only a row
    that differs is searched for its c.  The first yield is the first
    failing sorted key: an entry (p, c) with c below p's last element is the
    multiset of an entry whose prefix sorts before p, in a row found equal."""
    order = len(h)
    for p in combinations_with_replacement(range(order), arity - 1):
        start = _index(p, order) * order
        at = _index(map(h.__getitem__, p), target_order) * target_order
        row = values[start : start + order]
        image = list(map(target[at : at + target_order].__getitem__, h))
        if row != image:
            yield from ((*p, c) for c in range(order) if row[c] != image[c])


def identity_hom(ring: HyperRing) -> HyperRingHom:
    return HyperRingHom(ring, ring, tuple(range(ring.order)), True)


def transport_ideal(hom: HyperRingHom, direction: str, subset: SubsetMask) -> SubsetMask:
    """Pointwise image or preimage of a subset along a verified hom.

    Image transport requires a surjective hom whose kernel the set contains;
    those hypotheses are checked, not assumed.
    """
    if direction == "preimage":
        return hom.preimage_of(subset)
    if direction == "image":
        image = hom.image_of(subset)  # refuses a subset of another ring first
        if not hom.surjective:
            raise HypothesisViolation("image transport requires a surjective homomorphism")
        if not hom.kernel.issubset(subset):
            raise HypothesisViolation("image transport requires the kernel inside the ideal")
        return image
    raise ValueError(f"direction must be 'image' or 'preimage', got {direction!r}")


# ---------------------------------------------------------------------------
# products


def product_ring(rings: list[HyperRing], name: str = "") -> HyperRing:
    """Componentwise product; element names join the factor names with '|',
    or, where those collide, the element indices.

    The product carries its proof (see the module docstring); one past the
    verifier's table limit is refused (``TablesTooLarge``) before any is built.
    """
    if not rings:
        raise ValueError("at least one factor is required")
    if not isinstance(name, str):  # the one spec field not taken from the factors
        raise SpecFormatError("top-level field 'name' must be a string")
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
    if len(set(names)) < total:  # a factor's element name holds '|'
        names = tuple("|".join(map(str, t)) for t in tuples)

    parts = list(zip(*tuples))  # each factor's component of every element

    def at(tables: list, arity: int) -> Iterator[tuple]:
        """Each sorted key's entries in the factors' dense ``tables``, as one
        tuple; the dense index of its components in each factor is built a
        whole column of keys at a time."""
        columns = list(zip(*combinations_with_replacement(range(total), arity)))
        per_factor = []
        for table, r, part in zip(tables, rings, parts):
            index = map(part.__getitem__, columns[0])
            for column in columns[1:]:
                index = map(add, map(r.order.__mul__, index), map(part.__getitem__, column))
            per_factor.append(map(table.__getitem__, index))
        return zip(*per_factor)

    # each tuple of factor masks names one frozenset of product elements
    f_value = _Memo(lambda masks: frozenset(map(index_of.__getitem__, product(*map(bit_members, masks)))))
    negatives = zip(*(map(r.negation.__getitem__, part) for r, part in zip(rings, parts)))
    return _proven_ring(name or "x".join(r.name for r in rings), names, index_of[tuple(r.zero for r in rings)],
                        index_of[tuple(r.one for r in rings)], m, n,
                        map(f_value.__getitem__, at([r.f_dense for r in rings], m)),
                        map(index_of.__getitem__, at([r.g_dense for r in rings], n)),
                        tuple(map(index_of.__getitem__, negatives)))


def _proven_ring(
    name: str, elements: tuple[str, ...], zero: int, one: int, m: int, n: int,
    f_values: Iterable, g_values: Iterable, negation: tuple[int, ...],
) -> HyperRing:
    """The ring of a construction (see the module docstring), from its f and
    g values by sorted key; both tables share one key list when m == n."""
    f_keys = list(combinations_with_replacement(range(len(elements)), m))
    g_keys = f_keys if n == m else list(combinations_with_replacement(range(len(elements)), n))
    spec = HyperRingSpec(name, m, n, elements, elements[zero], elements[one],
                         dict(zip(f_keys, f_values)), dict(zip(g_keys, g_values)))
    f, g = _dense_tables(spec)[:2]
    return HyperRing(spec, _passing_report(()), negation, f, g)


# ---------------------------------------------------------------------------
# quotients


def quotient_ring(ring: HyperRing, modulus: SubsetMask, mode: str = LENIENT) -> QuotientRing:
    """Quotient by a proper hyperideal via cosets f2(x, P) = f(x, P, 0^(m-2)),
    each named by joining its members' names with '+' or, where those
    collide, by its least member.

    Raises CosetsNotPartition when two distinct cosets overlap and
    InducedOpIllDefined when an induced table entry depends on the chosen
    representatives.  Otherwise the quotient carries its proof (see the
    module docstring).
    """
    require_proper_hyperideal(ring, modulus, mode)
    # x lies in its own coset, as P holds 0 and f2(x, 0) = {x}: the cosets cover
    in_modulus = modulus.members()
    coset_bits = [reduce(or_, map(row.__getitem__, in_modulus)) for row in ring.analysis.sum_rows]
    # by least member; overlapping cosets that tie keep their first-seen order
    distinct = sorted(dict.fromkeys(coset_bits), key=lambda b: b & -b)
    for i, a in enumerate(distinct):
        for b in distinct[i + 1 :]:
            if a & b:
                raise CosetsNotPartition(ring.names_of_bits(a), ring.names_of_bits(b))

    position = {b: i for i, b in enumerate(distinct)}
    coset_index = [position[b] for b in coset_bits]
    members = [bit_members(b) for b in distinct]
    names = tuple("+".join(ring.elements[x] for x in mem) for mem in members)
    if len(set(names)) < len(names):  # an element name holds '+'
        names = tuple(ring.elements[mem[0]] for mem in members)
    f_values, g_values = _induced_tables(ring, coset_index, members, names)
    quotient = _proven_ring(
        f"{ring.name}/{ring.render_bits(modulus.bits)}", names, coset_index[ring.zero],
        coset_index[ring.one], ring.m, ring.n, f_values, g_values,
        tuple(coset_index[ring.negation[mem[0]]] for mem in members),  # the class of -x
    )
    # the projection is a homomorphism by construction: its sum and product
    # clauses compare the lists the independence test compared, and the
    # quotient's one is the coset of one
    return QuotientRing(
        base=ring,
        modulus=modulus,
        cosets=tuple(SubsetMask(ring, b) for b in distinct),
        quotient=quotient,
        projection=HyperRingHom(ring, quotient, tuple(coset_index), True),
    )


def _induced_tables(
    ring: HyperRing, coset_index: list[int], members: list[list[int]], names: tuple[str, ...],
) -> tuple[list, list]:
    """The values of the hyperaddition and the multiplication induced on the
    classes ``members`` (a partition of the carrier, each class ascending;
    ``coset_index`` names the class of each element), by sorted class key.
    Each operation is lifted to classes over the whole dense table and
    compared with itself at the least members of the arguments' classes.
    A class key depends on the representatives exactly when some tuple of
    its classes differs there; the least such key is refused.  Otherwise
    each entry is read at the least members."""
    order = ring.order
    reps = [members[c][0] for c in coset_index]

    def induced(arity: int, lifted: list, operation: str) -> list:
        differing = (tuple(sorted(coset_index[x] for x in t))
                     for t in _differences(arity, lifted, reps, lifted, order))
        key = min(differing, default=None)
        if key is not None:
            raise InducedOpIllDefined(
                f"{operation} of cosets {tuple(names[c] for c in key)} "
                "depends on the representatives"
            )
        return [lifted[_index((members[c][0] for c in key), order)]
                for key in combinations_with_replacement(range(len(members)), arity)]

    classes = _Memo(lambda bits: frozenset(coset_index[z] for z in bit_members(bits)))
    return (induced(ring.m, list(map(classes.__getitem__, ring.f_dense)), "hyperaddition"),
            induced(ring.n, list(map(coset_index.__getitem__, ring.g_dense)), "multiplication"))


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
    # one f value per distinct sum, keyed by its type too, since True == 1
    singleton = _Memo(lambda typed: frozenset(typed[1:]))
    for key in combinations_with_replacement(range(order), 2):
        a, b = key
        total = add_table[a][b]
        f_table[key] = singleton[type(total), total]
        g_table[key] = mul_table[a][b]
        if add_table[a][b] != add_table[b][a] or mul_table[a][b] != mul_table[b][a]:
            raise NotARing("tables are not commutative")
    spec = HyperRingSpec(
        name=name,
        m=2,
        n=2,
        elements=tuple(element_names),
        zero=element_names[zero],
        one=element_names[one],
        f_table=f_table,
        g_table=g_table,
    )
    result = verify_axioms(spec)
    if isinstance(result, AxiomReport):
        failing = ", ".join(result.failures())
        raise NotARing(f"tables do not define a ring: {failing}")
    return spec


def cyclic_ring(k: int) -> HyperRing:
    """The integers modulo k as a (2,2)-hyperring, which carries its proof
    (see the module docstring)."""
    if k < 2:
        raise ValueError("modulus must be at least 2")
    check_table_size(k, 2, 2)
    sums = [frozenset({x}) for x in range(k)]  # one f value per distinct sum
    return _proven_ring(f"z{k}", tuple(map(str, range(k))), 0, 1, 2, 2,
                        [sums[(a + b) % k] for a, b in combinations_with_replacement(range(k), 2)],
                        [a * b % k for a, b in combinations_with_replacement(range(k), 2)],
                        tuple(-x % k for x in range(k)))
