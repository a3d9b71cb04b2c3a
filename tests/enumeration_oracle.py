"""Power-set oracles for hyperideal and multiplicative-set enumeration.

Each family is found by testing a plain predicate on every mask of the
carrier, the way the engine did before it walked closed sets.  The
hyperideal predicate is the engine's earlier scan, kept verbatim with its
witnesses: absorption walks every (n-1)-multiset with ``g_at`` and shares no
absorption mask, closure or walk with ``hyperideal.analysis``.  The cost is
2^order predicate calls, so keep these to carriers of order 16 or less.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from hyperideal.ideals import PASS, Verdict


def hyperideal_scan(ring, bits: int, mode: str) -> Verdict:
    """Zero membership, then closure under hyperaddition over sorted
    m-multisets, absorption over (x, sorted (n-1)-multiset), and negation
    (strict), each in ascending order; the first failure is the verdict."""
    if not (bits >> ring.zero & 1):
        return Verdict(False, "zero-membership", (ring.zero,), "zero is missing")
    members = [i for i in range(ring.order) if bits >> i & 1]
    for key in combinations_with_replacement(members, ring.m):
        value = ring.f_bits(key)
        if value & ~bits:
            out = next(i for i in range(ring.order) if (value & ~bits) >> i & 1)
            return Verdict(False, "f-closure", key, f"hyperaddition escapes via {ring.elements[out]}")
    for x in members:
        for rest in combinations_with_replacement(range(ring.order), ring.n - 1):
            prod = ring.g_at((x, *rest))
            if not (bits >> prod & 1):
                return Verdict(False, "g-absorption", (x, *rest), f"product {ring.elements[prod]} escapes")
    if mode == "strict":
        for x in members:
            neg = ring.negation[x]
            if not (bits >> neg & 1):
                return Verdict(
                    False,
                    "negation-closure",
                    (x,),
                    f"-{ring.elements[x]} = {ring.elements[neg]} is missing",
                )
    return PASS


def is_multiplicative(ring, bits: int) -> bool:
    """Every product of n members is a member.  Multisets of the largest
    members come first, only because most masks fail there sooner."""
    members = [i for i in range(ring.order - 1, -1, -1) if bits >> i & 1]
    return all(bits >> ring.g_at(key) & 1 for key in combinations_with_replacement(members, ring.n))


def power_set_ideals(ring) -> dict[str, tuple[int, ...]]:
    """Every hyperideal of each mode, the whole ring included, ascending.
    A strict hyperideal is a lenient one closed under negation."""
    zero_bit = 1 << ring.zero
    lenient = tuple(
        bits
        for bits in range(1, ring.full_bits + 1)
        if bits & zero_bit and hyperideal_scan(ring, bits, "lenient").ok
    )
    strict = tuple(
        bits
        for bits in lenient
        if all(bits >> ring.negation[x] & 1 for x in range(ring.order) if bits >> x & 1)
    )
    return {"lenient": lenient, "strict": strict}


def power_set_multiplicative_sets(ring) -> tuple[int, ...]:
    """Every non-empty multiplicatively closed mask, ascending."""
    return tuple(bits for bits in range(1, ring.full_bits + 1) if is_multiplicative(ring, bits))
