"""Multiplicative subsets and the S-hyperideal machinery.

An n-ary multiplicative set (MS) is a non-empty subset closed under the
multiplication.  A proper hyperideal P is an S-hyperideal when every product
landing in P with a factor from S still lands in P after that factor is
replaced by the scalar identity; the S_r variant relaxes the target to the
radical of P.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import SClassification, SVerdict, SWitness, Verdict, render_tuple
from .errors import (
    EmptySubset,
    HypothesisViolation,
    InternalContradiction,
    NotMultiplicative,
)
from .ideals import (
    check_ring,
    require_hyperideal,
    require_proper_hyperideal,
)
from .kernel import LENIENT, HyperRing, SubsetMask, check_mode


@dataclass(frozen=True)
class MulSet:
    subset: SubsetMask
    contains_one: bool


@dataclass(frozen=True)
class SaturationResult:
    subset: SubsetMask
    one_in_s: bool
    proper: bool

    @property
    def vacuous(self) -> bool:
        return not self.proper


def is_multiplicative_set(ring: HyperRing, subset: SubsetMask) -> Verdict:
    """Exhaustive closure scan over all size-n multisets of the subset."""
    check_ring(ring, subset)
    if subset.is_empty:
        raise EmptySubset("multiplicative set candidate must be non-empty")
    return ring.analysis.ms(subset.bits)


def multiplicative_set(ring: HyperRing, subset: SubsetMask) -> MulSet:
    verdict = is_multiplicative_set(ring, subset)
    if not verdict:
        raise NotMultiplicative(
            f"{subset!r} is not closed: product of ({render_tuple(ring.elements, verdict.witness)}) escapes"
        )
    return MulSet(subset=subset, contains_one=ring.one in subset)


def enumerate_multiplicative_sets(ring: HyperRing) -> list[SubsetMask]:
    """All non-empty multiplicatively closed subsets, ascending mask order."""
    return [SubsetMask(ring, bits) for bits in ring.analysis.ms_all]


# ---------------------------------------------------------------------------
# S-classification


def _require_ms(ring: HyperRing, s: SubsetMask | MulSet) -> SubsetMask:
    if isinstance(s, MulSet):
        check_ring(ring, s.subset)
        return s.subset
    multiplicative_set(ring, s)
    return s


def _require_s_pair(
    ring: HyperRing, ideal: SubsetMask, s: SubsetMask | MulSet, mode: str
) -> tuple[int, int]:
    """The masks of a proper hyperideal and an MS, checked in that order."""
    require_proper_hyperideal(ring, ideal, mode)
    return ideal.bits, _require_ms(ring, s).bits


def classify_s(
    ring: HyperRing,
    ideal: SubsetMask,
    s: SubsetMask | MulSet,
    mode: str = LENIENT,
    all_witnesses: bool = False,
) -> SClassification:
    """Joint S / S_r classification of a proper hyperideal against an MS.

    The verdict compares S with the largest compatible sets of the ideal.
    The witness is the first failing (tuple, position) pair in lexicographic
    order; for ``NEITHER``, the first whose substitution leaves the radical.
    """
    p_bits, s_bits = _require_s_pair(ring, ideal, s, mode)
    a = ring.analysis
    verdict = a.classify_s(p_bits, s_bits, mode)
    witnesses = tuple(a.scan_s(p_bits, s_bits)) if all_witnesses else ()
    witness = None
    if verdict is not SVerdict.S_HYPERIDEAL:
        # where the reported substitution lands: anywhere, or outside the radical
        escape = ring.full_bits
        if verdict is SVerdict.NEITHER:
            escape &= ~a.radical(p_bits, mode)
        scan = witnesses or a.scan_s(p_bits, s_bits)
        witness = next(w for w in scan if escape >> w.substituted & 1)
    return SClassification(verdict=verdict, witness=witness, mode=mode, witnesses=witnesses)


def is_s_hyperideal(
    ring: HyperRing, ideal: SubsetMask, s: SubsetMask | MulSet, mode: str = LENIENT
) -> bool:
    """Whether the substitution property holds against the ideal itself:
    ``classify_s``'s checks and verdict, without its witness scan."""
    return ring.analysis.is_s(*_require_s_pair(ring, ideal, s, mode))


def is_sr_hyperideal(
    ring: HyperRing, ideal: SubsetMask, s: SubsetMask | MulSet, mode: str = LENIENT
) -> bool:
    """Whether the substitution property holds against the radical:
    ``classify_s``'s checks and verdict, without its witness scan."""
    return ring.analysis.classify_s(*_require_s_pair(ring, ideal, s, mode), mode) is not SVerdict.NEITHER


# ---------------------------------------------------------------------------
# residuals and saturation


def residual(ring: HyperRing, ideal: SubsetMask, by: SubsetMask, mode: str = LENIENT) -> SubsetMask:
    """Elements whose product with every member of the given set stays in the
    ideal (division of the ideal by the set)."""
    require_hyperideal(ring, ideal, mode)
    check_ring(ring, by)
    if by.is_empty:
        raise EmptySubset("residual divisor must be non-empty")
    return SubsetMask(ring, ring.analysis.residual(ideal.bits, by.bits))


def saturation(
    ring: HyperRing, ideal: SubsetMask, s: SubsetMask | MulSet, mode: str = LENIENT
) -> SaturationResult:
    """Elements sent into the ideal by some member of the MS.

    With the identity in S this is the least S-hyperideal containing the
    ideal; the result records whether that hypothesis held and whether the
    outcome is proper (an improper saturation is flagged, never an error).
    """
    require_hyperideal(ring, ideal, mode)
    s_mask = _require_ms(ring, s)
    bits = ring.analysis.saturation(ideal.bits, s_mask.bits)
    return SaturationResult(
        subset=SubsetMask(ring, bits),
        one_in_s=bool(s_mask.bits >> ring.one & 1),
        proper=bits != ring.full_bits,
    )


# ---------------------------------------------------------------------------
# extremal constructions


def maximal_ms_for(ring: HyperRing, ideal: SubsetMask, mode: str = LENIENT) -> MulSet:
    """The largest multiplicative set with respect to which the ideal keeps
    the substitution property, built by exhaustive scan and re-verified."""
    require_proper_hyperideal(ring, ideal, mode)
    bits = ring.analysis.compatible(ideal.bits, ideal.bits)
    verdict = ring.analysis.ms(bits)
    if not verdict:
        raise InternalContradiction(
            f"candidate {ring.render_bits(bits)} is not multiplicatively closed at "
            f"({render_tuple(ring.elements, verdict.witness)})"
        )
    return MulSet(subset=SubsetMask(ring, bits), contains_one=bool(bits >> ring.one & 1))


def s_maximal_hyperideals(
    ring: HyperRing, s: SubsetMask | MulSet, mode: str = LENIENT
) -> list[SubsetMask]:
    """Inclusion-maximal members of the family of S-hyperideals."""
    check_mode(mode)
    s_mask = _require_ms(ring, s)
    return [SubsetMask(ring, bits) for bits in ring.analysis.s_maximal(s_mask.bits, mode)]


def primary_decomposition(
    ring: HyperRing,
    ideal: SubsetMask,
    min_primes: list[SubsetMask],
    mode: str = LENIENT,
) -> list[SubsetMask]:
    """Components of an S-hyperideal for S the complement of a union of
    minimal primes: one saturation per prime, by its own complement.

    Preconditions are verified and named on failure; the caller (harness or
    test) owns the assertions that the intersection recovers the ideal.
    """
    require_proper_hyperideal(ring, ideal, mode)
    if not min_primes:
        raise HypothesisViolation("at least one minimal prime is required")
    actual = ring.analysis.min_primes(mode)
    union = 0
    for q in min_primes:
        check_ring(ring, q)
        if q.bits not in actual:
            raise HypothesisViolation(f"{q!r} is not a minimal prime hyperideal")
        union |= q.bits
    s_bits = ring.full_bits & ~union
    analysis = ring.analysis
    if not analysis.ms(s_bits):
        raise HypothesisViolation("the complement of the union is not multiplicatively closed")
    if not analysis.is_s(ideal.bits, s_bits):
        raise HypothesisViolation("the ideal is not an S-hyperideal for the complement")
    return [
        SubsetMask(ring, analysis.saturation(ideal.bits, ring.full_bits & ~q.bits))
        for q in min_primes
    ]
