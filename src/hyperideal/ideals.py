"""Hyperideal recognition, enumeration, and the classical classification layer.

Two hyperideal modes are supported.  "lenient" asks for zero membership,
closure under hyperaddition, and absorption under multiplication; "strict"
additionally requires closure under negation.  Lenient is the default: the
standard order-3 example ring treats {0,2} as a hyperideal even though it is
not negation closed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import PASS, Verdict
from .errors import EmptySubset, ImproperIdeal, NotAHyperideal, RingMismatch
from .kernel import LENIENT, HyperRing, SubsetMask, check_mode


@dataclass(frozen=True)
class IdealProfile:
    """Classification record for one proper hyperideal."""

    subset: SubsetMask
    mode: str
    hyperideal: Verdict
    proper: bool
    prime: Verdict
    primary: Verdict
    semiprime: Verdict
    maximal: Verdict


@dataclass(frozen=True)
class SpecialSets:
    units: SubsetMask
    regulars: SubsetMask
    jacobson: SubsetMask
    min_primes: tuple[SubsetMask, ...]


@dataclass(frozen=True)
class PowerDiagnostic:
    """Whether membership in the radical is witnessed by some finite power."""

    element: int
    in_radical: bool
    exponent: int | None
    anomaly: bool


# ---------------------------------------------------------------------------
# hyperideal recognition


def check_ring(ring: HyperRing, subset: SubsetMask) -> None:
    """Refuse a mask built on another ring: its bits index other elements."""
    if subset.ring is not ring:
        raise RingMismatch("subset belongs to a different ring")


def is_hyperideal(ring: HyperRing, subset: SubsetMask, mode: str = LENIENT) -> Verdict:
    """Decide hyperideal-ness; the witness names the failing clause and tuple."""
    check_ring(ring, subset)
    if subset.is_empty:
        raise EmptySubset("hyperideal candidate must be non-empty")
    return ring.analysis.hyperideal(subset.bits, check_mode(mode))


def require_hyperideal(ring: HyperRing, subset: SubsetMask, mode: str) -> None:
    verdict = is_hyperideal(ring, subset, mode)
    if not verdict:
        raise NotAHyperideal(
            f"{subset!r} fails {verdict.clause} at "
            f"({','.join(ring.elements[i] for i in verdict.witness or ())})"
        )


def require_proper_hyperideal(ring: HyperRing, subset: SubsetMask, mode: str) -> None:
    require_hyperideal(ring, subset, mode)
    if subset.is_full:
        raise ImproperIdeal("the whole ring is not a proper hyperideal")


# ---------------------------------------------------------------------------
# generation and enumeration


def generated_hyperideal(ring: HyperRing, seed: SubsetMask, mode: str = LENIENT) -> SubsetMask:
    """Least hyperideal (in the given mode) containing the seed set: the
    seed closed under hyperaddition, absorption, and (strict mode) negation.
    """
    check_mode(mode)
    check_ring(ring, seed)
    if seed.is_empty:
        raise EmptySubset("generating set must be non-empty")
    return SubsetMask(ring, ring.analysis.close(0, seed.bits, mode))


def enumerate_hyperideals(ring: HyperRing, mode: str = LENIENT) -> list[SubsetMask]:
    """All hyperideals in ascending mask order, the whole ring included."""
    return [SubsetMask(ring, bits) for bits in ring.analysis.ideals(check_mode(mode))]


def proper_hyperideals(ring: HyperRing, mode: str = LENIENT) -> list[SubsetMask]:
    return [s for s in enumerate_hyperideals(ring, mode) if not s.is_full]


# ---------------------------------------------------------------------------
# classification


def classify_ideal(ring: HyperRing, subset: SubsetMask, mode: str = LENIENT) -> IdealProfile:
    """Full classification of a proper hyperideal; pure and deterministic."""
    require_proper_hyperideal(ring, subset, mode)
    bits = subset.bits
    analysis = ring.analysis
    return IdealProfile(
        subset=subset,
        mode=mode,
        hyperideal=PASS,
        proper=True,
        prime=analysis.prime(bits),
        primary=analysis.primary(bits, mode),
        semiprime=analysis.semiprime(bits),
        maximal=analysis.maximal(bits, mode),
    )


def prime_hyperideals(ring: HyperRing, mode: str = LENIENT) -> list[SubsetMask]:
    check_mode(mode)
    return [SubsetMask(ring, bits) for bits in ring.analysis.primes(mode)]


def radical(ring: HyperRing, subset: SubsetMask, mode: str = LENIENT) -> SubsetMask:
    """Intersection of all prime hyperideals containing the set; the whole
    ring when no prime contains it."""
    require_hyperideal(ring, subset, mode)
    return SubsetMask(ring, ring.analysis.radical(subset.bits, mode))


def radical_power_diagnostic(
    ring: HyperRing, subset: SubsetMask, p: int, mode: str = LENIENT
) -> PowerDiagnostic:
    """Search for a power of p landing in the ideal.

    Radical membership should always be witnessed by such a power; an element
    of the radical whose whole power orbit misses the ideal is flagged as an
    anomaly rather than raising.
    """
    require_hyperideal(ring, subset, mode)
    ring._element(p)
    in_radical = bool(ring.analysis.radical(subset.bits, mode) >> p & 1)
    seen = set()
    w = 1
    exponent = None
    while True:
        value = ring.power(p, w)
        if subset.bits >> value & 1:
            exponent = w
            break
        if value in seen:
            break
        seen.add(value)
        w += 1
    anomaly = in_radical and exponent is None
    return PowerDiagnostic(element=p, in_radical=in_radical, exponent=exponent, anomaly=anomaly)


# ---------------------------------------------------------------------------
# distinguished element sets


def minimal_primes_over(ring: HyperRing, subset: SubsetMask, mode: str = LENIENT) -> list[SubsetMask]:
    """Inclusion-minimal prime hyperideals containing the given hyperideal."""
    require_proper_hyperideal(ring, subset, mode)
    return [SubsetMask(ring, q) for q in ring.analysis.minimal_primes_over(subset.bits, mode)]


def special_sets(ring: HyperRing, mode: str = LENIENT) -> SpecialSets:
    """Units, regular elements, the Jacobson-style radical, and the minimal
    primes, each computed by exhaustive scan."""
    check_mode(mode)
    analysis = ring.analysis
    # units: 1 in p·R; regulars: p in p^n·R (``absorb[x]`` is x·R)
    units = sum(1 << p for p in range(ring.order) if analysis.absorb[p] >> ring.one & 1)
    regulars = sum(1 << p for p in range(ring.order) if analysis.absorb[ring.g_at((p,) * ring.n)] >> p & 1)
    jacobson = ring.full_bits
    for bits in analysis.proper(mode):
        if analysis.maximal(bits, mode).ok:
            jacobson &= bits
    return SpecialSets(
        units=SubsetMask(ring, units),
        regulars=SubsetMask(ring, regulars),
        jacobson=SubsetMask(ring, jacobson),
        min_primes=tuple(SubsetMask(ring, q) for q in analysis.min_primes(mode)),
    )
