"""The per-ring owner of derived data: hyperideal, prime and multiplicative
set lists and the verdict memos, keyed by element bitmasks and freed with the
ring (``ring.analysis``).  The public functions in ``ideals`` and
``multiplicative`` add argument checks and the order limit on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .kernel import HyperRing


@dataclass(frozen=True)
class Verdict:
    """Outcome of a single check; negative verdicts carry a witness tuple."""

    ok: bool
    clause: str | None = None
    witness: tuple[int, ...] | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


PASS = Verdict(True)


class SVerdict(Enum):
    S_HYPERIDEAL = "s-hyperideal"
    SR_ONLY = "sr-hyperideal-only"
    NEITHER = "neither"


@dataclass(frozen=True)
class SWitness:
    """A product in P with a factor from S whose unit substitution escapes."""

    tuple_: tuple[int, ...]
    position: int  # 1-based
    product: int
    substituted: int


@dataclass(frozen=True)
class SClassification:
    verdict: SVerdict
    witness: SWitness | None
    mode: str
    witnesses: tuple[SWitness, ...] = ()


def extremal(family: Sequence[int], maximal: bool = False) -> tuple[int, ...]:
    """Inclusion-minimal members of a family of masks (inclusion-maximal when
    ``maximal``), in input order."""
    if maximal:
        return tuple(a for a in family if not any(b != a and not (a & ~b) for b in family))
    return tuple(a for a in family if not any(b != a and not (b & ~a) for b in family))


class RingAnalysis:
    """Derived lists and verdict memos of one ring.

    Each memo is a per-instance ``lru_cache`` held in an instance attribute,
    so a hit costs one attribute lookup and no wrapper frame.  A class-level
    descriptor of the same name would make CPython skip specialising that
    lookup.  ``quotients`` and ``tprod_product`` hold constructions the
    harness builds.
    """

    def __init__(self, ring: HyperRing):
        self.ring = ring
        memo = lru_cache(maxsize=None)
        self.hyperideal = memo(self._hyperideal)
        self.prime = memo(self._prime)
        self.semiprime = memo(self._semiprime)
        self.primary = memo(self._primary)
        self.maximal = memo(self._maximal)
        self.radical = memo(self._radical)
        self.ms = memo(self._ms)
        self.classify_s = memo(self._classify_s)
        self.residual = memo(self._residual)
        self.saturation = memo(self._saturation)
        self.maximal_ms = memo(self._maximal_ms)
        self.ideals = memo(self._ideals)
        self.proper = memo(self._proper)
        self.primes = memo(self._primes)
        self.min_primes = memo(self._min_primes)
        self.strict_closed = memo(self._strict_closed)
        self.s_family = memo(self._s_family)
        self.s_maximal = memo(self._s_maximal)
        self.quotients: dict = {}
        self.tprod_product: HyperRing | None = None

    # -- hyperideals ------------------------------------------------------

    def _hyperideal(self, bits: int, mode: str) -> Verdict:
        ring = self.ring
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
                    return Verdict(
                        False,
                        "g-absorption",
                        (x, *rest),
                        f"product {ring.elements[prod]} escapes",
                    )
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

    def _ideals(self, mode: str) -> tuple[int, ...]:
        """All hyperideals of the mode in ascending mask order, the whole ring
        included.  The scan bypasses the verdict memo: most masks fail."""
        zero_bit = 1 << self.ring.zero
        return tuple(
            bits
            for bits in range(1, self.ring.full_bits + 1)
            if bits & zero_bit and self._hyperideal(bits, mode).ok
        )

    def _proper(self, mode: str) -> tuple[int, ...]:
        full = self.ring.full_bits
        return tuple(b for b in self.ideals(mode) if b != full)

    def _strict_closed(self, mode: str) -> tuple[int, ...]:
        """Proper hyperideals of the mode that are also negation closed."""
        ring = self.ring
        return tuple(
            bits
            for bits in self.proper(mode)
            if all(bits >> ring.negation[x] & 1 for x in range(ring.order) if bits >> x & 1)
        )

    # -- the classical classification ---------------------------------------

    def _prime(self, bits: int) -> Verdict:
        for tup, prod, _subs in self.ring.g_tuples:
            if bits >> prod & 1 and not any(bits >> x & 1 for x in tup):
                return Verdict(False, "prime", tup, "product lands in the ideal, no factor does")
        return PASS

    def _semiprime(self, bits: int) -> Verdict:
        ring = self.ring
        for p in range(ring.order):
            prod = ring.g_at((p,) * ring.n)
            if bits >> prod & 1 and not (bits >> p & 1):
                return Verdict(False, "semiprime", (p,), "n-th power lands in the ideal")
        return PASS

    def _primary(self, bits: int, mode: str) -> Verdict:
        rad = self.radical(bits, mode)
        n = self.ring.n
        for tup, prod, subs in self.ring.g_tuples:
            if not (bits >> prod & 1):
                continue
            if not any(bits >> tup[i] & 1 or rad >> subs[i] & 1 for i in range(n)):
                return Verdict(
                    False,
                    "primary",
                    tup,
                    "no factor in the ideal and no substituted product in its radical",
                )
        return PASS

    def _maximal(self, bits: int, mode: str) -> Verdict:
        ring = self.ring
        for other in self.ideals(mode):
            if other == bits or other == ring.full_bits:
                continue
            if not (bits & ~other):
                return Verdict(
                    False,
                    "maximal",
                    tuple(i for i in range(ring.order) if other >> i & 1),
                    "a proper hyperideal lies strictly above",
                )
        return PASS

    def _primes(self, mode: str) -> tuple[int, ...]:
        return tuple(b for b in self.proper(mode) if self.prime(b).ok)

    def _min_primes(self, mode: str) -> tuple[int, ...]:
        return extremal(self.primes(mode))

    def minimal_primes_over(self, bits: int, mode: str) -> tuple[int, ...]:
        return extremal([q for q in self.primes(mode) if not (bits & ~q)])

    def _radical(self, bits: int, mode: str) -> int:
        """Intersection of the primes containing the mask; the whole ring
        when none does."""
        out = self.ring.full_bits
        for prime in self.primes(mode):
            if not (bits & ~prime):
                out &= prime
        return out

    # -- multiplicative sets ----------------------------------------------

    def _ms(self, bits: int) -> Verdict:
        ring = self.ring
        members = [i for i in range(ring.order) if bits >> i & 1]
        for key in combinations_with_replacement(members, ring.n):
            prod = ring.g_at(key)
            if not (bits >> prod & 1):
                return Verdict(False, "g-closure", key, f"product {ring.elements[prod]} escapes")
        return PASS

    @cached_property
    def ms_all(self) -> tuple[int, ...]:
        """All non-empty multiplicatively closed masks, ascending."""
        ring = self.ring
        if ring.order <= 8:
            return tuple(bits for bits in range(1, ring.full_bits + 1) if self.ms(bits).ok)
        # Larger carriers: walk the lattice of closed sets instead of filtering
        # the whole power set.
        def closure(bits: int) -> int:
            while True:
                members = [i for i in range(ring.order) if bits >> i & 1]
                new = bits
                for key in combinations_with_replacement(members, ring.n):
                    new |= 1 << ring.g_at(key)
                if new == bits:
                    return bits
                bits = new

        seen: set[int] = set()
        frontier = []
        for x in range(ring.order):
            c = closure(1 << x)
            if c not in seen:
                seen.add(c)
                frontier.append(c)
        while frontier:
            current = frontier.pop()
            for x in range(ring.order):
                if current >> x & 1:
                    continue
                c = closure(current | (1 << x))
                if c not in seen:
                    seen.add(c)
                    frontier.append(c)
        return tuple(sorted(seen))

    @cached_property
    def ms_with_one(self) -> tuple[int, ...]:
        one_bit = 1 << self.ring.one
        return tuple(b for b in self.ms_all if b & one_bit)

    # -- S-classification -------------------------------------------------

    def scan_s(
        self, p_bits: int, s_bits: int, mode: str, first_only: bool = False
    ) -> SClassification:
        """Scan every n-tuple in lexicographic order; the reported witness is
        the first failing (tuple, position) pair."""
        ring = self.ring
        rad = self.radical(p_bits, mode)
        s_witness: SWitness | None = None
        sr_witness: SWitness | None = None
        collected: list[SWitness] = []
        for tup, prod, subs in ring.g_tuples:
            if not (p_bits >> prod & 1):
                continue
            for i in range(ring.n):
                if not (s_bits >> tup[i] & 1):
                    continue
                sub = subs[i]
                if p_bits >> sub & 1:
                    continue
                wit = SWitness(tuple_=tup, position=i + 1, product=prod, substituted=sub)
                if s_witness is None:
                    s_witness = wit
                if not first_only:
                    collected.append(wit)
                if not (rad >> sub & 1) and sr_witness is None:
                    sr_witness = wit
                if first_only and s_witness is not None and sr_witness is not None:
                    break
            if first_only and s_witness is not None and sr_witness is not None:
                break
        if s_witness is None:
            verdict, witness = SVerdict.S_HYPERIDEAL, None
        elif sr_witness is None:
            verdict, witness = SVerdict.SR_ONLY, s_witness
        else:
            verdict, witness = SVerdict.NEITHER, sr_witness
        return SClassification(
            verdict=verdict, witness=witness, mode=mode, witnesses=tuple(collected)
        )

    def _classify_s(self, p_bits: int, s_bits: int, mode: str) -> SClassification:
        return self.scan_s(p_bits, s_bits, mode, first_only=True)

    def is_s(self, p_bits: int, s_bits: int, mode: str) -> bool:
        return self.classify_s(p_bits, s_bits, mode).verdict is SVerdict.S_HYPERIDEAL

    def _s_family(self, s_bits: int, mode: str) -> tuple[int, ...]:
        """Proper hyperideals satisfying the substitution property for S."""
        return tuple(b for b in self.proper(mode) if self.is_s(b, s_bits, mode))

    def _s_maximal(self, s_bits: int, mode: str) -> tuple[int, ...]:
        return extremal(self.s_family(s_bits, mode), maximal=True)

    # -- residuals, saturation, the largest compatible MS -------------------

    def _residual(self, p_bits: int, x_bits: int) -> int:
        ring = self.ring
        bp = ring._bp
        out = 0
        members = [i for i in range(ring.order) if x_bits >> i & 1]
        for a in range(ring.order):
            row = bp[a]
            if all(p_bits >> row[x] & 1 for x in members):
                out |= 1 << a
        return out

    def _saturation(self, q_bits: int, s_bits: int) -> int:
        ring = self.ring
        bp = ring._bp
        members = [i for i in range(ring.order) if s_bits >> i & 1]
        out = 0
        for x in range(ring.order):
            if any(q_bits >> bp[t][x] & 1 for t in members):
                out |= 1 << x
        return out

    def _maximal_ms(self, p_bits: int) -> int:
        ring = self.ring
        out = 0
        for x in range(ring.order):
            good = True
            for rest in combinations_with_replacement(range(ring.order), ring.n - 1):
                if p_bits >> ring.g_at((x, *rest)) & 1 and not (
                    p_bits >> ring.g_at((ring.one, *rest)) & 1
                ):
                    good = False
                    break
            if good:
                out |= 1 << x
        return out
