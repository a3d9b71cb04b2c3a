"""The per-ring owner of derived data: hyperideal, prime and multiplicative
set lists and the verdict memos, keyed by element bitmasks and freed with the
ring (``ring.analysis``).  The public functions in ``ideals`` and
``multiplicative`` add argument checks on top.

No memo is keyed by an MS or by an (ideal, set) pair.  The S-condition is
checked one element of S at a time, so it is fixed by one set per ideal:
``compatible(P, P)`` is the largest compatible MS S*(P), and P is an
S-hyperideal exactly when S lies in it (an S_r-hyperideal when S lies in
``compatible(P, radical(P))``).  Residuals and saturations are intersections
and unions of the colon ideals ``colons(Q)``.  ``scan_s`` walks the n-tuples
only to name witnesses.

The multiplicative-set index names a family of MS by one int, bit i for
``ms_all[i]``: ``containing[x]`` holds the MS with x, ``within(T)`` those
inside the element mask T, ``meeting(T)`` those that meet it, and
``admissible(P) = within(compatible(P, P))`` those for which P is an
S-hyperideal.  The harness checks the catalog with these masks instead of a
loop over the MS, so nothing is memoised per MS.  A homomorphism h keeps
products, h(g(x_1, ..., x_n)) = g(h(x_1), ..., h(x_n)), so the image of every
MS is an MS of the target: the transfer checkers read the whole family.

Hyperideals of either mode and multiplicative sets are each closed under
intersection, so each family is the set of closed sets of a closure operator.
``closed_sets`` walks them from the least one by Close-by-One: in a fixed
element order (by the size of x·R, units first in Z_k), each closed set is
extended only by elements after the one last added, and the semi-naive
``close`` gives up as soon as it adds an earlier element, so each set is
closed once, from its canonical parent.  Its cost follows the number of
closed sets, not the 2^order subsets, and it is refused once its table
lookups pass ``WALK_BUDGET``.  ``generated_hyperideal`` is ``close`` from
the empty set.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import WalkBudgetExceeded

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


def bit_members(bits: int) -> list[int]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def extremal(family: Sequence[int], maximal: bool = False) -> tuple[int, ...]:
    """Inclusion-minimal members of a family of masks (inclusion-maximal when
    ``maximal``), in input order."""
    if maximal:
        return tuple(a for a in family if not any(b != a and not (a & ~b) for b in family))
    return tuple(a for a in family if not any(b != a and not (b & ~a) for b in family))


MS = "ms"  # the closure kind of multiplicative sets, beside the two modes

# Table lookups one walk may make: 2^23 admits the multiplicative sets of
# z48 (3.7M lookups, 0.7 s on a 2-CPU host) and refuses those of z64 after
# about 2.3 s.
WALK_BUDGET = 1 << 23


class LookupBudget:
    """The table lookups of one walk that is exponential in the carrier;
    ``charge`` raises ``WalkBudgetExceeded`` once they pass ``WALK_BUDGET``."""

    def __init__(self, walk: str):
        self.walk = walk
        self.spent = 0

    def charge(self, lookups: int) -> None:
        self.spent += lookups
        if self.spent > WALK_BUDGET:
            raise WalkBudgetExceeded(
                f"{self.walk} stopped at {self.spent:,} table lookups, past its budget of {WALK_BUDGET:,}"
            )


class RingAnalysis:
    """Derived lists and verdict memos of one ring.

    Each memo is a per-instance ``lru_cache`` held in an instance attribute,
    so a hit costs one attribute lookup and no wrapper frame.  A class-level
    descriptor of the same name would make CPython skip specialising that
    lookup.  ``quotients`` holds the projections the harness builds (None
    for an ill-defined quotient), ``tprod_product`` its product ring, and
    ``refused`` the message of each refused walk, by kind and budget.
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
        self.compatible = memo(self._compatible)
        self.colons = memo(self._colons)
        self.within = memo(self._within)
        self.ideals = memo(self.closed_sets)
        self.proper = memo(self._proper)
        self.primes = memo(self._primes)
        self.min_primes = memo(self._min_primes)
        self.quotients: dict = {}
        self.tprod_product: HyperRing | None = None
        self.refused: dict[tuple[str, int], str] = {}

    # -- hyperideals ------------------------------------------------------

    def _hyperideal(self, bits: int, mode: str) -> Verdict:
        ring = self.ring
        if not (bits >> ring.zero & 1):
            return Verdict(False, "zero-membership", (ring.zero,), "zero is missing")
        members = bit_members(bits)
        for key in combinations_with_replacement(members, ring.m):
            value = ring.f_bits(key)
            if value & ~bits:
                out = next(i for i in range(ring.order) if (value & ~bits) >> i & 1)
                return Verdict(False, "f-closure", key, f"hyperaddition escapes via {ring.elements[out]}")
        absorb = self.absorb
        for x in members:
            if absorb[x] & ~bits:
                # the first escaping (n-1)-tuple in dense order is sorted, so
                # it is also the first escaping multiset
                k, prod = next((k, p) for k, p in enumerate(ring.g_row(x)) if not bits >> p & 1)
                rest = (k // ring.order**i % ring.order for i in range(ring.n - 2, -1, -1))
                return Verdict(False, "g-absorption", (x, *rest), f"product {ring.elements[prod]} escapes")
        if mode == "strict":
            for x in members:
                neg = ring.negation[x]
                if not (bits >> neg & 1):
                    detail = f"-{ring.elements[x]} = {ring.elements[neg]} is missing"
                    return Verdict(False, "negation-closure", (x,), detail)
        return PASS

    def _proper(self, mode: str) -> tuple[int, ...]:
        full = self.ring.full_bits
        return tuple(b for b in self.ideals(mode) if b != full)

    # -- closed sets ---------------------------------------------------------

    @cached_property
    def absorb(self) -> list[int]:
        """``absorb[x]``: the mask of every product g(x, r), r over (n-1)-tuples."""
        return [sum(1 << p for p in set(self.ring.g_row(x))) for x in range(self.ring.order)]

    def close(self, bits: int, new: int, kind: str, budget: LookupBudget | None = None,
              members: list[int] | None = None, stop: int = 0) -> int | None:
        """The least closed set of the kind containing the closed mask ``bits``
        and the mask ``new``.  The kinds are the hyperideal modes (closure
        under hyperaddition and absorption, and under negation when strict)
        and ``MS`` (closure under multiplication).  Semi-naive: each added
        element is handled once, with only the sums or products that take it
        as first argument; those of old members alone already lie in ``bits``.
        A walk charges its ``budget`` one lookup per such rest, and may pass
        the ``members`` of ``bits | new`` as a list for the call to extend.
        When the closure adds an element of ``stop``, the call gives up: it
        charges the lookups made so far and returns None.
        """
        ring = self.ring
        order = ring.order
        products = kind == MS
        table, arity = (ring.g_dense, ring.n) if products else (ring.f_dense, ring.m)
        absorb, negation = self.absorb, ring.negation if kind == "strict" else None
        lead = order ** (arity - 1)
        pending = new & ~bits
        bits |= pending
        if members is None:
            members = bit_members(bits)
        lookups = 0
        while pending:
            low = pending & -pending
            pending ^= low
            y = low.bit_length() - 1
            rests = members
            for _ in range(arity - 2):
                rests = [r * order + z for r in rests for z in members]
            base = y * lead
            lookups += len(rests)
            if products:
                add = 0
                for r in rests:
                    add |= 1 << table[base + r]
            else:
                add = absorb[y] | (1 << negation[y] if negation else 0)
                for r in rests:
                    add |= table[base + r]
            add &= ~bits
            if add & stop:
                bits = None
                break
            bits |= add
            pending |= add
            members += bit_members(add)
        if budget is not None:
            budget.charge(lookups)
        return bits

    def closed_sets(self, kind: str) -> tuple[int, ...]:
        """Every closed set of the kind (see ``close``), ascending: the
        hyperideals of a mode, the whole ring included, or the multiplicative
        sets and the empty set.

        Close-by-One (Kuznetsov, 1993) reaches each closed set once, from
        its canonical parent.  The walk fixes an element order: descending
        ``absorb[x].bit_count()``, ties by index, which in Z_k puts the units
        first and 0 last (the multiplicative sets of z48 take 3.7M lookups
        in this order, 9.5M by ascending index).  A set is extended only by
        the missing elements after the one last added; the extension by y is
        kept when its closure adds no element before y, which ``close``
        tests with ``stop`` while it closes.  So no set is visited twice and
        none needs remembering.  The walk charges one ``LookupBudget``;
        under the same budget, a refused walk is refused again without
        walking."""
        if (kind, WALK_BUDGET) in self.refused:
            raise WalkBudgetExceeded(self.refused[kind, WALK_BUDGET])
        ring, close, absorb = self.ring, self.close, self.absorb
        walk = sorted(range(ring.order), key=lambda x: (-absorb[x].bit_count(), x))
        family = "multiplicative-set" if kind == MS else f"{kind} hyperideal"
        budget = LookupBudget(f"{family} walk on {ring.name}")
        earlier = [0]  # earlier[i]: the elements before walk[i]
        for y in walk:
            earlier.append(earlier[-1] | 1 << y)
        try:
            bottom = 0 if kind == MS else close(0, 1 << ring.zero, kind, budget)
            # each set waits with its members: the list close extended
            found, stack = [bottom], [(bottom, 0, bit_members(bottom))]
            while stack:
                current, start, members = stack.pop()
                for i in range(start, ring.order):
                    y = walk[i]
                    if current >> y & 1:
                        continue
                    extended = members + [y]
                    child = close(current, 1 << y, kind, budget, extended, earlier[i] & ~current)
                    if child is not None:
                        found.append(child)
                        stack.append((child, i + 1, extended))
        except WalkBudgetExceeded as exc:
            self.refused[kind, WALK_BUDGET] = str(exc)
            raise
        return tuple(sorted(found))

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
                detail = "no factor in the ideal and no substituted product in its radical"
                return Verdict(False, "primary", tup, detail)
        return PASS

    def _maximal(self, bits: int, mode: str) -> Verdict:
        ring = self.ring
        for other in self.ideals(mode):
            if other == bits or other == ring.full_bits:
                continue
            if not (bits & ~other):
                detail = "a proper hyperideal lies strictly above"
                return Verdict(False, "maximal", tuple(bit_members(other)), detail)
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
        g, order = ring.g_dense, ring.order
        for key in combinations_with_replacement(bit_members(bits), ring.n):
            k = 0
            for x in key:
                k = k * order + x
            prod = g[k]
            if not (bits >> prod & 1):
                return Verdict(False, "g-closure", key, f"product {ring.elements[prod]} escapes")
        return PASS

    @cached_property
    def ms_all(self) -> tuple[int, ...]:
        """All non-empty multiplicatively closed masks, ascending."""
        return self.closed_sets(MS)[1:]

    # -- the multiplicative-set index ---------------------------------------
    # A family of MS is one int: bit i stands for ms_all[i].

    @cached_property
    def containing(self) -> list[int]:
        """``containing[x]``: the MS that contain the element x.  Built as
        the transpose of the MS bit strings: laid end to end, last MS first,
        their digits for x, every order-th, are the binary numeral of
        ``containing[x]``.  That is linear in the family, where an OR per
        (MS, member) copies an int as wide as the family."""
        order, family = self.ring.order, self.ms_all
        width = f"0{order}b"
        # sized once: grown by +=, its reallocations raised the peak RSS of
        # perfbench large-rings rounds by 0.14-0.20 MB
        rows = bytearray(len(family) * order)
        for k, s in enumerate(reversed(family)):
            rows[k * order:(k + 1) * order] = format(s, width).encode()
        return [int(rows[order - 1 - x::order], 2) for x in range(order)]

    def _within(self, t_bits: int) -> int:
        """The MS inside the element mask: all but those meeting the rest."""
        return ((1 << len(self.ms_all)) - 1) & ~self.meeting(self.ring.full_bits & ~t_bits)

    def meeting(self, t_bits: int) -> int:
        """The MS that meet the element mask."""
        out = 0
        containing = self.containing
        for x in bit_members(t_bits):
            out |= containing[x]
        return out

    def admissible(self, p_bits: int) -> int:
        """The MS S for which P has the substitution property: S within S*(P)."""
        return self.within(self.compatible(p_bits, p_bits))

    # -- S-classification, residuals and saturation -------------------------

    def _compatible(self, p_bits: int, target: int) -> int:
        """Elements x such that, for every ordered (n-1)-tuple r, g(x, r) in P
        implies g(1, r) in the target.  Against P itself this is the largest
        compatible MS S*(P) of T3: P is an S-hyperideal exactly when S lies
        in it, and an S_r-hyperideal when S lies in the set for the radical."""
        ring = self.ring
        out = 0
        by_one = ring.g_row(ring.one)
        for x in range(ring.order):
            # over ordered tuples r; g is symmetric, so this covers every position
            if not any(p_bits >> a & 1 and not target >> b & 1 for a, b in zip(ring.g_row(x), by_one)):
                out |= 1 << x
        return out

    def classify_s(self, p_bits: int, s_bits: int, mode: str) -> SVerdict:
        if not s_bits & ~self.compatible(p_bits, p_bits):
            return SVerdict.S_HYPERIDEAL
        if not s_bits & ~self.compatible(p_bits, self.radical(p_bits, mode)):
            return SVerdict.SR_ONLY
        return SVerdict.NEITHER

    def is_s(self, p_bits: int, s_bits: int) -> bool:
        return not s_bits & ~self.compatible(p_bits, p_bits)

    def scan_s(self, p_bits: int, s_bits: int) -> Iterator[SWitness]:
        """Every failing (tuple, position) pair in lexicographic order: a
        product in P with a factor from S whose unit substitution leaves P."""
        for tup, prod, subs in self.ring.g_tuples:
            if p_bits >> prod & 1:
                for i, (x, sub) in enumerate(zip(tup, subs)):
                    if s_bits >> x & 1 and not p_bits >> sub & 1:
                        yield SWitness(tuple_=tup, position=i + 1, product=prod, substituted=sub)

    def s_maximal(self, s_bits: int, mode: str) -> tuple[int, ...]:
        """The inclusion-maximal proper S-hyperideals."""
        return extremal([b for b in self.proper(mode) if self.is_s(b, s_bits)], maximal=True)

    def _colons(self, q_bits: int) -> tuple[int, ...]:
        """The colon ideals (q : t) = {x : g(t, x, 1^(n-2)) in q}, by t."""
        return tuple(
            sum(1 << x for x, prod in enumerate(self.ring.scalar_row(t)) if q_bits >> prod & 1)
            for t in range(self.ring.order)
        )

    def residual(self, p_bits: int, x_bits: int) -> int:
        """The intersection of (p : x) over x in X."""
        colons = self.colons(p_bits)
        out = self.ring.full_bits
        for x in bit_members(x_bits):
            out &= colons[x]
        return out

    def saturation(self, q_bits: int, s_bits: int) -> int:
        """The union of (q : t) over t in S."""
        colons = self.colons(q_bits)
        out = 0
        for t in bit_members(s_bits):
            out |= colons[t]
        return out
