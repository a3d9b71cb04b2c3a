"""The per-ring owner of derived data: hyperideal, prime and multiplicative
set lists and the verdict memos, keyed by element bitmasks and freed with the
ring (``ring.analysis``).  The public functions in ``ideals`` and
``multiplicative`` add argument checks on top.  Each memo is a ``_Memo``, a
dict that builds a missing value once, read by subscript with the arguments
of the method it memoises: ``prime[P]``, ``radical[P, mode]``,
``ideals[mode]``.  The proper hyperideals are not kept apart:
``proper(mode)`` is ``ideals[mode]`` less its last member, the whole ring.

No memo is keyed by an MS or by an (ideal, set) pair.  The S-condition is
checked one element of S at a time, so it is fixed by one set per ideal:
``compatible[P, P]`` is the largest compatible MS S*(P), and P is an
S-hyperideal exactly when S lies in it (``is_s``; an S_r-hyperideal when S
lies in ``compatible[P, radical[P, mode]]``).  Residuals and saturations are
intersections and unions of the colon ideals ``colons[Q]``.  The n-ary tables
are read where a verdict or its witness is n-ary: ``_prime``, ``_primary``, the
witness scans such as ``scan_s`` and the second routes of the harness walk the
n-tuples (``g_tuples``); ``_hyperideal`` and ``_ms`` walk the m- and
n-multisets of the members, and an escape from ``absorb`` is named by the
first (n-1)-tuple of ``g_row`` that leaves the set.

The multiplicative-set index names a family of MS by one int, bit i for
``ms_all[i]``: ``containing[x]`` holds the MS with x, ``within[T]`` those
inside the element mask T, ``meeting(T)`` those that meet it, and
``admissible(P) = within[compatible[P, P]]`` those for which P is an
S-hyperideal.  The harness checks the catalog with these masks instead of a
loop over the MS, so nothing is memoised per MS.  A homomorphism h keeps
products, h(g(x_1, ..., x_n)) = g(h(x_1), ..., h(x_n)), so the image of every
MS is an MS of the target: the transfer checkers read the whole family.

Hyperideals of either mode and multiplicative sets are each closed under
intersection, so each family is the set of closed sets of a closure operator,
walked by ``closed_sets`` under ``WALK_BUDGET``, one lookup per row entry
read.  Every closure reads binary rows, at every arity: the rows of the
ring's reducts ``f2`` and ``g2``.  With a·b = g2(a, b) = g(a, b, 1^(n-2)),
g(x_1, ..., x_n) = x_1·...·x_n, as 1 is a scalar identity and g is
associative (Dörnte, 1929); likewise f(a, b, c, ...) = f(f(a, b, 0, ...),
c, 0, ...) as sets.  So a set with 0 is closed under f when it is closed
under the sums f2(x, b) (``sum_rows``), and it absorbs when it holds x·R
(``absorb``) for each member x.  An MS need not hold 1: it is closed when
S^n lies in S, so ``close`` carries its powers S^2, ..., S^(n-1).
``_compatible`` and the colon ideals read ``scalar_rows`` too, since
g(x, r) = x·g(1, r).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations_with_replacement, product
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

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


def render_tuple(elements: Sequence[str], indices: Iterable[int] | None) -> str:
    """The names of a witness tuple's elements, comma-joined; empty for none."""
    return ",".join(elements[i] for i in indices or ())


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


class _Memo(dict):
    """A dict that builds a missing value with ``build(key)`` and keeps it:
    the one per-key memo of the package, for a table mapped once per
    distinct value and for the verdicts and families of ``RingAnalysis``."""

    __slots__ = ("build",)

    def __init__(self, build):
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


class RingAnalysis:
    """Derived lists and verdict memos of one ring.

    Each of its 11 memos is a ``_Memo`` read by subscript, keyed by the
    arguments of the method it memoises: ``prime[bits]`` for ``_prime``,
    ``radical[bits, mode]`` for ``_radical``, and ``ideals[kind]`` for
    ``closed_sets``.  A hit is one dict lookup; only a miss calls the method.
    ``quotients`` holds, by modulus, the target and mapping of each
    projection the harness builds (None for an ill-defined quotient), and
    ``refused`` the message of each refused walk, by kind and budget.

    The ring owns its analysis (``HyperRing.analysis``), which reaches the
    ring through a weak reference (``ring``), and nothing the analysis keeps
    refers back to the ring.  The memos reach the analysis the same way, so
    none of them holds it in a cycle.  So a ring and its analysis are freed
    by reference counting once the last outside reference to the ring drops,
    without waiting for the cyclic garbage collector.
    """

    def __init__(self, ring: HyperRing):
        self._ring = weakref.ref(ring)
        me = weakref.ref(self)
        self.hyperideal = _Memo(lambda key: me()._hyperideal(*key))
        self.prime = _Memo(lambda bits: me()._prime(bits))
        self.primary = _Memo(lambda key: me()._primary(*key))
        self.radical = _Memo(lambda key: me()._radical(*key))
        self.ms = _Memo(lambda bits: me()._ms(bits))
        self.compatible = _Memo(lambda key: me()._compatible(*key))
        self.colons = _Memo(lambda bits: me()._colons(bits))
        self.within = _Memo(lambda bits: me()._within(bits))
        self.ideals = _Memo(lambda kind: me().closed_sets(kind))
        self.primes = _Memo(lambda mode: me()._primes(mode))
        self.min_primes = _Memo(lambda mode: me()._min_primes(mode))
        self.quotients: dict[int, tuple[HyperRing, tuple[int, ...]] | None] = {}
        self.refused: dict[tuple[str, int], str] = {}

    @property
    def ring(self) -> HyperRing:
        return self._ring()

    # -- hyperideals ------------------------------------------------------

    def _hyperideal(self, bits: int, mode: str) -> Verdict:
        ring = self._ring()
        if not (bits >> ring.zero & 1):
            return Verdict(False, "zero-membership", (ring.zero,), "zero is missing")
        members = bit_members(bits)
        for key in combinations_with_replacement(members, ring.m):
            value = ring.f_bits(key)
            if value & ~bits:
                out = bit_members(value & ~bits)[0]
                return Verdict(False, "f-closure", key, f"hyperaddition escapes via {ring.elements[out]}")
        absorb = self.absorb
        for x in members:
            if absorb[x] & ~bits:
                # dense order is lexicographic: the first escaping (n-1)-tuple
                # is sorted, so it is also the first escaping multiset
                rows = zip(product(range(ring.order), repeat=ring.n - 1), ring.g_row(x))
                rest, prod = next((r, p) for r, p in rows if not bits >> p & 1)
                return Verdict(False, "g-absorption", (x, *rest), f"product {ring.elements[prod]} escapes")
        if mode == "strict":
            for x in members:
                neg = ring.negation[x]
                if not (bits >> neg & 1):
                    detail = f"-{ring.elements[x]} = {ring.elements[neg]} is missing"
                    return Verdict(False, "negation-closure", (x,), detail)
        return PASS

    def proper(self, mode: str) -> tuple[int, ...]:
        """``ideals`` less its last member, the whole ring."""
        return self.ideals[mode][:-1]

    # -- closed sets ---------------------------------------------------------

    @cached_property
    def sum_rows(self) -> list[list[int]]:
        """``sum_rows[x][b]``: the mask f2(x, b) = f(x, b, 0^(m-2))."""
        ring = self._ring()
        f2, order = ring.f2, ring.order
        return [f2[x * order:(x + 1) * order] for x in range(order)]

    @cached_property
    def scalar_rows(self) -> list[list[int]]:
        """``scalar_rows[x][b]``: the mask of x·b = g2(x, b) = g(x, b, 1^(n-2))."""
        ring = self._ring()
        g2, order = ring.g2, ring.order
        return [[1 << p for p in g2[x * order:(x + 1) * order]] for x in range(order)]

    @cached_property
    def absorb(self) -> list[int]:
        """``absorb[x]``: the mask of x·R, which holds every product g(x, r)."""
        return [sum(set(row)) for row in self.scalar_rows]

    def close(self, bits: int, new: int, kind: str, budget: LookupBudget | None = None,
              members: list[int] | None = None, stop: int = 0, powers: list[int] | None = None) -> int | None:
        """The least closed set of the kind (a hyperideal mode, or ``MS``)
        containing the closed mask ``bits`` and the mask ``new``.  Semi-naive:
        each added y is read once against the members, in its sum or scalar
        row.  An MS also keeps its ``powers`` S^2, ..., S^(n-1) (none when
        n = 2): y grows S^k by y·S^(k-1), and the closure by y·S^(n-1).  A walk
        charges its ``budget`` one lookup per row entry read, and may pass the
        ``members`` of ``bits | new`` and the ``powers`` of ``bits`` as lists
        for the call to extend; without powers, the members of ``bits`` are
        handled as added.  Once the closure adds an element of ``stop``, the
        call gives up: it charges the lookups made so far and returns None."""
        products = kind == MS
        rows = self.scalar_rows if products else self.sum_rows
        absorb, negation = self.absorb, self._ring().negation if kind == "strict" else None
        pending = new & ~bits
        if powers is None:  # those of bits are unknown: rebuild them from its members
            powers = [0] * (self._ring().n - 2) if products else []
            pending |= bits if powers else 0
        bits |= pending
        members = bit_members(bits) if members is None else members
        lookups = 0
        while pending:
            low = pending & -pending
            pending ^= low
            y = low.bit_length() - 1
            row = rows[y]
            add = 0 if products else absorb[y] | (1 << negation[y] if negation else 0)
            factors = members
            for k, power in enumerate(powers):  # S^(k+2) gains y·S^(k+1)
                for z in factors:
                    power |= row[z]
                lookups += len(factors)
                powers[k] = power
                factors = bit_members(power)
            lookups += len(factors)
            for z in factors:
                add |= row[z]
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
        ring, close, absorb = self._ring(), self.close, self.absorb
        walk = sorted(range(ring.order), key=lambda x: (-absorb[x].bit_count(), x))
        family = "multiplicative-set" if kind == MS else f"{kind} hyperideal"
        budget = LookupBudget(f"{family} walk on {ring.name}")
        earlier = [0]  # earlier[i]: the elements before walk[i]
        for y in walk:
            earlier.append(earlier[-1] | 1 << y)
        try:
            bottom = 0 if kind == MS else close(0, 1 << ring.zero, kind, budget)
            empty = [0] * (ring.n - 2) if kind == MS else []  # the powers of the empty set
            # each set waits with its members and powers: the lists close extended
            found, stack = [bottom], [(bottom, 0, bit_members(bottom), empty)]
            while stack:
                current, start, members, powers = stack.pop()
                for i in range(start, ring.order):
                    y = walk[i]
                    if current >> y & 1:
                        continue
                    extended, grown = members + [y], powers[:]
                    child = close(current, 1 << y, kind, budget, extended, earlier[i] & ~current, grown)
                    if child is not None:
                        found.append(child)
                        stack.append((child, i + 1, extended, grown))
        except WalkBudgetExceeded as exc:
            self.refused[kind, WALK_BUDGET] = str(exc)
            raise
        return tuple(sorted(found))

    # -- the classical classification ---------------------------------------

    def _prime(self, bits: int) -> Verdict:
        for tup, prod, _subs in self._ring().g_tuples:
            if bits >> prod & 1 and not any(bits >> x & 1 for x in tup):
                return Verdict(False, "prime", tup, "product lands in the ideal, no factor does")
        return PASS

    def semiprime(self, bits: int) -> Verdict:
        ring = self._ring()
        for p in range(ring.order):
            if bits >> ring.power(p, ring.n) & 1 and not (bits >> p & 1):
                return Verdict(False, "semiprime", (p,), "n-th power lands in the ideal")
        return PASS

    def _primary(self, bits: int, mode: str) -> Verdict:
        rad = self.radical[bits, mode]
        ring = self._ring()
        n = ring.n
        for tup, prod, subs in ring.g_tuples:
            if not (bits >> prod & 1):
                continue
            if not any(bits >> tup[i] & 1 or rad >> subs[i] & 1 for i in range(n)):
                detail = "no factor in the ideal and no substituted product in its radical"
                return Verdict(False, "primary", tup, detail)
        return PASS

    def maximal(self, bits: int, mode: str) -> Verdict:
        for other in self.proper(mode):
            if other == bits:
                continue
            if not (bits & ~other):
                detail = "a proper hyperideal lies strictly above"
                return Verdict(False, "maximal", tuple(bit_members(other)), detail)
        return PASS

    def _primes(self, mode: str) -> tuple[int, ...]:
        return tuple(b for b in self.proper(mode) if self.prime[b].ok)

    def _min_primes(self, mode: str) -> tuple[int, ...]:
        return extremal(self.primes[mode])

    def minimal_primes_over(self, bits: int, mode: str) -> tuple[int, ...]:
        return extremal([q for q in self.primes[mode] if not (bits & ~q)])

    def _radical(self, bits: int, mode: str) -> int:
        """Intersection of the primes containing the mask; the whole ring
        when none does."""
        out = self._ring().full_bits
        for prime in self.primes[mode]:
            if not (bits & ~prime):
                out &= prime
        return out

    # -- multiplicative sets ----------------------------------------------

    def _ms(self, bits: int) -> Verdict:
        ring = self._ring()
        for key in combinations_with_replacement(bit_members(bits), ring.n):
            prod = ring.g_at(key)
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
        order, family = self._ring().order, self.ms_all
        width = f"0{order}b"
        # sized once: grown by +=, its reallocations raised the peak RSS of
        # perfbench large-rings rounds by 0.14-0.20 MB
        rows = bytearray(len(family) * order)
        for k, s in enumerate(reversed(family)):
            rows[k * order:(k + 1) * order] = format(s, width).encode()
        return [int(rows[order - 1 - x::order], 2) for x in range(order)]

    def _within(self, t_bits: int) -> int:
        """The MS inside the element mask: all but those meeting the rest."""
        return ((1 << len(self.ms_all)) - 1) & ~self.meeting(self._ring().full_bits & ~t_bits)

    def meeting(self, t_bits: int) -> int:
        """The MS that meet the element mask."""
        out = 0
        containing = self.containing
        for x in bit_members(t_bits):
            out |= containing[x]
        return out

    def admissible(self, p_bits: int) -> int:
        """The MS S for which P has the substitution property: S within S*(P)."""
        return self.within[self.compatible[p_bits, p_bits]]

    # -- S-classification, residuals and saturation -------------------------

    def _compatible(self, p_bits: int, target: int) -> int:
        """Elements x such that, for every element r, x·r in P implies r in
        the target: g(x, r) in P implies g(1, r) in it for every (n-1)-tuple r.
        Against P itself this is the largest compatible MS S*(P) of T3: P is
        an S-hyperideal exactly when S lies in it, and an S_r-hyperideal when
        S lies in the set for the radical."""
        outside, rows = bit_members(self._ring().full_bits & ~target), self.scalar_rows
        return sum(1 << x for x, row in enumerate(rows) if not any(p_bits & row[r] for r in outside))

    def classify_s(self, p_bits: int, s_bits: int, mode: str) -> SVerdict:
        if self.is_s(p_bits, s_bits):
            return SVerdict.S_HYPERIDEAL
        if not s_bits & ~self.compatible[p_bits, self.radical[p_bits, mode]]:
            return SVerdict.SR_ONLY
        return SVerdict.NEITHER

    def is_s(self, p_bits: int, s_bits: int) -> bool:
        return not s_bits & ~self.compatible[p_bits, p_bits]

    def scan_s(self, p_bits: int, s_bits: int) -> Iterator[SWitness]:
        """Every failing (tuple, position) pair in lexicographic order: a
        product in P with a factor from S whose unit substitution leaves P."""
        for tup, prod, subs in self._ring().g_tuples:
            if p_bits >> prod & 1:
                for i, (x, sub) in enumerate(zip(tup, subs)):
                    if s_bits >> x & 1 and not p_bits >> sub & 1:
                        yield SWitness(tuple_=tup, position=i + 1, product=prod, substituted=sub)

    def s_maximal(self, s_bits: int, mode: str) -> tuple[int, ...]:
        """The inclusion-maximal proper S-hyperideals."""
        return extremal([b for b in self.proper(mode) if self.is_s(b, s_bits)], maximal=True)

    def _colons(self, q_bits: int) -> tuple[int, ...]:
        """The colon ideals (q : t) = {x : g(t, x, 1^(n-2)) in q}, by t."""
        return tuple(sum(1 << x for x, prod in enumerate(row) if q_bits & prod) for row in self.scalar_rows)

    def residual(self, p_bits: int, x_bits: int) -> int:
        """The intersection of (p : x) over x in X."""
        colons = self.colons[p_bits]
        out = self._ring().full_bits
        for x in bit_members(x_bits):
            out &= colons[x]
        return out

    def saturation(self, q_bits: int, s_bits: int) -> int:
        """The union of (q : t) over t in S."""
        colons = self.colons[q_bits]
        out = 0
        for t in bit_members(s_bits):
            out |= colons[t]
        return out
