"""Theorem catalog: one exhaustive checker per claim, with counterexample
reporting and hypothesis bookkeeping (the fixture rings are in ``fixture_rings``).

Each checker quantifies over every enumerable instance on a fixture ring
(ideal/MS pairs, minimal-prime selections, homomorphisms, products) that
satisfies the claim's hypotheses.  A claim whose hypotheses match nothing on
a fixture reports ``hypothesis-never-met`` rather than a vacuous pass, so a
suite can demand coverage from its fixture set.

The checkers over (ideal, MS) pairs (T1.1, T1.2, T1.3, P2, T7, T6, T4, T5,
PINT, P8, TAVOID, THOM-PRE, THOM-IMG, TQUOT and FW-SR) decide every MS at
once, as masks of the multiplicative-set index on ``RingAnalysis`` (bit i for
``ms_all[i]``): instance and hypothesis counts are bit counts, and failures
are named by walking the failure masks lowest bit first, in the order of the
loops they replace, so reports are unchanged.  Only TPROD, whose S are pairs
of MS from two rings, loops over them.  Several keep two independently
computed sides: the base ring against the target ring (THOM-PRE, THOM-IMG,
TQUOT), and the scalar rows against one n-tuple scan per ideal (T3, FW-SR).
T1.3, T4 and T5 compare ``compatible`` with the colon ideals, but both read
the scalar rows of ``g2``, so those sides share their table reads.  A
target-side verdict is pulled back along the map: img(S) lies in C exactly
when S lies in the preimage of C.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from itertools import combinations

from .analysis import LookupBudget, RingAnalysis, SVerdict, bit_members
from .constructions import (
    HyperRingHom,
    identity_hom,
    product_ring,
    quotient_ring,
)
from .errors import (
    CosetsNotPartition,
    InducedOpIllDefined,
    UnknownTheorem,
    WalkBudgetExceeded,
)
from .fixture_rings import fixtures
from .ideals import special_sets
from .kernel import (
    LENIENT,
    HyperRing,
    SubsetMask,
    check_mode,
)

MAX_COUNTEREXAMPLES = 10


@dataclass
class TheoremReport:
    id: str
    status: str  # holds | counterexample | hypothesis-never-met
    instances_checked: int
    hypothesis_met: int
    counterexamples: tuple[dict, ...]
    mode: str
    runtime_ms: float
    truncated: bool = False

    def to_dict(self, include_timings: bool = False) -> dict:
        out = {
            "id": self.id,
            "status": self.status,
            "instances_checked": self.instances_checked,
            "hypothesis_met": self.hypothesis_met,
            "counterexamples": list(self.counterexamples),
            "mode": self.mode,
            "truncated": self.truncated,
        }
        if include_timings:
            out["runtime_ms"] = self.runtime_ms
        return out


@dataclass
class _Tally:
    """Mutable scratch state shared by all checkers."""

    instances: int = 0
    hypothesis: int = 0
    truncated: bool = False
    counterexamples: list[dict] = field(default_factory=list)

    def count(self, instances: int, hypothesis: int | None = None) -> None:
        """Add checked instances and those meeting the hypothesis (by
        default, all of them)."""
        self.instances += instances
        self.hypothesis += instances if hypothesis is None else hypothesis

    def fail(self, **payload: str) -> None:
        if len(self.counterexamples) < MAX_COUNTEREXAMPLES:
            self.counterexamples.append(dict(payload))

    def name_failures(self, failing: list[tuple[object, int]], fail) -> None:
        """Report failures in the loop order of the checkers: MS ascending,
        then the items in the given order.  ``failing`` pairs each item with
        the MS that fail at it, and ``fail(i, item)`` reports one failure of
        ms_all[i]; naming stops once the report is full."""
        union = 0
        for _, mask in failing:
            union |= mask
        while union and len(self.counterexamples) < MAX_COUNTEREXAMPLES:
            low = union & -union
            union ^= low
            i = low.bit_length() - 1
            for item, mask in failing:
                if mask >> i & 1:
                    fail(i, item)


# ---------------------------------------------------------------------------
# constructions over a ring, kept on its analysis


def _transfer(ring: HyperRing, modulus_bits: int, mode: str) -> HyperRingHom | None:
    """The projection onto the quotient by the modulus; ``None`` when the
    quotient is ill-defined.  The quotient is built once per ring, and its
    analysis keeps the target and the mapping, not the map, whose source is
    the ring: each call wraps them in a new ``HyperRingHom``.  The mode only
    validates the modulus: a strict hyperideal is a lenient one, and the
    quotient does not depend on the mode.  The projection is a homomorphism
    by construction, so it keeps the g-law and the image of every MS is an
    MS of the target."""
    quotients = ring.analysis.quotients
    if modulus_bits not in quotients:
        try:
            proj = quotient_ring(ring, SubsetMask(ring, modulus_bits), mode).projection
            quotients[modulus_bits] = proj.target, proj.mapping
        except (CosetsNotPartition, InducedOpIllDefined):
            quotients[modulus_bits] = None
    kept = quotients[modulus_bits]
    return None if kept is None else HyperRingHom(ring, *kept, True)


def _transfers(ring: HyperRing, mode: str) -> list[HyperRingHom]:
    """The identity, then the projection onto every well-defined quotient;
    each map is onto.  The identity is built per call: kept on the
    analysis, it would hold the ring, its own target."""
    homs = (_transfer(ring, bits, mode) for bits in ring.analysis.proper(mode))
    return [identity_hom(ring), *(hom for hom in homs if hom is not None)]


def _s_sets(a: RingAnalysis, bits: int, mode: str) -> int:
    """The MS for which the mask is a proper S-hyperideal."""
    if bits == a.ring.full_bits or not a.hyperideal(bits, mode).ok:
        return 0
    return a.admissible(bits)


def _image_s_sets(a: RingAnalysis, hom: HyperRingHom, image: int, mode: str) -> int:
    """The source MS S for which the target mask is a proper S-hyperideal
    for the image of S, decided on the target: img(S) lies in a set C
    exactly when S lies in the preimage of C."""
    target = hom.target
    ta = target.analysis
    if image == target.full_bits or not ta.hyperideal(image, mode).ok:
        return 0
    return a.within(hom.preimage_bits(ta.compatible(image, image)))


def _saturation_fixed(a: RingAnalysis, p_bits: int) -> int:
    """The MS S with saturation(P, S) = P: no (P : t) with t in S leaves P,
    and every x in P lies in (P : t) for some t in S.  (P : 1) = P is not
    assumed."""
    colons = a.colons(p_bits)
    out = a.within(sum(1 << t for t, c in enumerate(colons) if not c & ~p_bits))
    for x in bit_members(p_bits):
        out &= a.meeting(sum(1 << t for t, c in enumerate(colons) if c >> x & 1))
    return out


def _sr_elements(ring: HyperRing, p_bits: int, rad: int) -> int:
    """D(P): the elements x such that every product in P with x in some slot
    stays in ``rad`` once that slot becomes the identity.  One scan of the
    n-tuples; P is an S_r-hyperideal exactly when S lies in D(P) for the
    radical, and an S-hyperideal when S lies in D(P) for P itself."""
    escapes = 0
    for tup, prod, subs in ring.g_tuples:
        if p_bits >> prod & 1:
            for x, sub in zip(tup, subs):
                if not rad >> sub & 1:
                    escapes |= 1 << x
    return ring.full_bits & ~escapes


def _avoiding(ring: HyperRing, primes) -> int:
    """The elements outside every prime of the family.  It holds 1: a proper
    hyperideal with 1 would absorb g(1, r, 1^(n-2)) = r for every r."""
    union = 0
    for q in primes:
        union |= q
    return ring.full_bits & ~union


# ---------------------------------------------------------------------------
# checkers


def _check_t1_1(ring: HyperRing, mode: str, tally: _Tally) -> None:
    """S-hyperideals are disjoint from their multiplicative set."""
    a = ring.analysis
    ms_all = a.ms_all
    for p in a.proper(mode):
        hyp = a.admissible(p)
        tally.count(len(ms_all), hyp.bit_count())
        tally.name_failures([(p, hyp & a.meeting(p))], lambda i, p: tally.fail(
            P=ring.render_bits(p), S=ring.render_bits(ms_all[i]),
            overlap=ring.render_bits(p & ms_all[i])))


def _check_t1_2(ring: HyperRing, mode: str, tally: _Tally) -> None:
    """The radical of an S-hyperideal is an S-hyperideal (when proper)."""
    a = ring.analysis
    ms_all = a.ms_all
    for p in a.proper(mode):
        tally.instances += len(ms_all)
        rad = a.radical(p, mode)
        if rad == ring.full_bits:
            continue  # statement presumes a proper radical
        hyp = a.admissible(p)
        tally.hypothesis += hyp.bit_count()
        tally.name_failures([(p, hyp & ~_s_sets(a, rad, mode))], lambda i, p: tally.fail(
            P=ring.render_bits(p), S=ring.render_bits(ms_all[i]),
            radical=ring.render_bits(rad)))


def _check_t1_3(ring: HyperRing, mode: str, tally: _Tally) -> None:
    """Residuals of an S-hyperideal by outside sets are S-hyperideals.

    The residual by Q is the intersection of the residuals by its members,
    so each distinct intersection is decided once, for every S at once, and
    the 2^k - 1 sets Q outside P are counted, not walked.  They are walked in
    ascending order only to name failures, on one ``LookupBudget``; cut
    short, the cell is truncated and keeps at least one named failure."""
    a = ring.analysis
    ms_all = a.ms_all
    budget = LookupBudget(f"T1.3 walk over the sets Q on {ring.name}")
    for p in a.proper(mode):
        hyp = a.admissible(p)
        comp = ring.full_bits & ~p
        singles = {q: a.residual(p, 1 << q) for q in bit_members(comp)}
        tally.count(hyp.bit_count() * ((1 << len(singles)) - 1))
        residuals: set[int] = set()
        for r in singles.values():
            residuals |= {m & r for m in residuals}
            residuals.add(r)
        passing = {r: _s_sets(a, r, mode) for r in residuals}
        failing = 0
        for ok in passing.values():
            failing |= hyp & ~ok
        try:
            for i in bit_members(failing):
                q_bits = (-comp) & comp  # the least non-empty subset
                while q_bits and len(tally.counterexamples) < MAX_COUNTEREXAMPLES:
                    members = bit_members(q_bits)
                    budget.charge(len(members) + 1)
                    pq = ring.full_bits
                    for q in members:
                        pq &= singles[q]
                    if not passing[pq] >> i & 1:
                        tally.fail(P=ring.render_bits(p), S=ring.render_bits(ms_all[i]),
                                   Q=ring.render_bits(q_bits), residual=ring.render_bits(pq))
                    q_bits = (q_bits - comp) & comp  # the next subset, ascending
        except WalkBudgetExceeded:
            tally.truncated = True
            if not tally.counterexamples:
                # the q whose residuals contain a failing pq together have residual pq
                pq = min(r for r in residuals if hyp & ~passing[r])
                q_bits = sum(1 << q for q, r in singles.items() if not pq & ~r)
                i = bit_members(hyp & ~passing[pq])[0]
                tally.fail(P=ring.render_bits(p), S=ring.render_bits(ms_all[i]),
                           Q=ring.render_bits(q_bits), residual=ring.render_bits(pq))


def _check_p2(ring: HyperRing, mode: str, tally: _Tally) -> None:
    """Primes disjoint from S are S-hyperideals, and every ideal disjoint
    from S sits inside a prime S-hyperideal: per prime P and per proper Q,
    the S disjoint from it against those that P, or a prime over Q, admits."""
    a = ring.analysis
    ms_all, full = a.ms_all, ring.full_bits
    disjoint = {q: a.within(full & ~q) for q in a.proper(mode)}  # primes are proper
    covers = {p: disjoint[p] & a.admissible(p) for p in a.primes(mode)}
    failing: list[tuple[object, int]] = [
        ({"clause": "prime-disjoint", "P": ring.render_bits(p)}, disjoint[p] & ~cover)
        for p, cover in covers.items()
    ]
    for q, fam in disjoint.items():
        for p, cover in covers.items():
            if not q & ~p:
                fam &= ~cover
        failing.append(({"clause": "prime-extension", "Q": ring.render_bits(q)}, fam))
    for bits in [*covers, *disjoint]:  # each prime, then each proper Q
        tally.count(disjoint[bits].bit_count())
    tally.name_failures(failing, lambda i, head: tally.fail(**head, S=ring.render_bits(ms_all[i])))


def _check_t7(ring: HyperRing, mode: str, tally: _Tally) -> None:
    """Maximal S-hyperideals are prime (for S containing the identity): per
    proper P, the S with 1 that P admits and no proper hyperideal above it."""
    a = ring.analysis
    ms_all, proper, ones = a.ms_all, a.proper(mode), a.containing[ring.one]
    failing: list[tuple[object, int]] = []
    for p in proper:
        maximal = ones & a.admissible(p)
        for r in proper:
            if r != p and not p & ~r:
                maximal &= ~a.admissible(r)
        tally.count(maximal.bit_count())
        if not a.prime(p).ok:
            failing.append((p, maximal))
    tally.name_failures(failing, lambda i, p: tally.fail(
        P=ring.render_bits(p), S=ring.render_bits(ms_all[i])))


def _check_t6(ring: HyperRing, mode: str, tally: _Tally) -> None:
    """Minimal primes over an S-hyperideal are S-hyperideals: per P, the MS
    with 1 for which P is an S-hyperideal, against each minimal prime over P."""
    a = ring.analysis
    ms_all, ones = a.ms_all, a.containing[ring.one]
    failing: list[tuple[object, int]] = []
    for p in a.proper(mode):
        fam = ones & a.admissible(p)
        for q in a.minimal_primes_over(p, mode):
            tally.count(fam.bit_count())
            failing.append(((p, q), fam & ~a.admissible(q)))
    tally.name_failures(failing, lambda i, pq: tally.fail(
        P=ring.render_bits(pq[0]), S=ring.render_bits(ms_all[i]), Q=ring.render_bits(pq[1])))


def _check_t3(ring: HyperRing, mode: str, tally: _Tally) -> None:
    """Every proper hyperideal admits a largest compatible MS: S*(P) =
    ``compatible(P, P)``, which ``is_s`` reads, is an MS and equals D(P) for P."""
    a = ring.analysis
    for p in a.proper(mode):
        tally.instances += 1
        smax = a.compatible(p, p)
        if not a.ms(smax).ok:
            tally.fail(anomaly="candidate set is not multiplicatively closed",
                       P=ring.render_bits(p), S=ring.render_bits(smax))
            continue
        tally.hypothesis += 1
        direct = _sr_elements(ring, p, p)
        if smax != direct:
            tally.fail(P=ring.render_bits(p), S=ring.render_bits(smax),
                       direct=ring.render_bits(direct),
                       clause="maximal set disagrees with the n-tuple scan")


def _check_t4(ring: HyperRing, mode: str, tally: _Tally) -> None:
    """Saturation is the least S-hyperideal containing a hyperideal.

    saturation(Q, S) is the union of the colon classes of ``colons(Q)`` that
    S meets, so per Q the MS with 1 split into groups of equal saturation,
    once per class.  Each (Q, saturation) group is decided with masks, and
    its failures are named in clause order, Q outer and S ascending."""
    a = ring.analysis
    ms_all, full, ones = a.ms_all, ring.full_bits, a.containing[ring.one]
    for q in a.ideals(mode):
        tally.instances += ones.bit_count()
        classes: dict[int, int] = {}  # each distinct colon, with the t giving it
        for t, c in enumerate(a.colons(q)):
            classes[c] = classes.get(c, 0) | 1 << t
        groups = {0: ones}  # by saturation, the S giving it
        for c, t_bits in classes.items():
            meets = a.meeting(t_bits)
            split: dict[int, int] = {}
            for sat, fam in groups.items():
                for key, part in ((sat | c, fam & meets), (sat, fam & ~meets)):
                    if part:
                        split[key] = split.get(key, 0) | part
            groups = split
        failing: list[tuple[object, int]] = []
        for sat, fam in groups.items():
            if q & ~sat:
                failing.append((("saturation does not contain the ideal", None, sat), fam))
                continue
            if sat == full:
                continue  # vacuous: no proper saturation to be least
            tally.hypothesis += fam.bit_count()
            rest = fam & _s_sets(a, sat, mode)
            failing.append((("saturation is not an S-hyperideal", "saturation", sat), fam & ~rest))
            failing.append((("saturation is not idempotent", None, sat), rest & ~_saturation_fixed(a, sat)))
            for r in a.proper(mode):  # the first smaller S-hyperideal over Q
                if rest and not q & ~r and sat & ~r:
                    smaller = rest & a.admissible(r)
                    rest &= ~smaller
                    failing.append((("a smaller S-hyperideal contains the ideal", "smaller", r), smaller))

        def fail(i: int, item: tuple[str, str | None, int]) -> None:
            clause, key, bits = item
            extra = {key: ring.render_bits(bits)} if key else {}
            tally.fail(Q=ring.render_bits(q), S=ring.render_bits(ms_all[i]), **extra, clause=clause)

        tally.name_failures(failing, fail)


def _check_t5(ring: HyperRing, mode: str, tally: _Tally) -> None:
    """Substitution property, residual fixed points, and saturation fixed
    point are equivalent."""
    a = ring.analysis
    ms_all = a.ms_all
    for p in a.proper(mode):
        tally.count(len(ms_all))
        colons = a.colons(p)
        direct = a.admissible(p)
        # (P : t) = P for every t in S
        residual_fixed = a.within(sum(1 << t for t, c in enumerate(colons) if c == p))
        saturation_fixed = _saturation_fixed(a, p)
        failing = (direct ^ residual_fixed) | (direct ^ saturation_fixed)
        tally.name_failures([(p, failing)], lambda i, p: tally.fail(
            P=ring.render_bits(p), S=ring.render_bits(ms_all[i]),
            direct=str(bool(direct >> i & 1)), residual=str(bool(residual_fixed >> i & 1)),
            saturation=str(bool(saturation_fixed >> i & 1))))


def _check_tprimary_eq(ring: HyperRing, mode: str, tally: _Tally) -> None:
    """Against the complement of a minimal prime, S-hyperideal and primary
    with that radical are the same thing."""
    a = ring.analysis
    for q in a.min_primes(mode):
        s = _avoiding(ring, [q])
        if not a.ms(s).ok:
            tally.instances += 1
            tally.fail(anomaly="complement of a minimal prime is not an MS",
                       Q=ring.render_bits(q))
            continue
        for p in a.proper(mode):
            tally.count(1)
            lhs = a.is_s(p, s)
            rhs = (
                a.primary(p, mode).ok
                and a.radical(p, mode) == q
            )
            if lhs != rhs:
                tally.fail(P=ring.render_bits(p), Q=ring.render_bits(q),
                           S=ring.render_bits(s), s_hyperideal=str(lhs),
                           q_primary=str(rhs))


def _check_tdecomp(ring: HyperRing, mode: str, tally: _Tally) -> None:
    """S-hyperideals for S avoiding a union of minimal primes decompose as
    the intersection of their per-prime saturations."""
    a = ring.analysis
    minp = a.min_primes(mode)
    for k in range(1, len(minp) + 1):
        for combo in combinations(minp, k):
            s = _avoiding(ring, combo)
            if not a.ms(s).ok:
                tally.instances += 1
                tally.fail(anomaly="complement of the union is not an MS",
                           primes=",".join(ring.render_bits(q) for q in combo))
                continue
            for p in a.proper(mode):
                tally.instances += 1
                if not a.is_s(p, s):
                    continue
                tally.hypothesis += 1
                comps = [a.saturation(p, ring.full_bits & ~q) for q in combo]
                inter = ring.full_bits
                for c in comps:
                    inter &= c
                if inter != p:
                    tally.fail(P=ring.render_bits(p), S=ring.render_bits(s),
                               intersection=ring.render_bits(inter),
                               components=",".join(ring.render_bits(c) for c in comps))
                    continue
                for q, c in zip(combo, comps):
                    if c == ring.full_bits:
                        continue  # vacuous component: the ideal escapes this prime
                    if not (a.primary(c, mode).ok
                            and a.radical(c, mode) == q):
                        tally.fail(P=ring.render_bits(p), Q=ring.render_bits(q),
                                   component=ring.render_bits(c),
                                   clause="component is not primary for its prime")


def _check_pint(ring: HyperRing, mode: str, tally: _Tally) -> None:
    """Intersections of S-hyperideals are S-hyperideals (pairs and triples):
    per pair, then per triple, the S that every member admits against those
    the intersection admits.  A pair that no S admits is not extended."""
    a = ring.analysis
    ms_all, proper = a.ms_all, a.proper(mode)
    pairs: list[tuple[tuple[int, ...], int]] = []
    triples: list[tuple[tuple[int, ...], int]] = []
    for j, k in combinations(range(len(proper)), 2):
        family = a.admissible(proper[j]) & a.admissible(proper[k])
        if family:
            pairs.append(((proper[j], proper[k]), family))
            triples += [((proper[j], proper[k], r), family & a.admissible(r)) for r in proper[k + 1:]]
    failing: list[tuple[object, int]] = []
    for combo, family in pairs + triples:
        tally.count(family.bit_count())
        inter = ring.full_bits
        for p in combo:
            inter &= p
        failing.append(((combo, inter), family & ~_s_sets(a, inter, mode)))
    tally.name_failures(failing, lambda i, item: tally.fail(
        S=ring.render_bits(ms_all[i]), members=",".join(ring.render_bits(p) for p in item[0]),
        intersection=ring.render_bits(item[1])))


def _check_p8(ring: HyperRing, mode: str, tally: _Tally) -> None:
    """All proper hyperideals are S-hyperideals exactly when S sits inside
    the units: the S with 1 that every proper P admits, against those inside."""
    a = ring.analysis
    ms_all, ones = a.ms_all, a.containing[ring.one]
    every = ones
    for p in a.proper(mode):
        every &= a.admissible(p)
    units = ones & a.within(special_sets(ring, mode).units.bits)
    tally.count(ones.bit_count())
    tally.name_failures([(None, every ^ units)], lambda i, _: tally.fail(
        S=ring.render_bits(ms_all[i]), all_ideals=str(bool(every >> i & 1)),
        inside_units=str(bool(units >> i & 1))))


def _check_t9_fwd(ring: HyperRing, mode: str, tally: _Tally) -> None:
    """In a hyperintegral domain with S the nonzero elements, the zero ideal
    is the only S-hyperideal."""
    a = ring.analysis
    tally.instances += 1
    if not a.prime(1 << ring.zero).ok:  # {0} is prime: no zero divisors
        return
    s = ring.full_bits & ~(1 << ring.zero)
    if not a.ms(s).ok:
        tally.fail(anomaly="nonzero elements of a domain fail closure",
                   S=ring.render_bits(s))
        return
    tally.hypothesis += 1
    zero_ideal = 1 << ring.zero
    if not a.is_s(zero_ideal, s):
        tally.fail(P=ring.render_bits(zero_ideal), S=ring.render_bits(s),
                   clause="zero ideal is not an S-hyperideal")
    for p in a.proper(mode):
        if p != zero_ideal and a.is_s(p, s):
            tally.fail(P=ring.render_bits(p), S=ring.render_bits(s),
                       clause="a second S-hyperideal exists")


def _check_t10(ring: HyperRing, mode: str, tally: _Tally) -> None:
    """Hyperideals containing Q are S-hyperideals for S the identity-shifted
    image of Q; inside the Jacobson-style radical, Q sits in every maximal
    S-hyperideal.  Q must be negation closed for the shift argument."""
    a = ring.analysis
    jac = special_sets(ring, mode).jacobson.bits
    for q in a.proper("strict"):
        tally.instances += 1
        s = 0
        for x in bit_members(q):
            s |= a.sum_rows[x][ring.one]
        if not a.ms(s).ok:
            tally.fail(Q=ring.render_bits(q), S=ring.render_bits(s),
                       clause="shifted image is not multiplicatively closed")
            continue
        tally.hypothesis += 1
        for p in a.proper(mode):
            if q & ~p:
                continue
            if not a.is_s(p, s):
                tally.fail(Q=ring.render_bits(q), S=ring.render_bits(s),
                           P=ring.render_bits(p),
                           clause="ideal containing Q is not an S-hyperideal")
        if not (q & ~jac):
            for p in a.s_maximal(s, mode):
                if q & ~p:
                    tally.fail(Q=ring.render_bits(q), S=ring.render_bits(s),
                               P=ring.render_bits(p),
                               clause="maximal S-hyperideal misses Q")


def _check_t12(ring: HyperRing, mode: str, tally: _Tally) -> None:
    """Ideals closed under minimal-prime intersections are S-hyperideals for
    S avoiding every minimal prime."""
    a = ring.analysis
    minp = a.min_primes(mode)
    s = _avoiding(ring, minp)
    if not a.ms(s).ok:
        tally.instances += 1
        tally.fail(anomaly="complement of the minimal primes is not an MS",
                   S=ring.render_bits(s))
        return
    hull = []  # hull[x]: the intersection of the minimal primes containing x
    for x in range(ring.order):
        inter = ring.full_bits  # empty family: whole-ring convention
        for q in minp:
            if q >> x & 1:
                inter &= q
        hull.append(inter)
    for p in a.proper(mode):
        tally.instances += 1
        if any(hull[x] & ~p for x in bit_members(p)):
            continue
        tally.hypothesis += 1
        if not a.is_s(p, s):
            tally.fail(P=ring.render_bits(p), S=ring.render_bits(s))


def _check_tavoid(ring: HyperRing, mode: str, tally: _Tally) -> None:
    """Avoidance: a hyperideal covered by n hyperideals, not covered once the
    S-hyperideal slot is removed, with every other slot meeting S, lies in
    the S-hyperideal slot.  Each (cover, slot) decides every S at once, and
    charges the walk's ``LookupBudget`` one lookup per pool member."""
    a = ring.analysis
    pool, full, ones = a.ideals(mode), ring.full_bits, a.containing[ring.one]
    meets = {b: ones & a.meeting(b) for b in pool}  # the S with 1 that meet b
    budget = LookupBudget(f"TAVOID walk over the covers on {ring.name}")
    try:
        for combo in combinations(pool, ring.n):
            for t, pt in enumerate(combo):
                if pt == full:
                    continue
                budget.charge(len(pool))
                rest, hyp = 0, ones & a.admissible(pt)
                for b in combo[:t] + combo[t + 1:]:
                    rest |= b
                    hyp &= meets[b]
                # covered by the n slots, but not without slot t
                covered = [p for p in pool if p & ~rest and not p & ~(rest | pt)]
                tally.count(len(covered) * ones.bit_count(), len(covered) * hyp.bit_count())
                for p in covered:
                    if p & ~pt:
                        tally.name_failures([(p, hyp)], lambda i, p: tally.fail(
                            P=ring.render_bits(p), S=ring.render_bits(a.ms_all[i]),
                            slot=ring.render_bits(pt),
                            cover=",".join(ring.render_bits(b) for b in combo)))
    except WalkBudgetExceeded:
        tally.truncated = True  # the cell counts the covers walked so far


def _check_thom_pre(ring: HyperRing, mode: str, tally: _Tally) -> None:
    """Preimages of image-MS hyperideals along homomorphisms keep the
    substitution property."""
    a = ring.analysis
    ms_all = a.ms_all
    for hom in _transfers(ring, mode):
        target = hom.target
        failing: list[tuple[object, int]] = []
        for q in target.analysis.proper(mode):
            hyp = _image_s_sets(a, hom, q, mode)
            tally.count(len(ms_all), hyp.bit_count())
            failing.append((q, hyp & ~_s_sets(a, hom.preimage_bits(q), mode)))
        tally.name_failures(failing, lambda i, q: tally.fail(
            hom=target.name, Q=target.render_bits(q), S=ring.render_bits(ms_all[i]),
            preimage=ring.render_bits(hom.preimage_bits(q))))


def _check_thom_img(ring: HyperRing, mode: str, tally: _Tally) -> None:
    """Images of S-hyperideals containing the kernel along epimorphisms
    (every map of ``_transfers`` is onto) are image-MS hyperideals."""
    a = ring.analysis
    ms_all = a.ms_all
    for hom in _transfers(ring, mode):
        target = hom.target
        ker = hom.kernel.bits
        tally.instances += len(ms_all) * len(a.proper(mode))
        failing: list[tuple[object, int]] = []
        for p in a.proper(mode):
            if ker & ~p:
                continue
            hyp = a.admissible(p)
            tally.hypothesis += hyp.bit_count()
            failing.append((p, hyp & ~_image_s_sets(a, hom, hom.image_bits(p), mode)))
        tally.name_failures(failing, lambda i, p: tally.fail(
            hom=target.name, P=ring.render_bits(p), S=ring.render_bits(ms_all[i]),
            image=target.render_bits(hom.image_bits(p))))


def _check_tquot(ring: HyperRing, mode: str, tally: _Tally) -> None:
    """An ideal over the modulus is an S-hyperideal exactly when its image in
    the quotient is a hyperideal for the image multiplicative set."""
    a = ring.analysis
    ms_all = a.ms_all
    for modulus in a.proper(mode):
        proj = _transfer(ring, modulus, mode)
        if proj is None:
            continue
        uppers = [upper for upper in a.proper(mode) if not modulus & ~upper]
        tally.count(len(ms_all) * len(uppers))
        base = {upper: a.admissible(upper) for upper in uppers}
        failing = [
            (upper, base[upper] ^ _image_s_sets(a, proj, proj.image_bits(upper), mode))
            for upper in uppers
        ]

        def fail(i: int, upper: int) -> None:
            lhs = bool(base[upper] >> i & 1)
            tally.fail(modulus=ring.render_bits(modulus), Q=ring.render_bits(upper),
                       S=ring.render_bits(ms_all[i]), base=str(lhs), quotient=str(not lhs))

        tally.name_failures(failing, fail)


TPROD_COMPANIONS = {(2, 2): "z2", (3, 3): "z2-as-33"}  # fixture per arity pair


def _check_tprod(ring: HyperRing, mode: str, tally: _Tally) -> None:
    """Componentwise S-hyperideal verdicts match the product-ring verdict
    (exercised for factors of order at most 4)."""
    if ring.order > 4 or (ring.m, ring.n) not in TPROD_COMPANIONS:
        return
    companion = fixtures(TPROD_COMPANIONS[ring.m, ring.n])
    a = ring.analysis
    prod = product_ring([ring, companion], name=f"{ring.name}x{companion.name}")  # pa reaches it weakly
    pa = prod.analysis
    ca = companion.analysis
    o2 = companion.order

    def product_bits(b1: int, b2: int) -> int:
        """The mask of the pairs (x, y) with x in b1 and y in b2."""
        out = 0
        for x in bit_members(b1):
            for y in bit_members(b2):
                out |= 1 << (x * o2 + y)
        return out

    sets = [(s1, s2, product_bits(s1, s2)) for s1 in a.ms_all for s2 in ca.ms_all]
    for p1 in a.proper(mode):
        for p2 in ca.proper(mode):
            pb = product_bits(p1, p2)
            for s1, s2, sb in sets:
                tally.count(1)
                lhs = pa.hyperideal(pb, mode).ok and pa.is_s(pb, sb)  # pb is proper
                rhs = a.is_s(p1, s1) and ca.is_s(p2, s2)
                if lhs != rhs:
                    tally.fail(P1=ring.render_bits(p1), P2=companion.render_bits(p2),
                               S1=ring.render_bits(s1), S2=companion.render_bits(s2),
                               product=str(lhs), componentwise=str(rhs))


def _check_fw_sr(ring: HyperRing, mode: str, tally: _Tally) -> None:
    """The radical-target classifier: S-hyperideals are S_r-hyperideals, and
    the combined verdict agrees with a direct scan against the radical."""
    a = ring.analysis
    ms_all = a.ms_all
    for p in a.proper(mode):
        tally.instances += len(ms_all)
        rad = a.radical(p, mode)
        s_ideal = a.admissible(p)
        s_r = s_ideal | a.within(a.compatible(p, rad))  # the verdict is not NEITHER
        direct = a.within(_sr_elements(ring, p, rad))
        tally.hypothesis += s_ideal.bit_count()

        def fail(i: int, clause: str) -> None:
            if clause == "variant":
                tally.fail(P=ring.render_bits(p), S=ring.render_bits(ms_all[i]),
                           clause="S-hyperideal fails the radical-target variant")
                return
            if s_ideal >> i & 1:
                verdict = SVerdict.S_HYPERIDEAL
            else:
                verdict = SVerdict.SR_ONLY if s_r >> i & 1 else SVerdict.NEITHER
            tally.fail(P=ring.render_bits(p), S=ring.render_bits(ms_all[i]),
                       clause="classifier disagrees with the direct scan",
                       verdict=verdict.value, direct=str(bool(direct >> i & 1)))

        tally.name_failures([("variant", s_ideal & ~direct), ("classifier", s_r ^ direct)], fail)


CATALOG: dict[str, tuple[str, object]] = {
    "T1.1": ("S-hyperideals avoid their multiplicative set", _check_t1_1),
    "T1.2": ("radicals of S-hyperideals stay S-hyperideals", _check_t1_2),
    "T1.3": ("residuals by outside sets stay S-hyperideals", _check_t1_3),
    "P2": ("disjoint primes are S-hyperideals and cover disjoint ideals", _check_p2),
    "T7": ("maximal S-hyperideals are prime", _check_t7),
    "T6": ("minimal primes over S-hyperideals are S-hyperideals", _check_t6),
    "T3": ("every proper hyperideal has a largest compatible MS", _check_t3),
    "T4": ("saturation is the least S-hyperideal over an ideal", _check_t4),
    "T5": ("substitution, residual, and saturation criteria agree", _check_t5),
    "TPRIMARY-EQ": ("complement-of-minimal-prime S-hyperideals are exactly the primaries", _check_tprimary_eq),
    "TDECOMP": ("saturations by prime complements decompose the ideal", _check_tdecomp),
    "PINT": ("intersections of S-hyperideals are S-hyperideals", _check_pint),
    "P8": ("all ideals are S-hyperideals iff S lies in the units", _check_p8),
    "T9-FWD": ("domains with S the nonzero elements admit only the zero S-hyperideal", _check_t9_fwd),
    "T10": ("identity-shifted ideals induce compatible multiplicative sets", _check_t10),
    "T12": ("minimal-prime-closed ideals avoid-all-minimal-primes S-hyperideals", _check_t12),
    "TAVOID": ("avoidance: covered ideals collapse into the S-hyperideal slot", _check_tavoid),
    "THOM-PRE": ("preimages along homomorphisms keep the property", _check_thom_pre),
    "THOM-IMG": ("images along epimorphisms keep the property", _check_thom_img),
    "TQUOT": ("quotient transfer matches the base verdict", _check_tquot),
    "TPROD": ("product verdicts match componentwise verdicts", _check_tprod),
    "FW-SR": ("the radical-target classifier is consistent", _check_fw_sr),
}


def check_theorem(ring: HyperRing, ident: str, mode: str = LENIENT) -> TheoremReport:
    """Run one catalog checker on one ring."""
    check_mode(mode)
    if ident not in CATALOG:
        raise UnknownTheorem(ident)
    _, checker = CATALOG[ident]
    tally = _Tally()
    start = time.perf_counter()
    checker(ring, mode, tally)
    elapsed = (time.perf_counter() - start) * 1000.0
    if tally.counterexamples:
        status = "counterexample"
    elif tally.hypothesis >= 1:
        status = "holds"
    else:
        status = "hypothesis-never-met"
    return TheoremReport(
        id=ident,
        status=status,
        instances_checked=tally.instances,
        hypothesis_met=tally.hypothesis,
        counterexamples=tuple(tally.counterexamples),
        mode=mode,
        runtime_ms=elapsed,
        truncated=tally.truncated,
    )


@dataclass
class SuiteResult:
    entries: list[tuple[str, TheoremReport]]
    aggregate: str  # counterexample | hypothesis-gap | truncated | pass, first match wins

    def to_json(self, include_timings: bool = False) -> str:
        rows = []
        for ring_name, report in self.entries:
            row = {"ring": ring_name}
            row.update(report.to_dict(include_timings=include_timings))
            rows.append(row)
        return json.dumps(rows, indent=2) + "\n"


def run_suite(
    rings: list[HyperRing],
    mode: str = LENIENT,
    only: list[str] | None = None,
) -> SuiteResult:
    """Full catalog x fixture matrix, merged in catalog order per ring."""
    check_mode(mode)
    idents = list(CATALOG) if only is None else list(only)
    for ident in idents:
        if ident not in CATALOG:
            raise UnknownTheorem(ident)
    entries: list[tuple[str, TheoremReport]] = []
    for ring in rings:
        for ident in idents:
            entries.append((ring.name, check_theorem(ring, ident, mode)))
    if any(r.status == "counterexample" for _, r in entries):
        aggregate = "counterexample"
    elif {r.id for _, r in entries if r.hypothesis_met} != set(idents):
        aggregate = "hypothesis-gap"
    else:
        aggregate = "truncated" if any(r.truncated for _, r in entries) else "pass"
    return SuiteResult(entries=entries, aggregate=aggregate)
