"""Loop oracles for the catalog checkers that the harness computes as mask
algebra over the multiplicative-set index.

Each checker here is the earlier loop body, kept verbatim (TAVOID without
its former instance cap, and the S-family and its maximal members computed
inline): it walks every (P, S) pair, every (P, S, Q) triple for T1.3, every
(S, P, Q) for T6, every (Q, S, R) for T4, every S with its S-hyperideals,
their maximal members (T7) and their pairs and triples (PINT), every (cover,
slot, P, S) for TAVOID and every tuple per pair for FW-SR, and decides each
instance with ``is_s``, ``residual``, ``saturation`` and ``classify_s``
instead of the index.  ``oracle_report`` runs one of them
through ``check_theorem``, so the tally, status and counterexample cap are
the engine's own.  The homomorphisms are the harness's, so both sides see
the same quotient rings.  T1.3 walks 2^(order-|P|) subsets per admissible
pair, so keep these to carriers of order 16 or less.
"""

from __future__ import annotations

from itertools import combinations

from hyperideal import harness
from hyperideal.analysis import RingAnalysis, SVerdict, extremal
from hyperideal.ideals import special_sets
from hyperideal.kernel import HyperRing


def _proper_s_ideal(a: RingAnalysis, bits: int, s_bits: int, mode: str) -> bool:
    """Full conclusion check: proper hyperideal plus substitution property."""
    return (
        bits != a.ring.full_bits
        and a.hyperideal[bits, mode].ok
        and a.is_s(bits, s_bits)
    )


def _ms_with_one(a: RingAnalysis) -> list[int]:
    return [s for s in a.ms_all if s >> a.ring.one & 1]


def _s_family(a: RingAnalysis, s_bits: int, mode: str) -> list[int]:
    """Proper hyperideals satisfying the substitution property for S."""
    return [b for b in a.proper(mode) if a.is_s(b, s_bits)]


def _direct_sr_scan(ring: HyperRing, p_bits: int, s_bits: int, mode: str) -> bool:
    rad = ring.analysis.radical[p_bits, mode]
    for tup, prod, subs in ring.g_tuples:
        if not (p_bits >> prod & 1):
            continue
        for i in range(ring.n):
            if s_bits >> tup[i] & 1 and not (rad >> subs[i] & 1):
                return False
    return True


def _check_t1_1(ring, mode, tally) -> None:
    a = ring.analysis
    for p in a.proper(mode):
        for s in a.ms_all:
            tally.instances += 1
            if not a.is_s(p, s):
                continue
            tally.hypothesis += 1
            if p & s:
                tally.fail(P=ring.render_bits(p), S=ring.render_bits(s),
                           overlap=ring.render_bits(p & s))


def _check_t1_2(ring, mode, tally) -> None:
    a = ring.analysis
    for p in a.proper(mode):
        for s in a.ms_all:
            tally.instances += 1
            if not a.is_s(p, s):
                continue
            rad = a.radical[p, mode]
            if rad == ring.full_bits:
                continue  # statement presumes a proper radical
            tally.hypothesis += 1
            if not _proper_s_ideal(a, rad, s, mode):
                tally.fail(P=ring.render_bits(p), S=ring.render_bits(s),
                           radical=ring.render_bits(rad))


def _check_t1_3(ring, mode, tally) -> None:
    a = ring.analysis
    for p in a.proper(mode):
        comp = ring.full_bits & ~p
        comp_members = [q for q in range(ring.order) if comp >> q & 1]
        singles = {q: a.residual(p, 1 << q) for q in comp_members}
        for s in a.ms_all:
            if not a.is_s(p, s):
                continue
            verdicts: dict[int, bool] = {}
            inter: dict[int, int] = {0: ring.full_bits}
            sub = comp
            subsets = []
            while sub:
                subsets.append(sub)
                sub = (sub - 1) & comp
            for q_bits in sorted(subsets):
                tally.instances += 1
                tally.hypothesis += 1
                low = q_bits & -q_bits
                pq = inter[q_bits & (q_bits - 1)] & singles[low.bit_length() - 1]
                inter[q_bits] = pq
                ok = verdicts.get(pq)
                if ok is None:
                    ok = _proper_s_ideal(a, pq, s, mode)
                    verdicts[pq] = ok
                if not ok:
                    tally.fail(P=ring.render_bits(p), S=ring.render_bits(s),
                               Q=ring.render_bits(q_bits),
                               residual=ring.render_bits(pq))


def _check_p2(ring, mode, tally) -> None:
    a = ring.analysis
    primes = a.primes[mode]
    for s in a.ms_all:
        for p in primes:
            if p & s:
                continue
            tally.instances += 1
            tally.hypothesis += 1
            if not a.is_s(p, s):
                tally.fail(clause="prime-disjoint", P=ring.render_bits(p),
                           S=ring.render_bits(s))
        for q in a.proper(mode):
            if q & s:
                continue
            tally.instances += 1
            tally.hypothesis += 1
            cover = next(
                (p for p in primes
                 if not (q & ~p) and not (p & s) and a.is_s(p, s)),
                None,
            )
            if cover is None:
                tally.fail(clause="prime-extension", Q=ring.render_bits(q),
                           S=ring.render_bits(s))


def _check_t7(ring, mode, tally) -> None:
    a = ring.analysis
    for s in _ms_with_one(a):
        for p in extremal(_s_family(a, s, mode), maximal=True):
            tally.instances += 1
            tally.hypothesis += 1
            if not a.prime[p].ok:
                tally.fail(P=ring.render_bits(p), S=ring.render_bits(s))


def _check_t6(ring, mode, tally) -> None:
    a = ring.analysis
    for s in _ms_with_one(a):
        for p in a.proper(mode):
            if not a.is_s(p, s):
                continue
            for q in a.minimal_primes_over(p, mode):
                tally.instances += 1
                tally.hypothesis += 1
                if not a.is_s(q, s):
                    tally.fail(P=ring.render_bits(p), S=ring.render_bits(s),
                               Q=ring.render_bits(q))


def _check_t4(ring, mode, tally) -> None:
    a = ring.analysis
    for q in a.ideals[mode]:
        for s in _ms_with_one(a):
            tally.instances += 1
            sat = a.saturation(q, s)
            if q & ~sat:
                tally.fail(Q=ring.render_bits(q), S=ring.render_bits(s),
                           clause="saturation does not contain the ideal")
                continue
            if sat == ring.full_bits:
                continue  # vacuous: no proper saturation to be least
            tally.hypothesis += 1
            if not _proper_s_ideal(a, sat, s, mode):
                tally.fail(Q=ring.render_bits(q), S=ring.render_bits(s),
                           saturation=ring.render_bits(sat),
                           clause="saturation is not an S-hyperideal")
                continue
            if a.saturation(sat, s) != sat:
                tally.fail(Q=ring.render_bits(q), S=ring.render_bits(s),
                           clause="saturation is not idempotent")
            for r in a.proper(mode):
                if not (q & ~r) and a.is_s(r, s) and sat & ~r:
                    tally.fail(Q=ring.render_bits(q), S=ring.render_bits(s),
                               smaller=ring.render_bits(r),
                               clause="a smaller S-hyperideal contains the ideal")
                    break


def _check_t5(ring, mode, tally) -> None:
    a = ring.analysis
    for p in a.proper(mode):
        for s in a.ms_all:
            tally.instances += 1
            tally.hypothesis += 1
            direct = a.is_s(p, s)
            residual_fixed = all(
                a.residual(p, 1 << t) == p
                for t in range(ring.order)
                if s >> t & 1
            )
            saturation_fixed = a.saturation(p, s) == p
            if not (direct == residual_fixed == saturation_fixed):
                tally.fail(P=ring.render_bits(p), S=ring.render_bits(s),
                           direct=str(direct), residual=str(residual_fixed),
                           saturation=str(saturation_fixed))


def _check_pint(ring, mode, tally) -> None:
    a = ring.analysis
    for s in a.ms_all:
        family = _s_family(a, s, mode)
        for size in (2, 3):
            for combo in combinations(family, size):
                tally.instances += 1
                tally.hypothesis += 1
                inter = ring.full_bits
                for p in combo:
                    inter &= p
                if not _proper_s_ideal(a, inter, s, mode):
                    tally.fail(S=ring.render_bits(s),
                               members=",".join(ring.render_bits(p) for p in combo),
                               intersection=ring.render_bits(inter))


def _check_p8(ring, mode, tally) -> None:
    a = ring.analysis
    units = special_sets(ring, mode).units.bits
    for s in _ms_with_one(a):
        tally.instances += 1
        tally.hypothesis += 1
        lhs = all(a.is_s(p, s) for p in a.proper(mode))
        rhs = not (s & ~units)
        if lhs != rhs:
            tally.fail(S=ring.render_bits(s), all_ideals=str(lhs),
                       inside_units=str(rhs))


def _check_thom_pre(ring, mode, tally) -> None:
    a = ring.analysis
    for hom in harness._transfers(ring, mode):
        target = hom.target
        ta = target.analysis
        for s in a.ms_all:
            img_s = hom.image_bits(s)
            if not ta.ms[img_s].ok:
                tally.instances += 1
                tally.fail(anomaly="image of an MS is not an MS",
                           S=ring.render_bits(s), hom=target.name)
                continue
            for q in ta.proper(mode):
                tally.instances += 1
                if not ta.is_s(q, img_s):
                    continue
                tally.hypothesis += 1
                pre = hom.preimage_bits(q)
                if not _proper_s_ideal(a, pre, s, mode):
                    tally.fail(hom=target.name, Q=target.render_bits(q),
                               S=ring.render_bits(s),
                               preimage=ring.render_bits(pre))


def _check_thom_img(ring, mode, tally) -> None:
    a = ring.analysis
    for hom in harness._transfers(ring, mode):
        if not hom.surjective:
            continue
        target = hom.target
        ta = target.analysis
        ker = hom.preimage_bits(1 << target.zero)
        for s in a.ms_all:
            img_s = hom.image_bits(s)
            if not ta.ms[img_s].ok:
                continue
            for p in a.proper(mode):
                tally.instances += 1
                if ker & ~p:
                    continue
                if not a.is_s(p, s):
                    continue
                tally.hypothesis += 1
                img = hom.image_bits(p)
                if not _proper_s_ideal(ta, img, img_s, mode):
                    tally.fail(hom=target.name, P=ring.render_bits(p),
                               S=ring.render_bits(s),
                               image=target.render_bits(img))


def _check_tquot(ring, mode, tally) -> None:
    a = ring.analysis
    for modulus in a.proper(mode):
        proj = harness._transfer(ring, modulus)
        if proj is None:
            continue
        target = proj.target
        ta = target.analysis
        for s in a.ms_all:
            img_s = proj.image_bits(s)
            if not ta.ms[img_s].ok:
                continue
            for upper in a.proper(mode):
                if modulus & ~upper:
                    continue
                tally.instances += 1
                tally.hypothesis += 1
                lhs = a.is_s(upper, s)
                img = proj.image_bits(upper)
                rhs = _proper_s_ideal(ta, img, img_s, mode)
                if lhs != rhs:
                    tally.fail(modulus=ring.render_bits(modulus),
                               Q=ring.render_bits(upper),
                               S=ring.render_bits(s),
                               base=str(lhs), quotient=str(rhs))


def _check_tavoid(ring, mode, tally) -> None:
    a = ring.analysis
    pool = a.ideals[mode]
    n = ring.n
    for combo in combinations(pool, n):
        union = 0
        for b in combo:
            union |= b
        for t in range(n):
            pt = combo[t]
            if pt == ring.full_bits:
                continue
            rest = 0
            for j in range(n):
                if j != t:
                    rest |= combo[j]
            for p in pool:
                if p & ~union:
                    continue
                if not (p & ~rest):
                    continue  # covered without the slot: hypothesis fails
                for s in _ms_with_one(a):
                    tally.instances += 1
                    if any(not (combo[j] & s) for j in range(n) if j != t):
                        continue
                    if not a.is_s(pt, s):
                        continue
                    tally.hypothesis += 1
                    if p & ~pt:
                        tally.fail(P=ring.render_bits(p), S=ring.render_bits(s),
                                   slot=ring.render_bits(pt),
                                   cover=",".join(ring.render_bits(b) for b in combo))


def _check_fw_sr(ring, mode, tally) -> None:
    a = ring.analysis
    for p in a.proper(mode):
        for s in a.ms_all:
            tally.instances += 1
            sr_ok = _direct_sr_scan(ring, p, s, mode)
            verdict = a.classify_s(p, s, mode)
            if verdict is SVerdict.S_HYPERIDEAL:
                tally.hypothesis += 1
                if not sr_ok:
                    tally.fail(P=ring.render_bits(p), S=ring.render_bits(s),
                               clause="S-hyperideal fails the radical-target variant")
            if (verdict is not SVerdict.NEITHER) != sr_ok:
                tally.fail(P=ring.render_bits(p), S=ring.render_bits(s),
                           clause="classifier disagrees with the direct scan",
                           verdict=verdict.value, direct=str(sr_ok))


ORACLES = {
    "T1.1": _check_t1_1,
    "T1.2": _check_t1_2,
    "T1.3": _check_t1_3,
    "P2": _check_p2,
    "T7": _check_t7,
    "T6": _check_t6,
    "T4": _check_t4,
    "T5": _check_t5,
    "PINT": _check_pint,
    "P8": _check_p8,
    "THOM-PRE": _check_thom_pre,
    "THOM-IMG": _check_thom_img,
    "TQUOT": _check_tquot,
    "TAVOID": _check_tavoid,
    "FW-SR": _check_fw_sr,
}


class CountingTally(harness._Tally):
    """A tally that also lists the clause of every failure (None for a
    payload without one), past the counterexample cap too."""

    def __init__(self) -> None:
        super().__init__()
        self.failures: list[str | None] = []

    def fail(self, **payload: str) -> None:
        self.failures.append(payload.get("clause"))
        super().fail(**payload)


def oracle_report(monkeypatch, ring, ident: str, mode: str):
    """``check_theorem`` with the loop oracle in place of the engine's
    checker; returns the report and the clauses of the failures seen."""
    tallies = []

    def make_tally():
        tallies.append(CountingTally())
        return tallies[-1]

    with monkeypatch.context() as m:
        m.setitem(harness.CATALOG, ident, (harness.CATALOG[ident][0], ORACLES[ident]))
        m.setattr(harness, "_Tally", make_tally)
        report = harness.check_theorem(ring, ident, mode)
    return report, tallies[0].failures
