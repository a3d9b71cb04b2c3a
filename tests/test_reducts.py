"""Every ring past (2,2) against its binary reducts, and ``power`` against
the n-ary power it replaced.

The reducts f2(a, b) = f(a, b, 0^(m-2)) and g2(a, b) = g(a, b, 1^(n-2)) are
read off each spec's multiset tables (``conftest.reduct_spec``), and lifts
are built by ``conftest.lift``.  Neither uses the kernel's ``_reduct`` or
``_fold``, with which ``verify_axioms`` decides these rings, so the
verifier is not checked against itself.

Everything asserted on a ring and its reducts is a theorem (Dörnte 1929,
Post 1940).  With 0 a scalar neutral element and 1 a scalar identity, a
Krasner (m,n)-hyperring is the left-fold lift of its reducts, which form a
Krasner (2,2)-hyperring with the same negation.  Then a set with 0 is
closed under f exactly when it is closed under f2, and it absorbs under g
exactly when it absorbs under g2, since g(x, r) = x·g2-fold(r) and the
folds of the r take every value; so the hyperideals of each mode are the
same masks.  A proper hyperideal is prime for g exactly when it is for g2
(pad with 1s one way, fold the other), so the primes, and the radicals as
their intersections, are equal.  A set with 1 has S^n in S exactly when it
has S^2 in S, so the MS with 1 are equal, and S^2 in S gives S^n in S, so
every MS of the reduct is an MS of the ring.  An MS without 1 may close
under g but not under g2, so the MS families need not be equal, and the
catalog statuses, which quantify over them, are left out: they agreed on
the order-3 census lifts, but that is an observation.
``test_catalog_statuses_match_the_reducts`` pins that observation on
``rings_past_2_2``, with the cells where only the reduct meets a hypothesis.
"""

from conftest import lift, reduct_spec, reduct_tables

from hyperideal import proper_hyperideals, quotient_ring, require_ring, run_suite
from hyperideal.errors import HyperIdealError
from hyperideal.kernel import MODES


def _quotients(ring) -> list:
    """The quotient rings of ``ring`` by its proper hyperideals of either
    mode, one per modulus, leaving out those that are not well defined."""
    moduli = {ideal.bits: ideal for mode in MODES for ideal in proper_hyperideals(ring, mode)}
    out = []
    for ideal in moduli.values():
        try:
            out.append(quotient_ring(ring, ideal).quotient)
        except HyperIdealError:
            pass
    return out


def _with_one(family, one: int) -> list:
    return [s for s in family if s >> one & 1]


def test_every_ring_past_2_2_is_the_lift_of_its_reducts(rings_past_2_2):
    """The spec is the lift of its reducts, the reducts verify as a (2,2)
    ring whose dense tables are the ring's ``f2`` and ``g2``, and the two
    rings have the same hyperideals, primes, radicals and MS with 1."""
    pe_squared = next(r for r in rings_past_2_2 if r.name == "paper-examplexpaper-example")
    quotients = _quotients(pe_squared)
    assert len(quotients) == 3  # the cosets of its 5 other lenient ideals overlap
    rings = [*rings_past_2_2, *quotients]
    for ring in rings:
        spec, a = ring.spec, ring.analysis
        reducts = reduct_spec(spec)
        lifted = lift(reducts, spec.m, spec.n)
        assert (lifted.f_table, lifted.g_table) == (spec.f_table, spec.g_table), ring.name
        binary = require_ring(reducts)
        b = binary.analysis
        assert (ring.f2, ring.g2) == (binary.f_dense, binary.g_dense) == reduct_tables(spec), ring.name
        assert ring.negation == binary.negation, ring.name
        for mode in MODES:
            ideals = a.ideals[mode]
            assert ideals == b.ideals[mode], (ring.name, mode)
            assert a.primes[mode] == b.primes[mode], (ring.name, mode)
            assert [a.radical[i, mode] for i in ideals] == [b.radical[i, mode] for i in ideals], (ring.name, mode)
        assert _with_one(a.ms_all, ring.one) == _with_one(b.ms_all, ring.one), ring.name
        assert set(b.ms_all) <= set(a.ms_all), ring.name


def block_power(ring, p: int, w: int) -> int:
    """The w-fold product of p by n-ary products only: the length is padded
    with the identity up to l*(n-1) + 1, and g is folded over blocks of
    n - 1 (the kernel's ``power`` before it folded g2)."""
    n, one = ring.n, ring.one
    if w <= n:
        return ring.g_at((p,) * w + (one,) * (n - w))
    blocks = -(-(w - 1) // (n - 1))
    length = blocks * (n - 1) + 1
    seq = [p] * w + [one] * (length - w)
    acc = ring.g_at(seq[:n])
    for idx in range(n, length, n - 1):
        acc = ring.g_at([acc, *seq[idx : idx + n - 1]])
    return acc


def test_power_folds_g2_as_the_block_padded_product_does(all_fixture_rings, rings_past_2_2):
    """``power(p, w)`` equals ``block_power`` for every p and w <= 3n."""
    for ring in [*all_fixture_rings, *rings_past_2_2]:
        for p in range(ring.order):
            for w in range(1, 3 * ring.n + 1):
                assert ring.power(p, w) == block_power(ring, p, w), (ring.name, p, w)


def test_a_2_2_ring_shares_its_tables_as_its_reducts(all_fixture_rings):
    rings = [ring for ring in all_fixture_rings if (ring.m, ring.n) == (2, 2)]
    assert rings
    for ring in rings:
        assert ring.f2 is ring.f_dense and ring.g2 is ring.g_dense, ring.name


# The cells, (theorem, ring, mode), where a ring past (2,2) reports
# hypothesis-never-met and its reduct holds.  TAVOID walks covers by ring.n
# hyperideals, so a ring of larger n needs more of them (lenient
# paper-example² meets the n-slot hypothesis); TPROD has a companion only at
# (2,2) and (3,3) (``TPROD_COMPANIONS``).
COVERAGE_CELLS = {
    *(("TAVOID", name, mode) for name in ("z2-as-33xz2-as-33", "z12-as-24", "z6-as-25") for mode in MODES),
    ("TAVOID", "paper-examplexz2-as-33", "strict"),
    ("TAVOID", "paper-examplexpaper-example", "strict"),
    *(("TPROD", name, mode) for name in ("z2-23", "z4-as-53") for mode in MODES),
}


def test_catalog_statuses_match_the_reducts(rings_past_2_2):
    """Every catalog status of a ring past (2,2) equals its reduct's in both
    modes, but for the coverage cells: a flip between holds and
    counterexample, or any other difference, fails."""
    differences = set()
    for ring in rings_past_2_2:
        reduct = require_ring(reduct_spec(ring.spec))
        for mode in MODES:
            ours, theirs = run_suite([ring], mode).entries, run_suite([reduct], mode).entries
            assert [r.id for _, r in ours] == [r.id for _, r in theirs]
            for (_, a), (_, b) in zip(ours, theirs):
                if a.status != b.status:
                    assert (a.status, b.status) == ("hypothesis-never-met", "holds"), (a.id, ring.name, mode)
                    differences.add((a.id, ring.name, mode))
    assert differences == COVERAGE_CELLS
