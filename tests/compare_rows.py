"""The quotients and projections of the constructions, and the axiom
reports of the verifier, against their scans, on the larger rings that the
benchmark builds and past a byte.  CI runs it.

    PYTHONPATH=src python tests/compare_rows.py

``quotient_ring`` decides the independence of representatives by rows, as
``check_homomorphism`` decides its clauses (``constructions._differences``),
and ``verify_axioms`` decides associativity, reversibility and
distributivity by plane passes that name their own witnesses.  For z64, z2^5,
z4xz8, paper-example^2 and paper-example^2xz2-as-33, in both modes, the
quotient by every proper hyperideal is built twice: as it is, and with
``_induced_tables`` replaced by the key-by-key scan of
``tests/construction_oracle.py``.  The specs, cosets and projections must be
equal, or the errors equal in type and message.  ``quotient_ring`` builds
each projection without checking it, so the projection must equal both
``check_homomorphism`` and the oracle's scan of its mapping.  Each quotient
spec, like each ring's own spec, must get the same ``AxiomReport`` with
``kernel._BYTE_IDS`` at its default and at 0, where every pass composes
lists, and its entries must equal the multiset scans of
``tests/axiom_oracle.py``.  ``verify_axioms`` decides a passing spec past
(2,2) on its binary reducts, and a single-valued (2,2) spec on additive
generators, so for each passing spec the passes alone are also run on its
own tables, composed by bytes and by lists, and must give the same report
and negation.  Every ring and built quotient, and paper-example^3,
must keep as ``f2`` and ``g2`` the binary reducts read off its spec's
multiset tables (``conftest.reduct_tables``).  None of these quotients is
refused as representative-dependent, so every partition of z8 (4,140) also
goes through ``_induced_tables`` and the scan, compared by tables or by
error type and message.  paper-example^3, which ``verify_axioms`` decides
on its reducts, and z64, z2^5 and z4xz8, which it proves on additive
generators, are verified by ``verify_axioms`` and by the passes alone, and
both times are printed.  Last, z257 and z257 with f(1,2) = {3,4}, past a
byte, are verified by the plane passes alone, composed by lists: the first must
pass, and each failing entry of the second must carry a witness that
``axiom_oracle.NaiveOracle`` confirms (the scans would take about 26 s).
Each z257 line gives the total time and each entry's ``timings_s``.
The script prints one line per ring and mode, then the partitions and
their refusals, then paper-example^3, z64, z2^5 and z4xz8, then the two
z257 specs, and exits 1
on any difference, if
no partition is refused, or on a wrong z257 report.  It takes about 10 s
on a 2-CPU host, most of it the scans of z64 and of
paper-example^2xz2-as-33 and the two z257 verifications.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

from axiom_oracle import NaiveOracle, nary_route, spec_scans, z257_spec
from conftest import reduct_tables
from construction_oracle import homomorphism_scan, induced_outcomes, induced_tables_scan
from hyperideal import (
    AxiomReport,
    HyperRing,
    check_homomorphism,
    constructions,
    cyclic_ring,
    fixtures,
    kernel,
    product_ring,
    proper_hyperideals,
    quotient_ring,
    verify_axioms,
)
from hyperideal.errors import HyperIdealError
from hyperideal.kernel import AXIOM_ORDER


@contextmanager
def patched(module, name: str, value):
    saved = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, saved)


def report(spec) -> AxiomReport:
    result = verify_axioms(spec)
    return result if isinstance(result, AxiomReport) else result.axiom_report


def routes_agree(spec) -> bool:
    """For a spec that verifies, whether the passes alone, in both
    compositions, give the report and negation of ``verify_axioms``, which
    decides a spec past (2,2) on its binary reducts and a single-valued
    (2,2) spec on additive generators; True for a spec that fails."""
    ring = verify_axioms(spec)
    if isinstance(ring, AxiomReport):
        return True
    with patched(kernel, "_BYTE_IDS", 0):
        by_lists = nary_route(spec)
    return nary_route(spec) == by_lists == (ring.axiom_report, ring.negation)


def reports_agree(spec) -> bool:
    """Whether the report composed by bytes equals the one composed by lists
    and each of its entries the multiset scan, and the passes alone agree
    with ``verify_axioms`` on a passing spec."""
    by_bytes = report(spec)
    with patched(kernel, "_BYTE_IDS", 0):
        by_lists = report(spec)
    return by_lists == by_bytes and routes_agree(spec) and all(
        by_bytes.entries[family] == scan for family, scan in spec_scans(spec).items()
    )


def reducts_agree(ring) -> bool:
    """Whether the ring's ``f2`` and ``g2`` are the reducts read off its spec."""
    return (ring.f2, ring.g2) == reduct_tables(ring.spec)


def both_routes(ring) -> bool:
    """Verifies ``ring``'s spec by ``verify_axioms``, which decides it on
    its binary reducts or on additive generators, and by the passes alone;
    prints both times and returns whether it passes, ``routes_agree`` and
    ``reducts_agree``."""
    start = time.perf_counter()
    verified = isinstance(verify_axioms(ring.spec), HyperRing)
    routed = time.perf_counter() - start
    start = time.perf_counter()
    nary_route(ring.spec)
    passes = time.perf_counter() - start
    equal = verified and routes_agree(ring.spec) and reducts_agree(ring)
    print(f"{ring.name}: verify_axioms {routed * 1000:.1f} ms, passes alone {passes * 1000:.1f} ms  {equal}",
          flush=True)
    return equal


def past_a_byte() -> int:
    """Verifies z257 and z257 with f(1,2) = {3,4}; prints each and returns
    the number whose report is wrong."""
    differ = 0
    for label, f_change in (("z257", {}), ("z257 with f(1,2) = {3,4}", {(1, 2): frozenset({3, 4})})):
        spec = z257_spec(f_change)
        start = time.perf_counter()
        verified = report(spec)
        took = time.perf_counter() - start
        oracle = NaiveOracle(spec)
        failures = verified.failures()
        right = bool(failures) == bool(f_change) and all(
            oracle.witness_violates(family, verified.entries[family].witness) for family in failures
        )
        differ += not right
        entries = ", ".join(f"{family} {s:.3f}" for family, s in zip(AXIOM_ORDER, verified.timings_s))
        print(f"{label}: {took:.2f} s ({entries}), failing {', '.join(failures) or 'none'}  {right}", flush=True)
    return differ


def quotient(ring, ideal, mode):
    """The quotient and what must not depend on the check that decided: the
    spec, the cosets and the projection, or the error's type and message."""
    try:
        q = quotient_ring(ring, ideal, mode)
    except HyperIdealError as exc:
        return None, (type(exc).__name__, str(exc))
    return q, (q.quotient.spec, q.cosets, q.projection.mapping)


def rings() -> dict:
    z2, pe, z2_33 = fixtures("z2"), fixtures("paper-example"), fixtures("z2-as-33")
    return {
        "z64": cyclic_ring(64),
        "z2^5": product_ring([z2] * 5, name="z2^5"),
        "z4xz8": product_ring([cyclic_ring(4), cyclic_ring(8)], name="z4xz8"),
        "paper-example^2": product_ring([pe, pe], name="paper-example^2"),
        "paper-example^2xz2-as-33": product_ring([pe, pe, z2_33], name="paper-example^2xz2-as-33"),
    }


def compare(ring, mode: str, scanned: dict) -> tuple[int, int, int]:
    """Differences, quotients built and quotients refused, over every proper
    hyperideal of ``ring`` in ``mode``.  The quotient by an ideal does not
    depend on the mode, so ``scanned`` keeps the report comparison of each
    ideal's quotient for the other mode."""
    differ = built = refused = 0
    for ideal in proper_hyperideals(ring, mode):
        q, by_rows = quotient(ring, ideal, mode)
        with patched(constructions, "_induced_tables", induced_tables_scan):
            _, by_scan = quotient(ring, ideal, mode)
        differ += by_scan != by_rows
        if q is None:
            refused += 1
            continue
        built += 1
        mapping = q.projection.mapping
        hom = check_homomorphism(ring, q.quotient, mapping)
        differ += hom != q.projection or homomorphism_scan(ring, q.quotient, mapping) != hom
        differ += not reducts_agree(q.quotient)
        if ideal.bits not in scanned:
            scanned[ideal.bits] = reports_agree(q.quotient.spec)
        differ += not scanned[ideal.bits]
    return differ, built, refused


def main() -> int:
    differ = 0
    print(f"{'ring':<25} {'mode':<8} {'quotients':>9} {'refused':>7} {'s':>6}  equal")
    larger = rings()
    for name, ring in larger.items():
        start = time.perf_counter()
        equal = reports_agree(ring.spec) and reducts_agree(ring)
        differ += not equal
        print(f"{name:<25} {'(axioms)':<8} {'':>9} {'':>7} {time.perf_counter() - start:>6.2f}  {equal}",
              flush=True)
        scanned: dict[int, bool] = {}
        for mode in ("lenient", "strict"):
            start = time.perf_counter()
            count, built, refused = compare(ring, mode, scanned)
            differ += count
            print(f"{name:<25} {mode:<8} {built:>9} {refused:>7} "
                  f"{time.perf_counter() - start:>6.2f}  {count == 0}", flush=True)
    start = time.perf_counter()
    by_rows = induced_outcomes(fixtures("z8"), constructions._induced_tables)
    equal = induced_outcomes(fixtures("z8"), induced_tables_scan) == by_rows
    refused = sum(outcome[0] == "InducedOpIllDefined" for outcome in by_rows)
    print(f"z8 partitions: {len(by_rows)}, refused as representative-dependent: {refused}, "
          f"{time.perf_counter() - start:.2f} s  {equal}")
    pe = fixtures("paper-example")
    differ += not both_routes(product_ring([pe, pe, pe], name="paper-example^3"))
    differ += sum(not both_routes(larger[name]) for name in ("z64", "z2^5", "z4xz8"))
    differ += past_a_byte()
    return 1 if differ or not equal or not refused else 0


if __name__ == "__main__":
    sys.exit(main())
