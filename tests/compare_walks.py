"""By hand: the Close-by-One walk of ``RingAnalysis.closed_sets`` against the
seen-set walk it replaced, on rings too large for the power-set oracles.

    PYTHONPATH=src python tests/compare_walks.py [ring ...]   # default: 36 40 48

A ring is ``k`` for Z_k, ``k-as-33`` for the (3,3) lift of Z_k
(``conftest.lift``), or ``paper-example^2xz2-as-33``.  For each ring and
each closure kind (multiplicative sets, lenient and strict hyperideals), both
walks run with the walk budget lifted; the script prints the family size,
each walk's table lookups and time, and whether the two families are equal
set for set.  It exits 1 on any difference.  The seen-set walk extends every
closed set by every missing element and keeps what it has found: on Z_48 it
makes 287M lookups, about a minute on a 2-CPU host.  It calls ``close``
without the powers S^2, ..., S^(n-1) of the set it extends, so on the (3,3)
rings it also checks that ``close`` rebuilds them.
"""

from __future__ import annotations

import sys
import time

from conftest import lift
from hyperideal import analysis, cyclic_ring, fixtures, product_ring, require_ring
from hyperideal.analysis import MS, LookupBudget, bit_members


def seen_set_walk(ring, kind: str) -> tuple[tuple[int, ...], int]:
    """The closed sets of the kind, reached by adding each missing element
    to each closed set found, and the lookups this took."""
    close = ring.analysis.close
    budget = LookupBudget(f"seen-set walk on {ring.name}")
    bottom = 0 if kind == MS else close(0, 1 << ring.zero, kind, budget)
    seen, stack = {bottom}, [bottom]
    while stack:
        current = stack.pop()
        members = bit_members(current)
        for x in bit_members(ring.full_bits & ~current):
            found = close(current, 1 << x, kind, budget, members + [x])
            if found not in seen:
                seen.add(found)
                stack.append(found)
    return tuple(sorted(seen)), budget.spent


class CountingBudget(LookupBudget):
    """A LookupBudget that keeps the last one made, to read its lookups."""

    last: LookupBudget | None = None

    def __init__(self, walk: str):
        super().__init__(walk)
        CountingBudget.last = self


def ring_for(arg: str):
    """The ring an argument names (see the module docstring)."""
    if arg == "paper-example^2xz2-as-33":
        pe = fixtures("paper-example")
        return product_ring([pe, pe, fixtures("z2-as-33")], name=arg)
    k, lifted, _ = arg.partition("-as-33")
    ring = cyclic_ring(int(k))
    return require_ring(lift(ring.spec, 3, 3)) if lifted else ring


def main(argv: list[str]) -> int:
    analysis.WALK_BUDGET = 1 << 62
    analysis.LookupBudget = CountingBudget
    differ = 0
    print(f"{'ring':<24} {'kind':<8} {'sets':>7} {'seen-set lookups':>17} {'s':>7} "
          f"{'Close-by-One lookups':>21} {'s':>6}  equal")
    for ring in map(ring_for, argv or ["36", "40", "48"]):
        for kind in (MS, "lenient", "strict"):
            start = time.perf_counter()
            old, old_spent = seen_set_walk(ring, kind)
            old_s = time.perf_counter() - start
            start = time.perf_counter()
            new = ring.analysis.closed_sets(kind)
            new_s = time.perf_counter() - start
            equal = new == old
            differ += not equal
            print(f"{ring.name:<24} {kind:<8} {len(new):>7,} {old_spent:>17,} {old_s:>7.2f} "
                  f"{CountingBudget.last.spent:>21,} {new_s:>6.2f}  {equal}", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
