"""Scan oracles for the homomorphism clauses and the induced quotient tables.

``check_homomorphism`` and ``_induced_tables`` decide a whole row at a time
and name a failure from the differing entries of that row.  The scans here
are the key-by-key loops they replaced, kept verbatim: each sorted key of
the source in ascending order for the sum and product clauses, and each
sorted class key, over every choice of representatives, for the induced
tables.  The first failing key is the verdict.  Each sorted key is visited
once, so these are quick on rings of order 64 and less.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product

from hyperideal import HyperRingHom, Verdict
from hyperideal.errors import InducedOpIllDefined
from hyperideal.kernel import bit_members


def sum_scan(source, target, mapping) -> tuple[int, ...] | None:
    """The first sorted m-multiset whose sum's image differs from the sum of
    its images, or None."""
    hom = HyperRingHom(source, target, tuple(mapping), False)
    for key in combinations_with_replacement(range(source.order), source.m):
        if hom.image_bits(source.f_bits(key)) != target.f_bits([mapping[x] for x in key]):
            return key
    return None


def product_scan(source, target, mapping) -> tuple[int, ...] | None:
    """The first sorted n-multiset whose product's image differs from the
    product of its images, or None."""
    for key in combinations_with_replacement(range(source.order), source.n):
        if mapping[source.g_at(key)] != target.g_at(tuple(mapping[x] for x in key)):
            return key
    return None


def homomorphism_scan(source, target, mapping: tuple[int, ...]) -> HyperRingHom | Verdict:
    """``check_homomorphism`` on a valid mapping tuple: the identity clause,
    then the sum scan, then the product scan."""
    if mapping[source.one] != target.one:
        return Verdict(False, "identity", (source.one,), "the identity is not preserved")
    key = sum_scan(source, target, mapping)
    if key is not None:
        return Verdict(False, "hyperaddition", key, "images of the sum differ")
    key = product_scan(source, target, mapping)
    if key is not None:
        return Verdict(False, "multiplication", key, "images of the product differ")
    return HyperRingHom(source, target, tuple(mapping), len(set(mapping)) == target.order)


def induced_scan(members: list[list[int]], names: tuple[str, ...], arity: int, of_reps,
                 operation: str) -> list:
    """The values of the table of classes by sorted ``arity``-ary key, each
    ``of_reps`` of the representatives, which must not depend on them."""
    table = []
    for key in combinations_with_replacement(range(len(members)), arity):
        values = {of_reps(reps) for reps in product(*(members[c] for c in key))}
        if len(values) > 1:
            raise InducedOpIllDefined(
                f"{operation} of cosets {tuple(names[c] for c in key)} "
                "depends on the representatives"
            )
        (value,) = values
        table.append(value)
    return table


def induced_tables_scan(ring, coset_index: list[int], members: list[list[int]],
                        names: tuple[str, ...]) -> tuple[list, list]:
    """``_induced_tables`` by the scan: hyperaddition, then multiplication."""
    f_table = induced_scan(
        members, names, ring.m,
        lambda reps: frozenset(coset_index[z] for z in bit_members(ring.f_bits(reps))),
        "hyperaddition",
    )
    g_table = induced_scan(
        members, names, ring.n, lambda reps: coset_index[ring.g_at(reps)], "multiplication",
    )
    return f_table, g_table


def partitions(items):
    """Every partition of ``items`` into ascending classes, ordered by their
    least members."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in partitions(rest):
        yield [[first], *part]
        for i in range(len(part)):
            yield [*part[:i], [first, *part[i]], *part[i + 1:]]


def induced_outcomes(ring, induced_tables):
    """``induced_tables`` on every partition of the carrier: the tables, or
    the type and message of the error."""
    outcomes = []
    for part in partitions(list(range(ring.order))):
        part.sort()
        coset_index = [0] * ring.order
        for c, members in enumerate(part):
            for x in members:
                coset_index[x] = c
        names = tuple("+".join(ring.elements[x] for x in members) for members in part)
        try:
            outcomes.append(induced_tables(ring, coset_index, part, names))
        except Exception as exc:  # compared by type and message
            outcomes.append((type(exc).__name__, str(exc)))
    return outcomes
