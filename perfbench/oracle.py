"""Expected outputs, computed from the benchmark's own models.

Every function here follows the definitions directly over element names and
never imports ``hyperideal``.  Each ``check_*`` returns a list of problems;
an empty list means the engine's output is correct.
"""

from __future__ import annotations

import json
from itertools import combinations_with_replacement, product
from math import comb, gcd

from models import Model, cyclic, product_model

CATALOG_IDS = (
    "T1.1", "T1.2", "T1.3", "P2", "T7", "T6", "T3", "T4", "T5", "TPRIMARY-EQ",
    "TDECOMP", "PINT", "P8", "T9-FWD", "T10", "T12", "TAVOID", "THOM-PRE",
    "THOM-IMG", "TQUOT", "TPROD", "FW-SR",
)
CLEAN_STATUSES = ("holds", "hypothesis-never-met")


# ---------------------------------------------------------------------------
# expectations


def divisor_ideals(k: int) -> set[frozenset[str]]:
    """The hyperideals of Z_k: dZ_k for every divisor d of k."""
    return {frozenset(str(x) for x in range(0, k, d)) for d in range(1, k + 1) if k % d == 0}


def cyclic_primes(k: int) -> set[frozenset[str]]:
    """pZ_k for every prime p dividing k."""
    primes = [p for p in range(2, k + 1) if k % p == 0 and all(p % q for q in range(2, p))]
    return {frozenset(str(x) for x in range(0, k, p)) for p in primes}


def cyclic_units(k: int) -> frozenset[str]:
    return frozenset(str(x) for x in range(k) if gcd(x, k) == 1)


def _negation(model: Model) -> dict[str, str]:
    pad = (model.zero,) * (model.m - 2)
    return {
        x: next(y for y in model.elements if model.zero in model.add((x, y, *pad)))
        for x in model.elements
    }


def naive_ideals(model: Model, mode: str) -> set[frozenset[str]]:
    """Every subset that holds zero, is closed under the hyperaddition,
    absorbs the multiplication and, in strict mode, is closed under negation.
    Exhaustive over all 2^order subsets, so only for small factors."""
    neg = _negation(model)
    found = set()
    for bits in range(1, 1 << model.order):
        ideal = frozenset(x for i, x in enumerate(model.elements) if bits >> i & 1)
        if model.zero not in ideal:
            continue
        if any(not model.add(t) <= ideal for t in combinations_with_replacement(sorted(ideal), model.m)):
            continue
        if any(model.mul((x, *rest)) not in ideal
               for x in ideal
               for rest in combinations_with_replacement(model.elements, model.n - 1)):
            continue
        if mode == "strict" and any(neg[x] not in ideal for x in ideal):
            continue
        found.add(ideal)
    return found


def product_sets(factor_sets: list[set[frozenset[str]]]) -> set[frozenset[str]]:
    """Componentwise products of one set chosen from each factor family."""
    return {
        frozenset("|".join(c) for c in product(*(sorted(s) for s in choice)))
        for choice in product(*factor_sets)
    }


def naive_units(model: Model) -> frozenset[str]:
    pad = (model.one,) * (model.n - 2)
    return frozenset(
        u for u in model.elements
        if any(model.mul((u, v, *pad)) == model.one for v in model.elements)
    )


def is_prime(model: Model, ideal: frozenset[str]) -> bool:
    """Proper, and a product lands inside only when some factor does."""
    if len(ideal) == model.order:
        return False
    return all(
        model.mul(t) not in ideal or any(x in ideal for x in t)
        for t in combinations_with_replacement(model.elements, model.n)
    )


def multiplicative_sets(model: Model) -> set[frozenset[str]]:
    """Every non-empty subset closed under the multiplication, by brute force
    over the whole power set.

    Subset number s holds element i when bit i of s is set.  ``has[i]`` is a
    2^order-bit integer whose bit s is set when subset s holds element i, so
    one pass over the size-n multisets filters all subsets at once.
    """
    order = model.order
    size = 1 << order
    has = []
    for i in range(order):
        block = 1 << i
        pattern = ((1 << block) - 1) << block
        period = 2 * block
        while period < size:
            pattern |= pattern << period
            period *= 2
        has.append(pattern)
    index = {x: i for i, x in enumerate(model.elements)}
    everything = (1 << size) - 1
    closed = everything
    for key in combinations_with_replacement(range(order), model.n):
        holds_key = everything
        for i in set(key):
            holds_key &= has[i]
        product_bit = has[index[model.mul(tuple(model.elements[i] for i in key))]]
        closed &= ~holds_key | product_bit
    closed &= ~1  # the empty subset
    found = set()
    while closed:
        low = closed & -closed
        s = low.bit_length() - 1
        found.add(frozenset(model.elements[i] for i in range(order) if s >> i & 1))
        closed ^= low
    return found


class LargeRingExpectation:
    """What ``ideals`` and ``multiplicative`` must report for one document."""

    def __init__(self, model: Model, ideals: dict[str, set[frozenset[str]]],
                 primes: set[frozenset[str]] | None, units: frozenset[str]):
        self.model = model
        self.ideals = ideals
        self.units = units
        self._primes = primes
        self._ms = None

    def primes(self, mode: str) -> set[frozenset[str]]:
        if self._primes is not None:
            return self._primes
        return {p for p in self.ideals[mode] if is_prime(self.model, p)}

    @property
    def ms(self) -> set[frozenset[str]]:
        if self._ms is None:
            self._ms = multiplicative_sets(self.model)
        return self._ms


def cyclic_expectation(k: int) -> LargeRingExpectation:
    ideals = divisor_ideals(k)
    return LargeRingExpectation(cyclic(k), {"lenient": ideals, "strict": ideals},
                                cyclic_primes(k), cyclic_units(k))


def product_expectation(factors: list[Model], name: str) -> LargeRingExpectation:
    """Hyperideals and units of a product are componentwise products of the
    factors' ones, which come from the naive predicates."""
    ideals = {mode: product_sets([naive_ideals(f, mode) for f in factors])
              for mode in ("lenient", "strict")}
    (units,) = product_sets([{naive_units(f)} for f in factors])
    return LargeRingExpectation(product_model(factors, name), ideals, None, units)


# ---------------------------------------------------------------------------
# output checks


def _parse_set(text: str) -> frozenset[str]:
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"not a set literal: {text!r}")
    inner = text[1:-1]
    return frozenset(inner.split(",")) if inner else frozenset()


def check_ideals_report(text: str, exp: LargeRingExpectation, mode: str) -> list[str]:
    """The text report of ``hyperideal ideals``."""
    lines = text.splitlines()
    problems = []
    if not lines or lines[0] != f"ring: {exp.model.name} mode: {mode}":
        return [f"unexpected header {lines[:1]}"]
    ideals, primes, units = set(), set(), None
    for line in lines[1:]:
        head, _, rest = line.partition(" ")
        if line.startswith("units "):
            units = _parse_set(rest)
        elif line.startswith(("jacobson ", "minimal-primes ")):
            continue
        else:
            ideal = _parse_set(head)
            ideals.add(ideal)
            if rest.startswith("proper") and "prime" in rest.split()[1:]:
                primes.add(ideal)
    if ideals != exp.ideals[mode]:
        problems.append(f"{mode} hyperideals: got {len(ideals)}, expected {len(exp.ideals[mode])}")
    if primes != exp.primes(mode):
        problems.append(f"{mode} primes differ: got {sorted(map(sorted, primes))}")
    if units != exp.units:
        problems.append(f"units: got {units}, expected {exp.units}")
    return problems


def check_ms_list(text: str, exp: LargeRingExpectation) -> list[str]:
    got = [frozenset(names) for names in json.loads(text)]
    if len(got) != len(set(got)):
        return ["multiplicative sets listed twice"]
    if set(got) != exp.ms:
        return [f"multiplicative sets: got {len(got)}, expected {len(exp.ms)}"]
    return []


def check_suite_json(text: str, rings: list[tuple[str, tuple[str, ...]]], mode: str) -> list[str]:
    """``theorems --format json``: one row per (ring, id) in catalog order,
    every cell ``holds`` or ``hypothesis-never-met``, none truncated."""
    rows = json.loads(text)
    expected = [(name, ident) for name, ids in rings for ident in ids]
    got = [(row.get("ring"), row.get("id")) for row in rows]
    if got != expected:
        return [f"suite rows {got[:3]}... differ from {expected[:3]}..."]
    problems = []
    for row in rows:
        if (row["status"] not in CLEAN_STATUSES or row["truncated"]
                or row["counterexamples"] or row["mode"] != mode):
            problems.append(f"{row['ring']} {row['id']}: {row['status']}"
                            f"{' truncated' if row['truncated'] else ''}")
    return problems


def check_document(text: str, model: Model, name: str | None = None) -> list[str]:
    """A serialized ring document must list exactly the model's elements and
    tables: modular or componentwise arithmetic, one entry per multiset."""
    doc = json.loads(text)
    problems = []
    if set(doc["elements"]) != set(model.elements) or len(doc["elements"]) != model.order:
        return ["elements differ"]
    if (doc["m"], doc["n"], doc["zero"], doc["one"]) != (model.m, model.n, model.zero, model.one):
        problems.append("arity, zero or one differ")
    if name is not None and doc["name"] != name:
        problems.append(f"name {doc['name']!r}, expected {name!r}")
    if len(doc["f"]) != comb(model.order + model.m - 1, model.m):
        problems.append("f table size")
    if len(doc["g"]) != comb(model.order + model.n - 1, model.n):
        problems.append("g table size")
    for key, value in doc["f"].items():
        if frozenset(value) != model.add(tuple(key.split(","))) or len(value) != len(set(value)):
            problems.append(f"f[{key}] = {value}")
            break
    for key, value in doc["g"].items():
        if value != model.mul(tuple(key.split(","))):
            problems.append(f"g[{key}] = {value}")
            break
    return problems
