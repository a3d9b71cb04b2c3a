"""A naive axiom oracle, the single-entry mutations it is run against, and
the multiset scans of the row-checked axioms.

The oracle follows each axiom's definition over ordered sequences of
elements.  It reads a table entry only through ``f`` and ``g`` below, and
it never walks multisets, never uses bitmasks and never indexes a dense
table, so it shares no scan logic with ``verify_axioms``.

``associativity_scan``, ``distributivity_scan`` and ``reversibility_scan``
are the scans that ``verify_axioms`` once ran to decide those axioms and
name their witnesses, over every sorted multiset in lexicographic order.
They are the reference that the passes of ``kernel._associativity``,
``kernel._distributivity`` and ``kernel._reversibility`` must match,
verdict, witness and detail; ``spec_scans`` runs all four on a spec.
``nary_route`` runs the verifier's passes alone on a spec's own tables: the
route that ``verify_axioms`` skips where a spec's binary reducts decide, or
where the generator route proves a single-valued (2,2) spec.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations, combinations_with_replacement, permutations, product
from operator import itemgetter

from hyperideal import Verdict, fixtures
from hyperideal.analysis import PASS, bit_members
from hyperideal.kernel import HyperRingSpec, _dense_tables, _first_failure, _index, _passes, _validated

MUTATED_FIXTURES = ("paper-example", "z4", "z2-as-33")


def single_entry_mutations(spec, tables="fg", stride=1):
    """Every ``stride``-th spec, from the first, of those that differ from
    ``spec`` in exactly one entry of one of ``tables``.  Only the specs
    yielded are built: each is a full copy of a table.

    f entries come first, then g entries, each in canonical key order; the
    replacement values of one entry ascend (f values by their bitmask).
    """
    order = spec.order
    first = 0  # the index, among the next table's mutations, of the first yielded
    if "f" in tables:
        keys = list(combinations_with_replacement(range(order), spec.m))
        values = range(1, 1 << order)  # the non-empty values, as bitmasks
        own = {key: sum(1 << i for i in value) for key, value in spec.f_table.items()}
        for key, bits in _strided(keys, values, own, first, stride):
            value = frozenset(i for i in range(order) if bits >> i & 1)
            yield replace(spec, f_table={**spec.f_table, key: value})
        first = (first - len(keys) * (len(values) - 1)) % stride
    if "g" in tables:
        keys = list(combinations_with_replacement(range(order), spec.n))
        for key, value in _strided(keys, range(order), spec.g_table, first, stride):
            yield replace(spec, g_table={**spec.g_table, key: value})


def _strided(keys: list, values: range, own: dict, first: int, stride: int):
    """Every ``stride``-th (key, value) from index ``first``, where each key
    in turn takes each of ``values`` but ``own[key]``."""
    per_key = len(values) - 1
    for i in range(first, len(keys) * per_key, stride):
        key, j = keys[i // per_key], i % per_key
        yield key, values[j + (j >= values.index(own[key]))]


def fixture_mutations():
    for name in MUTATED_FIXTURES:
        yield from single_entry_mutations(fixtures(name).spec)


def dense_tables(spec) -> tuple:
    """``kernel._dense_tables`` of ``spec``, from the value lists that
    validating it reads, as ``verify_axioms`` builds them."""
    return _dense_tables(spec.order, spec.m, spec.n, *_validated(spec))


def nary_route(spec) -> tuple:
    """The report and negation of ``verify_axioms``' passes alone on
    ``spec``'s own tables: the n-ary route, which past (2,2) runs only where
    the binary reducts do not decide, and at (2,2) only where the generator
    route gives up."""
    f, g, f_ids, f_values = dense_tables(spec)
    return _passes(spec.order, spec.m, spec.n, f, g, spec.index(spec.zero), spec.index(spec.one),
                   f_ids, f_values)


def negation_of(spec, f: list[int]) -> list[int] | None:
    """The inverse of each element, read off the dense f as ``verify_axioms``
    reads it, or None when some inverse is not unique."""
    order, zero = spec.order, spec.index(spec.zero)
    pad = (zero,) * (spec.m - 2)
    negation = []
    for x in range(order):
        start = _index((x, *pad), order) * order
        ys = [y for y, bits in enumerate(f[start : start + order]) if bits >> zero & 1]
        if len(ys) != 1:
            return None
        negation.append(ys[0])
    return negation


def reversibility_scan(order: int, m: int, f: list[int], negation: list[int]) -> Verdict:
    """The first sorted m-multiset ms, then x in f(ms), then the first place
    i of each value in ms, where ms[i] is not in f(x, -ms[j] for j != i)."""
    f_lead = order ** (m - 1)

    def f_of(args):
        return f[_index(args, order)]

    return _first_failure(
        (ms, f"element {x} cannot be reversed at position {i + 1}")
        for ms in combinations_with_replacement(range(order), m)
        for x in bit_members(f_of(ms))
        for i in range(m)
        if (i == 0 or ms[i] != ms[i - 1])
        and not f[x * f_lead + _index((negation[ms[j]] for j in range(m) if j != i), order)] >> ms[i] & 1
    )


def associativity_scan(order: int, arity: int, regroup, show) -> Verdict:
    """The first sorted (2*arity-1)-multiset with two distinct splits whose
    ``regroup(inner index, rest index)`` values differ.  Split positions are
    worked out once; a split repeating an earlier inner group is skipped."""
    size = 2 * arity - 1
    splits = [
        (itemgetter(*inner), [i for i in range(size) if i not in inner])
        for inner in combinations(range(size), arity)
    ]
    for ms in combinations_with_replacement(range(order), size):
        seen = set()
        first = first_split = None
        for inner_of, rest in splits:
            inner = inner_of(ms)
            if inner in seen:
                continue
            seen.add(inner)
            index = outer = 0
            for x in inner:
                index = index * order + x
            for i in rest:
                outer = outer * order + ms[i]
            value = regroup(index, outer)
            if first is None:
                first, first_split = value, inner
            elif value != first:
                return Verdict(
                    False,
                    witness=ms,
                    detail=f"grouping {first_split} gives {show(first)} "
                    f"but grouping {inner} gives {show(value)}",
                )
    return PASS


def f_associativity_scan(order: int, m: int, f: list[int]) -> Verdict:
    """``associativity_scan`` of the dense f, regrouping an f value v with
    rest as the union of f(z, rest) over z in v, memoised."""
    f_lead = order ** (m - 1)
    lifted: dict[tuple[int, int], int] = {}

    def f_regroup(inner: int, rest: int) -> int:
        key = (f[inner], rest)
        value = lifted.get(key)
        if value is None:
            value = 0
            for z in bit_members(key[0]):
                value |= f[z * f_lead + rest]
            lifted[key] = value
        return value

    return associativity_scan(order, m, f_regroup, bit_members)


def g_associativity_scan(order: int, n: int, g: list[int]) -> Verdict:
    g_lead = order ** (n - 1)
    return associativity_scan(order, n, lambda inner, rest: g[g[inner] * g_lead + rest], int)


def distributivity_scan(order: int, m: int, n: int, f: list[int], g: list[int]) -> Verdict:
    """The first sorted m-multiset q, then (n-1)-multiset p, where
    f(g(q_1, p), ..., g(q_m, p)) is not inside the image of f(q) under
    g(., p)."""
    g_lead = order ** (n - 1)
    ps = list(combinations_with_replacement(range(order), n - 1))
    columns = [g[_index(p, order) :: g_lead] for p in ps]
    for q in combinations_with_replacement(range(order), m):
        members = bit_members(f[_index(q, order)])
        for p, column in zip(ps, columns):
            image = 0
            for z in members:
                image |= 1 << column[z]
            summed = 0
            for qi in q:
                summed = summed * order + column[qi]
            if f[summed] & ~image:
                return Verdict(
                    False,
                    witness=q + p,
                    detail="hyperaddition of slotted products is not contained in the "
                    "image of the hyperaddition value",
                )
    return PASS


def spec_reversibility_scan(spec) -> Verdict | None:
    """``reversibility_scan`` on ``spec``, or None when its inverses are not
    unique (the verifier then reports reversibility as not checkable)."""
    f = dense_tables(spec)[0]
    negation = negation_of(spec, f)
    return None if negation is None else reversibility_scan(spec.order, spec.m, f, negation)


def spec_scans(spec) -> dict[str, Verdict]:
    """The scans' verdicts on ``spec``, by family; reversibility is left out
    when inverses are not unique."""
    order, m, n = spec.order, spec.m, spec.n
    f, g = dense_tables(spec)[:2]
    scans = {
        "f-associativity": f_associativity_scan(order, m, f),
        "g-associativity": g_associativity_scan(order, n, g),
        "distributivity": distributivity_scan(order, m, n, f, g),
    }
    negation = negation_of(spec, f)
    if negation is not None:
        scans["reversibility"] = reversibility_scan(order, m, f, negation)
    return scans


def z257_spec(f_change: dict) -> HyperRingSpec:
    """The integers modulo 257 as a spec, with ``f_change`` over its f table:
    past a byte, so every row pass composes lists."""
    pairs = list(combinations_with_replacement(range(257), 2))
    return HyperRingSpec(
        name="z257", m=2, n=2, elements=tuple(map(str, range(257))), zero="0", one="1",
        f_table={**{(a, b): frozenset({(a + b) % 257}) for a, b in pairs}, **f_change},
        g_table={(a, b): a * b % 257 for a, b in pairs},
    )


class NaiveOracle:
    """Each axiom family checked straight from its definition."""

    def __init__(self, spec):
        self.spec = spec
        self.carrier = range(spec.order)
        self.m, self.n = spec.m, spec.n
        self.zero = spec.index(spec.zero)
        self.one = spec.index(spec.one)

    # -- the operations, on ordered arguments --------------------------

    def f(self, args) -> set:
        return set(self.spec.f_table[tuple(sorted(args))])

    def g(self, args) -> int:
        return self.spec.g_table[tuple(sorted(args))]

    def f_of_sets(self, sets) -> set:
        out = set()
        for choice in product(*sets):
            out |= self.f(choice)
        return out

    def g_of_sets(self, sets) -> set:
        return {self.g(choice) for choice in product(*sets)}

    def inverses(self, x) -> list:
        pad = (self.zero,) * (self.m - 2)
        return [y for y in self.carrier if self.zero in self.f((x, y, *pad))]

    # -- one predicate per family; True means the instance is fine -----

    def f_groupings_agree(self, seq) -> bool:
        m = self.m
        values = []
        for i in range(m):
            sets = [{x} for x in seq[:i]] + [self.f(seq[i : i + m])] + [{x} for x in seq[i + m :]]
            values.append(self.f_of_sets(sets))
        return all(v == values[0] for v in values)

    def neutral_at(self, x, position) -> bool:
        args = [self.zero] * self.m
        args[position] = x
        return self.f(args) == {x}

    def inverse_unique(self, x) -> bool:
        return len(self.inverses(x)) == 1

    def reversible(self, seq) -> bool:
        neg = [self.inverses(x)[0] for x in seq]
        for x in self.f(seq):
            for i in range(self.m):
                args = neg[:i] + [x] + neg[i + 1 :]
                if seq[i] not in self.f(args):
                    return False
        return True

    def g_commutes(self, seq) -> bool:
        return all(self.g(perm) == self.g(seq) for perm in permutations(seq))

    def g_groupings_agree(self, seq) -> bool:
        n = self.n
        values = [self.g(seq[:i] + (self.g(seq[i : i + n]),) + seq[i + n :]) for i in range(n)]
        return all(v == values[0] for v in values)

    def distributes(self, q, p, slot) -> bool:
        """``f(g(q_1, p), ..., g(q_m, p)) ⊆ g(f(q), p)`` with f(q) at ``slot``."""
        image = self.g_of_sets([{x} for x in p[:slot]] + [self.f(q)] + [{x} for x in p[slot:]])
        summed = self.f([self.g(p[:slot] + (qi,) + p[slot:]) for qi in q])
        return summed <= image

    def absorbs_zero(self, p, slot) -> bool:
        return self.g(p[:slot] + (self.zero,) + p[slot:]) == self.zero

    def identity_at(self, x, slot) -> bool:
        args = [self.one] * self.n
        args[slot] = x
        return self.g(args) == x

    # -- whole families --------------------------------------------------

    def family_holds(self) -> dict[str, bool]:
        m, n, carrier = self.m, self.n, self.carrier
        inverses_ok = all(self.inverse_unique(x) for x in carrier)
        return {
            "f-associativity": all(
                self.f_groupings_agree(seq) for seq in product(carrier, repeat=2 * m - 1)
            ),
            "neutral-element": all(
                self.neutral_at(x, i) for x in carrier for i in range(m)
            ),
            "unique-inverses": inverses_ok,
            # reversal is stated with the inverses, so it needs them unique
            "reversibility": inverses_ok and all(
                self.reversible(seq) for seq in product(carrier, repeat=m)
            ),
            "g-commutativity": all(self.g_commutes(seq) for seq in product(carrier, repeat=n)),
            "g-associativity": all(
                self.g_groupings_agree(seq) for seq in product(carrier, repeat=2 * n - 1)
            ),
            "distributivity": all(
                self.distributes(q, p, slot)
                for q in product(carrier, repeat=m)
                for p in product(carrier, repeat=n - 1)
                for slot in range(n)
            ),
            "zero-absorption": all(
                self.absorbs_zero(p, slot)
                for p in product(carrier, repeat=n - 1)
                for slot in range(n)
            ),
            "scalar-identity": all(self.identity_at(x, i) for x in carrier for i in range(n)),
        }

    def witness_violates(self, family: str, witness: tuple) -> bool:
        """Whether the engine's witness for ``family`` is a real violation."""
        m = self.m
        if family == "f-associativity":
            return not all(self.f_groupings_agree(seq) for seq in permutations(witness))
        if family == "neutral-element":
            return not self.neutral_at(witness[0], 0)
        if family == "unique-inverses":
            return not self.inverse_unique(witness[0])
        if family == "reversibility":
            if not all(self.inverse_unique(x) for x in self.carrier):
                return True
            return not all(self.reversible(seq) for seq in permutations(witness))
        if family == "g-associativity":
            return not all(self.g_groupings_agree(seq) for seq in permutations(witness))
        if family == "distributivity":
            return not self.distributes(witness[:m], witness[m:], 0)
        if family == "zero-absorption":
            return witness[0] == self.zero and not self.absorbs_zero(witness[1:], 0)
        if family == "scalar-identity":
            return not self.identity_at(witness[0], 0)
        raise AssertionError(f"no witness check for {family}")
