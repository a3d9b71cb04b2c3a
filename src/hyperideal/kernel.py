"""Finite commutative Krasner (m,n)-hyperrings as validated operation tables.

A ring is described by an m-ary hyperaddition table ``f`` (set valued) and an
n-ary multiplication table ``g`` (single valued), both keyed by sorted
multisets so that commutativity holds by construction.  ``verify_axioms``
checks every remaining axiom exhaustively and only hands out ``HyperRing``
objects for specs that pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, combinations_with_replacement, product
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .analysis import RingAnalysis
from .errors import (
    ArityMismatch,
    ArityOutOfRange,
    AxiomsFailed,
    EmptyHyperValue,
    MissingEntry,
    RingMismatch,
    SpecFormatError,
    UnknownElement,
)

STRICT = "strict"
LENIENT = "lenient"
MODES = (STRICT, LENIENT)

AXIOM_ORDER = (
    "f-associativity",
    "neutral-element",
    "unique-inverses",
    "reversibility",
    "g-commutativity",
    "g-associativity",
    "distributivity",
    "zero-absorption",
    "scalar-identity",
)


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


@dataclass(frozen=True)
class AxiomStatus:
    ok: bool
    witness: tuple[int, ...] | None = None
    detail: str = ""


@dataclass
class AxiomReport:
    """Per-axiom pass/fail record; failures carry a concrete witness tuple."""

    entries: dict[str, AxiomStatus] = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(st.ok for st in self.entries.values())

    def failures(self) -> list[str]:
        return [name for name in AXIOM_ORDER if name in self.entries and not self.entries[name].ok]

    def lines(self, elements: Sequence[str]) -> list[str]:
        out = []
        for name in AXIOM_ORDER:
            st = self.entries[name]
            if st.ok:
                out.append(f"{name}: pass")
            else:
                witness = ",".join(elements[i] for i in st.witness or ())
                msg = f"{name}: FAIL witness ({witness})"
                if st.detail:
                    msg += f" -- {st.detail}"
                out.append(msg)
        return out


@dataclass(frozen=True, eq=True)
class HyperRingSpec:
    """Raw operation tables, keyed by index multisets (sorted tuples)."""

    name: str
    m: int
    n: int
    elements: tuple[str, ...]
    zero: str
    one: str
    f_table: Mapping[tuple[int, ...], frozenset[int]]
    g_table: Mapping[tuple[int, ...], int]

    @property
    def order(self) -> int:
        return len(self.elements)

    def index(self, name: str) -> int:
        try:
            return self.elements.index(name)
        except ValueError:
            raise UnknownElement(name, self.name) from None


def validate_spec(spec: HyperRingSpec) -> None:
    """Raise a SpecFormatError subtype unless the tables are complete and closed."""
    if spec.m < 2:
        raise ArityOutOfRange("m", spec.m)
    if spec.n < 2:
        raise ArityOutOfRange("n", spec.n)
    if not spec.elements:
        raise SpecFormatError("no elements declared")
    if len(set(spec.elements)) != len(spec.elements):
        raise SpecFormatError("element names are not distinct")
    for name in spec.elements:
        if "," in name or name == "":
            raise SpecFormatError(f"element name {name!r} is not allowed")
    if spec.zero not in spec.elements:
        raise UnknownElement(spec.zero, "zero")
    if spec.one not in spec.elements:
        raise UnknownElement(spec.one, "one")
    if spec.zero == spec.one:
        raise SpecFormatError("zero and one must be distinct elements")
    order = spec.order
    for key in combinations_with_replacement(range(order), spec.m):
        if key not in spec.f_table:
            raise MissingEntry("f", tuple(spec.elements[i] for i in key))
        value = spec.f_table[key]
        if not value:
            raise EmptyHyperValue(tuple(spec.elements[i] for i in key))
        if any(v < 0 or v >= order for v in value):
            raise SpecFormatError(f"f value out of range at {key}")
    if len(spec.f_table) != _n_multisets(order, spec.m):
        raise SpecFormatError("f table has surplus keys")
    for key in combinations_with_replacement(range(order), spec.n):
        if key not in spec.g_table:
            raise MissingEntry("g", tuple(spec.elements[i] for i in key))
        value = spec.g_table[key]
        if value < 0 or value >= order:
            raise SpecFormatError(f"g value out of range at {key}")
    if len(spec.g_table) != _n_multisets(order, spec.n):
        raise SpecFormatError("g table has surplus keys")


def _n_multisets(order: int, k: int) -> int:
    from math import comb

    return comb(order + k - 1, k)


def _parse_key(raw: str, name_to_index: Mapping[str, int], arity: int, table: str) -> tuple[int, ...]:
    parts = raw.split(",")
    if len(parts) != arity:
        raise SpecFormatError(f"key {raw!r} in table {table!r} has {len(parts)} entries, expected {arity}")
    indices = []
    for part in parts:
        if part not in name_to_index:
            raise UnknownElement(part, f"table {table!r} key {raw!r}")
        indices.append(name_to_index[part])
    return tuple(sorted(indices))


def parse_spec(document: str) -> HyperRingSpec:
    """Parse a UTF-8 JSON ring document into a validated HyperRingSpec.

    Keys arriving in non-canonical order are normalised; duplicate multisets,
    missing entries, unknown names, and empty hyperoperation values are
    rejected.
    """
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise SpecFormatError("document root must be an object")
    for key in ("name", "m", "n", "elements", "zero", "one", "f", "g"):
        if key not in data:
            raise SpecFormatError(f"missing top-level field {key!r}")
    m, n = data["m"], data["n"]
    if not isinstance(m, int) or m < 2:
        raise ArityOutOfRange("m", m if isinstance(m, int) else -1)
    if not isinstance(n, int) or n < 2:
        raise ArityOutOfRange("n", n if isinstance(n, int) else -1)
    elements = data["elements"]
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise SpecFormatError("elements must be an array of names")
    name_to_index = {name: i for i, name in enumerate(elements)}
    if len(name_to_index) != len(elements):
        raise SpecFormatError("element names are not distinct")

    f_table: dict[tuple[int, ...], frozenset[int]] = {}
    for raw_key, raw_value in data["f"].items():
        key = _parse_key(raw_key, name_to_index, m, "f")
        if key in f_table:
            raise SpecFormatError(f"duplicate f entry for multiset {raw_key!r}")
        if not isinstance(raw_value, list):
            raise SpecFormatError(f"f value for {raw_key!r} must be an array")
        if not raw_value:
            raise EmptyHyperValue(tuple(elements[i] for i in key))
        members = set()
        for name in raw_value:
            if name not in name_to_index:
                raise UnknownElement(name, f"f value for {raw_key!r}")
            members.add(name_to_index[name])
        f_table[key] = frozenset(members)
    g_table: dict[tuple[int, ...], int] = {}
    for raw_key, raw_value in data["g"].items():
        key = _parse_key(raw_key, name_to_index, n, "g")
        if key in g_table:
            raise SpecFormatError(f"duplicate g entry for multiset {raw_key!r}")
        if not isinstance(raw_value, str) or raw_value not in name_to_index:
            raise UnknownElement(str(raw_value), f"g value for {raw_key!r}")
        g_table[key] = name_to_index[raw_value]

    spec = HyperRingSpec(
        name=str(data["name"]),
        m=m,
        n=n,
        elements=tuple(elements),
        zero=str(data["zero"]),
        one=str(data["one"]),
        f_table=f_table,
        g_table=g_table,
    )
    validate_spec(spec)
    return spec


def serialize_spec(spec: HyperRingSpec) -> str:
    """Emit the canonical JSON document: keys in index order, values sorted."""
    elements = spec.elements
    f_obj = {}
    for key in combinations_with_replacement(range(spec.order), spec.m):
        f_obj[",".join(elements[i] for i in key)] = [elements[i] for i in sorted(spec.f_table[key])]
    g_obj = {}
    for key in combinations_with_replacement(range(spec.order), spec.n):
        g_obj[",".join(elements[i] for i in key)] = elements[spec.g_table[key]]
    doc = {
        "name": spec.name,
        "m": spec.m,
        "n": spec.n,
        "elements": list(elements),
        "zero": spec.zero,
        "one": spec.one,
        "f": f_obj,
        "g": g_obj,
    }
    return json.dumps(doc, indent=2) + "\n"


class SubsetMask:
    """Immutable subset of a ring's elements, stored as a bitmask.

    Masks remember their ring; combining masks from different rings raises
    RingMismatch.
    """

    __slots__ = ("ring", "bits")

    def __init__(self, ring: "HyperRing", bits: int):
        if bits < 0 or bits >> ring.order:
            raise ValueError("mask bits out of range for ring order")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, *args):
        raise AttributeError("SubsetMask is immutable")

    def _check(self, other: "SubsetMask") -> None:
        if self.ring is not other.ring:
            raise RingMismatch("masks belong to different rings")

    def __contains__(self, index: int) -> bool:
        return bool(self.bits >> index & 1)

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        i = 0
        while bits:
            if bits & 1:
                yield i
            bits >>= 1
            i += 1

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubsetMask)
            and other.ring is self.ring
            and other.bits == self.bits
        )

    def __hash__(self) -> int:
        return hash((id(self.ring), self.bits))

    def __or__(self, other: "SubsetMask") -> "SubsetMask":
        self._check(other)
        return SubsetMask(self.ring, self.bits | other.bits)

    def __and__(self, other: "SubsetMask") -> "SubsetMask":
        self._check(other)
        return SubsetMask(self.ring, self.bits & other.bits)

    def __sub__(self, other: "SubsetMask") -> "SubsetMask":
        self._check(other)
        return SubsetMask(self.ring, self.bits & ~other.bits)

    def issubset(self, other: "SubsetMask") -> bool:
        self._check(other)
        return not (self.bits & ~other.bits)

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    @property
    def is_full(self) -> bool:
        return self.bits == self.ring.full_bits

    def members(self) -> tuple[int, ...]:
        return tuple(self)

    def names(self) -> tuple[str, ...]:
        return tuple(self.ring.elements[i] for i in self)

    def __repr__(self) -> str:
        return "{" + ",".join(self.names()) + "}"


ElementsOrSubsets = Union[int, SubsetMask, Iterable[int]]


class HyperRing:
    """A validated ring; construct via verify_axioms or require_ring."""

    def __init__(
        self,
        spec: HyperRingSpec,
        axiom_report: AxiomReport,
        negation: tuple[int, ...],
    ):
        self.spec = spec
        self.axiom_report = axiom_report
        self.negation = negation
        self.order = spec.order
        self.m = spec.m
        self.n = spec.n
        self.elements = spec.elements
        self.zero = spec.index(spec.zero)
        self.one = spec.index(spec.one)
        self.full_bits = (1 << self.order) - 1
        self._f = {key: _to_bits(value) for key, value in spec.f_table.items()}
        self._g = dict(spec.g_table)

    # -- naming ---------------------------------------------------------

    @property
    def name(self) -> str:
        return self.spec.name

    def element_index(self, name: str) -> int:
        return self.spec.index(name)

    def subset(self, indices: Iterable[int]) -> SubsetMask:
        bits = 0
        for i in indices:
            if i < 0 or i >= self.order:
                raise ValueError(f"element index {i} out of range")
            bits |= 1 << i
        return SubsetMask(self, bits)

    def subset_from_bits(self, bits: int) -> SubsetMask:
        return SubsetMask(self, bits)

    def subset_from_names(self, names: Iterable[str]) -> SubsetMask:
        return self.subset(self.element_index(name) for name in names)

    def full_subset(self) -> SubsetMask:
        return SubsetMask(self, self.full_bits)

    def names_of_bits(self, bits: int) -> tuple[str, ...]:
        return tuple(self.elements[i] for i in range(self.order) if bits >> i & 1)

    def render_bits(self, bits: int) -> str:
        return "{" + ",".join(self.names_of_bits(bits)) + "}"

    # -- raw table access -----------------------------------------------

    def f_bits(self, key: Sequence[int]) -> int:
        return self._f[tuple(sorted(key))]

    def g_at(self, key: Sequence[int]) -> int:
        return self._g[tuple(sorted(key))]

    # -- operations -----------------------------------------------------

    def hyperadd(self, *args: ElementsOrSubsets) -> SubsetMask:
        """m-ary hyperaddition, extended to subsets by union over choices."""
        if len(args) != self.m:
            raise ArityMismatch(self.m, len(args))
        return SubsetMask(self, self._hyperadd_bits(*args))

    def _hyperadd_bits(self, *args: ElementsOrSubsets) -> int:
        pools = [_arg_members(a) for a in args]
        bits = 0
        for choice in product(*pools):
            bits |= self._f[tuple(sorted(choice))]
        return bits

    def multiply(self, *args: ElementsOrSubsets) -> int | SubsetMask:
        """n-ary multiplication; with subset arguments, the set of outcomes."""
        if len(args) != self.n:
            raise ArityMismatch(self.n, len(args))
        if all(isinstance(a, int) for a in args):
            return self._g[tuple(sorted(args))]  # type: ignore[arg-type]
        pools = [_arg_members(a) for a in args]
        bits = 0
        for choice in product(*pools):
            bits |= 1 << self._g[tuple(sorted(choice))]
        return SubsetMask(self, bits)

    def scalar_multiply(self, a: int, b: int) -> int:
        """The induced binary product g(a, b, 1^(n-2))."""
        return self._bp[a][b]

    def power(self, p: int, w: int) -> int:
        """w-fold product of p, padding with the scalar identity.

        For w <= n a single application suffices; longer powers fold the
        operation over blocks of n-1 once the length is padded up to the
        nearest admissible value l*(n-1)+1.
        """
        if w < 1:
            raise ValueError("power exponent must be >= 1")
        n, one = self.n, self.one
        if w <= n:
            return self._g[tuple(sorted((p,) * w + (one,) * (n - w)))]
        blocks = -(-(w - 1) // (n - 1))
        length = blocks * (n - 1) + 1
        seq = [p] * w + [one] * (length - w)
        acc = self._g[tuple(sorted(seq[:n]))]
        idx = n
        while idx < length:
            acc = self._g[tuple(sorted([acc] + seq[idx : idx + n - 1]))]
            idx += n - 1
        return acc

    def negate(self, x: int) -> int:
        return self.negation[x]

    # -- precomputed views ------------------------------------------------

    @cached_property
    def analysis(self) -> RingAnalysis:
        """Derived lists and verdict memos, built on first use and freed with
        the ring."""
        return RingAnalysis(self)

    @cached_property
    def _bp(self) -> tuple[tuple[int, ...], ...]:
        one_pad = (self.one,) * (self.n - 2)
        return tuple(
            tuple(self._g[tuple(sorted((a, b) + one_pad))] for b in range(self.order))
            for a in range(self.order)
        )

    @cached_property
    def g_tuples(self) -> tuple[tuple[tuple[int, ...], int, tuple[int, ...]], ...]:
        """Every n-tuple in lexicographic order with its product and, per
        position, the product with that position replaced by the identity."""
        rows = []
        one = self.one
        for tup in product(range(self.order), repeat=self.n):
            key = tuple(sorted(tup))
            prod = self._g[key]
            subs = tuple(
                self._g[tuple(sorted(tup[:i] + (one,) + tup[i + 1 :]))]
                for i in range(self.n)
            )
            rows.append((tup, prod, subs))
        return tuple(rows)

    def __repr__(self) -> str:
        return f"HyperRing({self.name!r}, order={self.order}, m={self.m}, n={self.n})"


def _to_bits(value: Iterable[int]) -> int:
    bits = 0
    for v in value:
        bits |= 1 << v
    return bits


def _arg_members(arg: ElementsOrSubsets) -> tuple[int, ...]:
    if isinstance(arg, int):
        return (arg,)
    if isinstance(arg, SubsetMask):
        return arg.members()
    return tuple(arg)


def _distinct_splits(ms: tuple[int, ...], k: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All distinct (inner, outer) value splits of a sorted multiset."""
    seen = set()
    out = []
    for positions in combinations(range(len(ms)), k):
        inner = tuple(ms[i] for i in positions)
        if inner in seen:
            continue
        seen.add(inner)
        rest = list(ms)
        for i in reversed(positions):
            del rest[i]
        out.append((inner, tuple(rest)))
    return out


def verify_axioms(spec: HyperRingSpec) -> "HyperRing | AxiomReport":
    """Check every defining axiom exhaustively.

    Returns a validated HyperRing when all axioms hold, otherwise the
    AxiomReport whose failing entries carry lexicographically-first witness
    tuples.  The hyperaddition must form a canonical m-ary hypergroup
    (commutative, associative, scalar neutral, unique inverses,
    reversibility); the multiplication must be an associative, commutative
    n-ary operation with absorbing zero and scalar identity that distributes
    over the hyperaddition.  Distributivity is checked as containment: the
    hyperaddition of the slotted products must land inside the image of the
    hyperaddition value (the two sides coincide whenever the hyperaddition is
    single valued).
    """
    validate_spec(spec)
    order = spec.order
    m, n = spec.m, spec.n
    zero = spec.index(spec.zero)
    one = spec.index(spec.one)
    f = {key: _to_bits(value) for key, value in spec.f_table.items()}
    g = dict(spec.g_table)
    report = AxiomReport()

    def f_of(args: Sequence[int]) -> int:
        return f[tuple(sorted(args))]

    def f_subset(bits: int, rest: Sequence[int]) -> int:
        out = 0
        i = 0
        while bits:
            if bits & 1:
                out |= f[tuple(sorted((i, *rest)))]
            bits >>= 1
            i += 1
        return out

    # f-associativity: all splits of every (2m-1)-multiset agree.
    status = AxiomStatus(True)
    for ms in combinations_with_replacement(range(order), 2 * m - 1):
        first = None
        first_split = None
        for inner, outer in _distinct_splits(ms, m):
            value = f_subset(f_of(inner), outer)
            if first is None:
                first, first_split = value, inner
            elif value != first:
                status = AxiomStatus(
                    False,
                    ms,
                    f"grouping {first_split} gives {bit_members(first)} "
                    f"but grouping {inner} gives {bit_members(value)}",
                )
                break
        if not status.ok:
            break
    report.entries["f-associativity"] = status

    # neutral element: f(x, 0^(m-1)) = {x}.
    status = AxiomStatus(True)
    zeros = (zero,) * (m - 1)
    for x in range(order):
        if f_of((x, *zeros)) != 1 << x:
            status = AxiomStatus(False, (x, *zeros), "hyperaddition with zeros must be the singleton")
            break
    report.entries["neutral-element"] = status

    # unique inverses: exactly one y with 0 in f(x, y, 0^(m-2)).
    negation = [0] * order
    status = AxiomStatus(True)
    pad = (zero,) * (m - 2)
    for x in range(order):
        ys = [y for y in range(order) if f_of((x, y, *pad)) >> zero & 1]
        if len(ys) != 1:
            kind = "no inverse" if not ys else f"multiple inverses {ys}"
            status = AxiomStatus(False, (x,), kind)
            break
        negation[x] = ys[0]
    report.entries["unique-inverses"] = status
    inverses_ok = status.ok

    # reversibility: x in f(a_1..a_m) implies a_i in f(x, -a_j for j != i).
    status = AxiomStatus(True)
    if inverses_ok:
        for ms in combinations_with_replacement(range(order), m):
            bits = f_of(ms)
            done = False
            for x in range(order):
                if not (bits >> x & 1):
                    continue
                prev = None
                for i in range(m):
                    if ms[i] == prev:
                        continue
                    prev = ms[i]
                    others = tuple(negation[ms[j]] for j in range(m) if j != i)
                    if not (f_of((x, *others)) >> ms[i] & 1):
                        status = AxiomStatus(
                            False, ms, f"element {x} cannot be reversed at position {i + 1}"
                        )
                        done = True
                        break
                if done:
                    break
            if done:
                break
    else:
        status = AxiomStatus(False, (0,), "not checkable: inverses are not unique")
    report.entries["reversibility"] = status

    # commutativity of g holds by multiset keying.
    report.entries["g-commutativity"] = AxiomStatus(True, None, "by table construction")

    # g-associativity.
    status = AxiomStatus(True)
    for ms in combinations_with_replacement(range(order), 2 * n - 1):
        first = None
        first_split = None
        for inner, outer in _distinct_splits(ms, n):
            value = g[tuple(sorted((g[tuple(sorted(inner))], *outer)))]
            if first is None:
                first, first_split = value, inner
            elif value != first:
                status = AxiomStatus(
                    False,
                    ms,
                    f"grouping {first_split} gives {first} but grouping {inner} gives {value}",
                )
                break
        if not status.ok:
            break
    report.entries["g-associativity"] = status

    # distributivity over one slot (commutativity covers the others).
    status = AxiomStatus(True)
    for q in combinations_with_replacement(range(order), m):
        fq = f_of(q)
        done = False
        for p in combinations_with_replacement(range(order), n - 1):
            image = 0
            bits = fq
            i = 0
            while bits:
                if bits & 1:
                    image |= 1 << g[tuple(sorted((i, *p)))]
                bits >>= 1
                i += 1
            summed = f_of(tuple(g[tuple(sorted((qi, *p)))] for qi in q))
            if summed & ~image:
                status = AxiomStatus(
                    False,
                    q + p,
                    "hyperaddition of slotted products is not contained in the "
                    "image of the hyperaddition value",
                )
                done = True
                break
        if done:
            break
    report.entries["distributivity"] = status

    # zero absorption.
    status = AxiomStatus(True)
    for p in combinations_with_replacement(range(order), n - 1):
        if g[tuple(sorted((zero, *p)))] != zero:
            status = AxiomStatus(False, (zero, *p), "product with zero must be zero")
            break
    report.entries["zero-absorption"] = status

    # scalar identity.
    status = AxiomStatus(True)
    ones = (one,) * (n - 1)
    for x in range(order):
        if g[tuple(sorted((x, *ones)))] != x:
            status = AxiomStatus(False, (x, *ones), "product with identities must return the element")
            break
    report.entries["scalar-identity"] = status

    if not report.all_pass:
        return report
    return HyperRing(spec, report, tuple(negation))


def bit_members(bits: int) -> list[int]:
    return [i for i in range(bits.bit_length()) if bits >> i & 1]


def require_ring(spec: HyperRingSpec) -> HyperRing:
    """verify_axioms, raising AxiomsFailed instead of returning a report."""
    result = verify_axioms(spec)
    if isinstance(result, AxiomReport):
        raise AxiomsFailed(result)
    return result
