"""Finite commutative Krasner (m,n)-hyperrings as validated operation tables.

A ring is described by an m-ary hyperaddition table ``f`` (set valued) and an
n-ary multiplication table ``g`` (single valued), both keyed by sorted
multisets so that commutativity holds by construction.  ``verify_axioms``
checks every remaining axiom exhaustively and only hands out ``HyperRing``
objects for specs that pass.

The multiset-keyed dicts of ``HyperRingSpec`` are the document form.  For
checking and computing, each table is expanded once into a dense list over
every ordered tuple, indexed in mixed radix: ``(x_1, ..., x_k)`` sits at
``x_1*order**(k-1) + ... + x_(k-1)*order + x_k``, so ``f(a, b)`` is
``f_dense[a*order + b]`` when m=2.  ``f_dense`` holds bitmasks of element
indices and ``g_dense`` element indices.  The verifier builds these lists,
checks the axioms on them and hands the same lists to the ``HyperRing``.

Associativity and distributivity, the costly axioms, are decided a whole
row of the last argument c at a time.  Values get byte ids (an element is
its own id, an f value its place among f's distinct masks), a row is a
``bytes`` over c, and rows are composed with ``bytes.translate``: for each
sorted multiset of the other arguments, every grouping with c in the inner
group must give the same row, and the two sides of distributivity must give
equal rows or, where they differ, rows whose ids pass the containment test.  Only when a row
check fails does the multiset scan run, to name the lexicographically first
witness, so reports do not depend on which check decided.  Rings whose ids
do not fit in a byte (``_BYTE_IDS``) and rings of fewer than ``_MIN_ROW``
elements, where a row costs more than the scan it replaces, are scanned
straight away.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations, combinations_with_replacement, product
from math import comb
from operator import itemgetter, mul, sub
from time import perf_counter
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .analysis import RingAnalysis, bit_members
from .errors import (
    ArityMismatch,
    ArityOutOfRange,
    AxiomsFailed,
    EmptyHyperValue,
    MissingEntry,
    RingMismatch,
    SpecFormatError,
    TablesTooLarge,
    UnknownElement,
)

STRICT = "strict"
LENIENT = "lenient"
MODES = (STRICT, LENIENT)

# Verification refuses specs past these: a dense table holds order**k entries
# and associativity walks up to C(2k-1, k) split patterns, for k the larger
# arity.
MAX_VERIFY_ARITY = 10
DENSE_TABLE_LIMIT = 1 << 22

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
    # wall-clock seconds per axiom in AXIOM_ORDER, packed because every ring
    # keeps its report; not part of equality or of lines()
    timings_s: array = field(default_factory=lambda: array("d"), compare=False, repr=False)

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
    if max(spec.m, spec.n) > MAX_VERIFY_ARITY:  # before a key walk builds a key that long
        raise TablesTooLarge(f"m={spec.m}, n={spec.n} is past the arity limit {MAX_VERIFY_ARITY}")
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
    if len(spec.f_table) != comb(order + spec.m - 1, spec.m):
        raise SpecFormatError("f table has surplus keys")
    for key in combinations_with_replacement(range(order), spec.n):
        if key not in spec.g_table:
            raise MissingEntry("g", tuple(spec.elements[i] for i in key))
        value = spec.g_table[key]
        if value < 0 or value >= order:
            raise SpecFormatError(f"g value out of range at {key}")
    if len(spec.g_table) != comb(order + spec.n - 1, spec.n):
        raise SpecFormatError("g table has surplus keys")


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
    name = str(data["name"])
    try:
        "".join((name, *elements)).encode("utf-8")
    except UnicodeEncodeError:
        raise SpecFormatError("names must be Unicode text without lone surrogates") from None
    for table in ("f", "g"):
        if not isinstance(data[table], dict):
            raise SpecFormatError(f"table {table!r} must be an object")

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
        for member in raw_value:
            if not isinstance(member, str) or member not in name_to_index:
                raise UnknownElement(str(member), f"f value for {raw_key!r}")
            members.add(name_to_index[member])
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
        name=name,
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
        return iter(bit_members(self.bits))

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
    """A validated ring; construct via verify_axioms or require_ring.  Its
    ``f_dense`` and ``g_dense`` (see the module docstring) are never mutated."""

    def __init__(
        self,
        spec: HyperRingSpec,
        axiom_report: AxiomReport,
        negation: tuple[int, ...],
        f_dense: list[int],
        g_dense: list[int],
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
        self.f_dense = f_dense
        self.g_dense = g_dense

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
        return self.f_dense[_index(key, self.order)]

    def g_at(self, key: Sequence[int]) -> int:
        return self.g_dense[_index(key, self.order)]

    def g_row(self, x: int) -> list[int]:
        """g(x, r) for every ordered (n-1)-tuple r, in dense order."""
        lead = self.order ** (self.n - 1)
        return self.g_dense[x * lead : (x + 1) * lead]

    # -- operations -----------------------------------------------------

    def hyperadd(self, *args: ElementsOrSubsets) -> SubsetMask:
        """m-ary hyperaddition, extended to subsets by union over choices."""
        if len(args) != self.m:
            raise ArityMismatch(self.m, len(args))
        return SubsetMask(self, self._hyperadd_bits(*args))

    def _choice_indices(self, args: Sequence[ElementsOrSubsets]) -> list[int]:
        """Dense indices of every tuple that picks one member per argument."""
        order = self.order
        indices = [0]
        for arg in args:
            members = (arg,) if isinstance(arg, int) else tuple(arg)
            indices = [i * order + x for i in indices for x in members]
        return indices

    def _hyperadd_bits(self, *args: ElementsOrSubsets) -> int:
        f = self.f_dense
        bits = 0
        for i in self._choice_indices(args):
            bits |= f[i]
        return bits

    def multiply(self, *args: ElementsOrSubsets) -> int | SubsetMask:
        """n-ary multiplication; with subset arguments, the set of outcomes."""
        if len(args) != self.n:
            raise ArityMismatch(self.n, len(args))
        g = self.g_dense
        if all(isinstance(a, int) for a in args):
            return g[_index(args, self.order)]  # type: ignore[arg-type]
        bits = 0
        for i in self._choice_indices(args):
            bits |= 1 << g[i]
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
        n, one, order, g = self.n, self.one, self.order, self.g_dense
        if w <= n:
            return g[_index((p,) * w + (one,) * (n - w), order)]
        blocks = -(-(w - 1) // (n - 1))
        length = blocks * (n - 1) + 1
        seq = [p] * w + [one] * (length - w)
        acc = g[_index(seq[:n], order)]
        idx = n
        while idx < length:
            acc = g[_index([acc] + seq[idx : idx + n - 1], order)]
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
        order, g = self.order, self.g_dense
        # g(a, b, 1^(n-2)) sits at (a*order + b) * order**(n-2) + pad
        lead = order ** (self.n - 2)
        pad = _index((self.one,) * (self.n - 2), order)
        return tuple(
            tuple(g[(a * order + b) * lead + pad] for b in range(order))
            for a in range(order)
        )

    @cached_property
    def g_tuples(self) -> tuple[tuple[tuple[int, ...], int, tuple[int, ...]], ...]:
        """Every n-tuple in lexicographic order with its product and, per
        position, the product with that position replaced by the identity."""
        order, n, one, g = self.order, self.n, self.one, self.g_dense
        weights = [order ** (n - 1 - i) for i in range(n)]
        # lexicographic order is dense order, so tuple k sits at g[k]
        return tuple(
            (tup, g[k], tuple(g[k + (one - x) * w] for x, w in zip(tup, weights)))
            for k, tup in enumerate(product(range(order), repeat=n))
        )

    def __repr__(self) -> str:
        return f"HyperRing({self.name!r}, order={self.order}, m={self.m}, n={self.n})"


def _index(args: Iterable[int], order: int) -> int:
    """Position of an ordered tuple in a dense table (see module docstring)."""
    i = 0
    for a in args:
        i = i * order + a
    return i


def _dense_tables(spec: HyperRingSpec) -> tuple[list[int], list[int]]:
    """``f`` as bitmasks and ``g`` as indices, over every ordered tuple."""
    full = range(spec.order)
    f_bits = {key: sum(1 << v for v in value) for key, value in spec.f_table.items()}
    f = [f_bits[tuple(sorted(t))] for t in product(full, repeat=spec.m)]
    g = [spec.g_table[tuple(sorted(t))] for t in product(full, repeat=spec.n)]
    return f, g


def _first_failure(failures: Iterable[tuple[tuple[int, ...], str]]) -> AxiomStatus:
    for witness, detail in failures:
        return AxiomStatus(False, witness, detail)
    return AxiomStatus(True)


def _associativity(order: int, arity: int, regroup, show) -> AxiomStatus:
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
                return AxiomStatus(
                    False,
                    ms,
                    f"grouping {first_split} gives {show(first)} "
                    f"but grouping {inner} gives {show(value)}",
                )
    return AxiomStatus(True)


# The row checks name values by byte ids; a ring with more elements, f
# values or lifted values than this goes straight to the scans.
_BYTE_IDS = 256
# A row shorter than this costs more to build and compare than the scan it
# replaces (z2, z3 and z2-as-33 verify faster by scan), so smaller rings are
# scanned too.
_MIN_ROW = 4


class _IdsOverflow(Exception):
    """More distinct values than a byte can name."""


class _Memo(dict):
    """A dict that builds a missing value with ``build(key)`` and keeps it."""

    __slots__ = ("build",)

    def __init__(self, build):
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


def _intern(ids: dict, value: int) -> int:
    """The byte id of ``value`` in ``ids``, adding it if new."""
    i = ids.get(value)
    if i is None:
        i = ids[value] = len(ids)
        if i >= _BYTE_IDS:
            raise _IdsOverflow
    return i


def _picker(positions: tuple[int, ...]) -> itemgetter:
    """Takes the entries at the non-empty ``positions`` of a sequence, as a
    tuple (as a slice when there is one position)."""
    if len(positions) > 1:
        return itemgetter(*positions)
    (i,) = positions
    return itemgetter(slice(i, i + 1))


@cache
def _row_splits(arity: int) -> tuple:
    """The splits (A, M - A) of a sorted (2*arity-2)-multiset M into an
    (arity-1)-submultiset and the rest, as pickers of positions."""
    size = 2 * arity - 2
    return tuple(
        (_picker(inner), _picker(tuple(i for i in range(size) if i not in inner)))
        for inner in combinations(range(size), arity - 1)
    )


def _rows_agree(order: int, arity: int, ids: bytes, lift) -> bool:
    """Associativity, decided a whole row of the free last argument c at a time.

    ``ids`` holds the value id of every ordered arity-tuple in dense order.
    ``lift(rest)``, for a sorted (arity-1)-multiset, is the translate table
    sending a value id v to the id of v regrouped with ``rest``.  For each
    sorted (2*arity-2)-multiset M and each (arity-1)-submultiset A, the inner
    group A + c gives the row ``row(A).translate(lift(M - A))`` over c, and
    these rows must be equal bytes.

    The groupings with c outside the inner group need no rows of their own.
    Take a (2*arity-1)-multiset X and two inner groups B and B'; pick x in B
    and x' in B'.  Some inner group holds both x and x' (arity >= 2), and the
    rows with c = x and with c = x' compare it with B and with B'.  So the
    rows chain every grouping of X to every other.
    """
    # weights of the argument positions; a row of A starts at the index of
    # (A, 0), and map stops at the end of A
    weights = [order ** i for i in range(arity - 1, -1, -1)]

    def row(a: tuple[int, ...]) -> bytes:
        start = sum(map(mul, a, weights))
        return ids[start : start + order]

    rows, lifts = _Memo(row), _Memo(lift)
    (inner0, rest0), *splits = _row_splits(arity)
    for ms in combinations_with_replacement(range(order), 2 * arity - 2):
        first = rows[inner0(ms)].translate(lifts[rest0(ms)])
        for inner, rest in splits:
            if rows[inner(ms)].translate(lifts[rest(ms)]) != first:
                return False
    return True


def _contained_by_rows(
    order: int, m: int, f_ids: bytes, f_values: list[int], f_members: list, columns: list,
) -> bool:
    """Distributivity as containment, decided a whole row of the last
    hyperaddition argument c at a time.

    For the column ``col`` = g(., p) of an (n-1)-multiset p and a sorted
    (m-1)-multiset Q, the summed side f(col(Q), col(c)) over c is
    ``col.translate(row(col(Q)))``, and the image side is ``row(Q)`` sent
    through the id of each f value's image under g(., p).  Images are
    interned among the f values, so equal bytes mean the containment holds;
    where the rows differ, each distinct (summed, image) pair of rows is
    tested once, id by id.
    """
    ids = {bits: i for i, bits in enumerate(f_values)}
    id_bits = list(f_values)

    def row(q: tuple[int, ...]) -> bytes:
        start = _index(q, order) * order
        return f_ids[start : start + order]

    padded = _Memo(lambda key: row(key).ljust(256, b"\0"))
    qs = [(_picker(q), row(q)) for q in combinations_with_replacement(range(order), m - 1)]
    many = m > 2
    contained = set()
    for column in columns:
        image = bytearray()
        for zs in f_members:
            bits = 0
            for z in zs:
                bits |= 1 << column[z]
            i = _intern(ids, bits)
            if i == len(id_bits):
                id_bits.append(bits)
            image.append(i)
        image = bytes(image).ljust(256, b"\0")
        col = bytes(column)
        for pick, q_row in qs:
            key = pick(col)  # a one-entry key is a sorted slice already
            summed = col.translate(padded[tuple(sorted(key)) if many else key])
            held = q_row.translate(image)
            if summed != held and (summed, held) not in contained:
                for a, b in zip(summed, held):
                    if id_bits[a] & ~id_bits[b]:
                        return False
                contained.add((summed, held))
    return True


def _decide(rows_fit: bool, rows_hold, scan) -> AxiomStatus:
    """Pass when the row check ``rows_hold()`` does.  When it fails, runs out
    of byte ids midway, or does not apply (``rows_fit`` false), ``scan()``
    decides and names the witness."""
    if rows_fit:
        try:
            if rows_hold():
                return AxiomStatus(True)
        except _IdsOverflow:
            pass
    return scan()


def check_table_size(order: int, m: int, n: int) -> None:
    """Refuse a ring whose dense tables would pass ``DENSE_TABLE_LIMIT`` entries."""
    if order ** max(m, n) > DENSE_TABLE_LIMIT:
        raise TablesTooLarge(f"order {order} with m={m}, n={n} is past the limit of "
                             f"{DENSE_TABLE_LIMIT} dense table entries")


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
    check_table_size(order, m, n)
    zero = spec.index(spec.zero)
    one = spec.index(spec.one)
    f, g = _dense_tables(spec)
    f_lead, g_lead = order ** (m - 1), order ** (n - 1)  # weight of argument 1
    report = AxiomReport()
    entries = report.entries
    # the clock after each entry, which is computed in AXIOM_ORDER
    clock = [perf_counter()]
    tick = clock.append

    def f_of(args: Sequence[int]) -> int:
        return f[_index(args, order)]

    # Byte ids for the row checks: an element names itself, and an f value
    # is named by its place among f's distinct masks.
    rows_fit = _MIN_ROW <= order <= _BYTE_IDS
    if rows_fit:
        f_values = list(dict.fromkeys(f))
        rows_fit = len(f_values) <= _BYTE_IDS
    if rows_fit:
        f_id = {bits: i for i, bits in enumerate(f_values)}
        f_ids = bytes(map(f_id.__getitem__, f))
        f_members = [bit_members(bits) for bits in f_values]

    # f-associativity: the row check lifts an f value v to the id of
    # f(v, rest); the scan memoises the lifted masks for itself.
    lifted_ids: dict[int, int] = {}

    def f_lift(rest: tuple[int, ...]) -> bytes:
        column = f[_index(rest, order) :: f_lead]
        out = bytearray()
        for zs in f_members:
            bits = 0
            for z in zs:
                bits |= column[z]
            out.append(_intern(lifted_ids, bits))
        return bytes(out).ljust(256, b"\0")

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

    entries["f-associativity"] = _decide(
        rows_fit,
        lambda: _rows_agree(order, m, f_ids, f_lift),
        lambda: _associativity(order, m, f_regroup, bit_members),
    )
    tick(perf_counter())
    lifted.clear()

    # neutral element: f(x, 0^(m-1)) = {x}.
    zeros = (zero,) * (m - 1)
    entries["neutral-element"] = _first_failure(
        ((x, *zeros), "hyperaddition with zeros must be the singleton")
        for x in range(order) if f_of((x, *zeros)) != 1 << x
    )
    tick(perf_counter())

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
    entries["unique-inverses"] = status
    tick(perf_counter())

    # reversibility: x in f(a_1..a_m) implies a_i in f(x, -a_j for j != i).
    entries["reversibility"] = _first_failure(
        (ms, f"element {x} cannot be reversed at position {i + 1}")
        for ms in combinations_with_replacement(range(order), m)
        for x in bit_members(f_of(ms))
        for i in range(m)
        if (i == 0 or ms[i] != ms[i - 1])
        and not f[x * f_lead + _index((negation[ms[j]] for j in range(m) if j != i), order)] >> ms[i] & 1
    ) if status.ok else AxiomStatus(False, (0,), "not checkable: inverses are not unique")
    tick(perf_counter())

    # commutativity of g holds by multiset keying.
    entries["g-commutativity"] = AxiomStatus(True, None, "by table construction")
    tick(perf_counter())

    # g-associativity: lifting v with rest is g(v, rest), a column of g.
    entries["g-associativity"] = _decide(
        rows_fit,
        lambda: _rows_agree(
            order, n, bytes(g),
            lambda rest: bytes(g[_index(rest, order) :: g_lead]).ljust(256, b"\0"),
        ),
        lambda: _associativity(order, n, lambda inner, rest: g[g[inner] * g_lead + rest], int),
    )
    tick(perf_counter())

    # distributivity over one slot (commutativity covers the others), with
    # the column g(., p) of each (n-1)-multiset p taken once.
    ps = list(combinations_with_replacement(range(order), n - 1))
    columns = [g[_index(p, order) :: g_lead] for p in ps]

    def distributivity() -> AxiomStatus:
        for q in combinations_with_replacement(range(order), m):
            members = bit_members(f_of(q))
            for p, column in zip(ps, columns):
                image = 0
                for z in members:
                    image |= 1 << column[z]
                summed = 0
                for qi in q:
                    summed = summed * order + column[qi]
                if f[summed] & ~image:
                    return AxiomStatus(
                        False,
                        q + p,
                        "hyperaddition of slotted products is not contained in the "
                        "image of the hyperaddition value",
                    )
        return AxiomStatus(True)

    entries["distributivity"] = _decide(
        rows_fit,
        lambda: _contained_by_rows(order, m, f_ids, f_values, f_members, columns),
        distributivity,
    )
    tick(perf_counter())

    entries["zero-absorption"] = _first_failure(
        ((zero, *p), "product with zero must be zero")
        for p, column in zip(ps, columns) if column[zero] != zero
    )
    tick(perf_counter())
    ones = (one,) * (n - 1)
    entries["scalar-identity"] = _first_failure(
        ((x, *ones), "product with identities must return the element")
        for x in range(order) if g[_index((x, *ones), order)] != x
    )
    tick(perf_counter())

    report.timings_s = array("d", map(sub, clock[1:], clock))
    if not report.all_pass:
        return report
    return HyperRing(spec, report, tuple(negation), f, g)


def require_ring(spec: HyperRingSpec) -> HyperRing:
    """verify_axioms, raising AxiomsFailed instead of returning a report."""
    result = verify_axioms(spec)
    if isinstance(result, AxiomReport):
        raise AxiomsFailed(result)
    return result
