"""Finite commutative Krasner (m,n)-hyperrings as validated operation tables.

A ring is described by an m-ary hyperaddition table ``f`` (set valued) and an
n-ary multiplication table ``g`` (single valued), both keyed by sorted
multisets so that commutativity holds by construction.  ``verify_axioms``
checks every remaining axiom exhaustively and only hands out ``HyperRing``
objects for specs that pass.  It first calls ``validate_spec``, the one
statement of the spec rules, whose every accepted spec round-trips through
its document; ``parse_spec`` checks only what resolving names and keys needs.

The multiset-keyed dicts of ``HyperRingSpec`` are the document form.  For
checking and computing, each table is expanded once into a dense list over
every ordered tuple, indexed in mixed radix: ``(x_1, ..., x_k)`` sits at
``x_1*order**(k-1) + ... + x_(k-1)*order + x_k``, so ``f(a, b)`` is
``f_dense[a*order + b]`` when m=2.  ``f_dense`` holds bitmasks of element
indices and ``g_dense`` element indices.  The verifier builds these lists
(``_dense_tables``, with no sort per ordered tuple), checks the axioms on
them and hands the same lists to the ``HyperRing``.
The ring's views of g (``g_row``, ``scalar_row``) read ``g_dense`` in
place; only ``g_tuples`` is built as a second structure.

Associativity, reversibility and distributivity, the costly axioms, are
decided a whole row of the last argument c at a time, by one pass each
that also names the witness.  Values get ids (an element is its own id, an
f value its place among f's distinct masks).  Reversibility compares the
row f(-R, .) with the transpose of the row f(R, .).  In associativity, for
each sorted multiset of the other arguments, every grouping with c in the
inner group must give the same row; in distributivity the two sides must
give equal rows or rows whose ids pass the containment test.  These two
passes build every lift table or image first, so the id width is known
before any row is composed: rows are composed with ``bytes.translate``
where every id fits in a byte (``_BYTE_IDS``), and by itemgetters over
lists past that.  Each pass keeps its least failure, the lexicographically
first witness, until no later row can show a lesser one.  On a 2-CPU host
z256 verifies in about 0.5 s and z257 in 1.6-2.0 s.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations, combinations_with_replacement, product
from math import comb
from operator import itemgetter, sub
from time import perf_counter
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .analysis import PASS, RingAnalysis, Verdict, bit_members
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


@dataclass
class AxiomReport:
    """Per-axiom pass/fail record; failures carry a concrete witness tuple."""

    entries: dict[str, Verdict] = field(default_factory=dict)
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


_INT = frozenset({int})


def _check_arities(m: object, n: object) -> None:
    """Exact ints >= 2: a bool would pass as 0 or 1, a float as the int it equals."""
    for which, value in (("m", m), ("n", n)):
        if type(value) is not int or value < 2:
            raise ArityOutOfRange(which, value)


def validate_spec(spec: HyperRingSpec) -> None:
    """Raise a SpecFormatError subtype unless ``parse_spec(serialize_spec(spec))``
    gives back an equal spec: the one statement of the spec rules.

    A spec built in code reaches here without ``parse_spec``, so every value
    is type-checked before it is compared."""
    _check_arities(spec.m, spec.n)
    if max(spec.m, spec.n) > MAX_VERIFY_ARITY:  # before a key walk builds a key that long
        raise TablesTooLarge(f"m={spec.m}, n={spec.n} is past the arity limit {MAX_VERIFY_ARITY}")
    if type(spec.elements) is not tuple:
        raise SpecFormatError("elements must be a tuple of names")
    if not spec.elements:
        raise SpecFormatError("no elements declared")
    for name in spec.elements:
        if not isinstance(name, str) or "," in name or name == "":
            raise SpecFormatError(f"element name {name!r} is not allowed")
    if len(set(spec.elements)) != len(spec.elements):
        raise SpecFormatError("element names are not distinct")
    for key, kind in (("name", str), ("zero", str), ("one", str), ("f_table", Mapping), ("g_table", Mapping)):
        if not isinstance(getattr(spec, key), kind):  # a list table would read as missing entries
            noun = "string" if kind is str else "mapping"
            raise SpecFormatError(f"top-level field {key!r} must be a {noun}")
    try:
        "".join((spec.name, *spec.elements)).encode("utf-8")
    except UnicodeEncodeError:
        raise SpecFormatError("names must be Unicode text without lone surrogates") from None
    if spec.zero not in spec.elements:
        raise UnknownElement(spec.zero, "zero")
    if spec.one not in spec.elements:
        raise UnknownElement(spec.one, "one")
    if spec.zero == spec.one:
        raise SpecFormatError("zero and one must be distinct elements")
    order = spec.order
    carrier = frozenset(range(order))
    for key in combinations_with_replacement(range(order), spec.m):
        if key not in spec.f_table:
            raise MissingEntry("f", tuple(spec.elements[i] for i in key))
        value = spec.f_table[key]
        if type(value) not in (set, frozenset) or not _INT.issuperset(map(type, value)):
            raise SpecFormatError(f"f value at {key} is not a set of element indices")
        if not value:
            raise EmptyHyperValue(tuple(spec.elements[i] for i in key))
        if not value <= carrier:
            raise SpecFormatError(f"f value out of range at {key}")
    if len(spec.f_table) != comb(order + spec.m - 1, spec.m):
        raise SpecFormatError("f table has surplus keys")
    for key in combinations_with_replacement(range(order), spec.n):
        if key not in spec.g_table:
            raise MissingEntry("g", tuple(spec.elements[i] for i in key))
        value = spec.g_table[key]
        if type(value) is not int:
            raise SpecFormatError(f"g value at {key} is not an element index")
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

    Keys arriving in non-canonical order are normalised.  Only what resolving
    names and keys needs is checked here; ``validate_spec`` states the rest.
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
    _check_arities(m, n)
    elements = data["elements"]
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise SpecFormatError("elements must be an array of names")
    name_to_index = {name: i for i, name in enumerate(elements)}
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
        name=data["name"],
        m=m,
        n=n,
        elements=tuple(elements),
        zero=data["zero"],
        one=data["one"],
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

    def _element(self, i: int) -> int:
        """``i``, refused unless it indexes an element of this ring."""
        if i < 0 or i >= self.order:
            raise ValueError(f"element index {i} out of range")
        return i

    def subset(self, indices: Iterable[int]) -> SubsetMask:
        bits = 0
        for i in indices:
            bits |= 1 << self._element(i)
        return SubsetMask(self, bits)

    def subset_from_bits(self, bits: int) -> SubsetMask:
        return SubsetMask(self, bits)

    def subset_from_names(self, names: Iterable[str]) -> SubsetMask:
        return self.subset(self.spec.index(name) for name in names)

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

    def scalar_row(self, a: int) -> list[int]:
        """g(a, b, 1^(n-2)) for every b: every order**(n-2)-th of ``g_row(a)``."""
        pad = _index((self.one,) * (self.n - 2), self.order)
        return self.g_row(a)[pad :: self.order ** (self.n - 2)]

    # -- operations (arguments are checked against the carrier) ----------

    def hyperadd(self, *args: ElementsOrSubsets) -> SubsetMask:
        """m-ary hyperaddition, extended to subsets by union over choices."""
        if len(args) != self.m:
            raise ArityMismatch(self.m, len(args))
        return SubsetMask(self, self._hyperadd_bits(*args))

    def _choice_indices(self, args: Sequence[ElementsOrSubsets]) -> list[int]:
        """Dense indices of every tuple that picks one member per argument;
        a mask of another ring raises RingMismatch."""
        order = self.order
        indices = [0]
        for arg in args:
            if isinstance(arg, SubsetMask) and arg.ring is not self:
                raise RingMismatch("mask belongs to a different ring")
            members = [self._element(x) for x in ((arg,) if isinstance(arg, int) else arg)]
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
            return g[_index(map(self._element, args), self.order)]  # type: ignore[arg-type]
        bits = 0
        for i in self._choice_indices(args):
            bits |= 1 << g[i]
        return SubsetMask(self, bits)

    def scalar_multiply(self, a: int, b: int) -> int:
        """The induced binary product g(a, b, 1^(n-2))."""
        return self.g_at((self._element(a), self._element(b), *(self.one,) * (self.n - 2)))

    def power(self, p: int, w: int) -> int:
        """w-fold product of p, padding with the scalar identity.

        For w <= n a single application suffices; longer powers fold the
        operation over blocks of n-1 once the length is padded up to the
        nearest admissible value l*(n-1)+1.
        """
        if w < 1:
            raise ValueError("power exponent must be >= 1")
        self._element(p)
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
        return self.negation[self._element(x)]

    # -- precomputed views ------------------------------------------------

    @cached_property
    def analysis(self) -> RingAnalysis:
        """Derived lists and verdict memos, built on first use and freed with
        the ring."""
        return RingAnalysis(self)

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
    f_values = map(spec.f_table.__getitem__, combinations_with_replacement(full, spec.m))
    f = [sum(map((1).__lshift__, value)) for value in f_values]
    g = list(map(spec.g_table.__getitem__, combinations_with_replacement(full, spec.n)))
    return _spread(f, spec.order, spec.m), _spread(g, spec.order, spec.n)


def _spread(values: list[int], order: int, arity: int) -> list[int]:
    """The dense list of a symmetric table, from its ``values`` by sorted
    key in ``combinations_with_replacement`` order, with no sort per ordered
    tuple.  First each sorted tuple takes its value: the sorted keys that
    share their first arity - 1 arguments are one run of last arguments.
    Then, for each adjacent pair of arguments in the reverse order of a
    bubble-sort network, every tuple with that pair descending copies the
    tuple with the pair swapped.  After the passes for the last j
    comparators, every tuple that those comparators sort holds its value, so
    at the end every tuple does.  Each copy moves a run of last arguments,
    or a block of them, as one slice."""
    out = [0] * order**arity
    k = 0
    for head in combinations_with_replacement(range(order), arity - 1):
        low, start = head[-1], _index(head, order) * order
        out[start + low : start + order] = values[k : k + order - low]
        k += order - low
    network = [i for top in range(arity - 1, 0, -1) for i in range(top)]
    for i in reversed(network):
        chunk = order ** (arity - i - 2)  # the span of one tuple of the arguments after the pair
        for base in range(0, len(out), order * order * chunk):
            for a in range(1, order):
                row = base + a * order * chunk  # the tuples whose pair starts with a
                if chunk == 1:  # the pair (a, b), b < a, from the column (b, a)
                    out[row : row + a] = out[base + a : row : order]
                    continue
                for b in range(a):
                    src = base + (b * order + a) * chunk
                    out[row + b * chunk : row + (b + 1) * chunk] = out[src : src + chunk]
    return out


def _first_failure(failures: Iterable[tuple[tuple[int, ...], str]]) -> Verdict:
    for witness, detail in failures:
        return Verdict(False, witness=witness, detail=detail)
    return PASS


# The row passes compose rows with ``bytes.translate`` where a pass has at
# most this many ids, each fitting in a byte, and by itemgetters over lists
# past that.
_BYTE_IDS = 256


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


def _composer(row: Sequence[int], byte_ids: bool):
    """The function sending a table t to the row of the t[v], v in ``row``:
    the row's ``bytes.translate`` where ids fit in a byte, else an
    itemgetter (a row has order >= 2 entries, so it gives a tuple)."""
    return bytes(row).translate if byte_ids else itemgetter(*row)


def _table(values: Sequence[int], byte_ids: bool):
    """``values`` as a table for ``_composer``: a translate table where ids
    fit in a byte."""
    return bytes(values).ljust(256, b"\0") if byte_ids else values


def _rows(dense: Sequence[int], order: int, arity: int) -> dict:
    """The row over the last argument of each sorted (arity-1)-multiset."""
    rows = {}
    for a in combinations_with_replacement(range(order), arity - 1):
        start = _index(a, order) * order
        rows[a] = dense[start : start + order]
    return rows


def _lift(column: Sequence[int], f_members: list, ids: dict) -> list[int]:
    """For each f value, the id in ``ids`` of the union of ``column`` over
    its members, interned."""
    out = []
    for zs in f_members:
        bits = 0
        for z in zs:
            bits |= column[z]
        out.append(ids.setdefault(bits, len(ids)))
    return out


def _associativity(order: int, arity: int, rows: dict, lifts: dict, byte_ids: bool, show) -> Verdict:
    """Associativity, decided a whole row of the free last argument c at a time.

    ``rows[A]``, for each sorted (arity-1)-multiset A, holds the value ids
    of the row over c of A, and ``lifts[rest]`` sends a value id v to the id
    of v regrouped with ``rest``.  For each sorted (2*arity-2)-multiset M
    and each (arity-1)-submultiset A, the inner group A + c gives the row of
    the ``lifts[M - A][v]``, v in ``rows[A]``, and these rows must agree.

    The groupings with c outside the inner group need no rows of their own.
    Take a (2*arity-1)-multiset X and two inner groups B and B'; pick x in B
    and x' in B'.  Some inner group holds both x and x' (arity >= 2), and the
    rows with c = x and with c = x' compare it with B and with B'.  So X
    fails exactly when some row M = X - c differs at c.  The witness is the
    least such sorted M + c, the first failing multiset in lexicographic
    order; in each M only the least differing c can give it.  No M + c is
    below (0, *M), so the pass stops at the first M past the witness so
    far with 0 removed.  ``show`` renders a lifted id in the detail.
    """
    composers = {a: _composer(row, byte_ids) for a, row in rows.items()}
    tables = {rest: _table(lift, byte_ids) for rest, lift in lifts.items()}
    (inner0, rest0), *splits = _row_splits(arity)
    # the least failure so far (none: past every multiset), and the M past
    # which no failure is less
    witness = bound = (order,)
    for ms in combinations_with_replacement(range(order), 2 * arity - 2):
        if ms > bound:
            break
        first = composers[inner0(ms)](tables[rest0(ms)])
        c = order
        for inner, rest in splits:
            row = composers[inner(ms)](tables[rest(ms)])
            if row != first:
                c = min(c, next(i for i, (x, y) in enumerate(zip(row, first)) if x != y))
        if c < order and (failure := tuple(sorted((*ms, c)))) < witness:
            witness = failure
            if not witness[0]:
                bound = witness[1:]
    if witness == (order,):
        return PASS
    # the detail: the first grouping of the witness in position order, and
    # the first that differs from it
    size = 2 * arity - 1
    groupings = []
    for positions in combinations(range(size), arity):
        inner = tuple(witness[i] for i in positions)
        rest = tuple(witness[i] for i in range(size) if i not in positions)
        groupings.append((inner, lifts[rest][rows[inner[:-1]][inner[-1]]]))
    (inner0, first), *others = groupings
    inner, value = next(grouping for grouping in others if grouping[1] != first)
    return Verdict(
        False,
        witness=witness,
        detail=f"grouping {inner0} gives {show(first)} but grouping {inner} gives {show(value)}",
    )


def _distributivity(
    order: int, m: int, f_rows: dict, f_values: list[int], f_members: list, ps: list, columns: list,
) -> Verdict:
    """Distributivity as containment, decided a whole row of the last
    hyperaddition argument c at a time.

    For the column ``col`` = g(., p) of an (n-1)-multiset p and a sorted
    (m-1)-multiset Q, the summed side f(col(Q), col(c)) over c is the f row
    of col(Q) read at col, and the image side is the f row of Q sent through
    the id of each f value's image under g(., p).  Images are interned among
    the f values, so equal rows mean the containment holds; where the rows
    differ, they are tested id by id for the least failing c, and a pair
    that holds is not tested again.  Whether an m-multiset q fails at p does
    not depend on which of its members is c, so the witness is the least
    (sorted(Q + c), p), the first failing (q, p) in lexicographic order.
    Inserting c into Q lowers no place of Q, so a failure shown at a Q before
    q less its largest member is below every (q, p): the least failure shows
    at the first Q that shows one, and the pass stops there.
    """
    ids = {bits: i for i, bits in enumerate(f_values)}
    images = [_lift([1 << x for x in column], f_members, ids) for column in columns]
    id_bits = list(ids)
    byte_ids = max(order, len(ids)) <= _BYTE_IDS
    tables = {q: _table(row, byte_ids) for q, row in f_rows.items()}
    cols = [
        (p, _composer(column, byte_ids), _table(image, byte_ids), tuple(column))
        for p, column, image in zip(ps, columns, images)
    ]
    many = m > 2
    contained = set()
    failures = []
    for q, row in f_rows.items():
        pick, held_of = _picker(q), _composer(row, byte_ids)
        for p, col, image, values in cols:
            key = pick(values)  # a one-entry key is a sorted slice already
            summed = col(tables[tuple(sorted(key)) if many else key])
            held = held_of(image)
            if summed != held and (summed, held) not in contained:
                c = next((c for c, (a, b) in enumerate(zip(summed, held)) if id_bits[a] & ~id_bits[b]), None)
                if c is None:
                    contained.add((summed, held))
                else:
                    failures.append((tuple(sorted((*q, c))), p))
        if failures:
            break
    if not failures:
        return PASS
    q, p = min(failures)
    return Verdict(
        False,
        witness=q + p,
        detail="hyperaddition of slotted products is not contained in the image of the "
        "hyperaddition value",
    )


def _reversibility(order: int, f: list[int], f_rows: dict, f_members: list, negation: list[int]) -> Verdict:
    """Reversibility: for a sorted (m-1)-multiset R, x in f(R, a) must imply
    a in f(-R, x).  Taken for R and -R, the row f(-R, .) must equal the
    transpose T of f(R, .), which groups the a by the id (of any width) of
    f(R, a) in ``f_rows[R]``.  Where they differ, an a in T[x] - f(-R, x)
    fails as (R, a, x) and an a in f(-R, x) - T[x] as (-R, x, a); each
    (R', b, y) has y in f(R', b) and b not in f(-R', y).  The witness is the least
    (sorted(R' + b), y, first index of b), the first failure in lexicographic
    order; in each column only the least member of a difference can give it.
    """
    def failure(side: Sequence[int], b: int, y: int) -> tuple:
        ms = tuple(sorted((*side, b)))
        return ms, y, ms.index(b)

    failures = []
    for r, ids in f_rows.items():
        neg = sorted(negation[x] for x in r)
        if neg < list(r):  # checked from the side of -R
            continue
        groups: dict[int, int] = {}
        for a, i in enumerate(ids):
            groups[i] = groups.get(i, 0) | 1 << a
        transposed = [0] * order
        for i, bits in groups.items():
            for x in f_members[i]:
                transposed[x] |= bits
        start = _index(neg, order) * order
        row = f[start : start + order]
        if transposed == row:
            continue
        for x, (t, b) in enumerate(zip(transposed, row)):
            if t & ~b:
                failures.append(failure(r, bit_members(t & ~b)[0], x))
            if b & ~t:
                failures.append(failure(neg, x, bit_members(b & ~t)[0]))
    if not failures:
        return PASS
    ms, x, i = min(failures)
    return Verdict(False, witness=ms, detail=f"element {x} cannot be reversed at position {i + 1}")


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

    # Ids for the row passes: an element names itself, an f value its place
    # among f's distinct masks.
    f_values = list(dict.fromkeys(f))
    f_id = {bits: i for i, bits in enumerate(f_values)}
    f_members = [bit_members(bits) for bits in f_values]
    f_rows = _rows([f_id[bits] for bits in f], order, m)

    # f-associativity: the lift of rest sends an f value v to the id of
    # f(v, rest), the union of the column f(., rest) over v.
    lifted: dict[int, int] = {}
    f_lifts = {rest: _lift(f[_index(rest, order) :: f_lead], f_members, lifted) for rest in f_rows}
    lifted_values = list(lifted)
    entries["f-associativity"] = _associativity(
        order, m, f_rows, f_lifts, max(len(f_values), len(lifted)) <= _BYTE_IDS,
        lambda i: bit_members(lifted_values[i]),
    )
    tick(perf_counter())

    # neutral element: f(x, 0^(m-1)) = {x}.
    zeros = (zero,) * (m - 1)
    entries["neutral-element"] = _first_failure(
        ((x, *zeros), "hyperaddition with zeros must be the singleton")
        for x in range(order) if f[_index((x, *zeros), order)] != 1 << x
    )
    tick(perf_counter())

    # unique inverses: exactly one y with 0 in f(x, 0^(m-2), y), read off
    # the row of (x, 0^(m-2)).
    negation = [0] * order
    status = PASS
    pad = (zero,) * (m - 2)
    for x in range(order):
        start = _index((x, *pad), order) * order
        ys = [y for y, bits in enumerate(f[start : start + order]) if bits >> zero & 1]
        if len(ys) != 1:
            kind = "no inverse" if not ys else f"multiple inverses {ys}"
            status = Verdict(False, witness=(x,), detail=kind)
            break
        negation[x] = ys[0]
    entries["unique-inverses"] = status
    tick(perf_counter())

    # reversibility: x in f(a_1..a_m) implies a_i in f(x, -a_j for j != i).
    entries["reversibility"] = (
        _reversibility(order, f, f_rows, f_members, negation) if status.ok
        else Verdict(False, witness=(0,), detail="not checkable: inverses are not unique")
    )
    tick(perf_counter())

    # commutativity of g holds by multiset keying.
    entries["g-commutativity"] = Verdict(True, detail="by table construction")
    tick(perf_counter())

    # g-associativity: lifting v with rest is g(v, rest), the column of g at
    # rest, which distributivity takes once per (n-1)-multiset p as well.
    g_rows = _rows(g, order, n)
    ps = list(g_rows)
    columns = [g[_index(p, order) :: g_lead] for p in ps]
    entries["g-associativity"] = _associativity(
        order, n, g_rows, dict(zip(ps, columns)), order <= _BYTE_IDS, int,
    )
    tick(perf_counter())

    # distributivity over one slot (commutativity covers the others)
    entries["distributivity"] = _distributivity(order, m, f_rows, f_values, f_members, ps, columns)
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
