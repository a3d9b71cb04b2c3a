"""Finite commutative Krasner (m,n)-hyperrings as validated operation tables.

A ring is described by an m-ary hyperaddition table ``f`` (set valued) and an
n-ary multiplication table ``g`` (single valued), both keyed by sorted
multisets so that commutativity holds by construction.  ``verify_axioms``
checks every remaining axiom exhaustively and only hands out ``HyperRing``
objects for specs that pass.  It first calls ``validate_spec``, the one
statement of the spec rules, whose every accepted spec round-trips through
its document; ``parse_spec`` checks only what resolving names and keys needs.
Both resolve and check a table whole, once per distinct value: one split of
the joined keys, one shared frozenset per distinct f value list, one type
check per distinct f value object.  Where that refuses, a walk over the
entries only names the first error.

The multiset-keyed dicts of ``HyperRingSpec`` are the document form.  For
checking and computing, each table is expanded once into a dense list over
every ordered tuple, indexed in mixed radix: ``(x_1, ..., x_k)`` sits at
``x_1*order**(k-1) + ... + x_(k-1)*order + x_k``, so ``f(a, b)`` is
``f_dense[a*order + b]`` when m=2.  ``f_dense`` holds bitmasks of element
indices and ``g_dense`` element indices.  The verifier builds these lists
(``_dense_tables``, with no sort per ordered tuple), checks the axioms on
them and hands the same lists to the ``HyperRing``.  The ring also keeps
its binary reducts ``f2`` and ``g2``, stated once by ``_reduct``:
every binary read, such as ``scalar_multiply``, ``power`` and the sum and
scalar rows of the analysis, goes through them.  At (2,2) they are the
dense lists themselves.  ``g_row`` reads ``g_dense`` in place; only
``g_tuples`` is built as a second structure.  A table is mapped once per
distinct value by one memo, ``_Memo``: the f values of ``parse_spec``,
the f2 row unions of ``_fold``, and in ``constructions``; ``serialize_spec``
and ``_dense_tables`` render each distinct f value once, by its id, its
place among the distinct values (``_interned``).  ``_dense_tables`` also
gives f as these ids, which the verifier's passes read.

Associativity, reversibility and distributivity, the costly axioms, are
decided by one pass each that also names the lexicographically first
witness.  Values get ids (an element is its own id, an f value its place
among f's distinct masks).  Reversibility compares the row f(-R, .) with
the transpose of the row f(R, .).  Associativity and distributivity compose
a whole plane per C call, the rows over the last argument c of every
multiset that shares all but one more argument, once its lift tables or
images settle the id width: by ``bytes.translate`` where every id fits in
a byte (``_BYTE_IDS``), by itemgetters over lists past that.  On a 2-CPU
host z256 verifies in about 0.2 s and z257 in 1.2-1.6 s.

Generators.  (2,2) tables whose f values are all singletons and whose ids
fit in a byte are first tried by ``_generator_route``: it proves every
axiom from O(order^2 |S|) byte compositions or gives up, and the passes
decide and name the witnesses.  S is a greedy additive generating set: each
new member is the least element not yet reached from 0 and S by sums, and
it must at least double the set reached, as it does in a group (the coset
H + s is as large as the subgroup H and disjoint from it), so
|S| <= log2(order).  Three lemmas carry each check on S to the carrier:
1. Light: the a with (xa)y = x(ay) for all x and y form a closed set; it
   holds S and the neutral 0, so every sum reached (Clifford & Preston
   1961, 1.2).
2. Once f is associative, the s with h_p(x+s) = h_p(x) + h_p(s) for all x,
   for h_p = g(., p), are closed under +.
3. Once distributivity holds as equality, which it does for single-valued
   f, the a that pass Light's test for g are closed under +.
The rest are row compares: the row of 0 is the identity, 0 occurs once in
each row and its place is the negation, and g(1, .) is the identity.
Reversibility holds in every abelian group, and zero absorption follows
from distributivity: g(p, 0) = g(p, 0 + 0) = g(p, 0) + g(p, 0).

A spec with m > 2 or n > 2 is first decided on its binary reducts
f2(a, b) = f(a, b, 0^(m-2)) and g2(a, b) = g(a, b, 1^(n-2)), each one
strided slice of its dense table.  If ``f_dense`` and ``g_dense`` equal the
left-fold lifts of the reducts (``_fold``: each level concatenates the g2
rows at the previous level's values, or for f the union of the f2 rows of
each mask's members), and the reducts pass every axiom as a (2,2) ring,
the ring passes with the reducts' report and negation.  Otherwise the
n-ary passes decide, so every failing spec keeps its n-ary witness.  The
lifts and the binary axioms give each n-ary axiom (Dörnte 1929, Post 1940):
- f- and g-associativity: every grouping of a lift equals the full fold.
- neutral element, unique inverses: f(x, 0^(m-1)) and f(x, 0^(m-2), .) are
  the reduct's f2(x, 0) and row f2(x, .).
- reversibility: in a canonical hypergroup -(a+b) = (-a)+(-b), so x in t + a
  with t in r_1 + ... + r_(m-1) gives a in -t + x, inside f(-R, x).
- distributivity as containment: by induction on the sum, the sum of the
  x_i P lies in (x_1 + ... + x_m) P, for P = p_1 ... p_(n-1).
- zero absorption, scalar identity: g(0, p) and g(x, 1^(n-1)) fold to g2
  of 0 or of x, as the reduct's own entries.
Conversely the n-ary axioms, read with 0s or 1s as padding, are the
binary ones, so a valid ring never pays for both routes.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from functools import cache, cached_property, partial, reduce
from itertools import chain, combinations, combinations_with_replacement, count, product, repeat
from json.encoder import encode_basestring_ascii
from operator import add, itemgetter, le, or_, sub
from time import perf_counter
from typing import Iterable, Iterator, Mapping, NoReturn, Sequence, Union

from .analysis import PASS, RingAnalysis, Verdict, bit_members, render_tuple
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
                msg = f"{name}: FAIL witness ({render_tuple(elements, st.witness)})"
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
    for table in ("f", "g"):
        _check_table(spec, table)


_SETS = frozenset({set, frozenset})


def _check_table(spec: HyperRingSpec, table: str) -> None:
    """Check one table of ``spec`` whole: its keys are the sorted multisets,
    each distinct f value object (by identity: True == 1) is a non-empty set
    of exact ints in range, and the g values, as one list, are exact ints in
    range.  Where it refuses, ``_refuse_spec_table`` names the error."""
    mapping, arity = (spec.f_table, spec.m) if table == "f" else (spec.g_table, spec.n)
    order = spec.order
    keys = list(combinations_with_replacement(range(order), arity))
    if list(mapping) == keys:  # in sorted key order, as documents and constructions build them
        values = list(mapping.values())
    elif len(mapping) == len(keys) and all(map(mapping.__contains__, keys)):
        values = list(map(mapping.__getitem__, keys))
    else:
        _refuse_spec_table(spec, table, mapping, keys)
    if table == "g":
        holds = _INT.issuperset(map(type, values)) and 0 <= min(values) and max(values) < order
    else:
        distinct = dict(zip(map(id, values), values)).values()
        holds = (_SETS.issuperset(map(type, distinct)) and all(distinct)
                 and _INT.issuperset(map(type, chain.from_iterable(distinct)))
                 and frozenset(range(order)).issuperset(chain.from_iterable(distinct)))
    if not holds:
        _refuse_spec_table(spec, table, mapping, keys)


def _refuse_spec_table(spec: HyperRingSpec, table: str, mapping: Mapping, keys: list) -> NoReturn:
    """Raise the first error of a table that ``_check_table`` refused, in
    ``combinations_with_replacement`` order: the per-entry walk, which only
    names the error.  Past the last key, all that is left is surplus keys."""
    order = spec.order
    carrier = frozenset(range(order))
    for key in keys:
        if key not in mapping:
            raise MissingEntry(table, tuple(spec.elements[i] for i in key))
        value = mapping[key]
        if table == "g":
            if type(value) is not int:
                raise SpecFormatError(f"g value at {key} is not an element index")
            if value < 0 or value >= order:
                raise SpecFormatError(f"g value out of range at {key}")
            continue
        if type(value) not in _SETS or not _INT.issuperset(map(type, value)):
            raise SpecFormatError(f"f value at {key} is not a set of element indices")
        if not value:
            raise EmptyHyperValue(tuple(spec.elements[i] for i in key))
        if not value <= carrier:
            raise SpecFormatError(f"f value out of range at {key}")
    raise SpecFormatError(f"{table} table has surplus keys")


def _resolve_table(raw: dict, name_to_index: dict, arity: int, table: str) -> dict:
    """The spec table of a document table, resolved whole: the keys, once
    each has arity - 1 commas, by one split of their joined text (each
    sorted, unless all are), and each distinct f value list once, into one
    shared frozenset.  An unknown name or an unhashable member fails its
    lookup, and a duplicate multiset gives a shorter dict; where it
    refuses, ``_refuse_document_table`` names the error."""
    if not raw:
        return {}
    try:
        if {*map(str.count, raw, repeat(","))} == {arity - 1} and (
                table == "g" or {*map(type, raw.values())} == {list}):
            names = list(map(name_to_index.__getitem__, ",".join(raw).split(",")))
            places = [names[i::arity] for i in range(arity)]  # each key's i-th name, for every i
            keys = zip(*places)
            if not all(map(all, map(map, repeat(le), places, places[1:]))):  # some key is not sorted
                keys = map(tuple, map(sorted, keys))
            if table == "g":
                values = map(name_to_index.__getitem__, raw.values())
            else:
                members = _Memo(lambda value: frozenset(map(name_to_index.__getitem__, value)))
                values = map(members.__getitem__, map(tuple, raw.values()))
            resolved = dict(zip(keys, values))
            if len(resolved) == len(raw):
                return resolved
    except (KeyError, TypeError):
        pass
    _refuse_document_table(raw, name_to_index, arity, table)


def _refuse_document_table(raw: dict, name_to_index: dict, arity: int, table: str) -> NoReturn:
    """Raise the first error of a table that ``_resolve_table`` refused, in
    document order: the per-entry walk, which only names the error."""
    seen = set()
    for raw_key, raw_value in raw.items():
        parts = raw_key.split(",")
        if len(parts) != arity:
            raise SpecFormatError(f"key {raw_key!r} in table {table!r} has {len(parts)} entries, expected {arity}")
        for part in parts:
            if part not in name_to_index:
                raise UnknownElement(part, f"table {table!r} key {raw_key!r}")
        key = tuple(sorted(map(name_to_index.__getitem__, parts)))
        if key in seen:
            raise SpecFormatError(f"duplicate {table} entry for multiset {raw_key!r}")
        seen.add(key)
        if table == "g":
            if not isinstance(raw_value, str) or raw_value not in name_to_index:
                raise UnknownElement(str(raw_value), f"g value for {raw_key!r}")
            continue
        if not isinstance(raw_value, list):
            raise SpecFormatError(f"f value for {raw_key!r} must be an array")
        for member in raw_value:
            if not isinstance(member, str) or member not in name_to_index:
                raise UnknownElement(str(member), f"f value for {raw_key!r}")
    raise AssertionError(f"table {table!r} was refused with no entry at fault")


def parse_spec(document: str) -> HyperRingSpec:
    """Parse a UTF-8 JSON ring document into a validated HyperRingSpec.

    Keys arriving in non-canonical order are normalised.  Only what resolving
    names and keys needs is checked here; ``validate_spec`` states the rest.
    """
    try:
        data = json.loads(document)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError, too deep, or too many digits
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

    f_table = _resolve_table(data["f"], name_to_index, m, "f")
    g_table = _resolve_table(data["g"], name_to_index, n, "g")
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
    """Emit the canonical JSON document: keys in index order, values sorted.

    The text is ``json.dumps(doc, indent=2) + "\\n"`` of the document, written
    line by line: with an indent, ``json.dumps`` takes its pure-Python
    encoder, so each name, key and distinct f value is rendered once here."""
    quoted = list(map(encode_basestring_ascii, spec.elements))
    bare = [name[1:-1] for name in quoted]  # a key joins names unquoted
    full = range(spec.order)
    keys = {  # each key's text up to its value, by arity
        arity: [f'"{",".join(map(bare.__getitem__, key))}": ' for key in combinations_with_replacement(full, arity)]
        for arity in {spec.m, spec.n}
    }
    f_ids, f_blocks = _by_f_value(spec, lambda value: _json_block("[]", map(quoted.__getitem__, sorted(value)), 6))
    f_values = map(f_blocks.__getitem__, f_ids)
    g_values = map(quoted.__getitem__, map(spec.g_table.__getitem__, combinations_with_replacement(full, spec.n)))
    f_items, g_items = map(add, keys[spec.m], f_values), map(add, keys[spec.n], g_values)
    return _json_block("{}", [
        f'"name": {encode_basestring_ascii(spec.name)}',
        f'"m": {json.dumps(spec.m)}',
        f'"n": {json.dumps(spec.n)}',
        f'"elements": {_json_block("[]", quoted, 4)}',
        f'"zero": {encode_basestring_ascii(spec.zero)}',
        f'"one": {encode_basestring_ascii(spec.one)}',
        f'"f": {_json_block("{}", f_items, 4)}',
        f'"g": {_json_block("{}", g_items, 4)}',
    ], 2) + "\n"


class _Memo(dict):
    """A dict that builds a missing value with ``build(key)`` and keeps it:
    the one way a table is mapped once per distinct value."""

    __slots__ = ("build",)

    def __init__(self, build):
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


def _interned(values: Iterable) -> tuple[list[int], list]:
    """The id of each of ``values``, its place among the distinct values by
    first appearance, and those distinct values in id order."""
    values = list(values)  # no memo that reads itself: a cycle left to the collector
    ids = {value: i for i, value in enumerate(dict.fromkeys(values))}
    return list(map(ids.__getitem__, values)), list(ids)


def _by_f_value(spec: HyperRingSpec, render) -> tuple[list[int], list]:
    """The id of the f value of each sorted key in order (``_interned``; a
    set value is taken as its frozenset), and ``render(value)`` of each
    distinct value in id order: each is rendered once."""
    keys = combinations_with_replacement(range(spec.order), spec.m)
    ids, values = _interned(map(frozenset, map(spec.f_table.__getitem__, keys)))
    return ids, list(map(render, values))


def _json_block(brackets: str, items: Iterable[str], indent: int) -> str:
    """A JSON array or object as ``json.dumps`` lays it out with
    ``indent=2``, from its rendered ``items`` at depth ``indent``."""
    pad = "\n" + " " * indent
    body = ("," + pad).join(items)
    return f"{brackets[0]}{pad}{body}{pad[:-2]}{brackets[1]}" if body else brackets


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
        return self.ring.names_of_bits(self.bits)

    def __repr__(self) -> str:
        return self.ring.render_bits(self.bits)


ElementsOrSubsets = Union[int, SubsetMask, Iterable[int]]


class HyperRing:
    """A validated ring; construct via verify_axioms or require_ring, or by
    a construction that carries its proof (``constructions``).  Its
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
        # f2(a, b) = f(a, b, 0^(m-2)) and g2(a, b) = g(a, b, 1^(n-2)), of
        # which f_dense and g_dense are the lifts (see verify_axioms)
        self.f2 = _reduct(f_dense, self.order, self.m, self.zero)
        self.g2 = _reduct(g_dense, self.order, self.n, self.one)

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
        return tuple(map(self.elements.__getitem__, bit_members(bits & self.full_bits)))

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

    # -- operations (arguments are checked against the carrier) ----------

    def hyperadd(self, *args: ElementsOrSubsets) -> SubsetMask:
        """m-ary hyperaddition, extended to subsets by union over choices."""
        if len(args) != self.m:
            raise ArityMismatch(self.m, len(args))
        return SubsetMask(self, reduce(or_, map(self.f_dense.__getitem__, self._choice_indices(args)), 0))

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

    def multiply(self, *args: ElementsOrSubsets) -> int | SubsetMask:
        """n-ary multiplication; with subset arguments, the set of outcomes."""
        if len(args) != self.n:
            raise ArityMismatch(self.n, len(args))
        products = set(map(self.g_dense.__getitem__, self._choice_indices(args)))
        if all(isinstance(a, int) for a in args):
            return products.pop()
        return SubsetMask(self, sum(1 << p for p in products))

    def scalar_multiply(self, a: int, b: int) -> int:
        """The induced binary product g(a, b, 1^(n-2))."""
        return self.g2[self._element(a) * self.order + self._element(b)]

    def power(self, p: int, w: int) -> int:
        """w-fold product of p: g is the left fold of g2, so p^w folds g2."""
        if w < 1:
            raise ValueError("power exponent must be >= 1")
        acc = self._element(p)
        g2, row = self.g2, p * self.order
        for _ in range(w - 1):
            acc = g2[row + acc]
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


def _dense_tables(spec: HyperRingSpec) -> tuple[list[int], list[int], list[int], list[int]]:
    """``f`` as bitmasks and ``g`` as indices, over every ordered tuple, and
    ``f`` as ids with the distinct masks they name.  The ids number the
    values by first appearance in dense order, as they do in sorted key
    order: a value first shows at a sorted tuple."""
    ids, masks = _by_f_value(spec, lambda value: sum(map((1).__lshift__, value)))
    f = list(map(masks.__getitem__, ids))
    g = list(map(spec.g_table.__getitem__, combinations_with_replacement(range(spec.order), spec.n)))
    order, m = spec.order, spec.m
    return _spread(f, order, m), _spread(g, order, spec.n), _spread(ids, order, m), masks


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
    if arity == 1:
        return values
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


# The plane passes compose with ``bytes.translate`` where a pass has at most
# this many ids, each fitting in a byte, and by itemgetters over lists past
# that.
_BYTE_IDS = 256


@cache
def _plane_splits(arity: int) -> tuple:
    """Each split (A, M - A) of a sorted (2*arity-2)-multiset M, as whether A
    holds M's last member l, and itemgetters of A and of M - A, as tuples,
    from M's prefix, reading l as the prefix's last member: a run's first."""
    last, splits = 2 * arity - 3, []
    for inner in combinations(range(last + 1), arity - 1):
        rest = [i for i in range(last + 1) if i not in inner]
        places = [[min(i, last - 1) for i in part] for part in (inner, rest)]
        getters = (itemgetter(*p) if len(p) > 1 else itemgetter(slice(p[0], p[0] + 1)) for p in places)
        splits.append((last in inner, *getters))
    return tuple(splits)


def _compose(rows: Sequence, tables: Iterable, byte_ids: bool):
    """The plane of the t[v], for each table t of ``tables``, row of ``rows``
    and v in it: one ``translate`` per table, joined, where ids fit in a
    byte, else a list of tuples."""
    if byte_ids:
        return b"".join(map(b"".join(rows).translate, tables))
    return [row(table) for table in tables for row in rows]


def _plane_rows(plane, order: int) -> Sequence:
    """The rows of a plane from ``_compose``."""
    return [plane[i : i + order] for i in range(0, len(plane), order)] if type(plane) is bytes else plane


def _row(values: Sequence[int], byte_ids: bool):
    """A row of ids for ``_compose``: bytes, or past a byte an itemgetter of its order >= 2 ids."""
    return bytes(values) if byte_ids else itemgetter(*values)


def _table(values: Sequence[int], byte_ids: bool):
    """``values`` as a table for ``_compose``: a translate table where ids fit in a byte."""
    return bytes(values).ljust(256, b"\0") if byte_ids else values


def _rows(dense: Sequence[int], order: int, arity: int) -> dict:
    """The row over the last argument of each sorted (arity-1)-multiset."""
    rows = {}
    for a in combinations_with_replacement(range(order), arity - 1):
        start = _index(a, order) * order
        rows[a] = dense[start : start + order]
    return rows


def _lifts(blocks: list, f_members: list, ids: dict) -> list:
    """For each place r of the rows ``blocks[z]`` of ids in ``ids``, one per
    element z, the ids over the f values v of the union of the ``blocks[z][r]``
    for z in v, as a tuple; new unions are interned."""
    values, rows = list(ids), []
    for zs in f_members:
        rows.append(blocks[zs[0]] if len(zs) == 1 else [ids.setdefault(bits, len(ids)) for bits in reduce(
            partial(map, or_), (map(values.__getitem__, blocks[z]) for z in zs))])
    return list(zip(*rows))


def _associativity(order: int, arity: int, rows: list, lifts: list, byte_ids: bool, show) -> Verdict:
    """Associativity, decided a whole plane at a time (see the README).

    ``rows[a]`` holds the value ids of the row over c of the a-th sorted
    (arity-1)-multiset A, and ``lifts[r]`` sends a value id v to the id of
    v regrouped with the r-th, both in ``combinations_with_replacement``
    order.  For a sorted (2*arity-2)-multiset M, each inner group A + c
    gives the lift of M - A read at the row of A; X fails exactly when some
    row M = X - c differs at c.  A plane holds these rows for every
    M = prefix + (l,), l from the prefix's last member up.  The witness is
    the least sorted M + c; no M + c is below (0, *M), so the pass stops at
    the first plane past the witness so far less its 0.
    """
    composers, tables = [_row(row, byte_ids) for row in rows], [_table(lift, byte_ids) for lift in lifts]
    place = dict(zip(combinations_with_replacement(range(order), arity - 1), count()))
    last = 2 * arity - 3  # the place of l in M
    # the least failure so far (none: past every multiset), and the M past
    # which no failure is less
    witness = bound = (order,)
    for prefix in combinations_with_replacement(range(order), last):
        low = prefix[-1]
        if (*prefix, low) > bound:
            break
        planes = {}  # by whether l is in A, and the places of A and of M - A
        for block, inner, rest in _plane_splits(arity):
            key = block, a, r = block, place[inner(prefix)], place[rest(prefix)]
            if key in planes:
                continue
            if block:  # the rows of A less l, with each l, through the lift of M - A
                planes[key] = _compose(composers[a : a + order - low], tables[r : r + 1], byte_ids)
            else:  # the row of A through the lifts of M - A less l, with each l
                planes[key] = _compose(composers[a : a + 1], tables[r : r + order - low], byte_ids)
        first, *others = planes.values()
        if all(plane == first for plane in others):
            continue
        first, *others = (_plane_rows(plane, order) for plane in planes.values())
        for l, row in enumerate(first, low):
            cs = [next(i for i, (x, y) in enumerate(zip(other[l - low], row)) if x != y)
                  for other in others if other[l - low] != row]
            if cs and (failure := tuple(sorted((*prefix, l, min(cs))))) < witness:
                witness = failure
                if not witness[0]:
                    bound = witness[1:]
    if witness == (order,):
        return PASS
    # the detail: the first grouping of the witness in position order, and
    # the first that differs from it
    groupings = []
    for positions in combinations(range(last + 2), arity):
        inner = tuple(witness[i] for i in positions)
        rest = tuple(witness[i] for i in range(last + 2) if i not in positions)
        groupings.append((inner, tables[place[rest]][rows[place[inner[:-1]]][inner[-1]]]))
    (inner0, first), *others = groupings
    inner, value = next(grouping for grouping in others if grouping[1] != first)
    return Verdict(
        False,
        witness=witness,
        detail=f"grouping {inner0} gives {show(first)} but grouping {inner} gives {show(value)}",
    )


def _distributivity(
    order: int, m: int, f_rows: dict, ids: dict, f_members: list, ps: list, columns: list,
) -> Verdict:
    """Distributivity as containment, one plane per (n-1)-multiset p: the
    rows over the last hyperaddition argument c of every sorted
    (m-1)-multiset Q (see the README).

    For ``col`` = g(., p), the summed side f(col(Q), col(c)) is the f row of
    col(Q) read at col, and the image side the f row of Q through the id, in
    ``ids`` after the f values, of each f value's image under g(., p).
    Equal rows hold; differing rows are tested id by id for the least
    failing c, and a pair that holds is not tested again.  The witness is
    the least (sorted(Q + c), p); it shows at the first Q that shows any
    failure, and no plane goes past that Q.
    """
    single = [ids.setdefault(1 << x, len(ids)) for x in range(order)]  # the id of each {x}
    images = _lifts([itemgetter(*row)(single) for row in zip(*columns)], f_members, ids)
    id_bits = list(ids)
    byte_ids = len(ids) <= _BYTE_IDS
    qs = list(f_rows)
    rows = [_row(row, byte_ids) for row in f_rows.values()]
    tables = _spread([_table(row, byte_ids) for row in f_rows.values()], order, m - 1)
    places = list(zip(*qs))  # each place of every Q
    contained = set()
    first, failures = len(qs) - 1, []  # the last Q that can show the least failure, and its failures
    for p, column, image in zip(ps, columns, images):
        keys = map(column.__getitem__, places[0][: first + 1])  # the dense index of each col(Q)
        for place in places[1:]:
            keys = map(add, map(order.__mul__, keys), map(column.__getitem__, place[: first + 1]))
        summed = _compose([_row(column, byte_ids)], map(tables.__getitem__, keys), byte_ids)
        held = _compose(rows[: first + 1], (_table(image, byte_ids),), byte_ids)
        if summed == held:
            continue
        for j, pair in enumerate(zip(_plane_rows(summed, order), _plane_rows(held, order))):
            if pair[0] == pair[1] or pair in contained:
                continue
            c = next((c for c, (a, b) in enumerate(zip(*pair)) if id_bits[a] & ~id_bits[b]), None)
            if c is None:
                contained.add(pair)
                continue
            if j < first or not failures:
                first, failures = j, []
            failures.append((tuple(sorted((*qs[j], c))), p))
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
    single valued).  A ring past (2,2) that is the lift of its binary
    reducts is decided on the reducts, and single-valued (2,2) tables on an
    additive generating set first (see the module docstring).
    """
    validate_spec(spec)
    order = spec.order
    m, n = spec.m, spec.n
    check_table_size(order, m, n)
    zero = spec.index(spec.zero)
    one = spec.index(spec.one)
    f, g, f_ids, f_values = _dense_tables(spec)
    verified = _verify_reducts(order, m, n, f, g, zero, one) if max(m, n) > 2 else None
    report, negation = verified or _verify_tables(order, m, n, f, g, zero, one, f_ids, f_values)
    if not report.all_pass:
        return report
    return HyperRing(spec, report, negation, f, g)


def _verify_tables(
    order: int, m: int, n: int, f: list[int], g: list[int], zero: int, one: int,
    f_ids: list[int], f_values: list[int],
) -> tuple[AxiomReport, tuple[int, ...]]:
    """The report on dense tables ``f`` and ``g`` of arities m and n, and
    the negation it read (meaningful where inverses are unique).  ``f_ids``
    is ``f`` as ids, ``f_values[i]`` the mask of id i (``_dense_tables``).
    Single-valued (2,2) tables are first tried by ``_generator_route``;
    where it gives up, the passes decide and name the witnesses."""
    routed = m == n == 2 and _generator_route(order, f_ids, g, zero, one, f_values)
    return routed or _passes(order, m, n, f, g, zero, one, f_ids, f_values)


def _generator_route(
    order: int, f_ids: list[int], g: list[int], zero: int, one: int, f_values: list[int],
) -> tuple[AxiomReport, tuple[int, ...]] | None:
    """The all-pass report and the negation of (2,2) tables whose f values
    are singletons and whose ids fit in a byte, proved on a greedy additive
    generating set S (``_generators``) by the three lemmas of the module
    docstring; None where any step fails, and the passes decide.  Every step
    must hold, so the steps go in ``AXIOM_ORDER``, each timed with its
    axiom, though lemma 3 leans on distributivity.  Each table is bytes: the
    row of x holds x + y (or x y) over y, and its translate table sends y
    there, so a whole plane of compositions is one join."""
    if order > _BYTE_IDS or any(bits & (bits - 1) for bits in f_values):
        return None
    clock = [perf_counter()]
    tick = clock.append
    sums = _plane_rows(bytes(f_ids).translate(_table([bits.bit_length() - 1 for bits in f_values], True)), order)
    products = _plane_rows(bytes(g), order)
    adds, times = [_table(row, True) for row in sums], [_table(row, True) for row in products]
    generators = _generators(adds, order, zero)
    if generators is None or not all(_light(sums, adds, s) for s in generators):
        return None
    tick(perf_counter())
    if sums[zero] != bytes(range(order)):  # the neutral element
        return None
    tick(perf_counter())
    if list(map(bytes.count, sums, repeat(zero))) != [1] * order:  # unique inverses
        return None
    negation = tuple(map(bytes.index, sums, repeat(zero)))
    tick(perf_counter())
    tick(perf_counter())  # reversibility holds in every abelian group
    tick(perf_counter())  # g-commutativity holds by table construction
    if not all(_light(products, times, s) for s in generators):  # g-associativity
        return None
    tick(perf_counter())
    # distributivity: g(p, x + s) = g(p, x) + g(p, s), a plane over (p, x) for each s
    if not all(b"".join(map(sums[s].translate, times))
               == b"".join(map(bytes.translate, products, map(adds.__getitem__, products[s])))
               for s in generators):
        return None
    tick(perf_counter())
    tick(perf_counter())  # zero absorption: g(p, 0) = g(p, 0 + 0) = g(p, 0) + g(p, 0)
    if products[one] != bytes(range(order)):  # the scalar identity
        return None
    tick(perf_counter())
    return _passing_report(map(sub, clock[1:], clock)), negation


def _generators(adds: list[bytes], order: int, zero: int) -> list[int] | None:
    """A greedy additive generating set S of the table whose translate
    tables are ``adds``: the closure of {0} and S under the operation covers
    the carrier.  Each new member is the least element not yet reached, and
    must at least double the set reached, as it does in every group; None
    where it does not, so |S| <= log2(order)."""
    generators, reached = [], {zero}
    while len(reached) < order:
        generator = next(x for x in range(order) if x not in reached)
        generators.append(generator)
        size, frontier = len(reached), {generator}
        while frontier:  # the sums of the members first reached with every member
            reached |= frontier
            members = bytes(reached)
            frontier = set(b"".join(map(members.translate, map(adds.__getitem__, frontier)))) - reached
        if len(reached) < 2 * size:
            return None
    return generators


def _light(rows: list[bytes], tables: list[bytes], s: int) -> bool:
    """Light's test at s: (x s) y = x (s y) for every x and y, the plane of
    the rows of x s against the row of s sent through the table of each x."""
    return b"".join(map(rows.__getitem__, rows[s])) == b"".join(map(rows[s].translate, tables))


# g is commutative by its multiset keys, not by any pass
_G_COMMUTES = Verdict(True, detail="by table construction")


def _passing_report(timings_s: Iterable[float]) -> AxiomReport:
    """The report of tables that pass every axiom, each timed as given."""
    entries = dict.fromkeys(AXIOM_ORDER, PASS)
    entries["g-commutativity"] = _G_COMMUTES
    return AxiomReport(entries, array("d", timings_s))


def _passes(
    order: int, m: int, n: int, f: list[int], g: list[int], zero: int, one: int,
    f_ids: list[int], f_values: list[int],
) -> tuple[AxiomReport, tuple[int, ...]]:
    """The report of ``_verify_tables`` by one pass per axiom, each naming
    the lexicographically first witness."""
    report = AxiomReport()
    entries = report.entries
    # the clock after each entry, which is computed in AXIOM_ORDER
    clock = [perf_counter()]
    tick = clock.append

    # Ids for the plane passes: an element names itself, an f value its
    # place among f's distinct masks.
    f_id = dict(zip(f_values, count()))
    f_members = [bit_members(bits) for bits in f_values]
    f_rows = _rows(f_ids, order, m)

    # f-associativity: the lift of rest sends an f value v to the id of
    # f(v, rest), the union of f(z, rest) over z in v; by symmetry these
    # f(z, rest) are the z-th entries of the rows of f.
    lifted = dict(f_id)
    f_lifts = _lifts(list(zip(*f_rows.values())), f_members, lifted)
    lifted_values = list(lifted)
    entries["f-associativity"] = _associativity(
        order, m, list(f_rows.values()), f_lifts, len(lifted) <= _BYTE_IDS,
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
    entries["g-commutativity"] = _G_COMMUTES
    tick(perf_counter())

    # g-associativity: lifting v with rest is g(v, rest), by symmetry the
    # row of g at rest, which distributivity takes as the column g(., p).
    g_rows = _rows(g, order, n)
    ps, columns = list(g_rows), list(g_rows.values())
    entries["g-associativity"] = _associativity(order, n, columns, columns, order <= _BYTE_IDS, int)
    tick(perf_counter())

    # distributivity over one slot (commutativity covers the others)
    entries["distributivity"] = _distributivity(order, m, f_rows, dict(f_id), f_members, ps, columns)
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
    return report, tuple(negation)


def _verify_reducts(
    order: int, m: int, n: int, f: list[int], g: list[int], zero: int, one: int,
) -> tuple[AxiomReport, tuple[int, ...]] | None:
    """The report of ``_verify_tables`` on the binary reducts of an (m,n)
    ring, when ``f`` and ``g`` are their lifts and the reducts pass every
    axiom; else None, and the n-ary tables must be verified themselves.
    Each lift comparison is timed with its associativity entry."""
    start = perf_counter()
    f2 = _reduct(f, order, m, zero)
    if _fold(f2, order, m, _union_rows(f2, order)) != f:
        return None
    f_lift_s = perf_counter() - start
    start = perf_counter()
    g2 = _reduct(g, order, n, one)
    if _fold(g2, order, n, list(_rows(g2, order, 2).values()).__getitem__) != g:
        return None
    g_lift_s = perf_counter() - start
    report, negation = _verify_tables(order, 2, 2, f2, g2, zero, one, *_interned(f2))
    if not report.all_pass:
        return None
    report.timings_s[AXIOM_ORDER.index("f-associativity")] += f_lift_s
    report.timings_s[AXIOM_ORDER.index("g-associativity")] += g_lift_s
    return report, negation


def _reduct(dense: list[int], order: int, arity: int, pad: int) -> list[int]:
    """The binary reduct t(a, b, pad^(arity-2)) of a dense table, as one
    strided slice: the one statement of the reduct.  At arity 2 it is the
    table itself, not a copy."""
    if arity == 2:
        return dense
    return dense[_index((pad,) * (arity - 2), order) :: order ** (arity - 2)]


def _union_rows(f2: list[int], order: int):
    """The function sending an f value (a mask) to the row of its members'
    f2 rows, unioned entry by entry; memoised by mask."""
    rows = list(_rows(f2, order, 2).values())  # by x, the row f2(x, .)
    return _Memo(lambda bits: [reduce(or_, column)
                               for column in zip(*map(rows.__getitem__, bit_members(bits)))]).__getitem__


def _fold(table2: list[int], order: int, arity: int, row_at) -> list[int]:
    """The left-fold lift of a binary dense table to ``arity`` arguments, in
    dense order: each level is the concatenation of ``row_at(v)``, for v
    each value of the previous level, the row over the next argument."""
    level = table2
    for _ in range(arity - 2):
        level = list(chain.from_iterable(map(row_at, level)))
    return level


def require_ring(spec: HyperRingSpec) -> HyperRing:
    """verify_axioms, raising AxiomsFailed instead of returning a report."""
    result = verify_axioms(spec)
    if isinstance(result, AxiomReport):
        raise AxiomsFailed(result)
    return result
