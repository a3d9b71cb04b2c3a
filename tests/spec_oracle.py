"""Per-key oracles for the spec layer: ``parse_spec``, ``validate_spec`` and
the tables of ``product_ring``.

The package resolves and checks each spec table a whole table at a time,
once per distinct value, and walks the entries one by one only to name the
first error.  The loops here are the per-key ones it replaced, kept
verbatim: each document key split, resolved and sorted on its own, each f
value built into its own set, each sorted multiset of a spec looked up and
type-checked in ``combinations_with_replacement`` order, and each product
key's components looked up factor by factor.  The first error met is the
one raised, so the package must raise the same type with the same message.
"""

from __future__ import annotations

import json
from itertools import combinations_with_replacement, product
from math import comb
from typing import Mapping

from hyperideal.errors import EmptyHyperValue, MissingEntry, SpecFormatError, TablesTooLarge, UnknownElement
from hyperideal.kernel import MAX_VERIFY_ARITY, HyperRingSpec, _check_arities, bit_members

_INT = frozenset({int})


def validate_spec(spec: HyperRingSpec) -> None:
    """``kernel.validate_spec`` by the per-key walk."""
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
    """``kernel.parse_spec`` by the per-key loops, then this module's
    ``validate_spec``."""
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


def product_spec(rings: list, name: str = "") -> HyperRingSpec:
    """The spec ``product_ring`` verifies, by its per-key table loops; the
    arities must agree and the product must be within the table limit."""
    m, n = rings[0].m, rings[0].n
    total = 1
    for r in rings:
        total *= r.order
    tuples = list(product(*(range(r.order) for r in rings)))
    index_of = {t: i for i, t in enumerate(tuples)}
    names = tuple("|".join(r.elements[x] for r, x in zip(rings, t)) for t in tuples)
    if len(set(names)) < total:  # a factor's element name holds '|'
        names = tuple("|".join(map(str, t)) for t in tuples)

    f_table: dict[tuple[int, ...], frozenset[int]] = {}
    for key in combinations_with_replacement(range(total), m):
        pools = [bit_members(r.f_bits([tuples[i][j] for i in key])) for j, r in enumerate(rings)]
        f_table[key] = frozenset(index_of[c] for c in product(*pools))
    g_table: dict[tuple[int, ...], int] = {}
    for key in combinations_with_replacement(range(total), n):
        value = tuple(r.g_at(tuple(tuples[i][j] for i in key)) for j, r in enumerate(rings))
        g_table[key] = index_of[value]

    return HyperRingSpec(
        name=name or "x".join(r.name for r in rings),
        m=m,
        n=n,
        elements=names,
        zero=names[index_of[tuple(r.zero for r in rings)]],
        one=names[index_of[tuple(r.one for r in rings)]],
        f_table=f_table,
        g_table=g_table,
    )


def outcome(call, *args):
    """``call(*args)``, or the type and message of the error it raises."""
    try:
        return call(*args)
    except Exception as exc:  # compared by type and message
        return type(exc).__name__, str(exc)
