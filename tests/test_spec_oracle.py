"""The spec layer against the per-key loops of ``tests/spec_oracle.py``.

``parse_spec`` and ``validate_spec`` check each table whole and walk its
entries only to name the first error, and ``product_ring`` builds its tables
a column of keys at a time.  Here each must give the oracle's spec, or raise
the oracle's error with the same type and message: on every fixture
document, on those documents with keys and f members out of canonical order,
on single-entry corruptions of the z2, z4 and paper-example documents and
specs, and on every product the tests and the benchmark build.

``parse_spec`` takes the keys of a canonical document as the sorted
multisets, by comparing them with the key texts of ``_key_texts``, and
splits those of any other document; both paths must give the same spec on
every corpus document.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace
from functools import partial
from itertools import combinations_with_replacement
from json.encoder import encode_basestring_ascii

import pytest

import spec_oracle
from hyperideal import FIXTURE_NAMES, cyclic_ring, fixtures, kernel, parse_spec, product_ring, serialize_spec, verify_axioms
from hyperideal.analysis import _Memo
from hyperideal.kernel import validate_spec

CORRUPTED = ("z2", "z4", "paper-example")


def _document(data: dict) -> str:
    return json.dumps(data, indent=2)


def _reordered(data: dict) -> dict:
    """Every table's keys in reverse order, each key's names reversed."""
    return {**data, **{table: {",".join(reversed(key.split(","))): value
                               for key, value in reversed(data[table].items())} for table in ("f", "g")}}


def _members_repeated(data: dict) -> dict:
    """Every f value reversed, with its last member repeated in front."""
    return {**data, "f": {key: [value[-1], *reversed(value)] for key, value in data["f"].items()}}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_parse_spec_matches_the_oracle_on_the_fixture_documents(name):
    document = serialize_spec(fixtures(name).spec)
    data = json.loads(document)
    for variant in (data, _reordered(data), _members_repeated(data), _reordered(_members_repeated(data))):
        spec = parse_spec(_document(variant))
        assert spec == spec_oracle.parse_spec(_document(variant)) == fixtures(name).spec
        assert serialize_spec(spec) == document


def _with_item(table: dict, at: int, item: tuple | None, after: tuple | None = None) -> dict:
    """``table`` with its ``at``-th item replaced by ``item`` (or dropped, for
    None) and ``after`` inserted behind it."""
    items = list(table.items())
    return dict(items[:at] + [i for i in (item, after) if i is not None] + items[at + 1:])


def _document_corruptions(data: dict):
    """Single-entry corruptions of a document: each key of each table with
    a key of another arity, with an unknown name, with a reordered
    duplicate behind it (where its names differ), and with a bad value;
    and each key but the first with its first name moved to the key before,
    which keeps the text of the joined keys."""
    f_values = ["0", 0, None, {"0": "1"}, [0], [None], [True], ["0", 1], ["zz"], [["0"]], [{"0": "1"}], []]
    g_values = [0, None, True, ["0"], {"0": "1"}, "zz"]
    for table, bad_values in (("f", f_values), ("g", g_values)):
        for at, (key, value) in enumerate(data[table].items()):
            names = key.split(",")
            for bad_key in (",".join(names[:-1]), ",".join(names + names[:1]), ",".join(["zz", *names[1:]])):
                yield table, {**data, table: _with_item(data[table], at, (bad_key, value))}
            if names != names[::-1]:
                duplicate = (",".join(reversed(names)), value)
                yield table, {**data, table: _with_item(data[table], at, (key, value), duplicate)}
            for bad in bad_values:
                yield table, {**data, table: _with_item(data[table], at, (key, bad))}
            if at:  # a name moved from this key to the one before: the joined keys do not change
                items = list(data[table].items())
                (before, before_value), rest = items[at - 1], ",".join(names[1:])
                items[at - 1 : at + 1] = [(f"{before},{names[0]}", before_value), (rest, value)]
                yield table, {**data, table: dict(items)}


@pytest.mark.parametrize("name", CORRUPTED)
def test_corrupted_documents_get_the_oracles_error(name):
    data = json.loads(serialize_spec(fixtures(name).spec))
    for table, corrupted in _document_corruptions(data):
        document = _document(corrupted)
        oracle = spec_oracle.outcome(spec_oracle.parse_spec, document)
        assert type(oracle) is tuple, document  # every corruption is refused
        assert spec_oracle.outcome(parse_spec, document) == oracle, (table, document)


def _spec_corruptions(spec):
    """Single-entry corruptions of a spec built in code: each key of each
    table dropped, joined or replaced by a surplus key, or given a value of the wrong
    type or out of range; bools and ints that compare equal sit side by
    side, so a check by equality would let them through."""
    order = spec.order
    f_values = [frozenset(), frozenset({order}), frozenset({-1}), frozenset({True}), frozenset({1.0}),
                frozenset({"0"}), (0,), [0], None, {0}]
    g_values = [-1, order, True, "0", 0.0, None, 1]
    for table, bad_values in (("f_table", f_values), ("g_table", g_values)):
        mapping = getattr(spec, table)
        keys = list(mapping)
        surplus = (order,) * len(keys[0])
        for at, key in enumerate(keys):
            yield replace(spec, **{table: {k: v for k, v in mapping.items() if k != key}})
            yield replace(spec, **{table: _with_item(mapping, at, (key, mapping[key]), (surplus, mapping[key]))})
            yield replace(spec, **{table: _with_item(mapping, at, (surplus, mapping[key]))})
            for bad in bad_values:
                yield replace(spec, **{table: {**mapping, key: bad}})
            if at:  # an int before a bool that equals it
                one = frozenset({1}) if table == "f_table" else 1
                true = frozenset({True}) if table == "f_table" else True
                yield replace(spec, **{table: {**mapping, keys[at - 1]: one, key: true}})


@pytest.mark.parametrize("name", CORRUPTED)
def test_corrupted_specs_get_the_oracles_error(name):
    spec = fixtures(name).spec
    reordered = replace(spec, f_table=dict(reversed(spec.f_table.items())),
                        g_table=dict(reversed(spec.g_table.items())))
    assert validate_spec(reordered) is None  # a table need not be in sorted key order
    for spec in _spec_corruptions(spec):
        assert spec_oracle.outcome(validate_spec, spec) == spec_oracle.outcome(spec_oracle.validate_spec, spec), spec


def _renamed_z2(names: tuple[str, str]):
    spec = fixtures("z2").spec
    return verify_axioms(replace(spec, name="z2-renamed", elements=names, zero=names[0], one=names[1]))


def _products() -> list[tuple[list, str]]:
    """The factors and names of every product the tests build (the products
    of ``test_kernel._built_rings`` and of the ``large_rings`` fixture), the
    three that the benchmark builds, and one whose element names collide."""
    z2, z4, pe, z2_as_33 = fixtures("z2"), fixtures("z4"), fixtures("paper-example"), fixtures("z2-as-33")
    collides = _renamed_z2(("0", "0|0"))
    return [
        ([cyclic_ring(2), cyclic_ring(3)], ""),
        ([z4, z2], ""),
        ([z2_as_33, z2_as_33], ""),
        ([pe, z2_as_33], ""),
        ([z2] * 4, "z2^4"),
        ([pe, pe], "paper-example^2"),
        ([z2] * 5, "z2^5"),
        ([cyclic_ring(4), cyclic_ring(8)], "z4xz8"),
        ([pe, pe, z2_as_33], "paper-example^2xz2-as-33"),
        ([collides, collides], ""),
        ([collides, z2, collides], "three"),
    ]


def test_products_match_the_oracle():
    for factors, name in _products():
        spec = product_ring(factors, name).spec
        assert spec == spec_oracle.product_spec(factors, name), spec.name
        assert serialize_spec(spec) == serialize_spec(spec_oracle.product_spec(factors, name))
    # the colliding names fall back to the element indices
    assert product_ring([_renamed_z2(("0", "0|0"))] * 2).elements == ("0|0", "0|1", "1|0", "1|1")


# names that a JSON document must escape, as text and as the bare escaped
# form that serialize_spec joins
ESCAPED = ("a\"b", "back\\slash", "tab\t", "\u00e9", "\u2028", "x")


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_key_texts_join_the_sorted_keys(arity):
    for names in ([str(i) for i in range(7)], list(ESCAPED), [encode_basestring_ascii(n)[1:-1] for n in ESCAPED],
                  ["only"]):
        assert kernel._key_texts(names, arity) == [",".join(key) for key in combinations_with_replacement(names, arity)]


def test_both_resolve_paths_give_the_same_spec(all_fixture_rings, census_rings, large_rings, rings_past_2_2,
                                               krasner_rings):
    """Each corpus document is canonical: every table resolves to the ring's
    own, in the same key order, by its key texts and by the split.  With
    each key's names reversed and the keys shuffled, which takes the split,
    the document still parses to the ring's spec."""
    rng = random.Random(34)
    rings = [*all_fixture_rings, *census_rings.values(), *large_rings.values(), *rings_past_2_2, *krasner_rings]
    for ring in rings:
        data = json.loads(serialize_spec(ring.spec))
        name_to_index = {name: i for i, name in enumerate(data["elements"])}
        texts = _Memo(partial(kernel._key_texts, data["elements"]))
        for table, arity, own in (("f", ring.m, ring.spec.f_table), ("g", ring.n, ring.spec.g_table)):
            assert list(data[table]) == texts[arity], ring.name
            by_texts = kernel._resolve_table(data[table], name_to_index, arity, table, texts)
            by_split = kernel._resolve_table(data[table], name_to_index, arity, table, None)
            assert list(by_texts.items()) == list(by_split.items()) == list(own.items()), ring.name
        shuffled = _reordered(data)
        for table in ("f", "g"):
            items = list(shuffled[table].items())
            rng.shuffle(items)
            shuffled[table] = dict(items)
        assert parse_spec(_document(shuffled)) == parse_spec(_document(data)) == ring.spec, ring.name
