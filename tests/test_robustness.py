"""Malformed ring documents end in exit code 2, never in a traceback.

The CLI runs in process here, writing to a strict UTF-8 stream as a real
standard output would; an exception escaping ``cli.run`` is what a
traceback with exit code 1 would be.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyperideal import cli, fixtures, parse_spec, serialize_spec
from hyperideal.errors import SpecFormatError

Z2_DOCUMENT = serialize_spec(fixtures("z2").spec)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "ring.json"


def verify_exit_code(path, data: bytes) -> int:
    path.write_bytes(data)
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(["verify", str(path)])
        out.flush()
        err.flush()
    return code


@pytest.mark.parametrize("table", ["f", "g"])
@pytest.mark.parametrize("value", [None, [], "0,0", 3])
def test_non_object_table_is_a_format_error(table, value):
    doc = json.loads(Z2_DOCUMENT)
    doc[table] = value
    with pytest.raises(SpecFormatError):
        parse_spec(json.dumps(doc))


@pytest.mark.parametrize("member", [None, ["0"], {"0": "1"}, 1])
def test_non_name_f_member_is_a_format_error(member):
    doc = json.loads(Z2_DOCUMENT)
    doc["f"]["0,1"] = [member]
    with pytest.raises(SpecFormatError):
        parse_spec(json.dumps(doc))


@pytest.mark.parametrize("field, value", [
    ("name", None), ("name", 2), ("zero", 0), ("one", 1), ("one", ["1"]),
])
def test_non_string_name_zero_or_one_is_a_format_error(doc_path, field, value):
    """Each would once have passed through ``str()``: ``"zero": 0`` as the
    element "0", ``"name": null`` as the name "None"."""
    doc = json.loads(Z2_DOCUMENT)
    doc[field] = value
    data = json.dumps(doc)
    with pytest.raises(SpecFormatError, match=f"field '{field}' must be a string"):
        parse_spec(data)
    assert verify_exit_code(doc_path, data.encode("utf-8")) == 2


def test_lone_surrogate_name_exits_2(doc_path):
    doc = json.loads(Z2_DOCUMENT)
    doc["name"] = "\ud800"
    data = json.dumps(doc).encode("ascii")
    with pytest.raises(SpecFormatError):
        parse_spec(data.decode("ascii"))
    assert verify_exit_code(doc_path, data) == 2


def test_deeply_nested_document_exits_2(doc_path):
    """1,000 nested arrays pass the JSON decoder's recursion limit, which
    raises RecursionError, not a JSONDecodeError."""
    assert verify_exit_code(doc_path, b"[" * 1000 + b"]" * 1000) == 2


def test_integer_past_the_digit_limit_exits_2(doc_path):
    """An int literal of 4,301 digits passes the interpreter's limit on
    integer-string conversion, which raises a plain ValueError; where there
    is no such limit, the document is refused later, for its missing fields."""
    assert verify_exit_code(doc_path, b'{"m": ' + b"9" * 4301 + b"}") == 2


edits = st.lists(
    st.tuples(
        st.sampled_from(["replace", "delete", "insert"]),
        st.integers(min_value=0, max_value=len(Z2_DOCUMENT)),
        st.binary(min_size=1, max_size=4),
    ),
    min_size=1,
    max_size=4,
)


@given(edits=edits)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_verify_on_mutated_bytes_exits_0_or_2(doc_path, edits):
    data = bytearray(Z2_DOCUMENT.encode("utf-8"))
    for kind, at, chunk in edits:
        at = min(at, len(data))
        if kind == "replace":
            data[at : at + len(chunk)] = chunk
        elif kind == "delete":
            del data[at : at + len(chunk)]
        else:
            data[at:at] = chunk
    assert verify_exit_code(doc_path, bytes(data)) in (0, 2)


@given(path=st.sampled_from([("name",), ("m",), ("elements",), ("zero",), ("f",), ("g",),
                             ("f", "0,1"), ("g", "1,1"), ("elements", 0)]),
       value=json_values)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_verify_on_retyped_fields_exits_0_or_2(doc_path, path, value):
    doc = json.loads(Z2_DOCUMENT)
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    data = json.dumps(doc, ensure_ascii=False).encode("utf-8", "surrogatepass")
    assert verify_exit_code(doc_path, data) in (0, 2)


def test_too_wide_arity_is_refused_not_attempted(doc_path):
    from itertools import combinations_with_replacement as multisets

    from hyperideal import HyperRingSpec, verify_axioms
    from hyperideal.errors import TablesTooLarge

    # two elements, but m = 11 means C(21, 11) split patterns per multiset
    spec = HyperRingSpec(
        name="wide", m=11, n=2, elements=("0", "1"), zero="0", one="1",
        f_table={key: frozenset({sum(key) % 2}) for key in multisets(range(2), 11)},
        g_table={key: key[0] * key[1] for key in multisets(range(2), 2)},
    )
    with pytest.raises(TablesTooLarge):
        verify_axioms(spec)
    assert verify_exit_code(doc_path, serialize_spec(spec).encode("utf-8")) == 2


def test_dense_table_limit_is_enforced(monkeypatch):
    from hyperideal import kernel, verify_axioms
    from hyperideal.errors import TablesTooLarge

    z4 = fixtures("z4")
    monkeypatch.setattr(kernel, "DENSE_TABLE_LIMIT", z4.order ** 2)
    assert verify_axioms(z4.spec).order == 4
    monkeypatch.setattr(kernel, "DENSE_TABLE_LIMIT", z4.order ** 2 - 1)
    with pytest.raises(TablesTooLarge):
        verify_axioms(z4.spec)


def test_huge_carrier_is_refused_without_building_its_key_list(doc_path, monkeypatch):
    """2,000 names with m = n = 6 ask for C(2005, 6), about 9 * 10^16,
    sorted keys, and the document gives one.  Validation compares a table's
    count with the carrier's first and walks the keys lazily, so it names
    the first missing key.  The kernel's key generator is capped at 10^5
    items, so a key list built from the declared carrier fails this test
    instead of exhausting memory."""
    from itertools import combinations_with_replacement

    from hyperideal import kernel
    from hyperideal.errors import MissingEntry

    cap = 10**5

    def capped(iterable, r):
        for i, key in enumerate(combinations_with_replacement(iterable, r)):
            if i == cap:
                raise AssertionError(f"more than {cap:,} sorted keys built")
            yield key

    monkeypatch.setattr(kernel, "combinations_with_replacement", capped)
    names = [f"e{i}" for i in range(2000)]
    doc = {"name": "huge", "m": 6, "n": 6, "elements": names, "zero": "e0", "one": "e1",
           "f": {",".join(["e1"] * 6): ["e1"]}, "g": {}}
    with pytest.raises(MissingEntry) as refused:
        parse_spec(json.dumps(doc))
    assert refused.value.key == ("e0",) * 6
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert cli.run(["verify", str(doc_path)]) == 2
    assert err.getvalue() == f"error: {refused.value}\n"


@pytest.mark.parametrize("m", [1_000_000, 1_000_000_000])
def test_huge_arity_is_refused_before_any_key_walk(doc_path, m):
    import time

    doc = json.loads(Z2_DOCUMENT)
    doc["m"], doc["f"] = m, {}
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(["verify", str(doc_path)])
        out.flush()
        err.flush()
    assert time.perf_counter() - start < 1.0
    assert code == 2
    message = out.buffer.getvalue() + err.buffer.getvalue()
    assert 0 < len(message) < 500
