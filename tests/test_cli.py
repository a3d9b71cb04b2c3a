"""Command-line behaviour: exit codes, determinism, report formats."""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hyperideal import fixtures, serialize_spec


def invoke(*argv):
    return subprocess.run(
        [sys.executable, "-m", "hyperideal", *argv],
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def paper_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("rings") / "paper-example.json"
    path.write_text(serialize_spec(fixtures("paper-example").spec), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def z6_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("rings") / "z6.json"
    path.write_text(serialize_spec(fixtures("z6").spec), encoding="utf-8")
    return str(path)


def test_verify_paper(paper_path):
    result = invoke("verify", paper_path)
    assert result.returncode == 0
    assert "all axioms hold" in result.stdout


def test_verify_broken_document(paper_path, tmp_path):
    doc = json.loads(Path(paper_path).read_text(encoding="utf-8"))
    doc["g"]["0,1,1"] = "1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    result = invoke("verify", str(bad))
    assert result.returncode == 2
    assert "zero-absorption" in result.stdout
    assert "(0,1,1)" in result.stdout


def test_classify_paper_s_case(paper_path):
    result = invoke(
        "classify", paper_path, "--ideal", "0,2", "--s", "2", "--mode", "lenient"
    )
    assert result.returncode == 0
    assert "not an S-hyperideal" in result.stdout
    assert "(1,1,2)" in result.stdout
    assert "position 3" in result.stdout
    assert "g(1,1,2)=2" in result.stdout
    assert "g(1,1,1)=1" in result.stdout


def test_classify_expect_mismatch_exits_1(paper_path):
    result = invoke(
        "classify", paper_path, "--ideal", "0,2", "--s", "2",
        "--expect", "s-hyperideal",
    )
    assert result.returncode == 1


def test_classify_expect_match_exits_0(paper_path):
    result = invoke(
        "classify", paper_path, "--ideal", "0,2", "--s", "2",
        "--expect", "neither",
    )
    assert result.returncode == 0


def test_classify_expect_without_s_exits_2(z6_path):
    result = invoke("classify", z6_path, "--ideal", "0,3", "--expect", "neither")
    assert result.returncode == 2
    assert "--expect needs --s" in result.stderr
    assert result.stdout == ""


def test_classify_plain_profile(z6_path):
    result = invoke("classify", z6_path, "--ideal", "0,3")
    assert result.returncode == 0
    assert "prime: yes" in result.stdout
    assert "maximal: yes" in result.stdout


def test_classify_unknown_element_exits_2(z6_path):
    result = invoke("classify", z6_path, "--ideal", "0,9")
    assert result.returncode == 2
    assert "9" in result.stderr


def test_classify_whitespace_rejected(z6_path):
    result = invoke("classify", z6_path, "--ideal", "0, 3")
    assert result.returncode == 2


def test_classify_non_ideal_exits_2(z6_path):
    result = invoke("classify", z6_path, "--ideal", "0,1")
    assert result.returncode == 2


def test_radical_saturate_residual(z6_path):
    assert "{0}" in invoke("radical", z6_path, "--ideal", "0").stdout
    sat = invoke("saturate", z6_path, "--ideal", "0", "--s", "1,3")
    assert "{0,2,4}" in sat.stdout
    res = invoke("residual", z6_path, "--ideal", "0", "--s", "3")
    assert "{0,2,4}" in res.stdout


def test_quotient_command(z6_path):
    result = invoke("quotient", z6_path, "--ideal", "0,3")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert len(doc["elements"]) == 3


def test_quotient_partition_failure_exits_2(paper_path):
    result = invoke("quotient", paper_path, "--ideal", "0,2")
    assert result.returncode == 2
    assert "overlap" in result.stderr


def test_product_command(z6_path, paper_path, tmp_path):
    z2_path = tmp_path / "z2.json"
    z2_path.write_text(serialize_spec(fixtures("z2").spec), encoding="utf-8")
    result = invoke("product", z6_path, str(z2_path))
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert len(doc["elements"]) == 12


def test_theorems_only_t5_json(paper_path):
    result = invoke("theorems", paper_path, "--only", "T5", "--format", "json")
    assert result.returncode == 0
    reports = json.loads(result.stdout)
    assert len(reports) == 1
    report = reports[0]
    assert report["ring"] == "paper-example"
    assert report["id"] == "T5"
    assert report["status"] == "holds"
    assert "runtime_ms" not in report
    assert list(report) == [
        "ring", "id", "status", "instances_checked", "hypothesis_met",
        "counterexamples", "mode", "truncated",
    ]


def test_theorems_text_table(paper_path):
    result = invoke("theorems", paper_path, "--only", "T1.1,T5")
    assert result.returncode == 0
    assert "aggregate:" in result.stdout


def test_byte_identical_invocations(paper_path):
    first = invoke("theorems", paper_path, "--format", "json")
    second = invoke("theorems", paper_path, "--format", "json")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode


def test_fixtures_listing_and_emission(tmp_path):
    listing = invoke("fixtures")
    assert listing.returncode == 0
    assert "paper-example" in listing.stdout
    out = tmp_path / "z4.json"
    emit = invoke("fixtures", "z4", "--out", str(out))
    assert emit.returncode == 0
    assert json.loads(out.read_text())["name"] == "z4"


def test_ideals_listing(z6_path):
    result = invoke("ideals", z6_path)
    assert result.returncode == 0
    assert "{0,3} proper prime" in result.stdout
    assert "improper (whole ring)" in result.stdout
    assert "units {1,5}" in result.stdout


def test_theorems_timings_flag_adds_runtime(paper_path):
    result = invoke("theorems", paper_path, "--only", "T5", "--format", "json", "--timings")
    report = json.loads(result.stdout)[0]
    assert "runtime_ms" in report


def test_unknown_theorem_id_exits_2(paper_path):
    result = invoke("theorems", paper_path, "--only", "T99")
    assert result.returncode == 2
    assert "T99" in result.stderr


def test_empty_theorem_id_exits_2(paper_path):
    # an empty --only names the empty id, as "T1.1,,T5" does; it is not "all"
    for only in ("", "T1.1,,T5"):
        result = invoke("theorems", paper_path, "--only", only)
        assert result.returncode == 2
        assert "unknown theorem id ''" in result.stderr
        assert result.stdout == ""


def test_unknown_fixture_exits_2():
    result = invoke("fixtures", "z7")
    assert result.returncode == 2
    assert "z7" in result.stderr


def test_unknown_command_exits_2():
    assert invoke("frobnicate").returncode == 2


def test_missing_file_exits_2():
    assert invoke("verify", "/nonexistent/ring.json").returncode == 2


@pytest.fixture(scope="module")
def cyclic_paths(tmp_path_factory):
    from hyperideal import cyclic_ring

    root = tmp_path_factory.mktemp("cyclic")
    paths = {}
    for k in (64, 128):
        path = root / f"z{k}.json"
        path.write_text(serialize_spec(cyclic_ring(k).spec), encoding="utf-8")
        paths[k] = str(path)
    return paths


def test_walk_budget_refuses_large_walks_not_large_rings(cyclic_paths):
    # z64 has 389,930 multiplicative sets, a walk past the budget; z64 and
    # z128 have 7 and 8 hyperideals.  The five runs are independent, so they
    # run side by side.
    runs = {("theorems", 64): [cyclic_paths[64]]}
    for k in (64, 128):
        runs["ideals", k] = [cyclic_paths[k]]
        runs["classify", k] = [cyclic_paths[k], "--ideal", f"0,{k // 2}"]
    procs = {
        key: subprocess.Popen([sys.executable, "-m", "hyperideal", key[0], *args],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for key, args in runs.items()
    }
    results = {key: (*proc.communicate(timeout=120), proc.returncode) for key, proc in procs.items()}
    _, stderr, code = results["theorems", 64]
    assert code == 2
    assert "error: multiplicative-set walk on z64 stopped at " in stderr
    assert "Traceback" not in stderr
    for k in (64, 128):
        stdout, _, code = results["ideals", k]
        assert code == 0
        assert len(stdout.splitlines()) == 1 + k.bit_length() + 3
        stdout, _, code = results["classify", k]
        assert code == 0
        assert "prime: no" in stdout


def test_product_past_the_table_limit_exits_2_before_building(tmp_path, capsys):
    # z33^4 and z8^4 have 33^8 and 4096^2 dense entries, past the verifier's
    # limit; the product is refused before its tables are built
    from hyperideal import cli, cyclic_ring

    for k in (33, 8):
        path = tmp_path / f"z{k}.json"
        path.write_text(serialize_spec(cyclic_ring(k).spec), encoding="utf-8")
        start = time.perf_counter()
        assert cli.run(["product", *[str(path)] * 4]) == 2
        assert time.perf_counter() - start < 1.0
        assert "dense table entries" in capsys.readouterr().err


def test_product_of_mismatched_arities_names_both(tmp_path, capsys):
    from conftest import z2_ternary_spec
    from hyperideal import cli

    paths = [tmp_path / "z2.json", tmp_path / "z2-23.json"]
    for path, spec in zip(paths, (fixtures("z2").spec, z2_ternary_spec())):
        path.write_text(serialize_spec(spec), encoding="utf-8")
    assert cli.run(["product", *map(str, paths)]) == 2
    assert capsys.readouterr().err == (
        "error: rings of arities (m, n) = (2, 2) and (2, 3) do not match\n")


def test_null_table_document_exits_2(tmp_path):
    doc = json.loads(serialize_spec(fixtures("z2").spec))
    doc["f"] = None
    path = tmp_path / "null-f.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = invoke("verify", str(path))
    assert result.returncode == 2
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("field, value, shown", [
    ("n", 2.0, "n=2.0"), ("m", "2", "m='2'"), ("n", None, "n=None"), ("m", 1, "m=1"),
])
def test_arity_message_shows_the_value_given(tmp_path, capsys, field, value, shown):
    from hyperideal import cli

    doc = json.loads(serialize_spec(fixtures("z2").spec))
    doc[field] = value
    path = tmp_path / "arity.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.run(["verify", str(path)]) == 2
    assert capsys.readouterr().err == f"error: arity {shown} is out of range (must be >= 2)\n"


def test_non_utf8_document_exits_2(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(serialize_spec(fixtures("z2").spec).encode("utf-8") + b"\xff")
    for command in ("verify", "ideals"):
        result = invoke(command, str(path))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr


def test_verify_warns_only_above_the_limit(tmp_path, capsys):
    from hyperideal import cli, cyclic_ring

    for k, warns in ((112, False), (113, True)):
        path = tmp_path / f"z{k}.json"
        path.write_text(serialize_spec(cyclic_ring(k).spec), encoding="utf-8")
        assert cli.run(["verify", str(path)]) == 0
        err = capsys.readouterr().err
        assert ("warning: order" in err) is warns


def test_warning_names_the_cliff_past_a_byte(capsys):
    # a spec-like stand-in: z257 itself takes about 25 s to verify
    from types import SimpleNamespace

    from hyperideal import cli

    for order, cliff in ((256, False), (257, True)):
        cli._warn_if_large(SimpleNamespace(order=order, m=2, n=2))
        err = capsys.readouterr().err
        assert err.startswith(f"warning: order {order} with m=2, n=2 ")
        assert ("past 256 elements" in err) is cliff


def test_verify_timings_add_one_line_per_axiom(paper_path, tmp_path, capsys):
    from hyperideal import cli
    from hyperideal.kernel import AXIOM_ORDER

    doc = json.loads(Path(paper_path).read_text(encoding="utf-8"))
    doc["g"]["0,1,1"] = "1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    for path, code, verdicts in ((paper_path, 0, 1), (str(bad), 2, len(AXIOM_ORDER))):
        assert cli.run(["verify", path]) == code
        plain = capsys.readouterr().out.splitlines()
        assert len(plain) == 1 + verdicts
        assert not any(line.endswith(" ms") for line in plain)
        assert cli.run(["verify", path, "--timings"]) == code
        timed = capsys.readouterr().out.splitlines()
        assert timed[: len(plain)] == plain
        assert len(timed) == len(plain) + len(AXIOM_ORDER)
        for name, line in zip(AXIOM_ORDER, timed[len(plain) :]):
            assert re.fullmatch(re.escape(name) + r": \d+\.\d{3} ms", line)


def test_axiom_timings_stay_out_of_report_equality():
    from hyperideal import verify_axioms
    from hyperideal.kernel import AXIOM_ORDER

    spec = fixtures("z6").spec
    first, second = verify_axioms(spec).axiom_report, verify_axioms(spec).axiom_report
    second.timings_s[0] += 1.0
    assert first == second
    assert first.lines(spec.elements) == second.lines(spec.elements)
    assert list(first.entries) == list(AXIOM_ORDER)
    assert len(first.timings_s) == len(AXIOM_ORDER)
    assert min(first.timings_s) >= 0
