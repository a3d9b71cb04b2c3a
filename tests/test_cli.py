"""Command-line behaviour: exit codes, determinism, report formats."""

import json
import os
import subprocess
import sys

import pytest

from hyperideal import fixtures, serialize_spec


def invoke(*argv, env=None):
    return subprocess.run(
        [sys.executable, "-m", "hyperideal", *argv],
        capture_output=True,
        text=True,
        env=env,
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
    doc = json.loads(open(paper_path).read())
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


def test_unknown_fixture_exits_2():
    result = invoke("fixtures", "z7")
    assert result.returncode == 2
    assert "z7" in result.stderr


def test_unknown_command_exits_2():
    assert invoke("frobnicate").returncode == 2


def test_missing_file_exits_2():
    assert invoke("verify", "/nonexistent/ring.json").returncode == 2


def test_classify_and_radical_respect_order_limit(z6_path):
    env = dict(os.environ, HYPERIDEAL_ORDER_LIMIT="4")
    for command in ("classify", "radical"):
        result = invoke(command, z6_path, "--ideal", "0,3", env=env)
        assert result.returncode == 2
        assert "exceeds the enumeration limit 4" in result.stderr
