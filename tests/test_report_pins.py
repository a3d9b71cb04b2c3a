"""Report bytes pinned by hash, in both modes: the theorem suite on the 8
default fixtures, the ``ideals`` report on all 9, and the theorem suite on
each of the larger rings z16, z2^4 and paper-example², whose many quotients
reach the transfer checkers (THOM-PRE, THOM-IMG, TQUOT).

The fixture hashes were recorded on the engine that still refused rings
above order 16 before any walk, so moving the size guard into the walks is
shown to change no report these inputs give.  The larger rings' hashes were
recorded on the engine that still tested the image of every MS for
closure, so relying on the lemma instead is shown to change none either.
"""

import hashlib

import pytest

from hyperideal import cli, fixtures, run_suite, serialize_spec
from hyperideal.harness import DEFAULT_SUITE_FIXTURES, FIXTURE_NAMES

MODES = ("lenient", "strict")

# sha256 of ``run_suite(...).to_json()`` on DEFAULT_SUITE_FIXTURES
SUITE_SHA256 = {
    "lenient": "192c125660607ff31d30e48497626f7982d0ed583c6695d1d22a03d4c80c8515",
    "strict": "d75f72db0dd4d14cdbccc32974d199f8da471ae4a05e464fcbbe562aef50efab",
}
# sha256 of the ``ideals`` reports on FIXTURE_NAMES, joined in that order
IDEALS_SHA256 = {
    "lenient": "c33f7a5649652daee0a94368455cda900dc0bee927b2447226c407907940a81a",
    "strict": "e6f09351f84eefed21785c2e502388c549015a5991c775aba1bfae5352198e1e",
}

# sha256 of ``run_suite([ring], mode).to_json()`` on each ring of ``large_rings``
LARGE_SUITE_SHA256 = {
    ("z16", "lenient"): "85349a9b6c1c35677e56a16e2bc22194bc86a93f76ab57ce48017c5e4fae9267",
    ("z16", "strict"): "4ca94354ebb9f341ff9a38001f929eb5fddb08cf639b0519fe834b952075b74a",
    ("z2^4", "lenient"): "f0a23798fba4eb5a6e4d8bec35934e6024478465c9fdc4450f8f6aec7c1701cd",
    ("z2^4", "strict"): "61b7496b8eac3043e222208a21a105aa84adc0803d192b999a35d4efa2f6d082",
    ("paper-example^2", "lenient"): "a1948beda648314fc2d1da534c55f205911609c8e6b813f88fe9845a8570c170",
    ("paper-example^2", "strict"): "ee95af18fd9d57c63113fa2d3e6ef0bad4c2c3fbe1d219f02e1b281d015ca5a5",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def fixture_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fixtures")
    paths = {}
    for name in FIXTURE_NAMES:
        path = root / f"{name}.json"
        path.write_text(serialize_spec(fixtures(name).spec), encoding="utf-8")
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("mode", MODES)
def test_suite_report_is_pinned(mode):
    rings = [fixtures(name) for name in DEFAULT_SUITE_FIXTURES]
    assert _sha256(run_suite(rings, mode).to_json()) == SUITE_SHA256[mode]


@pytest.mark.parametrize("mode", MODES)
def test_ideals_reports_are_pinned(fixture_paths, tmp_path, mode):
    reports = []
    for name in FIXTURE_NAMES:
        out = tmp_path / f"{name}.txt"
        assert cli.run(["ideals", fixture_paths[name], "--mode", mode, "--out", str(out)]) == 0
        reports.append(out.read_text(encoding="utf-8"))
    assert _sha256("".join(reports)) == IDEALS_SHA256[mode]


@pytest.mark.parametrize("name, mode", sorted(LARGE_SUITE_SHA256))
def test_large_ring_suite_reports_are_pinned(large_rings, name, mode):
    report = run_suite([large_rings[name]], mode).to_json()
    assert _sha256(report) == LARGE_SUITE_SHA256[name, mode]
