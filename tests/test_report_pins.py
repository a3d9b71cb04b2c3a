"""Report bytes pinned by hash, in both modes: the theorem suite on the 8
default fixtures, the ``ideals`` report on all 9, and the theorem suite on
each of the larger rings z16, z2^4 and paper-example², whose many quotients
reach the transfer checkers (THOM-PRE, THOM-IMG, TQUOT).  The ``fixtures``
command's output, which has no mode, is pinned too, and so are the
hyperideal and multiplicative-set verdicts, with their witnesses, of every
non-empty subset of the small fixtures and of paper-example².

The fixture hashes were recorded on the engine that still refused rings
above order 16 before any walk, so moving the size guard into the walks is
shown to change no report these inputs give.  The larger rings' hashes were
recorded on the engine that still tested the image of every MS for
closure, so relying on the lemma instead is shown to change none either.
The ``fixtures`` hashes were recorded while the registry still lived in the
harness module, so moving it is shown to change no document.  The verdicts'
hash was recorded while the g-absorption witness was still decoded from its
dense offset, so reading it off the (n-1)-tuples is shown to change none.
"""

import hashlib

import pytest

from hyperideal import cli, fixtures, is_hyperideal, is_multiplicative_set, run_suite, serialize_spec
from hyperideal.fixture_rings import DEFAULT_SUITE_FIXTURES, FIXTURE_NAMES

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

# sha256 of the ``fixtures`` command's output: the name list (""), then the
# document of each fixture
FIXTURES_SHA256 = {
    "": "3217b97136fb14274ed1e4bad89a18790ad13505d8c1401d542ac30119e01393",
    "paper-example": "2545b58437a89da9a6d5f7af242221e635a6a67c56b0b6e24369ab620a40ccc1",
    "z2": "405ee244baed6c2e4da61985fc63918da426f6ab574cc8f050c848a85f2c5583",
    "z4": "d5066ea6a179924821993747e1f75e513f8376283965809defae0b4839b0b5b9",
    "z6": "75f8e655508064aec109d8ca8cccec9a4614edcef6a11f413ca589560765c91d",
    "z8": "fe3d8b17e7da8b860bcfed1bffb753ee426409e264c38577fa18ee4724b976ae",
    "z12": "670f67cf08d9cf29267bc239c6288e066424f4ea716503a1374ad8204dd82573",
    "z2xz3": "df02924be0dc7fe396b2728304d9770f95fb693255139d468bd05bd5864610c5",
    "z6-mod-3": "05efb211cf74ee29e1b472c8e86ac8ac2cc382e2cd0605e753ce9c599281fe86",
    "z2-as-33": "d044932cf95bb3c892ac8042656930180248de4ec9151cf1f6ea64d17b090bb9",
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

# sha256 of the ``is_hyperideal`` (both modes) and ``is_multiplicative_set``
# verdicts of every non-empty subset of each fixture of order <= 8 and of
# paper-example², whose (n-1)-tuple witnesses hold digits past 1
VERDICTS_SHA256 = "1a0abab8bfea586e864836d5a61d2fa9612fc77bbe6b01c5e2d37cb80124f2de"


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


@pytest.mark.parametrize("name", FIXTURES_SHA256)
def test_fixture_documents_are_pinned(tmp_path, name):
    assert set(FIXTURES_SHA256) == {"", *FIXTURE_NAMES}
    out = tmp_path / "out.txt"
    assert cli.run(["fixtures", *([name] if name else []), "--out", str(out)]) == 0
    assert _sha256(out.read_text(encoding="utf-8")) == FIXTURES_SHA256[name]


def test_subset_verdicts_are_pinned(all_fixture_rings, large_rings):
    rings = [ring for ring in all_fixture_rings if ring.order <= 8] + [large_rings["paper-example^2"]]
    lines = []
    for ring in rings:
        for bits in range(1, 1 << ring.order):
            subset = ring.subset_from_bits(bits)
            verdicts = [is_hyperideal(ring, subset, mode) for mode in MODES]
            verdicts.append(is_multiplicative_set(ring, subset))
            lines.append(f"{ring.name} {bits} " + " ".join(
                f"{v.ok}|{v.clause}|{v.witness}|{v.detail}" for v in verdicts))
    assert _sha256("\n".join(lines)) == VERDICTS_SHA256
