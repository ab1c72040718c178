"""Byte identity of the CLI against the stdout digests the benchmark pins.

`perfbench/expected.json` maps each fixed benchmark job (its argv as JSON)
to the sha256 of its stdout.  Each job runs here in-process; its output must
hash to the same value, and it must write nothing to stderr.  The rank-15
and rank-16 rows of `perfbench/cliffs.py` and its B4xC4, B3xC3xG2 and
F4xG2xB2 `langlands` rows, which the timed workloads leave out, are pinned
here too, and so are rows no benchmark job covers: torsor shifts, text
`extension --b`, the text unavailable `langlands` report and `contcheck`.  The contcheck digests hold its float digits as this module's
standard-library arithmetic gives them on CPython for x86-64 Linux.

Every report of every pinned row must be plain JSON data (dict, list, str,
int, float, bool, None): a tuple, `Fraction` or `IntMatrix` would change the
text rendering without any error.
"""

import hashlib
import json
from pathlib import Path

import pytest

from tdual_lie import cli
from tdual_lie.cli import main, run

EXPECTED = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text("utf-8"))


PLAIN_TYPES = (dict, list, str, int, float, bool, type(None))


def _foreign_values(value, path="report"):
    """(path, type name) of every value below `value` that is not plain JSON data."""
    if type(value) not in PLAIN_TYPES:
        return [(path, type(value).__name__)]
    if isinstance(value, dict):
        return [bad for k, v in value.items() for bad in _foreign_values(v, f"{path}.{k}")]
    if isinstance(value, list):
        return [bad for i, v in enumerate(value) for bad in _foreign_values(v, f"{path}.{i}")]
    return []


def _plain_run(config):
    code, payload = run(config)
    assert _foreign_values(payload) == []
    return code, payload


def _check(argv, digest, capsys, monkeypatch):
    """Run `argv` through `main`; its stdout must hash to `digest`, and the
    report `cli.run` hands to the renderer must be plain JSON data."""
    monkeypatch.setattr(cli, "run", _plain_run)
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code in (0, 1)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    assert err == ""


@pytest.mark.parametrize("key", sorted(EXPECTED), ids=lambda key: " ".join(json.loads(key)))
def test_stdout_matches_recorded_digest(key, capsys, monkeypatch):
    _check(json.loads(key), EXPECTED[key], capsys, monkeypatch)


CLIFF_DIGESTS = {
    ("cohomology", "--group", "SU(16)"):
        "c0be2638787b574156e0c45ec9302175cba79e91f0ba8371ed67f8e4623e46ed",
    ("twist", "--group", "SU(16)", "--twist", "level:1"):
        "615d8881c791a9119ce4b8b3bb0238e1850674aba1c8725688c3963b78d4ee52",
    ("cohomology", "--group", "Spin(32)"):
        "4907b8ed7c1a899fbc57f838d9460c7f94faaee15e4266b2195a6608b420b73e",
    ("twist", "--group", "Spin(32)", "--twist", "level:1"):
        "f195ffb1b4fc1bd177c7f2617c31a882f5f7e72f1345f6f00c0a546cb34294ce",
    # Cross-matched B_n/C_n products, recorded when the Langlands twist was
    # still found by a product Weyl search.
    ("langlands", "--group", '{"components":[{"series":"B","rank":4},{"series":"C","rank":4}]}'):
        "7bb36d4db5470c745b5ecb1dc8d1d3a954d9d62bf6e0554e2ca6c949170b0033",
    ("langlands", "--group",
     '{"components":[{"series":"B","rank":3},{"series":"C","rank":3},{"series":"G","rank":2}]}'):
        "cf3699b8e1f87769b4b091c13b07af97e3903643ded1545b517eecdf95d944c6",
    ("langlands", "--group",
     '{"components":[{"series":"F","rank":4},{"series":"G","rank":2},{"series":"B","rank":2}]}'):
        "2b7c78825bdb9d87de740705974c67ab3100cab786ddf52a064e93ba627d6fae",
}


@pytest.mark.parametrize("argv", sorted(CLIFF_DIGESTS), ids=" ".join)
def test_cliff_rows_match_recorded_digest(argv, capsys, monkeypatch):
    _check((*argv, "--format", "json"), CLIFF_DIGESTS[argv], capsys, monkeypatch)


UNBENCHED_DIGESTS = {
    ("dualize", "--group", "SU(3)", "--twist", "level:1", "--shift", "[[0,1],[0,0]]"):
        "1b165b35bb52dda6717502594901b83ff526c249fed2b405a5067a62db9b2ed6",
    ("dualize", "--group", "SU(3)", "--twist", "level:1", "--shift", "[[0,1],[0,0]]",
     "--format", "json"):
        "6e6f39d710680d7e454fc58e5009cd8672b8d8f639823c3994449557d91fd447",
    ("dualize", "--group", "Spin(8)", "--twist", "level:1",
     "--shift", "[[0,1,0,2],[0,0,-1,0],[0,0,0,3],[0,0,0,0]]"):
        "3ed88a8ae44712c6364e4fe99cfd70c2220c09cecf796f7a42d47c1a3aea2ebe",
    ("dualize", "--group", "SU(3)", "--twist", "[[1,0],[0,0]]", "--shift", "[[0,1],[0,0]]"):
        "6a8d594d32efedc22c8c994d9f72f0c69b3cd5d2e9249f03f4c327bead7a5e28",
    ("extension", "--group", "G2", "--b", '[[0,"1/2"],["1/2",0]]'):
        "55de8bb432e036756fa6605d8673455f7b4863e8e1484dcfc06c26d4152abf15",
    # The level formula on G2 at level 1 is the explicit b of the row above,
    # so the two print the same report.
    ("extension", "--group", "G2"):
        "55de8bb432e036756fa6605d8673455f7b4863e8e1484dcfc06c26d4152abf15",
    # Half-pairing violations listed at the simple coroots only.
    ("extension", "--group", "SU(3)", "--b", '[[0,"1/3"],["2/3",0]]'):
        "862631d3ba9561c1e4e0270119da70ed7fcb46acf02286067eca0befc48abecb",
    # Quotients whose integral bases are built from the center's torsion
    # lifts, and adjoint A1^n h3_class values, whose free part is the twist's
    # invariant coordinates c and whose torsion has one coordinate per pair:
    # A1^3 free [2, 0, 6] and torsion [1, 0, 1], A1^2 free [2, 4], A1^4 free
    # [2, 4, 6, 8] and torsion [1, 0, 0, 1, 0, 1].
    ("group", "--group",
     '{"components":[{"series":"D","rank":4}],"fundamental_group":{"generators":[[1,1]]}}'):
        "68be9dcd0c5980b8e290bf97516cc7b1b5b6bb0f1ce2ce036cbb716a6735daa2",
    ("group", "--group",
     '{"components":[{"series":"A","rank":3},{"series":"A","rank":1}],'
     '"fundamental_group":{"generators":[[2,1]]}}'):
        "15ca2583c96692f30a7500c907fca700961e1468527bfe7c57db68a0630c294f",
    ("dualize", "--group",
     '{"components":[{"series":"A","rank":1},{"series":"A","rank":1},{"series":"A","rank":1}],'
     '"fundamental_group":"adjoint"}',
     "--twist", "[[1,1,0],[-1,0,1],[0,-1,3]]", "--shift", "[[0,1,1],[0,0,1],[0,0,0]]",
     "--format", "json"):
        "b96e6be52f4e286a797a82a64cd93ff8d7cc47524472fe71f2123f03ef01de16",
    ("twist", "--group",
     '{"components":[{"series":"A","rank":1},{"series":"A","rank":1}],'
     '"fundamental_group":"adjoint"}',
     "--twist", "[[1,1],[-1,2]]", "--format", "json"):
        "c08930e6e19b1c3199d005d3abb64d935574f17ee65aa9dabd1787dded6b4e43",
    ("dualize", "--group",
     '{"components":[{"series":"A","rank":1},{"series":"A","rank":1},{"series":"A","rank":1},'
     '{"series":"A","rank":1}],"fundamental_group":"adjoint"}',
     "--twist", "[[1,1,0,0],[-1,2,1,0],[0,-1,3,1],[0,0,-1,4]]",
     "--shift", "[[0,1,0,2],[0,0,-1,0],[0,0,0,3],[0,0,0,0]]", "--format", "json"):
        "298601e227640d341bc48ee071935f4b6132bbfdfba29b5aa1a2639eb1733621",
    ("langlands", "--group", "B3"):
        "2f81bebc6f4bbef9e0488fb2efb1a22da38add80c93914a5280c83ef25372b13",
    ("contcheck", "--format", "json"):
        "9d2d4f8d79bee64d7045d59850b0bfb44915b37a6f45a9a9f7e6c848cd0babac",
    ("contcheck",):
        "aba002f735a8afaa4c12d2f75dccaa8a77d2a7bf469c27b8bcddf679c747cf6e",
    # The smallest and largest grids and the benchmark's 16384.
    ("contcheck", "--grid", "844", "--format", "json"):
        "9a4a72fc1920b30fe8be2311cad0c2ab0dee18aee4a2e8b551c85f3ffba7dfcc",
    ("contcheck", "--grid", "16384", "--format", "json"):
        "0160f817f8bfed23a4b3ca5c0c30f8ce57972962790b07aa1bf3fbd5b3985ccd",
    ("contcheck", "--grid", "131072", "--format", "json"):
        "894b7868468d6c5d1c91255d7c47ab4538b6c7a108e795fb3402e4c3d466ff48",
}


@pytest.mark.parametrize("argv", sorted(UNBENCHED_DIGESTS), ids=" ".join)
def test_unbenched_rows_match_recorded_digest(argv, capsys, monkeypatch):
    _check(argv, UNBENCHED_DIGESTS[argv], capsys, monkeypatch)
