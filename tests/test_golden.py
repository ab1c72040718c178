"""Byte identity of the CLI against the stdout digests the benchmark pins.

`perfbench/expected.json` maps each fixed benchmark job (its argv as JSON)
to the sha256 of its stdout.  Each job runs here in-process; its output must
hash to the same value, and it must write nothing to stderr.  The rank-15
and rank-16 rows of `perfbench/cliffs.py`, which the timed workloads leave
out, are pinned here too.
"""

import hashlib
import json
from pathlib import Path

import pytest

from tdual_lie.cli import main

EXPECTED = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text("utf-8"))


def _check(argv, digest, capsys, monkeypatch):
    monkeypatch.delenv("TDUAL_PRECISION", raising=False)
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
}


@pytest.mark.parametrize("argv", sorted(CLIFF_DIGESTS), ids=" ".join)
def test_cliff_rows_match_recorded_digest(argv, capsys, monkeypatch):
    _check((*argv, "--format", "json"), CLIFF_DIGESTS[argv], capsys, monkeypatch)
