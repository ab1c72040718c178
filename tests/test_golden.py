"""Byte identity of the CLI against the stdout digests the benchmark pins.

`perfbench/expected.json` maps each fixed benchmark job (its argv as JSON)
to the sha256 of its stdout.  Each job runs here in-process; its output must
hash to the same value, and it must write nothing to stderr.
"""

import hashlib
import json
from pathlib import Path

import pytest

from tdual_lie.cli import main

EXPECTED = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text("utf-8"))


@pytest.mark.parametrize("key", sorted(EXPECTED), ids=lambda key: " ".join(json.loads(key)))
def test_stdout_matches_recorded_digest(key, capsys, monkeypatch):
    monkeypatch.delenv("TDUAL_PRECISION", raising=False)
    code = main(json.loads(key))
    out, err = capsys.readouterr()
    assert code in (0, 1)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == EXPECTED[key]
    assert err == ""
