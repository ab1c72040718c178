"""The helpers of the comparison scripts under tools/."""

import json
import sys
from pathlib import Path

_path = list(sys.path)
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_pr  # noqa: E402
import same_output  # noqa: E402

sys.path[:] = _path


def test_differing_paths_of_nested_payloads():
    """Key paths go through objects by key and lists of lists or objects by
    index; a vector, a key on one side only, a list of another length and a
    value of another type are each named where they appear."""
    old = {"schema": "tdual-lie/1", "reports": [
        {"group": "D4", "h3_class": {"free": [1], "torsion": [1, 0, 0]}, "rank": 4},
        {"group": "SU(2)", "twist": [[2]], "available": True, "gone": 0,
         "lattice": [[1, 0], [0, 1]]}]}
    new = {"schema": "tdual-lie/1", "reports": [
        {"group": "D4", "h3_class": {"free": [1], "torsion": [1, 1, 0]}, "rank": 4},
        {"group": "SU(2)", "twist": [[2], [0]], "available": 1, "added": None,
         "lattice": [[1, 0], [0, 2]]}]}
    assert same_output.differing_paths(old, new) == [
        "reports.0.h3_class.torsion", "reports.1.added", "reports.1.available",
        "reports.1.gone", "reports.1.lattice.1", "reports.1.twist"]
    assert same_output.differing_paths(old, json.loads(json.dumps(old))) == []
    assert same_output.differing_paths(old, [old]) == ["<root>"]


def test_json_diff_needs_json_on_both_sides():
    payload = json.dumps({"reports": [{"torsion": [0]}]}).encode()
    assert same_output.json_diff(payload, payload.replace(b"0", b"1")) == ["reports.0.torsion"]
    assert same_output.json_diff(payload, b"# twist  [tdual-lie/1]\n") is None


def test_text_diff_names_the_keys_of_differing_lines():
    """A text stdout that is not JSON is compared line by line: each line
    changed, added or dropped is named by its key, the part before ": "."""
    old = (b"# twist  [tdual-lie/1]\n-- report 0 --\ngroup: SO(3)\n"
           b"h3_class.free: [1]\nh3_class.torsion: []\ndualizable: True\n")
    new = old.replace(b"free: [1]", b"free: [2]").replace(b"dualizable: True\n", b"") + b"end\n"
    assert same_output.text_diff(old, new) == ["dualizable", "end", "h3_class.free"]
    assert same_output.text_diff(old, old) == []
    assert same_output.json_diff(old, new) is None


def test_run_rows_kills_a_row_past_the_timeout(monkeypatch):
    """A row still running after TIMEOUT_S is killed and recorded as timed
    out, with no wall time; the next row runs as usual."""
    monkeypatch.setattr(bench_pr, "TIMEOUT_S", 0.5)
    monkeypatch.setattr(bench_pr, "ENTRY", "import sys, time; time.sleep(float(sys.argv[1]))")
    slow, fast = bench_pr.run_rows(bench_pr.CHANGE, (("60",), ("0",)))
    assert (slow["status"], slow["wall_s"]) == ("timeout after 0.5 s", None)
    assert fast["status"] == "exit 0" and fast["wall_s"] is not None
