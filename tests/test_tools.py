"""The helpers of the comparison scripts under tools/."""

import json
import resource
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
    out, with no wall time; the next row runs as usual.  The budget leaves the
    fast row's interpreter start-up (up to about 0.5 s on a busy host) room."""
    monkeypatch.setattr(bench_pr, "TIMEOUT_S", 2.0)
    monkeypatch.setattr(bench_pr, "ENTRY", "import sys, time; time.sleep(float(sys.argv[1]))")
    slow, fast = bench_pr.run_rows(bench_pr.CHANGE, (("60",), ("0",)))
    assert (slow["status"], slow["wall_s"]) == ("timeout after 2.0 s", None)
    assert fast["status"] == "exit 0" and fast["wall_s"] is not None


def test_a_row_records_its_own_peak_memory():
    """A row's maxrss_mb is the child's own VmHWM, which exec starts afresh,
    so `group --group SU(2)` reads below this process's high-water mark, at
    which the child's `ru_maxrss` would start."""
    [row] = bench_pr.run_rows(bench_pr.CHANGE, (("group", "--group", "SU(2)"),))
    assert row["status"] == "exit 0"
    assert 0 < row["maxrss_mb"] < resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def fake_bench(monkeypatch, tmp_path, digest):
    """Run `bench_pr.main` over two pairs in `tmp_path` with fake children:
    each row section gets two rows, and row i of pair k on `side` prints
    `digest(side, k, i)`.  Returns the report and the calls made, in order."""
    parent, calls = tmp_path / "parent", []
    monkeypatch.setattr(bench_pr, "CHANGE", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "perfbench/run.py"], "run_seconds": 1,
        "workloads": [{"name": "w"}], "end_to_end": [{"name": "wall_s", "better": "lower"}]}))

    def records(root, rows, **extra):
        side = "parent" if root == parent else "change"
        calls.append((side, rows[0][-1]))
        k = sum(call == calls[-1] for call in calls) - 1
        return [{"argv": list(argv), "status": "exit 0", "wall_s": 1.0 + k,
                 "sha256": digest(side, k, i), **extra} for i, argv in enumerate(rows)]

    for name in ("RANK_CAP_ROWS", "RANK_128_ROWS", "CONTCHECK_ROWS"):
        monkeypatch.setattr(bench_pr, name, tuple(("group", f"{name}-{i}") for i in range(2)))
    monkeypatch.setattr(bench_pr, "run_rows",
                        lambda root, rows: records(root, rows, maxrss_mb=9.0))
    monkeypatch.setattr(bench_pr, "run_cliffs", lambda root: records(
        root, tuple(("cohomology", f"CLIFF-{i}") for i in range(2)), layers={"cli": 0.1}))
    monkeypatch.setattr(bench_pr, "run_startup",
                        lambda root: dict.fromkeys(bench_pr.STARTUP_ROWS, 0.05))
    monkeypatch.setattr(bench_pr, "run_side", lambda root, workload, seed, seconds: {
        "metrics": {"wall_s": 1.0}, "fail_ratio": 0.0, "environment": {}})
    monkeypatch.setattr(bench_pr, "checked", lambda root, args: calls.append((root, args)))
    assert bench_pr.main(["--pr", "0", "--parent", str(parent), "--pairs", "2"]) == 0
    return json.loads((tmp_path / "BENCH_0.json").read_text()), calls


def test_main_writes_each_argv_of_a_section_once(monkeypatch, tmp_path):
    """Each row section lists its argv once, under `rows`; its runs and its
    summary follow that order and repeat no argv.  Both checkouts are
    compiled before the first run."""
    report, calls = fake_bench(monkeypatch, tmp_path, lambda side, k, i: f"digest-{i}")
    text = (tmp_path / "BENCH_0.json").read_text()
    compile_args = ("-m", "compileall", "-q", "src", "perfbench")
    assert calls[:2] == [(tmp_path / "parent", compile_args), (tmp_path, compile_args)]
    for name, marker in (("cliffs", "CLIFF"), ("rank_cap", "RANK_CAP_ROWS"),
                         ("rank_128", "RANK_128_ROWS"), ("contcheck", "CONTCHECK_ROWS")):
        section = report[name]
        assert [row[1] for row in section["rows"]] == [f"{marker}-0", f"{marker}-1"]
        assert all(text.count(f'"{marker}-{i}"') == 1 for i in range(2))
        assert [run["first"] for run in section["runs"]] == ["parent", "change"]
        assert all(len(run[side]) == 2 and "argv" not in run[side][0]
                   for run in section["runs"] for side in ("parent", "change"))
        summary = section["summary"]
        assert [row["parent"]["sha256"] for row in summary] == [["digest-0"], ["digest-1"]]
        assert [row["change"]["median_wall_s"] for row in summary] == [1.5, 1.5]
    assert report["rank_128"]["summary"][0]["parent"]["median_maxrss_mb"] == 9.0
    assert "median_maxrss_mb" not in report["cliffs"]["summary"][0]["parent"]
    assert set(report["startup"]["summary"]) == {"interpreter", "import", "group SU(2)"}


def test_startup_rows_take_turns_and_keep_their_least_time(monkeypatch):
    """Each round spawns every startup row once, in the table's order, so a
    drift of the host's speed between rounds reaches all rows; a row keeps
    the least wall time of its spawns."""
    monkeypatch.setattr(bench_pr, "STARTUP_SPAWNS", 3)
    calls, walls = [], iter([0.5, 0.6, 0.7, 0.2, 0.9, 0.8, 0.4, 0.3, 0.1])

    def spawn(root, args):
        calls.append(args)
        return bench_pr.Child("exit 0", b"", b"", next(walls), None)

    monkeypatch.setattr(bench_pr, "spawn", spawn)
    assert bench_pr.run_startup(bench_pr.CHANGE) == {
        "interpreter": 0.2, "import": 0.3, "group SU(2)": 0.1}
    assert calls == list(bench_pr.STARTUP_ROWS.values()) * 3


def test_the_interpreter_row_names_no_package_module():
    """The startup floor is the command path's `gc.freeze()` alone: the row
    runs, and its code names no module of the package."""
    args = bench_pr.STARTUP_ROWS["interpreter"]
    assert "tdual_lie" not in " ".join(args)
    assert bench_pr.checked(bench_pr.CHANGE, args).status == "exit 0"


def test_every_startup_row_freezes_the_collector_first():
    """Every startup row starts as the interpreter row does, or runs `main`,
    whose first statement is `gc.freeze()`, so no row's shutdown
    collections walk a heap that the others' skip: each row exits with a
    frozen heap, read off `gc.get_freeze_count()` in an exit hook."""
    floor = bench_pr.STARTUP_ROWS["interpreter"][1]
    hook = ("import atexit, gc, os\n"
            "atexit.register(lambda: os.write(2, b'frozen %d' % gc.get_freeze_count()))\n")
    for name, (flag, code, *argv) in bench_pr.STARTUP_ROWS.items():
        assert code == bench_pr.ENTRY or code.startswith(floor), name
        child = bench_pr.checked(bench_pr.CHANGE, (flag, hook + code, *argv))
        assert int(child.stderr.rsplit(b"frozen ", 1)[1]) > 0, name


def test_main_reports_a_digest_that_varies_between_pairs(monkeypatch, tmp_path, capsys):
    """A row whose stdout changes between the pairs of one side is counted on
    stderr, per side and section, and the summary keeps every digest."""
    report, _ = fake_bench(monkeypatch, tmp_path, lambda side, k, i: (
        f"digest-{i}-{k}" if (side, i) == ("change", 1) else f"digest-{i}"))
    err = capsys.readouterr().err
    for name in ("cliffs", "rank_cap", "rank_128", "contcheck"):
        assert f"bench_pr: {name} change stdout digests vary between pairs on 1 rows\n" in err
        assert f"bench_pr: {name} parent stdout digests vary" not in err
        assert report[name]["summary"][1]["change"]["sha256"] == ["digest-1-0", "digest-1-1"]


def test_same_output_counts_a_timeout_on_both_sides(monkeypatch, capsys):
    """A row that times out in both checkouts compared nothing, so it differs;
    the fast row gets the same budget as in the test above."""
    monkeypatch.setattr(bench_pr, "TIMEOUT_S", 2.0)
    monkeypatch.setattr(same_output, "ENTRY", "import sys, time; time.sleep(float(sys.argv[1]))")
    monkeypatch.setattr(same_output, "all_argv", lambda: [("60",), ("0",)])
    assert same_output.main(["--parent", str(bench_pr.CHANGE)]) == 1
    out = capsys.readouterr().out
    assert "differs (timed out on both sides): 60\n" in out
    assert out.endswith("same_output: 2 argv, 1 differ\n")
