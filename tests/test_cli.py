"""Command-line surface: parsing, reports, determinism, exit codes."""

import argparse
import gc
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from tdual_lie import cli, flagcoh, rootdata, tduality, zlinalg
from tdual_lie.cli import (
    _EXPECT_TESTS,
    FLAGS,
    _contcheck_grid,
    _flag_int,
    _nonnegative_level,
    main,
    parse_args,
    render_text,
    run,
)
from tdual_lie.errors import UsageError, quote
from tdual_lie.zlinalg import solve_columns

from oracles import clear_caches


def run_json(argv):
    config = parse_args(argv + ["--format", "json"])
    code, payload = run(config)
    # Round-trip through the serialized form the user actually sees.
    return code, json.loads(json.dumps(payload, sort_keys=True))


def test_parse_examples(capsys):
    cfg = parse_args(["cohomology", "--group", "SU(3)"])
    assert cfg.verb == "cohomology" and cfg.groups == ("SU(3)",)

    cfg = parse_args(["dualize", "--group", "SU(2)", "--twist", "level:1"])
    assert cfg.twist == "level:1"

    cfg = parse_args(["langlands", "--group", "B3"])
    assert cfg.verb == "langlands"

    # An unknown verb is a usage error with one line, not a block of usage.
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    assert capsys.readouterr().err.count("\n") == 1

    with pytest.raises(UsageError):
        parse_args(["cohomology"])  # no group


def argparse_oracle(argv) -> argparse.Namespace:
    """The argparse reader the flag table replaced: the same fields, checks
    and defaults, kept as the oracle of `parse_args`."""
    parser = argparse.ArgumentParser(prog="tdual")
    parser.set_defaults(level="1", twist=None, shift=None, b=None, grid=None)
    sub = parser.add_subparsers(dest="verb", required=True)
    needs_group = {}
    for verb in FLAGS:
        p = sub.add_parser(verb)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", default=None)
        p.add_argument("--expect", default=None, choices=tuple(_EXPECT_TESTS))
        if verb != "contcheck":
            p.add_argument("--group", default=None)
            p.add_argument("--group-list", default=None)
            needs_group[verb] = True
        if verb in ("twist", "dualize"):
            p.add_argument("--twist", required=True)
        if verb == "dualize":
            p.add_argument("--shift", default=None)
        if verb == "extension":
            p.add_argument("--level", default="1")
            p.add_argument("--b", default=None)
        if verb == "contcheck":
            p.add_argument("--grid", default=None)

    ns = parser.parse_args(argv)
    ns.groups = ()
    if needs_group.get(ns.verb):
        if ns.group and ns.group_list:
            raise UsageError("--group and --group-list are mutually exclusive")
        if ns.group:
            ns.groups = (ns.group,)
        elif ns.group_list:
            ns.groups = tuple(s.strip() for s in ns.group_list.split(",") if s.strip())
        if not ns.groups:
            raise UsageError(f"verb {ns.verb!r} needs --group or --group-list")
    ns.level = _nonnegative_level(_flag_int(ns.level, "--level", signed=True), "--level")
    if ns.verb == "contcheck":
        ns.grid = _contcheck_grid(ns.grid)
    return ns


SAMPLE_VALUES = {"--output": "out.json", "--group": "SU(3)", "--group-list": "SU(2), SO(3),,B3",
                 "--twist": "level:2", "--shift": "[[0, 1], [0, 0]]", "--level": "3",
                 "--b": '[[0, "1/2"], ["1/2", 0]]', "--grid": "2048"}


def _valid_argvs():
    """Every verb alone, then with each of its flags and each value it
    takes (as `--flag value` and `--flag=value`), plus all flags at once."""
    for verb, flags in FLAGS.items():
        base = [verb] + (["--twist", "level:1"] if "--twist" in flags else [])
        group = ["--group", "G2"] if "--group" in flags else []
        yield base + group
        for flag, choices in flags.items():
            rest = base + ([] if flag.startswith("--group") else group)
            if flag == "--twist":
                rest = [verb] + group
            for value in choices or (SAMPLE_VALUES[flag],):
                yield rest + [flag, value]
                yield rest + [f"{flag}={value}"]
        everything = [verb] + [a for f, c in flags.items() if f != "--group-list"
                               for a in (f, c[-1] if c else SAMPLE_VALUES[f])]
        yield everything


VALID_ARGVS = list(_valid_argvs())


@pytest.mark.parametrize("argv", VALID_ARGVS, ids=" ".join)
def test_flag_table_matches_argparse(argv):
    assert vars(parse_args(argv)) == vars(argparse_oracle(argv))


@pytest.mark.parametrize("argv", [
    ["extension", "--group", "SU(2)", "--level", "-1"],
    ["extension", "--group", "SU(2)", "--level=-1"],
    ["group", "--group", "SU(2)", "--group-list", "SO(3)"],
    ["group", "--group-list", " , "],
], ids=" ".join)
def test_flag_table_refuses_what_argparse_refused(argv):
    with pytest.raises(UsageError):
        argparse_oracle(argv)
    with pytest.raises(UsageError):
        parse_args(argv)


def test_help_lists_verbs_and_flags(capsys):
    """--help prints the verbs, or a verb's flags, from the flag table and
    exits 0."""
    for argv in (["--help"], ["-h"]):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert all(verb in out for verb in FLAGS)
    for verb, flags in FLAGS.items():
        assert main([verb, "--help"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()[1:]] == list(flags)


def test_group_report():
    code, payload = run_json(["group", "--group", "SU(3)"])
    assert code == 0
    rep = payload["reports"][0]
    assert rep["rank"] == 2
    assert rep["center"]["invariant_factors"] == [3]
    assert rep["root_count"] == 6
    code, payload = run_json(["group", "--group", "Spin(64)"])
    assert code == 0 and payload["reports"][0]["root_count"] == 1984


def test_cohomology_so3():
    code, payload = run_json(["cohomology", "--group", "SO(3)"])
    assert code == 0
    rep = payload["reports"][0]
    assert rep["H2_K"]["invariant_factors"] == [2]
    assert rep["H3_K"]["free_rank"] == 1 and rep["H3_K"]["invariant_factors"] == []


def test_extension_su3_level1():
    code, payload = run_json(["extension", "--group", "SU(3)", "--level", "1"])
    assert code == 0
    rep = payload["reports"][0]
    assert rep["trivializable"] is False
    assert rep["witness_value"] == "1/2"
    assert rep["admissibility"]["passed"] is True


def test_extension_requires_explicit_b():
    """Only a group with pi_1 != 0 needs `--b`; B3, which is not simply
    laced, reads b off the level."""
    code, payload = run_json(["extension", "--group", "PSU(3)", "--level", "1"])
    assert code == 0
    assert payload["reports"][0]["requires_explicit_b"] is True
    assert payload["reports"][0]["reason"] == (
        "PSU(3) is not simply connected; supply the commutator map explicitly")

    code, payload = run_json(["extension", "--group", "B3", "--level", "1"])
    assert code == 0
    assert payload["reports"][0]["admissibility"]["passed"] is True

    code, payload = run_json([
        "extension", "--group", "Spin(5)", "--level", "0",
        "--b", "[[0, 0], [0, 0]]",
    ])
    assert code == 0
    assert payload["reports"][0]["trivializable"] is True


def test_langlands_su2():
    code, payload = run_json(["langlands", "--group", "SU(2)"])
    assert code == 0
    rep = payload["reports"][0]
    assert rep["match"] is True
    assert rep["dual_chern_lattice"] == [[2]]
    assert rep["dual_group"] == "SO(3)"


def test_langlands_b3_unavailable():
    code, payload = run_json(["langlands", "--group", "B3"])
    assert code == 0  # a negative finding is reported, not asserted
    assert payload["reports"][0]["available"] is False

    code, _ = run_json(["langlands", "--group", "B3", "--expect", "available"])
    assert code == 1


def test_twist_verb():
    code, payload = run_json(["twist", "--group", "SU(2)", "--twist", "[[3]]"])
    assert code == 0
    rep = payload["reports"][0]
    assert rep["twist_is_cycle"] is True
    assert rep["dual_chern_lattice"] == [[3]]
    assert rep["dualizable"] is True


def test_dualize_with_shift():
    code, payload = run_json([
        "dualize", "--group", "SU(3)", "--twist", "level:1",
        "--shift", "[[0, 1], [0, 0]]",
    ])
    assert code == 0
    rep = payload["reports"][0]
    assert "shifted" in rep
    assert rep["shifted"]["h3_class"] == rep["h3_class"]


def test_group_list_batch():
    code, payload = run_json(["cohomology", "--group-list", "SU(2),SO(3)"])
    assert code == 0
    assert len(payload["reports"]) == 2


@pytest.mark.parametrize("argv, line", [
    (["group", "--group-list", "SU(2),Q7,SU(3)"], "error: unknown group name 'Q7'"),
    (["twist", "--group-list", "SU(2),SU(3),SO(3)", "--twist", "[[1]]"],
     "usage error: malformed twist matrix '[[1]]': twist matrix must be rank x rank"),
], ids=["unknown-group", "twist-of-wrong-size"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_group_list_keeps_the_reports_around_a_bad_group(capsys, argv, line, fmt):
    """A group that fails in a batch gets a {"group", "error"} record in its
    place, between the reports of the others; stderr keeps its one-line
    message and the exit code is 2."""
    capsys.readouterr()
    assert main(argv + ["--format", fmt]) == 2
    out, err = capsys.readouterr()
    assert err == line + "\n"
    message = line.split(": ", 1)[1]
    specs = argv[argv.index("--group-list") + 1].split(",")
    if fmt == "json":
        reports = json.loads(out)["reports"]
        assert [r["group"] for r in reports] == specs
        assert reports[1] == {"group": specs[1], "error": message}
        assert all("error" not in r for r in (reports[0], reports[2]))
    else:
        assert f"-- report 1 --\ngroup: {specs[1]}\nerror: {message}\n-- report 2 --\n" in out


def test_json_group_spec(tmp_path):
    spec = {"components": [{"series": "A", "rank": 1}], "fundamental_group": "adjoint"}
    path = tmp_path / "group.json"
    path.write_text(json.dumps(spec))
    code, payload = run_json(["cohomology", "--group", f"@{path}"])
    assert code == 0
    assert payload["reports"][0]["H2_K"]["invariant_factors"] == [2]


def test_expect_passing_and_failing():
    code, _ = run_json(["extension", "--group", "SU(3)", "--level", "2",
                        "--expect", "trivializable"])
    assert code == 0
    code, _ = run_json(["extension", "--group", "SU(3)", "--level", "1",
                        "--expect", "trivializable"])
    assert code == 1


def test_determinism_byte_identical(capsys):
    argv = ["langlands", "--group", "SU(3)", "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second and first.strip()


def test_output_file(tmp_path):
    out = tmp_path / "report.json"
    code = main(["group", "--group", "G2", "--format", "json", "--output", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["reports"][0]["root_count"] == 12


def test_text_format_renders(capsys):
    assert main(["group", "--group", "SU(2)"]) == 0
    text = capsys.readouterr().out
    assert "root_count: 2" in text


@pytest.mark.parametrize("argv, line", [
    (["group"], "group: two\\nlines"),
    (["extension", "--level", "1"],
     "reason: two\\nlines is not simply connected; supply the commutator map explicitly"),
], ids=["group", "extension-reason"])
def test_text_escapes_string_values(argv, line):
    """Text output escapes a string value as stderr does, so a newline in a
    value keeps its line whole; the payload, which JSON output dumps, keeps
    the string as it is.  The datum is a quotient, so `extension --level`
    reports a reason, which names the group; its label is replaced by one
    with a newline, which no input can set."""
    spec = json.dumps({"components": [{"series": "B", "rank": 2}],
                       "fundamental_group": "adjoint"})
    code, payload = run(parse_args([argv[0], "--group", spec, *argv[1:]]))
    assert code == 0
    label = payload["reports"][0]["group"]
    payload = json.loads(json.dumps(payload).replace(label, "two\\nlines"))
    text = render_text(payload)
    assert line in text.splitlines() and "lines" not in text.replace("two\\nlines", "")
    assert payload["reports"][0]["group"] == "two\nlines"


def test_group_list_record_keeps_a_newline_whole(capsys):
    """A --group-list spec with a newline comes back in its error record:
    escaped on its one text line and in the stderr line, as written in JSON."""
    argv = ["group", "--group-list", "SU(2),two\nlines"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert "group: two\\nlines" in out.splitlines() and err.count("\n") == 1
    assert main([*argv, "--format", "json"]) == 2
    assert json.loads(capsys.readouterr().out)["reports"][1]["group"] == "two\nlines"


def test_usage_error_exit_2(capsys):
    assert main(["cohomology", "--group", "NotAGroup(3)"]) == 2
    assert main(["twist", "--group", "SU(2)", "--twist", "[[1,2],[3"]) == 2


def test_contcheck_verb():
    code, payload = run_json(["contcheck"])
    assert code == 0
    assert payload["reports"][0]["passed"] is True


def _cli_process(argv, **env):
    """A `tdual` process with `src` on its path, no TDUAL_* variable but
    those in `env`: (exit code, stdout bytes)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    base = {k: v for k, v in os.environ.items() if not k.startswith("TDUAL_")}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "tdual_lie.cli", *argv], env={**base, **env},
                          capture_output=True, timeout=120)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("argv", [
    ["contcheck"], ["group", "--group", "SU(3)"], ["twist", "--group", "SU(3)", "--twist", "level:1"],
], ids=lambda argv: argv[0])
def test_tdual_variables_change_no_output(argv):
    """The contcheck grid comes from --grid alone: no TDUAL_* variable,
    in range, out of range or junk, changes any verb's exit code or stdout."""
    unset = _cli_process(argv)
    assert unset[0] == 0
    for env in ({"TDUAL_PRECISION": "4096", "TDUAL_FOO": "junk"}, {"TDUAL_PRECISION": "oops"},
                {"TDUAL_PRECISION": "19"}, {"TDUAL_PRECISION": "843"},
                {"TDUAL_PRECISION": "131073"}):
        assert _cli_process(argv, **env) == unset, env


ENTRY = "import sys; from tdual_lie.cli import main; sys.exit(main())"


def _src_env(buffered: bool = False) -> dict:
    """This environment with `src` on the path; `buffered` drops
    PYTHONUNBUFFERED, so stdout keeps what a failed write left in its buffer
    for the flush at exit, as it does for a user who never set it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    return env


# `group` fits in the stream's buffer, so the flush fails; `cohomology` on
# Spin(64) outgrows it, so the write itself fails.  Help goes through the
# same write as a report.
UNWRITABLE_ARGV = [["group", "--group", "SU(2)"], ["cohomology", "--group", "Spin(64)"],
                   ["--help"], ["group", "--help"]]
UNWRITABLE_IDS = ["group", "cohomology", "help", "group-help"]


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", UNWRITABLE_ARGV, ids=UNWRITABLE_IDS)
def test_broken_pipe_on_stdout_exits_2(argv, buffered):
    """A pipe whose read end is closed before the process starts: one usage
    error line, exit 2, and no complaint from the flush at exit (which,
    with a buffered stdout, would print "Exception ignored" and exit 120)."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-c", ENTRY, *argv], env=_src_env(buffered),
                              stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (
        2, "usage error: cannot write standard output: Broken pipe\n")


@pytest.mark.parametrize("argv", UNWRITABLE_ARGV, ids=UNWRITABLE_IDS)
def test_closed_stdout_exits_2(argv):
    """fd 1 closed (`>&-`), so `sys.stdout` is None: one usage error line
    and exit 2."""
    proc = subprocess.run([sys.executable, "-c", ENTRY, *argv], env=_src_env(),
                          preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE, text=True,
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (
        2, "usage error: cannot write standard output: Bad file descriptor\n")


def test_in_process_main_keeps_normal_gc(capsys):
    """`main(list)` neither freezes the heap nor switches the collector."""
    before = gc.get_freeze_count(), gc.isenabled()
    assert main(["group", "--group", "SU(2)"]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


@pytest.mark.parametrize("argv, code", [
    (["group", "--group", "SU(2)"], 0),
    (["langlands", "--group", "Spin(7)", "--expect", "available"], 1),
    (["group", "--group", "NotAGroup(3)"], 2),
    (["group", "--help"], 0),
], ids=["exit-0", "exit-1", "exit-2", "help"])
def test_command_path_freezes_and_prints_what_main_list_prints(capsys, argv, code):
    """`main()` reading `sys.argv`, the path of the `tdual` command, freezes
    the heap, and prints the stdout and stderr and exits with the code of
    `main(argv)` in process."""
    script = ("import gc, sys\n"
              "from tdual_lie.cli import main\n"
              f"sys.argv = ['tdual', *{argv!r}]\n"
              "try:\n"
              "    code = main()\n"
              "except SystemExit as exc:\n"
              "    code = exc.code\n"
              "sys.stdout.flush()\n"
              "print(gc.get_freeze_count() > 0, file=sys.stderr)\n"
              "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    try:
        in_process = main(argv)
    except SystemExit as exc:
        in_process = exc.code
    captured = capsys.readouterr()
    assert in_process == code
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out,
                                                           captured.err + "True\n")


def _usage_error(capsys, argv, prefix="usage error:"):
    """Exit code 2 with a single `usage error:` (or other `prefix`) line on
    stderr, which is returned."""
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("name", ["", " "])
def test_empty_group_name_is_an_unknown_name(capsys, name):
    """An empty `--group` is a given group with an unknown name, refused as
    one blank name is, not a missing `--group`."""
    err = _usage_error(capsys, ["group", "--group", name], prefix="error:")
    assert err == f"error: unknown group name {name!r}\n"


def test_twist_float_entry_rejected(capsys):
    _usage_error(capsys, ["twist", "--group", "SU(2)", "--twist", "[[1.5]]"])


def test_twist_bool_entry_rejected(capsys):
    _usage_error(capsys, ["twist", "--group", "SU(2)", "--twist", "[[true]]"])


def test_shift_float_entry_rejected(capsys):
    _usage_error(capsys, ["dualize", "--group", "SU(3)", "--twist", "level:1",
                          "--shift", "[[0,1.5],[0,0]]"])


def test_component_rank_must_be_integer(capsys):
    _usage_error(capsys, ["group", "--group", '{"components": [{"series": "A", "rank": "x"}]}'])


@pytest.mark.parametrize("spec", [
    '{"components": [1]}', '{"components": 5}', '{"components": {"series": "A"}}',
])
def test_components_of_the_wrong_shape_rejected(capsys, spec):
    """Components that are not a list of objects get one fixed line naming
    the shape, not Python's own TypeError text."""
    capsys.readouterr()
    assert main(["group", "--group", spec]) == 2
    assert capsys.readouterr().err == (
        'usage error: root-datum JSON needs components as a list of {"series", "rank"} '
        "objects\n")


@pytest.mark.parametrize("value", [",", " , ", ""])
def test_group_list_naming_no_group(capsys, value):
    """A --group-list that names no group says so, rather than asking for a
    --group-list it was given."""
    err = _usage_error(capsys, ["group", "--group-list", value])
    assert err == f"usage error: --group-list names no group, got {value!r}\n"


@pytest.mark.parametrize("series", ["5", '["A"]'])
def test_component_series_must_be_string(capsys, series):
    """A series that is not a JSON string is refused as written, not glued
    to the rank into a type name such as "51"."""
    capsys.readouterr()
    assert main(["group", "--group", '{"components": [{"series": %s, "rank": 1}]}' % series]) == 2
    assert capsys.readouterr().err == (
        f"usage error: components[].series must be a string, got {series}\n")


def test_generator_float_entry_rejected(capsys):
    spec = '{"components": [{"series": "A", "rank": 1}], "fundamental_group": {"generators": [[1.5]]}}'
    _usage_error(capsys, ["group", "--group", spec])


@pytest.mark.parametrize("label", ["5", "[1, 2]", "true"])
@pytest.mark.parametrize("verb", ["group", "langlands"])
def test_non_string_label_rejected(capsys, verb, label):
    """A label of any JSON type is an unknown key, as a string one is."""
    spec = '{"components": [{"series": "A", "rank": 1}], "label": %s}' % label
    err = _usage_error(capsys, [verb, "--group", spec])
    assert err == "usage error: unknown key 'label' in root-datum JSON\n"


@pytest.mark.parametrize("spec, key", [
    ('{"components": [{"series": "A", "rank": 1}], "fundamental_group": "adjoint", '
     '"extra": 1}', "extra"),
    ('{"components": [{"series": "A", "rank": 1, "level": 2}]}', "level"),
    ('{"components": [{"series": "A", "rank": 1}], '
     '"fundamental_group": {"generators": [[1]], "order": 2}}', "order"),
    ('{"components": [{"series": "A", "rank": 1}], "fundamental_group": {"gens": [[1]]}}',
     "gens"),
    ('{"components": [{"series": "A", "rank": 2}], "fundamental_group": "adjoint", '
     '"label": "SU(3)"}', "label"),
])
def test_unknown_json_key_rejected(capsys, spec, key):
    """A root-datum JSON key outside components and fundamental_group (such
    as a label, which would rename the group and its Langlands dual), series
    and rank in a component, or generators in a fundamental_group object is
    named in the one usage-error line, not ignored."""
    assert f"unknown key '{key}'" in _usage_error(capsys, ["group", "--group", spec])


@pytest.mark.parametrize("spec, key", [
    ('{"components": [{"series": "A", "rank": 1}], "components": [{"series": "A", "rank": 2}]}',
     "components"),
    ('{"components": [{"series": "A", "series": "B", "rank": 2}]}', "series"),
], ids=["top-level", "in-a-component"])
def test_repeated_json_key_rejected(capsys, spec, key):
    """A JSON key given twice is refused, in a --group and in a --group-list
    spec alike, rather than read as its last value; the groups around it in
    the list still report."""
    line = f"usage error: malformed JSON in {quote(spec)}: repeated key '{key}'\n"
    assert _usage_error(capsys, ["group", "--group", spec]) == line
    assert main(["group", "--group-list", f"SU(2),{spec},SO(3)", "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert err == line
    assert [r["group"] for r in json.loads(out)["reports"]] == ["SU(2)", spec, "SO(3)"]


@pytest.mark.parametrize("name", [" SU(3) ", "SU(3) ", "\tG2", "A3\n"])
def test_group_name_is_taken_as_written(capsys, name):
    """A named group is matched as written, with no space trimmed; only a
    --group-list trims its items at their commas."""
    err = _usage_error(capsys, ["group", "--group", name], prefix="error:")
    assert err == f"error: unknown group name {name!r}\n"
    code, payload = run_json(["group", "--group-list", f"{name},SU(2)"])
    assert code == 0 and [r["group"] for r in payload["reports"]] == [name.strip(), "SU(2)"]


def test_missing_input_file(capsys, tmp_path):
    missing = tmp_path / "absent.json"
    _usage_error(capsys, ["group", "--group", f"@{missing}"])
    _usage_error(capsys, ["twist", "--group", "SU(2)", "--twist", f"@{missing}"])


def test_input_file_not_utf8(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff")
    _usage_error(capsys, ["group", "--group", f"@{bad}"])
    _usage_error(capsys, ["twist", "--group", "SU(2)", "--twist", f"@{bad}"])


def test_output_into_missing_directory(capsys, tmp_path):
    target = tmp_path / "no-such-dir" / "out.json"
    _usage_error(capsys, ["group", "--group", "SU(2)", "--output", str(target)])
    assert not target.parent.exists()


@pytest.mark.parametrize("grid", ["0", "-5", "15", "19", "843"])
def test_contcheck_grid_below_minimum_rejected(capsys, grid):
    _usage_error(capsys, ["contcheck", "--grid", grid])


def test_contcheck_grid_above_maximum_rejected(capsys):
    _usage_error(capsys, ["contcheck", "--grid", "131073"])


def test_contcheck_grid_bounds_accepted():
    assert parse_args(["contcheck", "--grid", "844"]).grid == 844
    assert parse_args(["contcheck", "--grid", "131072"]).grid == 131072


@pytest.mark.parametrize("argv", [
    ["twist", "--group", "SU(2)", "--twist", "level:-1"],
    ["dualize", "--group", "SU(2)", "--twist", "level:-1"],
    ["extension", "--group", "SU(2)", "--level", "-1"],
])
def test_negative_level_rejected(capsys, argv):
    _usage_error(capsys, argv)


@pytest.mark.parametrize("b, prefix", [
    ('[["x"]]', "usage error:"),
    ('[["1/0"]]', "usage error:"),
    ("[[0.1]]", "usage error:"),
    ("[[true]]", "usage error:"),
    ("5", "usage error:"),
    ('[["1/2", 0], [0, 0]]', "error:"),  # nonzero diagonal
    ('[[0, "1/2"], ["1/3", 0]]', "error:"),  # not antisymmetric mod 1
    # Entries are -?D+(/D+|.D+)? in ASCII digits D, not whatever Fraction() reads.
    ('[[0, "\u0661/\u0662"], ["1/2", 0]]', "usage error:"),
    ('[[0, "1_1/2"], ["1/2", 0]]', "usage error:"),
    ('[[0, "+1/2"], ["1/2", 0]]', "usage error:"),
    ('[[0, ".5"], ["1/2", 0]]', "usage error:"),
    ('[[0, "5."], [0, 0]]', "usage error:"),
    ('[[0, " 1/2"], ["1/2", 0]]', "usage error:"),
])
def test_commutator_entries_taken_exactly(capsys, b, prefix):
    _usage_error(capsys, ["extension", "--group", "SU(3)", "--b", b], prefix)


@pytest.mark.parametrize("b", ["[]", "[[0]]", '[[0, 0], ["1/2"]]'],
                         ids=["empty", "short", "ragged"])
def test_commutator_size_has_one_message(capsys, b):
    """`CommutatorMap` alone checks the size of --b: an empty, short or
    ragged matrix gets the one message."""
    err = _usage_error(capsys, ["extension", "--group", "SU(3)", "--b", b], "error:")
    assert err == "error: commutator matrix size must match lattice rank\n"


@pytest.mark.parametrize("flag, value", [
    ("--twist", "5"), ("--twist", '{"a":1}'), ("--twist", '"ab"'), ("--twist", "[1, 2]"),
    ("--shift", "5"), ("--shift", "[[0, 1], 0]"), ("--b", '{"a":1}'),
])
def test_matrix_flags_take_json_rows(capsys, flag, value):
    """--twist, --shift and --b read their JSON through one reader, which
    refuses anything but a list of rows before any entry is read."""
    before = {"--twist": ["twist", "--group", "SU(3)"],
              "--shift": ["dualize", "--group", "SU(3)", "--twist", "level:1"],
              "--b": ["extension", "--group", "SU(3)"]}[flag]
    err = _usage_error(capsys, before + [flag, value])
    assert err == f"usage error: {flag} must be a JSON list of rows, got {value!r}\n"


def test_dualize_solves_for_the_character_basis_once(monkeypatch, capsys):
    """`dualize` with a level twist and a shift reads the character basis X
    in `cli`, `flagcoh` and `tduality`, and solves B X^T = A for it once."""
    calls = []

    def counted(basis, targets):
        calls.append((basis, targets))
        return solve_columns(basis, targets)

    rd = rootdata.named_group("SU(4)")
    monkeypatch.setattr(rootdata, "solve_columns", counted)
    clear_caches()
    zero = json.dumps([[0] * 3] * 3)
    assert main(["dualize", "--group", "SU(4)", "--twist", "level:1", "--shift", zero]) == 0
    assert calls == [(rd.integral, rd.cartan)]


EVALUATIONS = [
    (["twist", "--group", "SU(4)", "--twist", "level:1"], 1, 1),
    (["dualize", "--group", "SU(4)", "--twist", "level:1",
      "--shift", "[[0,1,0],[0,0,0],[0,0,0]]"], 2, 1),
    (["twist", "--group", "G2", "--twist", "langlands"], 1, 1),
    (["langlands", "--group", "G2"], 1, 0),
    (["langlands", "--group", json.dumps({"components": [{"series": "B", "rank": 3},
                                                         {"series": "C", "rank": 3}]})], 1, 0),
]


# Each id is the argv alone, so a count that changes leaves the test's name as it is.
@pytest.mark.parametrize("argv, evaluations, classes", EVALUATIONS,
                         ids=[" ".join(argv) for argv, _, _ in EVALUATIONS])
def test_each_twist_evaluated_once(monkeypatch, argv, evaluations, classes):
    """The cycle test, the H^3 class and the dual Chern data of a twist read
    one evaluation of its cycle polynomial, and a report takes at most one
    class.  `dualize --shift` evaluates the twist and, once, by
    `dual_chern`'s guard, the moved twist, whose class it does not compute
    again: a boundary moves no class.  The Langlands twist, checked as a
    cycle where it is built, is not evaluated again."""
    calls, class_in_h3 = [], flagcoh.class_in_h3

    def counted(rd, u):
        calls.append(u)
        return class_in_h3(rd, u)

    monkeypatch.setattr(flagcoh, "class_in_h3", counted)
    clear_caches()
    assert main(argv) == 0
    assert flagcoh.invariant_coords.cache_info().misses == evaluations
    assert len(calls) == classes


ELIMINATIONS = [
    (["group", "--group", "SU(4)"], 1, "X"),
    (["group", "--group", "PSU(4)"], 1, "X"),
    (["cohomology", "--group", "SU(4)"], 1, "X"),
    (["cohomology", "--group", "PSU(4)"], 1, "X"),
    (["twist", "--group", "SU(4)", "--twist", "level:1"], 2, "X"),
    (["twist", "--group", "PSU(4)", "--twist", "level:2"], 2, "X"),
    (["dualize", "--group", "SU(4)", "--twist", "level:1",
      "--shift", "[[0,1,0],[0,0,0],[0,0,0]]"], 3, "X"),
    (["langlands", "--group", "PSU(4)"], 3, ""),
    (["extension", "--group", "SU(4)", "--level", "1"], 2, "X"),
    (["extension", "--group", "Sp(3)", "--level", "1"], 2, "X"),
    (["extension", "--group", "G2", "--level", "1"], 2, "X"),
    (["extension", "--group", "PSU(4)", "--b", json.dumps([[0] * 3] * 3)], 2, "X"),
]


@pytest.mark.parametrize("argv, echelons, smith", ELIMINATIONS,
                         ids=[" ".join(argv) for argv, _, _ in ELIMINATIONS])
def test_eliminations_per_verb(monkeypatch, capsys, argv, echelons, smith):
    """The `_echelon` runs outside Smith forms and the Smith forms, of the
    Cartan matrix A or of the character basis X, that a verb takes from
    cold caches: simple connectivity is read off X's Smith form, the center
    off the classification and the admissibility Gram matrix is one solve
    against X, so no verb takes a Smith form of A (X = 1 on SU(4)), and
    `langlands` takes none.  Each Smith form of X is one round of
    `_echelon`, on its rows and then on its columns: 2 runs."""
    rd = cli.resolve_group(argv[2])
    of = {"A": rd.cartan, "X": rd.character_basis}
    echelon, smith_normal_form = zlinalg._echelon, rootdata.smith_normal_form
    echelon_calls, smith_calls, smith_echelons = [], [], []

    def counted_echelon(rows, width):
        echelon_calls.append(width)
        return echelon(rows, width)

    def counted_smith(m):
        start = len(echelon_calls)
        out = smith_normal_form(m)
        smith_calls.append(m)
        smith_echelons.append(len(echelon_calls) - start)
        del echelon_calls[start:]
        return out

    clear_caches()
    monkeypatch.setattr(zlinalg, "_echelon", counted_echelon)
    monkeypatch.setattr(rootdata, "smith_normal_form", counted_smith)
    assert main(argv) == 0
    assert len(echelon_calls) == echelons
    assert Counter(smith_calls) == Counter(of[name] for name in smith)
    assert smith_echelons == [2] * len(smith)


@pytest.mark.parametrize("argv", [["langlands", "--group", "SU(4)"],
                                  ["twist", "--group", "SU(4)", "--twist", "langlands"]],
                         ids=" ".join)
def test_langlands_twist_formed_once(monkeypatch, argv):
    """`langlands` and `twist --twist langlands` build the twist on the rows
    of the integral basis B, with no product by B: the one `IntMatrix`
    product of the report is the cycle test's X.u^T."""
    data, products = [], []
    resolve_group, matmul = cli.resolve_group, zlinalg.IntMatrix.__matmul__

    def resolve(spec):
        data.append(resolve_group(spec))
        return data[-1]

    def counted(a, b):
        products.append(any(b is rd.integral for rd in data))
        return matmul(a, b)

    clear_caches()
    monkeypatch.setattr(cli, "resolve_group", resolve)
    monkeypatch.setattr(zlinalg.IntMatrix, "__matmul__", counted)
    assert main(argv) == 0
    assert len(data) == 1 and products == [False]


B3_C3 = json.dumps({"components": [{"series": "B", "rank": 3}, {"series": "C", "rank": 3}]})


@pytest.mark.parametrize("argv", [["langlands", "--group", B3_C3],
                                  ["langlands", "--group", "F4"],
                                  ["twist", "--group", B3_C3, "--twist", "langlands"],
                                  ["twist", "--group", "F4", "--twist", "langlands"]],
                         ids=lambda argv: " ".join(argv).replace(B3_C3, "B3xC3"))
def test_one_langlands_transport_per_report(monkeypatch, argv):
    """A Langlands report forms the transport and its twist once, and
    nothing caches them: `verify_langlands_tdual` reads the one twist."""
    calls = []
    twist = tduality.langlands_twist

    def counted(rd):
        calls.append(rd.label)
        return twist(rd)

    monkeypatch.setattr(tduality, "langlands_twist", counted)
    assert main(argv) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("argv, label", [(["langlands", "--group", "PSU(4)"], "PSU(4)"),
                                         (["langlands", "--group", B3_C3], "B3 x C3")],
                         ids=lambda v: " ".join(v).replace(B3_C3, "B3xC3")
                         if isinstance(v, list) else v)
def test_langlands_report_builds_one_datum(monkeypatch, argv, label):
    """A `langlands` report constructs one `RootDatum`, the group's own: the
    dual datum is not built."""
    made, init = [], rootdata.RootDatum.__init__

    def counted(self, **fields):
        made.append(fields["label"])
        init(self, **fields)

    clear_caches()
    monkeypatch.setattr(rootdata.RootDatum, "__init__", counted)
    assert main(argv) == 0
    assert made == [label]


def test_langlands_match_is_not_vacuous(monkeypatch, capsys):
    """`match` asks that the twist's image lattice hold the roots, so it
    reads the transport: a twist of B alone, whose image is the integral
    lattice, fails on simply connected B3 x C3, and `--expect match` exits 1."""
    monkeypatch.setattr(tduality, "langlands_twist", lambda rd: rd.integral)
    code, payload = run_json(["langlands", "--group", B3_C3])
    assert code == 0 and payload["reports"][0]["match"] is False
    assert main(["langlands", "--group", B3_C3, "--expect", "match"]) == 1
    assert "match: False" in capsys.readouterr().out


def test_commutator_rational_strings_accepted():
    code, payload = run_json(["extension", "--group", "SU(3)",
                              "--b", '[[0, "-1/2"], ["1/2", 0]]'])
    assert code == 0
    assert payload["reports"][0]["witness_value"] == "1/2"


@pytest.mark.parametrize("b, witness", [
    ('[[0, "0.5"], ["-1/2", 0]]', "1/2"),
    ('[[0, "12/24"], ["-0.50", 0]]', "1/2"),
    ('[[0, "-3"], [3, 0]]', None),
    ('[[0, "-7/3"], ["1/3", 0]]', "2/3"),
])
def test_commutator_decimal_and_unreduced_strings_accepted(b, witness):
    """Decimals, signs, whole numbers and fractions not in lowest terms are
    read exactly and written in lowest terms."""
    code, payload = run_json(["extension", "--group", "SU(3)", "--b", b])
    assert code == 0
    assert payload["reports"][0]["witness_value"] == witness


def test_numpy_never_loaded():
    """No verb imports numpy, contcheck included: the package needs only the
    standard library."""
    script = (
        "import contextlib, io, sys\n"
        "from tdual_lie.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['group', '--group', 'SU(2)']) == 0\n"
        "assert 'numpy' not in sys.modules\n"
        "assert 'tdual_lie.contcheck' in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['contcheck']) == 0\n"
        "assert 'numpy' not in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_dataclasses():
    """`import tdual_lie.cli` loads none of `dataclasses` and `inspect`
    (about 20 ms of every command's start-up), `argparse` and `gettext`
    (the flag table reads argv), `fractions`, `decimal` and `numbers` (Q/Z
    values are integer pairs) or `typing` (annotations come from
    `collections.abc`).  It does load all seven layer modules, which the
    traced benchmark reads from `sys.modules`.  A `group` run, `extension
    --level 1` and `extension --b` still leave `fractions`, `decimal` and
    `numbers` unloaded.  -S keeps site `.pth` files from importing any of
    them first."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    script = (
        "import contextlib, io, sys\n"
        "import tdual_lie.cli\n"
        "exact = {'fractions', 'decimal', 'numbers'}\n"
        "unwanted = {'dataclasses', 'inspect', 'argparse', 'gettext', 'typing'} | exact\n"
        "print(sorted(unwanted & set(sys.modules)))\n"
        "layers = ('cli', 'rootdata', 'zlinalg', 'flagcoh', 'tduality', 'loopext', 'contcheck')\n"
        "print([m for m in layers if f'tdual_lie.{m}' not in sys.modules])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert tdual_lie.cli.main(['group', '--group', 'SU(2)']) == 0\n"
        "    assert tdual_lie.cli.main(['extension', '--group', 'SU(3)', '--level', '1']) == 0\n"
        "    assert tdual_lie.cli.main(['extension', '--group', 'Spin(5)',\n"
        "                               '--b', '[[0, \"1/2\"], [\"0.5\", 0]]']) == 0\n"
        "print(sorted(exact & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[]\n[]\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_group_list_takes_inline_json(capsys, fmt):
    """A --group-list spec that starts with "{" runs to the end of its JSON
    value, so its commas do not split it."""
    spec = '{"components": [{"series": "A", "rank": 1}, {"series": "A", "rank": 1}]}'
    capsys.readouterr()
    assert main(["group", "--group-list", f" {spec} ,SU(2)", "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        assert [r["group"] for r in json.loads(out)["reports"]] == ["A1 x A1", "SU(2)"]
    else:
        assert out.count("-- report") == 2 and "group: A1 x A1\n" in out


def test_group_list_malformed_json_ends_at_a_comma(capsys):
    """JSON that does not parse is a spec up to the next comma, refused as a
    --group of the same text would be; the groups after it still report."""
    capsys.readouterr()
    assert main(["group", "--group-list", '{"components": [x,SU(2)', "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("""usage error: malformed JSON in '{"components": [x'""")
    assert err.count("\n") == 1
    reports = json.loads(out)["reports"]
    assert [r["group"] for r in reports] == ['{"components": [x', "SU(2)"]


class CountingDecoder:
    """Stand-in for `cli._EXTENT` that adds up the characters its raw_decode
    calls read: to the end of the value, or to where the parse failed (to
    the end of the text after an unterminated string, or when the failure
    gives no position)."""

    def __init__(self):
        self.read = 0

    def raw_decode(self, text, idx):
        try:
            value, end = json.JSONDecoder().raw_decode(text, idx)
        except json.JSONDecodeError as exc:
            unterminated = exc.msg.startswith("Unterminated string")
            self.read += (len(text) if unterminated else exc.pos + 1) - idx
            raise
        except (ValueError, RecursionError):
            self.read += len(text) - idx
            raise
        self.read += end - idx
        return value, end


@pytest.mark.parametrize("text", [
    '{"x": [1,' * 12000,
    '{"x": [1,' * 200 + "x",
    '{"x": [1,' * 200 + '"',
], ids=["past-depth-limit", "bad-value", "unterminated-string"])
def test_group_list_split_reads_each_character_once(capsys, monkeypatch, text):
    """Every spec here is JSON that does not parse and starts inside the
    text an earlier spec's parse read, so the split decodes none of them
    again: it reads at most len(text) characters in all.  Each spec is then
    refused with the line a --group of it prints, in order, with exit 2."""
    specs = [spec for spec in text.split(",") if spec]
    lines = {}
    for spec in set(specs):
        capsys.readouterr()
        assert main(["group", "--group", spec]) == 2
        lines[spec] = capsys.readouterr().err
    decoder = CountingDecoder()
    monkeypatch.setattr(cli, "_EXTENT", decoder)
    assert main(["group", "--group-list", text]) == 2
    assert capsys.readouterr().err == "".join(lines[spec] for spec in specs)
    assert decoder.read <= len(text)


HUGE = "9" * 5000
NINES = "9" * 4000  # parses, but is far past any rank a verb can finish
D1, D2 = 10 ** 3000 + 1, 10 ** 3000 + 3

# Each argv exits 0, 1 or 2 in a fresh interpreter, with no traceback, well
# within the timeout; exit 2 prints one line under 300 characters, however
# long the input it refuses.  The rows include inputs that once ended in a
# traceback, ignored entries or ran for more than a minute.
FUZZ_CASES = [
    pytest.param(["dualize", "--group", "SU(3)", "--twist", "level:1", "--shift", "[[0]]"], 2,
                 id="shift-1x1"),
    pytest.param(["dualize", "--group", "SU(3)", "--twist", "level:1", "--shift", "[]"], 2,
                 id="shift-empty"),
    pytest.param(["dualize", "--group", "SU(3)", "--twist", "level:1",
                  "--shift", "[[0, 1, 0], [0, 0, 0], [0, 0, 0]]"], 2, id="shift-3x3"),
    pytest.param(["dualize", "--group", "SU(3)", "--twist", "[[1, 0], [0, 0]]",
                  "--shift", "[[0, 1, 0], [0, 0, 0], [0, 0, 0]]"], 2, id="shift-3x3-not-cycle"),
    pytest.param(["dualize", "--group", "SU(3)", "--twist", "level:1",
                  "--shift", "[[0, 1], [0, 0]]"], 0, id="shift-2x2"),
    # --twist, --shift and --b must be JSON lists of rows.
    pytest.param(["dualize", "--group", "SU(3)", "--twist", "level:1", "--shift", "5"], 2,
                 id="shift-number"),
    pytest.param(["twist", "--group", "SU(3)", "--twist", '{"a":1}'], 2, id="twist-object"),
    pytest.param(["twist", "--group", "SU(3)", "--twist", '"ab"'], 2, id="twist-string"),
    pytest.param(["extension", "--group", "SU(2)", "--b", '[["1e-999999999"]]'], 2,
                 id="b-exponent-huge"),
    pytest.param(["extension", "--group", "SU(3)", "--b", '[[0, "1e-99999"], ["-1e-99999", 0]]'],
                 2, id="b-exponent-digits"),
    pytest.param(["extension", "--group", "SU(3)", "--b", '[[0, "1E5"], ["-1E5", 0]]'], 2,
                 id="b-exponent-upper"),
    pytest.param(["extension", "--group", "SU(3)", "--b", '[[0, "0.5"], ["-1/2", 0]]'], 0,
                 id="b-decimal"),
    pytest.param(["langlands", "--group", "B3", "--expect", "available"], 1, id="expect-fails"),
    # A JSON integer literal over Python's 4300-digit parsing limit is refused.
    pytest.param(["group", "--group", '{"components": [{"series": "A", "rank": %s}]}' % HUGE], 2,
                 id="group-huge-literal"),
    pytest.param(["twist", "--group", "SU(2)", "--twist", f"[[{HUGE}]]"], 2,
                 id="twist-huge-literal"),
    pytest.param(["dualize", "--group", "SU(3)", "--twist", "level:1",
                  "--shift", f"[[0, {HUGE}], [0, 0]]"], 2, id="shift-huge-literal"),
    pytest.param(["extension", "--group", "SU(3)", "--b", f"[[0, {HUGE}], [-{HUGE}, 0]]"], 2,
                 id="b-huge-literal"),
    pytest.param(["group", "--group", f"A{HUGE}"], 2, id="group-name-huge-literal"),
    pytest.param(["group", "--group", f"SU({HUGE})"], 2, id="group-paren-huge-literal"),
    pytest.param(["extension", "--group", "SU(2)", "--b", f'[["{"x" * 5000}"]]'], 2,
                 id="b-long-string"),
    # The factor ranks may add up to at most rootdata.MAX_RANK = 128; a larger
    # rank is refused before anything rank x rank is built.
    pytest.param(["group", "--group", f"A{NINES}"], 2, id="group-name-rank-4000-digits"),
    pytest.param(["group", "--group", f"SU({NINES})"], 2, id="group-paren-rank-4000-digits"),
    pytest.param(["group", "--group", '{"components": [{"series": "A", "rank": %s}]}' % NINES],
                 2, id="group-json-rank-4000-digits"),
    pytest.param(["group", "--group", "SU(130)"], 2, id="group-rank-129"),
    pytest.param(["group", "--group", json.dumps({"components": [{"series": "A", "rank": 1}] * 129})],
                 2, id="group-129-factors"),
    pytest.param(["group", "--group", json.dumps({"components": [{"series": "A", "rank": 1}] * 32})],
                 0, id="group-32-factors"),
    # A JSON series that is not a string.
    pytest.param(["group", "--group", '{"components": [{"series": 5, "rank": 1}]}'], 2,
                 id="group-series-number"),
    pytest.param(["group", "--group", '{"components": [{"series": ["A"], "rank": 1}]}'], 2,
                 id="group-series-list"),
    # Integers in names and flags are ASCII digits as written, not what int() takes.
    pytest.param(["group", "--group", "SU(1_6)"], 2, id="group-name-underscore"),
    pytest.param(["group", "--group", "SU( 4 )"], 2, id="group-name-spaces"),
    pytest.param(["group", "--group", "SU(+4)"], 2, id="group-name-plus"),
    pytest.param(["group", "--group", "SU(\u0664)"], 2, id="group-name-arabic-indic"),
    pytest.param(["group", "--group", "A\u0663"], 2, id="group-series-arabic-indic"),
    pytest.param(["twist", "--group", "SU(2)", "--twist", "level:1_0"], 2,
                 id="twist-level-underscore"),
    pytest.param(["extension", "--group", "SU(2)", "--level", "1_0"], 2,
                 id="level-flag-underscore"),
    pytest.param(["contcheck", "--grid", "8_192"], 2, id="grid-underscore"),
    # Inputs within the limit whose exact results print past it.
    pytest.param(["extension", "--group", "SU(4)", "--b",
                  f'[[0, "1/{D1}", "1/{D2}"], ["-1/{D1}", 0, 0], ["-1/{D2}", 0, 0]]'], 0,
                 id="b-long-result"),
    pytest.param(["dualize", "--group", "SU(3)", "--twist", "level:1",
                  "--shift", f"[[0, {10 ** 3000 - 1}], [0, 0]]"], 0, id="shift-long-result"),
    # The command line itself: flags are read from the table as written.
    pytest.param([], 2, id="no-verb"),
    pytest.param(["frobnicate"], 2, id="unknown-verb"),
    pytest.param(["group", "--group", "SU(2)", "--colour", "red"], 2, id="unknown-flag"),
    pytest.param(["group", "--group", "SU(2)", "--form", "json"], 2, id="flag-abbreviated"),
    pytest.param(["group", "--group", "SU(2)", "--format", "xml"], 2, id="format-xml"),
    pytest.param(["group", "--group"], 2, id="flag-without-value"),
    pytest.param(["group", "--group", "SU(2)", "--group", "SU(3)"], 2, id="group-twice"),
    pytest.param(["group", "--group", "SU(2)", "SU(3)"], 2, id="stray-positional"),
    pytest.param(["twist", "--group", "SU(2)"], 2, id="twist-missing"),
    pytest.param(["contcheck", "--group", "SU(2)"], 2, id="contcheck-group"),
    pytest.param(["group", "--group-list", ","], 2, id="group-list-names-no-group"),
    # An empty flag value is taken as written, not dropped as if the flag were absent.
    pytest.param(["dualize", "--group", "SU(3)", "--twist", "level:1", "--shift", ""], 2,
                 id="shift-empty-string"),
    pytest.param(["extension", "--group", "SU(3)", "--b", ""], 2, id="b-empty-string"),
    pytest.param(["group", "--group", "SU(2)", "--output", ""], 2, id="output-empty-string"),
    pytest.param(["group", "--group", "", "--group-list", "SU(2)"], 2,
                 id="group-empty-string-with-group-list"),
    pytest.param(["group", "--group", ""], 2, id="group-empty-string"),
    # A root-datum JSON key outside the contract is refused, not ignored.
    pytest.param(["group", "--group", '{"components": [{"series": "A", "rank": 2}], '
                  '"fundamental_group": "adjoint", "extra": 1}'], 2, id="group-json-extra-key"),
    pytest.param(["group", "--group", '{"components": [{"series": "A", "rank": 2, "extra": 1}]}'],
                 2, id="group-json-component-extra-key"),
    pytest.param(["group", "--group", '{"components": [{"series": "A", "rank": 1}], '
                  '"fundamental_group": {"generators": [[1]], "extra": 1}}'], 2,
                 id="group-json-fundamental-group-extra-key"),
    # Components of the wrong shape.
    pytest.param(["group", "--group", '{"components":[1]}'], 2, id="group-json-component-int"),
    pytest.param(["group", "--group", '{"components":5}'], 2, id="group-json-components-int"),
    pytest.param(["group", "--group", '{"components":{"series":"A"}}'], 2,
                 id="group-json-components-object"),
    # An unknown JSON key or a series with a newline, and a long unknown key,
    # are escaped and cut in the one error line.
    pytest.param(["dualize", "--group", '{"components":[{"series":"A","rank":2}],'
                  '"two\\nlines":1}', "--twist", "level:1", "--shift", "[[0]]"], 2,
                 id="json-key-newline"),
    pytest.param(["dualize", "--group", '{"components":[{"series":"A","rank":2}],'
                  '"%s":1}' % ("x" * 500), "--twist", "level:1", "--shift", "[[0]]"], 2,
                 id="json-key-long"),
    pytest.param(["group", "--group", '{"components":[{"series":"A\\nB","rank":1}]}'], 2,
                 id="group-series-newline"),
    # JSON nested past the recursion limit is malformed input, not a traceback.
    pytest.param(["group", "--group", "{\"a\": " + "[" * 100000], 2, id="group-json-deep"),
    pytest.param(["group", "--group-list", "SU(2),{\"a\": " + "[" * 100000], 2,
                 id="group-list-json-deep"),
]


@pytest.mark.parametrize("argv, code", FUZZ_CASES)
def test_cli_fuzz_exits_cleanly(argv, code):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "tdual_lie.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code == 2:
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert len(proc.stderr) < 300, proc.stderr[:300]


def test_int_digit_limit_lifted_only_for_output(capsys):
    """A result past 4300 digits prints in full, the limit is back in force
    once main returns, and input is still parsed under it."""
    limit = sys.get_int_max_str_digits()
    shift = f"[[0, {10 ** 3000 - 1}], [0, 0]]"
    assert main(["dualize", "--group", "SU(3)", "--twist", "level:1", "--shift", shift]) == 0
    assert max(map(len, re.findall(r"\d+", capsys.readouterr().out))) > 4300
    assert sys.get_int_max_str_digits() == limit
    _usage_error(capsys, ["twist", "--group", "SU(2)", "--twist", f"[[{HUGE}]]"])
    assert sys.get_int_max_str_digits() == limit


ADJOINT_A1_32 = json.dumps({"components": [{"series": "A", "rank": 1}] * 32,
                            "fundamental_group": "adjoint"}, separators=(",", ":"))


@pytest.mark.parametrize("argv", [
    ["cohomology", "--group", "PSU(33)"],
    ["twist", "--group", "Spin(64)", "--twist", "level:1"],
    # All 496 pairs of its Smith invariants carry a Z/2.
    ["cohomology", "--group", ADJOINT_A1_32],
], ids=" ".join)
def test_h3_verbs_at_the_rank_cap_under_two_seconds(argv):
    """H^3 at total rank 32 is read off one n x n Smith form, so each verb
    runs in process within the 2.0 s bound of the other timing gates.  Every
    package cache is emptied first, so that no earlier test pays the cost."""
    clear_caches()
    start = time.monotonic()
    assert main(argv) == 0
    assert time.monotonic() - start < 2.0


ADJOINT_A1_128 = json.dumps({"components": [{"series": "A", "rank": 1}] * 128,
                             "fundamental_group": "adjoint"}, separators=(",", ":"))
B32_C32_SQUARED = json.dumps({"components": [{"series": "B", "rank": 32},
                                             {"series": "C", "rank": 32}] * 2},
                             separators=(",", ":"))
UNIT_SHIFT_128 = json.dumps([[int(i == 0 and j == 1) for j in range(128)] for i in range(128)],
                            separators=(",", ":"))


@pytest.mark.parametrize("argv", [
    pytest.param([verb, "--group", spec, *extra], id=f"{verb} {name}")
    for name, spec in (("SU(129)", "SU(129)"), ("PSU(129)", "PSU(129)"),
                       ("Spin(256)", "Spin(256)"), ("Sp(128)", "Sp(128)"),
                       ("adjoint A1^128", ADJOINT_A1_128))
    for verb, *extra in (("group",), ("cohomology",), ("twist", "--twist", "level:1"),
                         ("dualize", "--twist", "level:1", "--shift", UNIT_SHIFT_128),
                         ("langlands",), ("extension", "--level", "1"))
] + [
    pytest.param([verb, "--group", B32_C32_SQUARED, *extra], id=f"{verb} (B32xC32)^2")
    for verb, *extra in (("langlands",), ("twist", "--twist", "langlands"))
])
def test_every_verb_at_total_rank_128_under_two_seconds(argv):
    """Each verb runs in process within the 2.0 s bound of the other timing
    gates at total rank rootdata.MAX_RANK = 128, simply connected, adjoint and
    not simply laced, every package cache emptied first; the Langlands twist
    also on (B32 x C32)^2, where it pairs and negates factors."""
    clear_caches()
    start = time.monotonic()
    assert main(argv) == 0
    assert time.monotonic() - start < 2.0
