"""Command-line surface: parse, dispatch, report.

Verbs
-----
  group       root-datum summary (lattices, center, root count)
  cohomology  H^1..H^3 of the group, H^2/H^4 of the flag base, Chern classes
  twist       analyze a twist representative (cycle test, class, dual data)
  dualize     dual-bundle Chern data, optionally after a torsor shift
  langlands   two-sided Langlands T-duality verification
  extension   commutator map / fibrewise trivializability at a level
  contcheck   numerical curvature-constant table

Output is deterministic: the JSON rendering of a report is byte-identical
across runs for identical argv (text output is a rendering of the same
dictionary).  Exit codes: 0 success, 1 a --expect assertion failed, 2 usage
error, also when standard output cannot be written.
"""

from __future__ import annotations

import errno
import gc
import json
import os
import re
import sys
from contextlib import contextmanager, nullcontext
from types import SimpleNamespace

from . import contcheck as cont
from . import flagcoh, loopext, tduality
from .errors import RequiresExplicitB, TdualError, Unavailable, UsageError, ascii_int, escape, quote
from .rootdata import RootDatum, build, center, fundamental_group_of, named_group, root_count
from .zlinalg import IntMatrix

SCHEMA = "tdual-lie/1"

CONVENTIONS = {
    "cartan": "cartan[i][j] = <alpha_i, alpha_j^vee>",
    "coordinates": "Cartan algebra in fundamental-coweight coordinates, its dual "
                   "in fundamental-weight coordinates",
    "integral_basis": "simple coroots when simply connected, fundamental coweights "
                      "when adjoint, Hermite basis otherwise",
    "character_basis": "dual basis of the integral-lattice basis",
    "invariant_form": "normalized so coroots of long roots have squared length 2; "
                      "the level multiplies the form",
    "twist": tduality.TWIST_BASIS_CONVENTION,
}


def _flag_int(text: str, what: str, signed: bool = False) -> int:
    """A flag's integer, taken exactly as written (see `ascii_int`)."""
    try:
        return ascii_int(text, signed)
    except ValueError as exc:
        raise UsageError(f"{what} must be written in ASCII digits, got {quote(text)}") from exc


def _contcheck_grid(flag: str | None) -> int:
    """--grid, else `contcheck.DEFAULT_GRID`: an integer from
    `contcheck.MIN_GRID` to `contcheck.MAX_GRID`."""
    if flag is None:
        return cont.DEFAULT_GRID
    val = _flag_int(flag, "--grid")
    if not cont.MIN_GRID <= val <= cont.MAX_GRID:
        raise UsageError(f"--grid must be from {cont.MIN_GRID} to {cont.MAX_GRID}, got {val}")
    return val


def _nonnegative_level(level: int, what: str) -> int:
    if level < 0:
        raise UsageError(f"{what} must be nonnegative, got {level}")
    return level


_EXPECT_TESTS = {
    "trivializable": lambda r: r.get("trivializable") is True,
    "not-trivializable": lambda r: r.get("trivializable") is False,
    "match": lambda r: r.get("match") is True,
    "available": lambda r: r.get("available") is True,
    "dualizable": lambda r: r.get("dualizable") is True,
    "cycle": lambda r: r.get("twist_is_cycle") is True,
    "pass": lambda r: r.get("passed") is True,
}

# Each verb's flags and the values each takes (None: any string).  Every flag
# takes one value, as `--flag value` or `--flag=value`; names match exactly.
# --twist is required by the verbs that take it.
_COMMON = {"--format": ("text", "json"), "--output": None, "--expect": tuple(_EXPECT_TESTS)}
_GROUPS = {**_COMMON, "--group": None, "--group-list": None}
FLAGS = {
    "group": _GROUPS,
    "cohomology": _GROUPS,
    "twist": {**_GROUPS, "--twist": None},
    "dualize": {**_GROUPS, "--twist": None, "--shift": None},
    "langlands": _GROUPS,
    "extension": {**_GROUPS, "--level": None, "--b": None},
    "contcheck": {**_COMMON, "--grid": None},
}
_DEFAULTS = {"format": "text", "level": "1", "twist": None, "shift": None, "b": None, "grid": None}
_SPACE = re.compile(r"\s*")


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict; a repeated key is refused, not overwritten."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated key {quote(key)}")
        out[key] = value
    return out


_JSON = json.JSONDecoder(object_pairs_hook=_unique_keys)  # reads every JSON input
_EXTENT = json.JSONDecoder()  # where a --group-list spec's JSON ends, repeated keys or not
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+)|\.([0-9]+))?")


def _help(verb: str | None) -> str:
    """The help text: the verbs, or the flags of `verb`, from `FLAGS`."""
    lines = [f"usage: tdual {verb or '{' + ','.join(FLAGS) + '}'} [--FLAG VALUE]..."]
    for flag, choices in FLAGS.get(verb, {}).items():
        lines.append(f"  {flag} {'{' + ','.join(choices) + '}' if choices else 'VALUE'}"
                     f"{' (required)' * (flag == '--twist')}")
    return "\n".join(lines) + "\n"


def _split_specs(text: str) -> tuple[str, ...]:
    """The specs of a --group-list: split at commas, except that a spec that
    starts with "{" runs to the end of its JSON value, repeated keys and all.
    A spec whose JSON does not parse ends at the next comma, and `resolve_group`
    refuses it.  So does a spec that starts before the point where such a parse
    failed (anywhere, when it hit the nesting or digit limit, which give no
    point): it is not parsed again, so the decoder reads each character at most once."""
    specs, start, parsed = [], 0, 0
    while start <= len(text):
        lead = _SPACE.match(text, start).end()
        end = text.find(",", lead)
        if text.startswith("{", lead) and lead >= parsed:
            try:
                parsed = _EXTENT.raw_decode(text, lead)[1]
                end = text.find(",", parsed)
            except (ValueError, RecursionError) as exc:
                parsed = getattr(exc, "pos", len(text))
        end = len(text) if end < 0 else end
        specs.append(text[start:end].strip())
        start = end + 1
    return tuple(s for s in specs if s)


def parse_args(argv) -> SimpleNamespace | str:
    """The command line read against `FLAGS`, with a field per flag,
    `groups` (a tuple of specs), a checked `level` and, for contcheck, the
    resolved `grid`, or the help text for a -h or --help before any error;
    whatever the table does not take is a UsageError."""
    verb, *rest = argv or [None]
    if verb in ("-h", "--help"):
        return _help(None)
    if verb not in FLAGS:
        what = f"unknown verb {quote(verb)}" if verb is not None else "no verb"
        raise UsageError(f"{what}; choose from {', '.join(FLAGS)}")
    flags, given, args = FLAGS[verb], {}, iter(rest)
    for arg in args:
        if arg in ("-h", "--help"):
            return _help(verb)
        flag, eq, value = arg.partition("=")
        if flag not in flags:
            raise UsageError(f"{verb} takes no {'flag' if flag.startswith('-') else 'argument'} "
                             f"{quote(arg)}; its flags: {', '.join(flags)}")
        if not eq and (value := next(args, None)) is None:
            raise UsageError(f"{flag} needs a value")
        if flags[flag] is not None and value not in flags[flag]:
            raise UsageError(f"{flag} must be one of {', '.join(flags[flag])}, got {quote(value)}")
        dest = flag[2:].replace("-", "_")
        if dest in given:
            raise UsageError(f"{flag} is given twice")
        given[dest] = value
    if "--twist" in flags and "twist" not in given:
        raise UsageError(f"{verb} needs --twist")
    ns = SimpleNamespace(**{**dict.fromkeys(f[2:].replace("-", "_") for f in flags),
                            **_DEFAULTS, "verb": verb, **given})
    ns.groups = ()
    if "--group" in flags:
        if ns.group is not None and ns.group_list is not None:
            raise UsageError("--group and --group-list are mutually exclusive")
        if ns.group is not None:
            ns.groups = (ns.group,)
        elif ns.group_list is not None:
            ns.groups = _split_specs(ns.group_list)
            if not ns.groups:
                raise UsageError(f"--group-list names no group, got {quote(ns.group_list)}")
        if not ns.groups:
            raise UsageError(f"verb {ns.verb!r} needs --group or --group-list")
    ns.level = _nonnegative_level(_flag_int(ns.level, "--level", signed=True), "--level")
    if ns.verb == "contcheck":
        ns.grid = _contcheck_grid(ns.grid)
    return ns


# -- input parsing -----------------------------------------------------------


@contextmanager
def _exact_output():
    """Lift Python's 4300-digit int/str limit while reports are built and
    rendered: a result can outgrow its input, which is parsed under it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _load_json(spec: str):
    text = spec
    if spec.startswith("@"):
        try:
            with open(spec[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {quote(spec[1:])}: {exc.strerror or exc}") from exc
        except UnicodeDecodeError as exc:
            raise UsageError(f"cannot read {quote(spec[1:])}: {exc}") from exc
    try:
        return _JSON.decode(text)
    except (ValueError, RecursionError) as exc:  # malformed, too deep, or past the digit limit
        raise UsageError(f"malformed JSON in {quote(spec)}: {exc}") from exc


def _exact(value, kind: type, what: str):
    """A JSON integer or string (`kind` int or str) taken as written; a
    value of another type (a float or bool for an integer, a number or list
    for a string) is refused, not converted or glued into a name."""
    if type(value) is not kind:
        raise UsageError(f"{what} must be {'an integer' if kind is int else 'a string'}, "
                         f"got {quote(json.dumps(value), str)}")
    return value


def _exact_rational(value, what: str) -> tuple[int, int]:
    """A JSON integer or a string -?D+(/D+|.D+)? of ASCII digits D ("1/2",
    "-3", "0.25") as the pair (p, q), q > 0, of p/q; anything else (a float,
    "1/0", "1e-9", "+1", "1_0", " 1", other scripts' digits, a number past
    the 4300-digit limit) is refused."""
    if type(value) is int:
        return value, 1
    match = _RATIONAL.fullmatch(value) if type(value) is str else None
    try:
        if match and match[3]:
            return int(match[1] + match[3]), 10 ** len(match[3])
        if match and int(match[2] or 1):
            return int(match[1]), int(match[2] or 1)
    except ValueError:  # past the digit limit
        pass
    raise UsageError(f'{what} must be an integer or a rational string such as "1/2", '
                     f"got {quote(json.dumps(value), str)}")


def _known_keys(value, keys: tuple[str, ...], where: str) -> None:
    """Refuse a JSON object with a key outside `keys`, rather than ignore it."""
    if isinstance(value, dict):
        for key in value:
            if key not in keys:
                raise UsageError(f"unknown key {quote(key)} in {where}")


def resolve_group(spec: str) -> RootDatum:
    if spec.startswith("{") or spec.startswith("@"):
        data = _load_json(spec)
        _known_keys(data, ("components", "fundamental_group"), "root-datum JSON")
        try:
            for c in data["components"]:
                _known_keys(c, ("series", "rank"), "components[]")
            comps = [(_exact(c["series"], str, "components[].series"),
                      _exact(c["rank"], int, "components[].rank"))
                     for c in data["components"]]
        except KeyError as exc:
            raise UsageError(f"root-datum JSON needs components[].series/.rank: {exc}") from exc
        except TypeError as exc:
            raise UsageError('root-datum JSON needs components as a list of {"series", "rank"} '
                             "objects") from exc
        fg = data.get("fundamental_group", "simply_connected")
        _known_keys(fg, ("generators",), "fundamental_group")
        if isinstance(fg, dict) and "generators" in fg:
            gens = fg["generators"]
            if not isinstance(gens, list) or not all(isinstance(g, list) for g in gens):
                raise UsageError("fundamental_group.generators must be a list of integer lists")
            for gen in gens:
                for x in gen:
                    _exact(x, int, "fundamental_group generator entry")
        return build(comps, fg)
    return named_group(spec)


def _json_rows(spec: str, what: str) -> list[list]:
    """The JSON value of `spec`, which must be a list of lists."""
    rows = _load_json(spec)
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise UsageError(f"{what} must be a JSON list of rows, got {quote(spec)}")
    return rows


def resolve_twist(rd: RootDatum, spec: str) -> IntMatrix:
    if spec == "langlands":
        return tduality.langlands_twist(rd)
    if spec.startswith("level:"):
        try:
            level = ascii_int(spec.split(":", 1)[1], signed=True)
        except ValueError as exc:
            raise UsageError(f"malformed level twist {quote(spec)}") from exc
        return tduality.level_twist(rd, _nonnegative_level(level, "twist level"))
    rows = _json_rows(spec, "--twist")
    try:
        u = IntMatrix(rows)
    except (TdualError, TypeError) as exc:
        raise UsageError(f"malformed twist matrix {quote(spec)}: {exc}") from exc
    if u.rows != rd.rank or u.cols != rd.rank:
        raise UsageError(f"malformed twist matrix {quote(spec)}: twist matrix must be rank x rank")
    return u


def resolve_commutator(spec: str) -> list[list[tuple[int, int]]]:
    return [[_exact_rational(x, "--b entry") for x in row] for row in _json_rows(spec, "--b")]


def resolve_shift(rd: RootDatum, spec: str) -> IntMatrix:
    rows = _json_rows(spec, "--shift")
    try:
        shift = tduality.shift_matrix(IntMatrix(rows))
    except (TdualError, TypeError) as exc:
        raise UsageError(f"malformed shift matrix {quote(spec)}: {exc}") from exc
    if shift.rows != rd.rank:
        raise UsageError(f"shift matrix must be {rd.rank}x{rd.rank} for "
                         f"{quote(rd.label, escape)}, got {shift.rows}x{shift.cols}")
    return shift


# -- per-verb reports ---------------------------------------------------------


def report_group(rd: RootDatum) -> dict:
    return {
        "group": rd.label,
        "components": [[s, r] for s, r in rd.components],
        "rank": rd.rank,
        "cartan": rd.cartan.tolist(),
        "simply_connected": rd.is_simply_connected(),
        "simply_laced": rd.is_simply_laced(),
        "integral_basis": rd.integral.tolist(),
        "character_basis": rd.character_basis.tolist(),
        "center": flagcoh.group_dict(0, center(rd)),
        "fundamental_group": flagcoh.group_dict(0, fundamental_group_of(rd)),
        "root_count": root_count(rd),
    }


def report_twist(rd: RootDatum, u: IntMatrix) -> dict:
    out = {
        "group": rd.label,
        "twist": u.tolist(),
        "twist_is_cycle": flagcoh.is_cycle(rd, u),
    }
    if out["twist_is_cycle"]:
        free, tors = flagcoh.class_in_h3(rd, u)
        out["h3_class"] = {"free": list(free), "torsion": list(tors)}
        out.update(tduality.dual_chern(rd, u))
    out["dualizable"] = True
    out["dualizability_notes"] = list(flagcoh.DUALIZABILITY_NOTES)
    return out


def report_dualize(rd: RootDatum, u: IntMatrix, shift: IntMatrix | None) -> dict:
    out = report_twist(rd, u)
    if shift is not None and out["twist_is_cycle"]:
        moved = tduality.reduction_torsor_shift(rd, u, shift)
        out["shift"] = shift.tolist()
        # The move adds a boundary (c = 0, N_ij in d_i d_j Z: `flagcoh.h3_group`),
        # so the moved twist's class is u's and is not computed again.
        out["shifted"] = {"shifted_twist": moved.tolist(), "h3_class": out["h3_class"],
                          **tduality.dual_chern(rd, moved)}
    return out


def report_langlands(rd: RootDatum) -> dict:
    try:
        return tduality.verify_langlands_tdual(rd)
    except Unavailable as exc:
        return {
            "group": rd.label,
            "available": False,
            "match": None,
            "reason": str(exc),
            "evidence": exc.evidence,
        }


def report_extension(rd: RootDatum, level: int,
                     b_rows: list[list[tuple[int, int]]] | None) -> dict:
    out: dict = {"group": rd.label, "level": level}
    try:
        if b_rows is not None:
            b = loopext.commutator_from_matrix(rd, b_rows)
        else:
            b = loopext.commutator_from_level(rd, level)
    except RequiresExplicitB as exc:
        out["requires_explicit_b"] = True
        out["reason"] = str(exc)
        return out
    out.update(loopext.fibrewise_trivializable(b))
    out["lift"] = [[loopext.ratio(*v) for v in row] for row in loopext.lift_commutator(b)]
    out["admissibility"] = loopext.admissibility_check(rd, level, b)
    return out


# -- driving -------------------------------------------------------------------


def _error_line(exc: TdualError) -> str:
    return f"{'usage error' if isinstance(exc, UsageError) else 'error'}: {exc}"


def report_for(config: SimpleNamespace, spec: str) -> dict:
    """The report of `config.verb` on the group `spec`."""
    rd = resolve_group(spec)
    if config.verb in ("twist", "dualize"):
        shift = resolve_shift(rd, config.shift) if config.shift is not None else None
        try:
            twist = resolve_twist(rd, config.twist)
        except Unavailable as exc:
            return {"group": rd.label, "available": False, "reason": str(exc)}
    b = resolve_commutator(config.b) if config.b is not None else None
    with _exact_output():
        if config.verb == "group":
            return report_group(rd)
        if config.verb == "cohomology":
            return flagcoh.cohomology(rd)
        if config.verb in ("twist", "dualize"):  # `twist` takes no --shift
            return report_dualize(rd, twist, shift)
        if config.verb == "langlands":
            return report_langlands(rd)
        return report_extension(rd, config.level, b)


def run(config: SimpleNamespace) -> tuple[int, dict]:
    """Execute a parsed command; returns (exit code, report).

    In a --group-list batch a group that fails gets a {"group", "error"}
    record in its place, its error line goes to stderr and the exit code is 2.
    """
    reports, failed = [], False
    if config.verb == "contcheck":
        reports.append(cont.continuum_summary(config.grid))
    for spec in config.groups:
        try:
            reports.append(report_for(config, spec))
        except TdualError as exc:
            if config.group_list is None:
                raise
            print(_error_line(exc), file=sys.stderr)
            reports.append({"group": spec, "error": str(exc)})
            failed = True

    payload = {
        "schema": SCHEMA,
        "command": config.verb,
        "conventions": CONVENTIONS,
        "reports": reports,
    }
    code = 0
    if config.expect is not None:
        satisfied = all(map(_EXPECT_TESTS[config.expect], reports))
        payload["expect"] = {"asserted": config.expect, "satisfied": satisfied}
        code = int(not satisfied)
    return (2 if failed else code), payload


def render_text(payload: dict) -> str:
    """Line rendering of the JSON payload (same data, human layout)."""
    lines = [f"# {payload['command']}  [{payload['schema']}]"]

    def emit(prefix, value):
        if isinstance(value, dict):
            for k in value:
                emit(f"{prefix}{k}.", value[k])
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            for i, v in enumerate(value):
                emit(f"{prefix}{i}.", v)
        else:
            lines.append(f"{prefix[:-1]}: {escape(value) if isinstance(value, str) else value}")

    for i, rep in enumerate(payload["reports"]):
        lines.append(f"-- report {i} --")
        emit("", rep)
    if "expect" in payload:
        emit("expect.", payload["expect"])
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    if argv is None:  # the process ends after main: no collection walks the import-time heap
        gc.freeze()
    try:
        config = parse_args(argv if argv is not None else sys.argv[1:])
        if isinstance(config, str):  # --help: its text goes to stdout as a report would
            code, text, output = 0, config, None
        else:
            code, payload = run(config)
            with _exact_output():
                text = (json.dumps(payload, sort_keys=True, indent=2) + "\n"
                        if config.format == "json" else render_text(payload))
            output = config.output
    except TdualError as exc:
        print(_error_line(exc), file=sys.stderr)
        return 2
    try:
        if output is None and sys.stdout is None:  # fd 1 was closed when the interpreter started
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        with (nullcontext(sys.stdout) if output is None
              else open(output, "w", encoding="utf-8")) as fh:
            fh.write(text)
            fh.flush()
    except OSError as exc:
        where = "standard output" if output is None else quote(output)
        print(f"usage error: cannot write {where}: {exc.strerror or exc}", file=sys.stderr)
        if output is None and sys.stdout is not None:  # so the flush at exit writes nowhere
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
