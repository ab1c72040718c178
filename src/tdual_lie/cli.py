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
error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction

from . import contcheck as cont
from . import flagcoh, loopext, tduality
from .errors import RequiresExplicitB, TdualError, Unavailable, UsageError, quote
from .rootdata import (
    RootDatum,
    all_roots,
    build,
    center,
    fundamental_group_of,
    named_group,
)
from .zlinalg import IntMatrix

SCHEMA = "tdual-lie/1"
VERBS = ("group", "cohomology", "twist", "dualize", "langlands", "extension", "contcheck")

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


def _contcheck_grid(flag: int | None) -> int:
    """--grid, else TDUAL_PRECISION, else the default: an integer from
    `contcheck.MIN_GRID` to `contcheck.MAX_GRID`."""
    if flag is not None:
        what, val = "--grid", flag
    else:
        raw = os.environ.get("TDUAL_PRECISION")
        if raw is None:
            return cont.DEFAULT_GRID
        try:
            what, val = "TDUAL_PRECISION", int(raw)
        except ValueError as exc:
            raise UsageError(f"TDUAL_PRECISION must be an integer, got {raw!r}") from exc
    if not cont.MIN_GRID <= val <= cont.MAX_GRID:
        raise UsageError(f"{what} must be from {cont.MIN_GRID} to {cont.MAX_GRID}, got {val}")
    return val


def _nonnegative_level(level: int, what: str) -> int:
    if level < 0:
        raise UsageError(f"{what} must be nonnegative, got {level}")
    return level


def parse_args(argv) -> argparse.Namespace:
    """The parsed command line, with `groups` (a tuple of specs), a checked
    `level` and, for contcheck, the resolved `grid` filled in."""
    parser = argparse.ArgumentParser(
        prog="tdual",
        description="Topological T-duality data for compact semisimple Lie groups.",
    )
    parser.set_defaults(level=1, twist=None, shift=None, b=None, grid=None)
    sub = parser.add_subparsers(dest="verb", required=True)
    needs_group = {}
    for verb in VERBS:
        p = sub.add_parser(verb)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", default=None)
        p.add_argument("--expect", default=None,
                       choices=("trivializable", "not-trivializable", "match",
                                "available", "dualizable", "cycle", "pass"))
        if verb != "contcheck":
            p.add_argument("--group", "-g", default=None,
                           help="named group, inline JSON, or @path to a JSON root datum")
            p.add_argument("--group-list", default=None,
                           help="comma-separated group specs (batch mode)")
            needs_group[verb] = True
        if verb in ("twist", "dualize"):
            p.add_argument("--twist", required=True,
                           help='twist spec: "langlands", "level:K", inline JSON matrix, or @path')
        if verb == "dualize":
            p.add_argument("--shift", default=None,
                           help="strictly upper-triangular integer matrix (JSON or @path)")
        if verb == "extension":
            p.add_argument("--level", type=int, default=1)
            p.add_argument("--b", default=None,
                           help="explicit commutator matrix of rationals (JSON or @path)")
        if verb == "contcheck":
            p.add_argument("--grid", type=int, default=None)

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
    _nonnegative_level(ns.level, "--level")
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
        return json.loads(text)
    except ValueError as exc:  # malformed, or an integer literal over the digit limit
        raise UsageError(f"malformed JSON in {quote(spec)}: {exc}") from exc


def _exact_int(value, what: str) -> int:
    """JSON integers are taken as written; a float, bool or string is refused."""
    if type(value) is not int:
        raise UsageError(f"{what} must be an integer, got {quote(json.dumps(value), str)}")
    return value


def _exact_rational(value, what: str) -> Fraction:
    """A JSON integer, or a string Fraction reads exactly ("1/2", "-3", "0.25");
    a float, bool, exponent ("1e-9": unbounded cost) or anything else is refused."""
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str) and "e" not in value.lower():
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise UsageError(f'{what} must be an integer or a rational string such as "1/2", '
                     f"got {quote(json.dumps(value), str)}")


def resolve_group(spec: str) -> RootDatum:
    if spec.startswith("{") or spec.startswith("@"):
        data = _load_json(spec)
        try:
            comps = [(c["series"], _exact_int(c["rank"], "components[].rank"))
                     for c in data["components"]]
        except (KeyError, TypeError) as exc:
            raise UsageError(f"root-datum JSON needs components[].series/.rank: {exc}") from exc
        fg = data.get("fundamental_group", "simply_connected")
        if isinstance(fg, dict) and "generators" in fg:
            gens = fg["generators"]
            if not isinstance(gens, list) or not all(isinstance(g, list) for g in gens):
                raise UsageError("fundamental_group.generators must be a list of integer lists")
            for gen in gens:
                for x in gen:
                    _exact_int(x, "fundamental_group generator entry")
        return build(comps, fg, label=data.get("label"))
    return named_group(spec)


def resolve_twist(rd: RootDatum, spec: str) -> tduality.TwistClass:
    if spec == "langlands":
        return tduality.langlands_twist(rd)
    if spec.startswith("level:"):
        try:
            level = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise UsageError(f"malformed level twist {quote(spec)}") from exc
        return tduality.level_twist(rd, _nonnegative_level(level, "twist level"))
    rows = _load_json(spec)
    try:
        return tduality.TwistClass(rd, IntMatrix(rows))
    except (TdualError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed twist matrix {quote(spec)}: {exc}") from exc


def resolve_commutator(spec: str) -> list[list[Fraction]]:
    rows = _load_json(spec)
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise UsageError(f"--b must be a JSON list of rows, got {quote(spec)}")
    return [[_exact_rational(x, "--b entry") for x in row] for row in rows]


def resolve_shift(rd: RootDatum, spec: str) -> tduality.ShiftMatrix:
    rows = _load_json(spec)
    try:
        shift = tduality.ShiftMatrix.from_rows(rows)
    except (TdualError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed shift matrix {quote(spec)}: {exc}") from exc
    if shift.entries.rows != rd.rank:
        raise UsageError(f"shift matrix must be {rd.rank}x{rd.rank} for {rd.label}, "
                         f"got {shift.entries.rows}x{shift.entries.cols}")
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
        "integral_basis": rd.integral.basis.tolist(),
        "character_basis": rd.char_lattice().basis.tolist(),
        "center": flagcoh.group_dict(center(rd)),
        "fundamental_group": flagcoh.group_dict(fundamental_group_of(rd)),
        "root_count": len(all_roots(rd)),
    }


def report_twist(rd: RootDatum, twist: tduality.TwistClass) -> dict:
    out = {
        "group": rd.label,
        "twist": twist.matrix.tolist(),
        "twist_is_cycle": twist.is_cycle(),
    }
    if out["twist_is_cycle"]:
        out["h3_class"] = _h3_class(twist)
        out.update(tduality.dual_chern(twist))
    dual_rep = flagcoh.dualizability_report(rd)
    out["dualizable"] = dual_rep["dualizable"]
    out["dualizability_notes"] = dual_rep["notes"]
    return out


def _h3_class(twist: tduality.TwistClass) -> dict:
    free, tors = twist.h3_class()
    return {"free": list(free), "torsion": list(tors)}


def report_dualize(rd: RootDatum, twist: tduality.TwistClass,
                   shift: tduality.ShiftMatrix | None) -> dict:
    out = report_twist(rd, twist)
    if shift is not None and out["twist_is_cycle"]:
        moved = tduality.reduction_torsor_shift(twist, shift)
        out["shift"] = shift.entries.tolist()
        out["shifted"] = {"shifted_twist": moved.matrix.tolist(), "h3_class": _h3_class(moved),
                          **tduality.dual_chern(moved)}
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
            "evidence": _jsonable(exc.evidence),
        }


def report_extension(rd: RootDatum, level: int, b_rows: list[list[Fraction]] | None) -> dict:
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
    out["lift"] = [[str(v) for v in row] for row in loopext.lift_commutator(b)]
    out["admissibility"] = loopext.admissibility_check(rd, level, b)
    return out


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


# -- driving -------------------------------------------------------------------


_EXPECT_TESTS = {
    "trivializable": lambda r: r.get("trivializable") is True,
    "not-trivializable": lambda r: r.get("trivializable") is False,
    "match": lambda r: r.get("match") is True,
    "available": lambda r: r.get("available") is True,
    "dualizable": lambda r: r.get("dualizable") is True,
    "cycle": lambda r: r.get("twist_is_cycle") is True,
    "pass": lambda r: r.get("passed") is True,
}


def run(config: argparse.Namespace) -> tuple[int, dict]:
    """Execute a parsed command; returns (exit code, report)."""
    reports = []
    if config.verb == "contcheck":
        reports.append(cont.continuum_summary(config.grid))
    else:
        for spec in config.groups:
            rd = resolve_group(spec)
            if config.verb in ("twist", "dualize"):
                shift = resolve_shift(rd, config.shift) if config.shift else None
                try:
                    twist = resolve_twist(rd, config.twist)
                except Unavailable as exc:
                    reports.append({"group": rd.label, "available": False,
                                    "reason": str(exc)})
                    continue
            b = resolve_commutator(config.b) if config.b else None
            with _exact_output():
                if config.verb == "group":
                    reports.append(report_group(rd))
                elif config.verb == "cohomology":
                    reports.append(flagcoh.cohomology(rd))
                elif config.verb == "twist":
                    reports.append(report_twist(rd, twist))
                elif config.verb == "dualize":
                    reports.append(report_dualize(rd, twist, shift))
                elif config.verb == "langlands":
                    reports.append(report_langlands(rd))
                elif config.verb == "extension":
                    reports.append(report_extension(rd, config.level, b))

    payload = {
        "schema": SCHEMA,
        "command": config.verb,
        "conventions": CONVENTIONS,
        "reports": reports,
    }
    code = 0
    if config.expect is not None:
        test = _EXPECT_TESTS[config.expect]
        if not all(test(r) for r in reports):
            payload["expect"] = {"asserted": config.expect, "satisfied": False}
            code = 1
        else:
            payload["expect"] = {"asserted": config.expect, "satisfied": True}
    return code, payload


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
            lines.append(f"{prefix[:-1]}: {value}")

    for i, rep in enumerate(payload["reports"]):
        lines.append(f"-- report {i} --")
        emit("", rep)
    if "expect" in payload:
        emit("expect.", payload["expect"])
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    try:
        config = parse_args(argv if argv is not None else sys.argv[1:])
        code, payload = run(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except TdualError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with _exact_output():
        if config.format == "json":
            text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        else:
            text = render_text(payload)
    if config.output:
        try:
            with open(config.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"usage error: cannot write {quote(config.output)}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
