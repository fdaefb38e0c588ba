"""Command-line driver: analyze one program file against one hardware spec.

Exit codes: 0 on success, 1 on input problems (unreadable files, spec or
parse errors, literals outside the machine range, a concrete run exceeding
its enumeration cap), 2 when the solver hit the iteration bound without
converging (the report is still emitted, flagged as not converged).
"""

from __future__ import annotations

import os
import sys

from .cfg import build_cfg, collect_thresholds
from .concrete import OracleBlowup
from .engine import build_equations, solve
from .hardware import ALL_OPS, HardwareSpec, SpecError, parse_spec
from .record import Record
from .syntax import FrontendError, parse_program

SET_DISPLAY_LIMIT = 12


# Each long flag: None for a switch, else int, str, or the tuple of its
# choices. A switch defaults to False and any other flag to None, except:
_FLAGS = {
    "--spec": str, "--mode": ("concrete", "abstract"), "--widening": None,
    "--max-iters": int, "--minint": int, "--maxint": int,
    "--format": ("text", "machine"), "--trace": None, "--out": str,
}
_DEFAULTS = {"--mode": "abstract", "--max-iters": 20, "--format": "text"}
_HELP_FLAGS = ("-h", "--help")

_USAGE = """\
usage: probrange [-h] --spec SPEC [--mode {concrete,abstract}] [--widening]
                 [--max-iters N] [--minint MININT] [--maxint MAXINT]
                 [--format {text,machine}] [--trace] [--out PATH]
                 program
"""
_HELP = _USAGE + """
Range and reliability analysis for integer programs on unreliable hardware.

  program              program file to analyze
  --spec SPEC          hardware reliability spec file (required)
  --mode MODE          analysis domain: concrete or abstract (default abstract)
  --widening           widen loop heads toward program constants
  --max-iters N        iteration bound (default 20)
  --minint MININT      override lower bound
  --maxint MAXINT      override upper bound
  --format FORMAT      report format: text or machine (default text)
  --trace              include per-iteration states in the report
  --out PATH           write the report to PATH instead of stdout
  -h, --help           show this help message and exit

A flag takes its value as `--flag value` or `--flag=value`; after `--`,
every argument is positional.
"""


def _usage_error(message: str):
    # exit code 2 is reserved for non-convergence: flag mistakes are input
    # errors; the wording is argparse's
    sys.stderr.write(f"{_USAGE}probrange: error: {message}\n")
    raise SystemExit(1)


def _is_negative_number(item: str) -> bool:
    # argparse's ^-\d+$|^-\d*\.\d+$, whose $ also matches before a final
    # newline
    whole, dot, frac = item[1:].removesuffix("\n").partition(".")
    return (frac.isdecimal() if dot else whole.isdecimal()) and (
        not whole or whole.isdecimal())


def _split(item: str):
    """(flag, explicit value or None) for an item naming a flag, (None, None)
    for an unknown option, None for a positional item."""
    if item[:1] != "-" or len(item) == 1:
        return None
    flag, eq, value = item.partition("=")
    if flag in _FLAGS or flag in _HELP_FLAGS:
        return flag, value if eq else None
    if item[1] == "h":  # -hVALUE, as argparse reads short options
        return "-h", item[2:]
    if _is_negative_number(item) or " " in item:
        return None
    return None, None


def _parse_args(argv: list[str]) -> dict:
    """The flags' values by flag name, and the program path by "program".

    Usage errors exit 1 and -h/--help exits 0, where argparse would.
    """
    args = {flag: False if kind is None else None
            for flag, kind in _FLAGS.items()}
    args.update(_DEFAULTS, program=None)
    extras = []  # unrecognized items, in argv order
    items = iter(argv)
    dashed = False
    for item in items:
        split = None if dashed else _split(item)
        if item == "--" and not dashed:
            dashed = True
        elif split is None and args["program"] is None:
            args["program"] = item
        elif split is None or split[0] is None:
            extras.append(item)
        else:
            _take(args, *split, items)
    missing = [name for name in ("program", "--spec") if args[name] is None]
    if missing:
        _usage_error("the following arguments are required: "
                     + ", ".join(missing))
    if extras:
        _usage_error("unrecognized arguments: " + " ".join(extras))
    return args


def _take(args: dict, flag: str, value, items) -> None:
    """Store one flag's value, taking it from items if it was not given
    as --flag=value."""
    kind = _FLAGS.get(flag)
    if kind is None:  # a switch, or -h/--help
        if value and flag == "-h":  # -hh is -h twice
            value = value.lstrip("h") or None
        name = "-h/--help" if flag in _HELP_FLAGS else flag
        if value is not None:
            _usage_error(f"argument {name}: ignored explicit argument "
                         f"{value!r}")
        if flag in _HELP_FLAGS:
            sys.stdout.write(_HELP)
            raise SystemExit(0)
        args[flag] = True
        return
    if value is None:
        value = next(items, None)
        if value is None or _split(value) is not None:
            _usage_error(f"argument {flag}: expected one argument")
    if kind is int:
        try:
            value = int(value)
        except ValueError:
            _usage_error(f"argument {flag}: invalid int value: {value!r}")
    elif kind is not str and value not in kind:
        _usage_error(f"argument {flag}: invalid choice: {value!r} (choose "
                     f"from {', '.join(map(repr, kind))})")
    args[flag] = value


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    if args["--max-iters"] < 1:
        _usage_error("--max-iters must be at least 1")
    if args["--mode"] == "concrete" and args["--widening"]:
        _usage_error("widening applies to abstract mode only")

    try:
        return _analyze(args)
    except MemoryError:
        pass
    # outside the handler, whose traceback would keep the analysis's frames,
    # and the memory they hold, alive
    print("probrange: out of memory; try a smaller program, range or "
          "--max-iters, or leave out --trace", file=sys.stderr)
    return 1


def _analyze(args: dict) -> int:
    """Read, analyze and report as args say; main's exit code."""
    try:
        source = _read(args["program"])
    except (OSError, UnicodeDecodeError) as exc:
        print(f"probrange: cannot read program: {exc}", file=sys.stderr)
        return 1
    try:
        spec_text = _read(args["--spec"])
    except (OSError, UnicodeDecodeError) as exc:
        print(f"probrange: cannot read spec: {exc}", file=sys.stderr)
        return 1

    try:
        spec, warnings = parse_spec(spec_text)
        overrides = {}
        if args["--minint"] is not None:
            overrides["minint"] = args["--minint"]
        if args["--maxint"] is not None:
            overrides["maxint"] = args["--maxint"]
        if overrides:
            spec = spec.replace(**overrides)
    except SpecError as exc:
        print(f"probrange: spec error: {exc}", file=sys.stderr)
        return 1

    try:
        program = parse_program(source)
        cfg = build_cfg(program)
    except FrontendError as exc:
        print(f"probrange: {exc}", file=sys.stderr)
        return 1

    widening = None
    if args["--widening"]:
        widening = collect_thresholds(cfg, spec.minint, spec.maxint)
    system = build_equations(cfg)
    try:
        result = solve(system, spec, domain=args["--mode"],
                       widening=widening, max_iters=args["--max-iters"],
                       keep_trace=args["--trace"])
    except (OracleBlowup, FrontendError) as exc:
        print(f"probrange: {exc}", file=sys.stderr)
        return 1

    warnings.extend(result.warnings)
    name = program.name or _stem(args["program"])
    report = build_report(name, args["--mode"], widening is not None, spec,
                          cfg, result, warnings)
    rendered = (render_machine(report) if args["--format"] == "machine"
                else render_text(report))
    if args["--out"]:
        try:
            with open(args["--out"], "w") as out:
                out.write(rendered)
        except OSError as exc:
            print(f"probrange: cannot write report: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(rendered)
    return 0 if result.converged else 2


def _read(path: str) -> str:
    with open(path) as file:
        return file.read()


def _stem(path: str) -> str:
    """pathlib.PurePath(path).stem for the path of a file."""
    name = os.path.basename(path)
    dot = name.rfind(".")
    return name[:dot] if 0 < dot < len(name) - 1 else name


class Rows(Record):
    """A report's rows, one per node and variable in that order, held as the
    solve's flat states: per node, None when unreachable, else the domain's
    (lo, hi, prob) triples or (values, prob) pairs in variable order."""
    __slots__ = ("lines", "variables", "states", "intervals")


def build_report(name: str, mode: str, widening: bool, spec: HardwareSpec,
                 cfg, result, warnings: list[str]) -> dict:
    """Assemble the report as one plain dict; both renderers feed on it.

    Its results, and each trace entry's rows, are Rows over the solve's flat
    states. The renderers also take a machine report read back, whose rows
    are dicts.
    """
    def rows(states: list) -> Rows:
        return Rows(cfg.lines, cfg.variables, states, mode == "abstract")

    report = {
        "schema": 2,
        "program": name,
        "mode": mode,
        "widening": widening,
        "schedule": "round-robin",
        "spec": {
            "minint": spec.minint,
            "maxint": spec.maxint,
            "probabilities": {op: spec.prob(op) for op in ALL_OPS},
        },
        "iterations": result.iterations,
        "converged": result.converged,
        "warnings": list(warnings),
        "results": rows(result.flat_states),
    }
    if result.flat_trace is not None:
        report["trace"] = [{"iteration": i + 1, "rows": rows(states)}
                           for i, states in enumerate(result.flat_trace)]
    return report


def _sorted_set(memo: dict, values: frozenset[int], form) -> str:
    """form(sorted values), kept in memo under the set."""
    text = memo.get(values)
    if text is None:
        text = memo[values] = form(sorted(values))
    return text


def _set_text(values: list[int]) -> str:
    if not values:
        return "{}"
    if len(values) <= SET_DISPLAY_LIMIT:
        return "{" + ",".join(map(str, values)) + "}"
    shown = ",".join(map(str, values[:3]))
    return f"{{{shown},...,{values[-1]}}} ({len(values)} values)"


def _text_cell(memo: dict, element: tuple) -> tuple[str, str]:
    """A triple's or pair's value and probability text."""
    value = (f"[{element[0]},{element[1]}]" if len(element) == 3
             else _sorted_set(memo, element[0], _set_text))
    return value, f"{element[-1]:.12g}"


def _cells(rows, memo: dict) -> list[tuple[str, str, str, str]]:
    """Each row's line, variable, value and probability as text, from the
    row dicts of a machine report read back or from Rows, whose distinct
    elements memo keeps the text of, and bottom's under None."""
    if isinstance(rows, list):  # row dicts
        return [(str(row["line"]), row["variable"],
                 _set_text(row["values"]) if "values" in row
                 else "[%d,%d]" % tuple(row["interval"]) if row["interval"]
                 else "[]",
                 f"{row['probability']:.12g}") for row in rows]
    memo.setdefault(None, ("[]" if rows.intervals else "{}", "1"))
    bottom = (None,) * len(rows.variables)  # an unreachable node's elements
    cells = []
    for line, state in zip(rows.lines, rows.states):
        line = str(line)
        for var, element in zip(rows.variables, state or bottom):
            cell = memo.get(element)
            if cell is None:
                cell = memo[element] = _text_cell(memo, element)
            cells.append((line, var) + cell)
    return cells


def _spec_text(spec: dict) -> str:
    probs = set(spec["probabilities"].values())
    if len(probs) == 1:
        ops = f"all ops Pr={probs.pop():.12g}"
    else:
        ops = (f"op Pr in [{min(probs):.12g}, {max(probs):.12g}]")
    return f"{ops}, bounds [{spec['minint']},{spec['maxint']}]"


def _format_rows(cells: list[tuple[str, str, str, str]]) -> list[str]:
    """The results table: a header, a rule, and a line per row's cells."""
    header = ("line", "variable", "value", "probability")
    widths = [max(map(len, column)) for column in zip(header, *cells)]
    # every column but the last padded to its width, as str.ljust pads
    fmt = "%%-%ds | %%-%ds | %%-%ds | %%s" % tuple(widths[:3])
    lines = [fmt % header, "-+-".join("-" * w for w in widths)]
    lines.extend([fmt % c for c in cells])
    return lines


def render_text(report: dict) -> str:
    mode = report["mode"]
    if report["widening"]:
        mode += " with widening"
    status = "yes" if report["converged"] else "NO"
    lines = [
        f"program: {report['program']}",
        f"mode: {mode}",
        f"spec: {_spec_text(report['spec'])}",
        f"converged: {status} ({report['iterations']} iterations, "
        f"{report['schedule']})",
        "",
    ]
    memo = {}  # element or value set -> its text, across all rows
    lines.extend(_format_rows(_cells(report["results"], memo)))
    if report["warnings"]:
        lines.append("")
        lines.append("warnings:")
        lines.extend(f"  - {w}" for w in report["warnings"])
    if "trace" in report:
        lines.append("")
        lines.append("trace:")
        for entry in report["trace"]:
            lines.append(f"  iteration {entry['iteration']}:")
            lines.extend(["    line %s: %s = %s p=%s" % c
                          for c in _cells(entry["rows"], memo)])
    lines.append("")
    return "\n".join(lines)


_ESCAPES = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n",
            "\r": "\\r", "\t": "\\t"}


def _escape(char: str) -> str:
    code = ord(char)
    if code > 0xFFFF:  # a surrogate pair
        code -= 0x10000
        return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"
    return _ESCAPES.get(char) or f"\\u{code:04x}"


def _json_tail(memo: dict, element: tuple) -> str:
    """A triple's or pair's row JSON after the variable."""
    value = (f'"interval":[{element[0]},{element[1]}]' if len(element) == 3
             else '"values":' + _sorted_set(
                 memo, element[0], lambda v: "[" + ",".join(map(str, v)) + "]"))
    return f'{value},"probability":{float(f"{element[-1]:.12g}")!r}}}'


def _rows_json(rows: Rows, memo: dict) -> str:
    """Rows as _json writes a list of row dicts; see _cells for memo."""
    memo.setdefault(None, ('"interval":null' if rows.intervals
                           else '"values":[]') + ',"probability":1.0}')
    names = list(map(_json, rows.variables))
    bottom = (None,) * len(names)
    parts = []
    for node, (line, state) in enumerate(zip(rows.lines, rows.states)):
        head = f'{{"node":{node},"line":{line},"variable":'
        for name, element in zip(names, state or bottom):
            tail = memo.get(element)
            if tail is None:
                tail = memo[element] = _json_tail(memo, element)
            parts.append(f"{head}{name},{tail}")
    return "[" + ",".join(parts) + "]"


def _json(value, memo: dict | None = None) -> str:
    """value as json.dumps(value, separators=(",", ":")) writes it, for the
    types a report holds: str, int, float, bool, None, list, dict with str
    keys, and Rows, written as its list of row dicts with memo keeping the
    text of each distinct element. Strings are escaped as json's default
    ensure_ascii does."""
    if isinstance(value, str):
        if (value.isascii() and value.isprintable() and '"' not in value
                and "\\" not in value):
            return f'"{value}"'
        return '"' + "".join(c if " " <= c <= "~" and c not in '"\\'
                             else _escape(c) for c in value) + '"'
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, Rows):
        return _rows_json(value, {} if memo is None else memo)
    if isinstance(value, list):
        return "[" + ",".join([_json(v, memo) for v in value]) + "]"
    return "{" + ",".join([f"{_json(k)}:{_json(v, memo)}"
                           for k, v in value.items()]) + "}"


def render_machine(report: dict) -> str:
    """The report as one line of compact JSON, byte for byte json.dumps of
    its row-dict form with separators=(",", ":"), and a newline."""
    return _json(report, {}) + "\n"


if __name__ == "__main__":
    raise SystemExit(main())
