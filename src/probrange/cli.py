"""Command-line driver: analyze one program file against one hardware spec.

Exit codes: 0 on success, 1 on input problems (unreadable files, spec or
parse errors, literals outside the machine range, a concrete run exceeding
its enumeration cap) or an unwritable report, 2 when the solver hit the
iteration bound without converging (the report is still emitted, flagged
as not converged).

main freezes the heap built by start-up and imports once per process, so
exit skips collecting and freeing it.
"""

from __future__ import annotations

import functools
import gc
import os
import sys
from contextlib import nullcontext

from .cfg import build_cfg, collect_thresholds
from .concrete import OracleBlowup
from .engine import build_equations, solve
from .hardware import ALL_OPS, HardwareSpec, SpecError, parse_spec
from .record import Record
from .syntax import FrontendError, parse_program

SET_DISPLAY_LIMIT = 12
_WRITE_SLICE = 8192  # characters per write of a report


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
            raise SystemExit(0 if _write(_HELP, None, "help") else 1)
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


# A run is one process whose import-time heap lives until exit: frozen, no
# collection during the run or at shutdown walks it. Once only, so a later
# in-process call's garbage is collected, never pinned; and not by testing
# gc.get_freeze_count(), which walks the whole frozen heap on every call.
_freeze_heap_once = functools.cache(gc.freeze)


def main(argv=None) -> int:
    _freeze_heap_once()
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
    source = _read(args["program"], "program")
    spec_text = None if source is None else _read(args["--spec"], "spec")
    if spec_text is None:
        return 1

    try:
        spec, warnings = parse_spec(spec_text)
        overrides = {flag[2:]: args[flag] for flag in ("--minint", "--maxint")
                     if args[flag] is not None}
        if overrides:
            spec = spec.replace(**overrides)
    except SpecError as exc:
        print(f"probrange: spec error: {exc}", file=sys.stderr)
        return 1

    try:
        program = parse_program(source)
        cfg = build_cfg(program)
        widening = None
        if args["--widening"]:
            widening = collect_thresholds(cfg, spec.minint, spec.maxint)
        result = solve(build_equations(cfg), spec, domain=args["--mode"],
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
    if not _write(rendered, args["--out"], "report"):
        return 1
    return 0 if result.converged else 2


def _write(text: str, path: str | None, what: str) -> bool:
    """Write text to path, or to stdout without one; False after printing
    why it cannot be written."""
    try:  # in slices, so that encoding never copies the whole text
        with open(path, "w") if path else nullcontext(sys.stdout) as out:
            for start in range(0, len(text), _WRITE_SLICE):
                out.write(text[start:start + _WRITE_SLICE])
            out.flush()
    except OSError as exc:
        if not path:  # so that stdout's flush at exit cannot fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"probrange: cannot write {what}: {exc}", file=sys.stderr)
        return False
    return True


def _read(path: str, what: str) -> str | None:
    """The file's text, or None after printing why it cannot be read."""
    try:
        with open(path) as file:
            return file.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"probrange: cannot read {what}: {exc}", file=sys.stderr)


def _stem(path: str) -> str:
    """pathlib.PurePath(path).stem for the path of a file."""
    name = os.path.basename(path)
    dot = name.rfind(".")
    return name[:dot] if 0 < dot < len(name) - 1 else name


class Rows(Record):
    """A report's rows, one per node and variable in that order, held as the
    solve's halves: per node, None when unreachable, else its values (sets,
    or (lo, hi) pairs when intervals) and their probabilities, each a tuple
    in variable order."""
    _fields = ("lines", "variables", "values", "probs", "intervals")


def build_report(name: str, mode: str, widening: bool, spec: HardwareSpec,
                 cfg, result, warnings: list[str]) -> dict:
    """Assemble the report as one plain dict; both renderers feed on it.

    Its results, and each trace entry's rows, are Rows over the solve's
    value and probability lists.
    """
    def rows(values: list, probs: list) -> Rows:
        return Rows(cfg.lines, cfg.variables, values, probs,
                    mode == "abstract")

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
        "results": rows(result.values, result.probs),
    }
    if result.trace is not None:
        report["trace"] = [{"iteration": i + 1, "rows": rows(*halves)}
                           for i, halves in enumerate(result.trace)]
    return report


def _set_text(values: list[int]) -> str:
    if len(values) <= SET_DISPLAY_LIMIT:
        return "{" + ",".join(map(str, values)) + "}"
    shown = ",".join(map(str, values[:3]))
    return f"{{{shown},...,{values[-1]}}} ({len(values)} values)"


def _text_rows(rows: Rows, parts: list, sets: dict, cells: dict,
               table: bool) -> None:
    """Append rows, a line each of four shared pieces: its node's line, its
    variable, its value and its probability. cells keeps the value pieces,
    an unreachable node's under None, and the probability pieces across
    calls, as sets keeps set texts. A table pads each column but the last to
    its widest piece, as ljust does."""
    texts = {None: "[]" if rows.intervals else "{}"}  # values' texts
    for v in set().union(*filter(None, rows.values)).difference(cells):
        texts[v] = (f"[{v[0]},{v[1]}]" if rows.intervals else sets.get(v)
                    or sets.setdefault(v, _set_text(sorted(v))))
    chances = {p: f"{p:.12g}" for p in set().union(
        (1.0,), *filter(None, rows.probs)).difference(cells)}
    head, name, value, prob = "    line {}: ", "{} = ", "{} p=", "{}\n"
    if table:
        columns = (map(str, rows.lines) if rows.variables else (),
                   rows.variables, texts.values(), chances.values())
        widths = [max(map(len, (title, *column))) for title, column in
                  zip(("line", "variable", "value", "probability"), columns)]
        head, name, value = ["{:<%d} | " % w for w in widths[:3]]
        parts += (head.format("line"), name.format("variable"),
                  value.format("value"), prob.format("probability"),
                  "-+-".join(["-" * w for w in widths]) + "\n")
    cells.update({v: value.format(text) for v, text in texts.items()})
    cells.update({p: prob.format(text) for p, text in chances.items()})
    names = list(map(name.format, rows.variables))
    nones, ones = (None,) * len(names), (1.0,) * len(names)  # bottom's
    for line, values, probs in zip(rows.lines, rows.values, rows.probs):
        line = head.format(line)
        for var, v, p in zip(names, values or nones, probs or ones):
            parts += (line, var, cells[v], cells[p])


def _spec_text(spec: dict) -> str:
    probs = set(spec["probabilities"].values())
    ops = (f"all ops Pr={probs.pop():.12g}" if len(probs) == 1
           else f"op Pr in [{min(probs):.12g}, {max(probs):.12g}]")
    return f"{ops}, bounds [{spec['minint']},{spec['maxint']}]"


def render_text(report: dict) -> str:
    mode = report["mode"] + (" with widening" if report["widening"] else "")
    status = "yes" if report["converged"] else "NO"
    parts = [f"program: {report['program']}\nmode: {mode}\n"
             f"spec: {_spec_text(report['spec'])}\n"
             f"converged: {status} ({report['iterations']} iterations, "
             f"{report['schedule']})\n\n"]
    sets = {}
    _text_rows(report["results"], parts, sets, {}, table=True)
    if report["warnings"]:
        parts += ["\nwarnings:\n", *[f"  - {w}\n" for w in report["warnings"]]]
    if "trace" in report:
        parts.append("\ntrace:\n")
        cells = {}
        for entry in report["trace"]:
            parts.append(f"  iteration {entry['iteration']}:\n")
            _text_rows(entry["rows"], parts, sets, cells, table=False)
    return "".join(parts)


_ESCAPES = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n",
            "\r": "\\r", "\t": "\\t"}


def _escape(char: str) -> str:
    code = ord(char)
    if code > 0xFFFF:  # a surrogate pair
        code -= 0x10000
        return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"
    return _ESCAPES.get(char) or f"\\u{code:04x}"


def _rows_json(rows: Rows, parts: list, memo: dict) -> None:
    """Append rows as _json writes a list of row dicts, each in six pieces:
    a separator, its node's head, its variable, its value's key, its value
    and its probability's tail. memo keeps the value texts, an unreachable
    node's under None, and the tails, so a set's text is one piece that
    every row printing the set shares."""
    key = '"interval":' if rows.intervals else '"values":'
    memo.setdefault(None, "null" if rows.intervals else "[]")
    names = [f'"{v}",' for v in rows.variables]  # ASCII words: no escapes
    nones, ones = (None,) * len(names), (1.0,) * len(names)  # bottom's
    sep = "["
    for node, (line, values, probs) in enumerate(zip(rows.lines, rows.values,
                                                     rows.probs)):
        head = f'{{"node":{node},"line":{line},"variable":'
        for name, v, p in zip(names, values or nones, probs or ones):
            text = memo.get(v)
            if text is None:  # no str per value of a set
                text = memo[v] = (f"[{v[0]},{v[1]}]" if rows.intervals
                                  else repr(sorted(v)).replace(" ", ""))
            tail = memo.get(p)
            if tail is None:
                tail = memo[p] = f',"probability":{float(f"{p:.12g}")!r}}}'
            parts += (sep, head, name, key, text, tail)
            sep = ","
    parts.append("]" if sep == "," else "[]")


def _json(value, parts: list, memo: dict) -> None:
    """Append value to parts as json.dumps(value, separators=(",", ":"))
    writes it, for the types a report holds: str, int, float, bool, None,
    list, dict with str keys, and Rows, written as its list of row dicts.
    Strings are escaped as json's default ensure_ascii does."""
    if isinstance(value, str):
        if not (value.isascii() and value.isprintable() and '"' not in value
                and "\\" not in value):
            value = "".join(c if " " <= c <= "~" and c not in '"\\'
                            else _escape(c) for c in value)
        parts.append(f'"{value}"')
    elif value is None or value is True or value is False:
        parts.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, (int, float)):
        parts.append(repr(value))
    elif isinstance(value, Rows):
        _rows_json(value, parts, memo)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            parts.append("," if i else "[")
            _json(item, parts, memo)
        parts.append("]" if value else "[]")
    else:
        for i, (key, item) in enumerate(value.items()):
            parts.append("," if i else "{")
            _json(key, parts, memo)
            parts.append(":")
            _json(item, parts, memo)
        parts.append("}" if value else "{}")


def render_machine(report: dict) -> str:
    """The report as one line of compact JSON, byte for byte json.dumps of
    its row-dict form with separators=(",", ":"), and a newline."""
    _json(report, parts := [], {})
    parts.append("\n")
    return "".join(parts)


if __name__ == "__main__":
    raise SystemExit(main())
