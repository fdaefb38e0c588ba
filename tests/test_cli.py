import contextlib
import gc
import io
import json
import os
import pathlib
import random
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import probrange
from probrange import cli, concrete
from probrange.cfg import build_cfg, collect_thresholds
from probrange.cli import (_FLAGS, _parse_args, _stem, SET_DISPLAY_LIMIT,
                           main, render_machine, render_text)
from probrange.engine import build_equations, solve
from probrange.hardware import ALL_OPS, HardwareSpec
from probrange.syntax import parse_program

from helpers import (CORPUS, analyze, nested_program, random_program,
                     reference_parser, reference_report, reference_text)

FIG1 = str(CORPUS / "fig1.up")
COLLATZ = str(CORPUS / "collatz.up")
COUNTER = str(CORPUS / "counter.up")
GCD = str(CORPUS / "gcd.up")
SPEC4 = str(CORPUS / "uniform-1e4.spec")
SPEC7 = str(CORPUS / "uniform-1e7.spec")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    """Environment for a child process that imports this same probrange.

    PYTHONPATH leads with the directory holding the imported package, so
    the child finds it from any working directory, not only when a relative
    PYTHONPATH happens to resolve.
    """
    package_root = str(Path(probrange.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = (package_root if not inherited
                         else os.pathsep.join((package_root, inherited)))
    return env


def launcher():
    """The installed console script if there is one, else the module."""
    script = shutil.which("probrange")
    return [script] if script else [sys.executable, "-m", "probrange"]


def test_fig1_abstract_text(capsys):
    code, out, _ = run(capsys, FIG1, "--spec", SPEC4)
    assert code == 0
    assert "program: fig1" in out
    assert "mode: abstract" in out
    assert "converged: yes (5 iterations, round-robin)" in out
    assert "[0,9]" in out
    assert "0.999850006526" in out
    assert "[10,12]" in out


def test_collatz_widened_text(capsys):
    code, out, _ = run(capsys, COLLATZ, "--spec", SPEC7, "--widening")
    assert code == 0
    assert "program: collatz_conjecture" in out
    assert "mode: abstract with widening" in out
    assert "converged: yes (4 iterations, round-robin)" in out
    assert "[1,1]" in out


def test_fig1_concrete_text(capsys):
    code, out, _ = run(capsys, FIG1, "--spec", SPEC4, "--mode", "concrete")
    assert code == 0
    assert "mode: concrete" in out
    assert "{0,3,6,9,12}" in out
    assert "{12}" in out


def test_machine_format(capsys):
    code, out, _ = run(capsys, FIG1, "--spec", SPEC4, "--format", "machine")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 2
    assert report["program"] == "fig1"
    assert report["mode"] == "abstract"
    assert report["widening"] is False
    assert report["schedule"] == "round-robin"
    assert report["converged"] is True
    assert report["iterations"] == 5
    assert report["spec"]["minint"] == -32768
    assert report["spec"]["probabilities"]["add"] == 0.9999
    assert list(report["spec"]["probabilities"]) == list(ALL_OPS)
    rows = {r["line"]: r for r in report["results"]}
    assert rows[3]["interval"] == [0, 9]
    assert rows[3]["probability"] == 0.999850006526
    assert rows[4]["interval"] == [10, 12]
    assert rows[4]["probability"] == 0.230734616891


def test_machine_report_is_one_compact_line(capsys):
    _, out, _ = run(capsys, FIG1, "--spec", SPEC4, "--trace",
                    "--format", "machine")
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.dumps(json.loads(out), separators=(",", ":")) + "\n" == out


def test_text_and_machine_probabilities_agree(capsys):
    _, machine_out, _ = run(capsys, FIG1, "--spec", SPEC4,
                            "--format", "machine")
    _, text_out, _ = run(capsys, FIG1, "--spec", SPEC4)
    for row in json.loads(machine_out)["results"]:
        assert f"{row['probability']:.12g}" in text_out


def test_machine_output_is_stable(capsys):
    _, first, _ = run(capsys, COLLATZ, "--spec", SPEC7, "--widening",
                      "--format", "machine")
    _, second, _ = run(capsys, COLLATZ, "--spec", SPEC7, "--widening",
                       "--format", "machine")
    assert first == second


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, _ = run(capsys, FIG1, "--spec", SPEC4, "--out", str(target))
    assert code == 0
    assert out == ""
    _, direct, _ = run(capsys, FIG1, "--spec", SPEC4)
    assert target.read_text() == direct


def test_missing_program_file(capsys):
    code, _, err = run(capsys, str(CORPUS / "no-such.up"), "--spec", SPEC4)
    assert code == 1
    assert "cannot read program" in err


def test_missing_spec_file(capsys):
    code, _, err = run(capsys, FIG1, "--spec", str(CORPUS / "no-such.spec"))
    assert code == 1
    assert "cannot read spec" in err


def test_parse_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.up"
    bad.write_text("x = 1;\n")
    code, _, err = run(capsys, str(bad), "--spec", SPEC4)
    assert code == 1
    assert "probrange:" in err


@pytest.mark.parametrize("guard, message", [
    ("x >. 0 &&. x <. 5", "expected ')', got '&&.'"),
    ("!. (x ==. 0)", "expected an expression, got '!.'"),
], ids=["and", "not"])
def test_compound_guard_exits_one(tmp_path, guard, message):
    # the logical operators lex but parse nowhere: the error names the line
    # and the operator, and no traceback reaches the user
    program = tmp_path / "compound.up"
    program.write_text(f"x =. 0;\nwhile ({guard}) {{\n  x =. x +. 1;\n}}\n")
    proc = subprocess.run(
        [sys.executable, "-m", "probrange", str(program), "--spec", SPEC4],
        capture_output=True, text=True, cwd=tmp_path, env=child_env())
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"probrange: line 2: {message}\n"


def test_non_ascii_digit_exits_one(tmp_path):
    # `²`.isdigit() is true; it once reached int() and left a traceback
    program = tmp_path / "square.up"
    program.write_text("x =. \u00b2;\n", encoding="utf-8")
    env = {**child_env(), "PYTHONIOENCODING": "utf-8"}
    proc = subprocess.run(
        [sys.executable, "-m", "probrange", str(program), "--spec", SPEC4],
        capture_output=True, text=True, encoding="utf-8", cwd=tmp_path,
        env=env)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "probrange: line 1, col 6: unexpected character '\u00b2'\n"


@pytest.mark.parametrize("which", ["program", "spec"])
def test_non_utf8_file_exits_one(tmp_path, which):
    bad = tmp_path / "bad"
    bad.write_bytes(b"x =. 0;\n\xff\n")
    argv = ([str(bad), "--spec", SPEC4] if which == "program"
            else [FIG1, "--spec", str(bad)])
    proc = subprocess.run(
        [sys.executable, "-m", "probrange", *argv], capture_output=True,
        text=True, cwd=tmp_path, env={**child_env(), "PYTHONUTF8": "1"})
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"probrange: cannot read {which}: 'utf-8' "
                                  f"codec can't decode byte 0xff")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("shape, depth, code", [
    ("parens", 100, 0), ("parens", 200, 1), ("chain", 800, 0),
    ("chain", 1000, 1), ("ifs", 300, 0), ("ifs", 600, 1),
])
def test_deep_nesting_exits_cleanly(tmp_path, shape, depth, code):
    # in a child process, so that the stack starts as deep as the CLI's
    program = tmp_path / "deep.up"
    program.write_text(nested_program(shape, depth))
    proc = subprocess.run(
        [sys.executable, "-m", "probrange", str(program), "--spec", SPEC4],
        capture_output=True, text=True, cwd=tmp_path, env=child_env())
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stderr == "probrange: program is nested too deeply\n"
    else:
        assert proc.stderr == ""
        assert "converged: yes" in proc.stdout


def test_out_of_memory_exits_one_with_a_message(tmp_path):
    # a concrete trace of counter.up over 1000 passes outgrows 400 MB of
    # address space; the limit is set in the child alone
    pytest.importorskip("resource")
    child = ("import resource, sys\n"
             "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
             "limit = 400 << 20\n"
             "if hard != resource.RLIM_INFINITY:\n"
             "    limit = min(limit, hard)\n"
             "resource.setrlimit(resource.RLIMIT_AS, (limit, hard))\n"
             "from probrange.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", child, COUNTER, "--spec", SPEC4, "--mode",
         "concrete", "--format", "machine", "--trace", "--max-iters", "1000",
         "--out", str(tmp_path / "report.json")],
        capture_output=True, text=True, cwd=tmp_path, env=child_env(),
        timeout=300)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("probrange: out of memory")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


CONCRETE8 = ("--mode", "concrete", "--minint", "-8", "--maxint", "8")


@pytest.mark.parametrize("shape, depth, flags, code", [
    ("straight", 3000, (), 0), ("whiles", 300, ("--widening",), 2),
    ("bare-whiles", 480, ("--widening",), 2), ("bare-ifs", 480, (), 0),
    ("chain", 980, (), 0), ("chain", 990, (), 1),
    ("chain", 480, CONCRETE8, 0), ("chain", 500, CONCRETE8, 0),
    ("chain", 800, CONCRETE8, 0),
], ids=["straight-3000", "whiles-300", "bare-whiles-480", "bare-ifs-480",
        "chain-980", "chain-990",
        "concrete-chain-480", "concrete-chain-500", "concrete-chain-800"])
def test_deep_programs_solve_or_exit_cleanly(tmp_path, shape, depth, flags,
                                             code):
    # the parser admits these; build_cfg, which lays out the weak
    # topological order as it links, recurses no deeper per nesting level
    # than the parser does on bodies without braces, and an expression too
    # deep to compile gets the parser's message. Both domains compile at one
    # frame per operator (the abstract one evaluates so too): a chain of 987
    # `+.` is too deep under Python 3.10 and 3.11 but not under 3.12 and
    # 3.13, in either mode
    program = tmp_path / "deep.up"
    program.write_text(nested_program(shape, depth))
    proc = subprocess.run(
        [sys.executable, "-m", "probrange", str(program), "--spec", SPEC4,
         *flags], capture_output=True, text=True, cwd=tmp_path,
        env=child_env())
    assert proc.returncode == code, proc.stderr
    if code == 1:
        assert proc.stderr == "probrange: program is nested too deeply\n"
    else:
        assert proc.stderr == ""
        assert f"converged: {'yes' if code == 0 else 'NO'}" in proc.stdout


def test_bad_spec_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text("add 2.0\n")
    code, _, err = run(capsys, FIG1, "--spec", str(bad))
    assert code == 1
    assert "spec error" in err


@pytest.mark.parametrize("how", ["flags", "spec"])
def test_one_value_range_exits_one(tmp_path, capsys, how):
    # [0,0] is not empty, but a machine range needs two values
    spec = tmp_path / "one.spec"
    spec.write_text("minint = 0\nmaxint = 0\n")
    flags = (("--spec", SPEC4, "--minint", "0", "--maxint", "0")
             if how == "flags" else ("--spec", str(spec)))
    code, out, err = run(capsys, str(CORPUS / "fig1.up"), *flags)
    assert (code, out) == (1, "")
    assert err == ("probrange: spec error: integer range [0,0] must hold at "
                   "least two values\n")


def test_concrete_range_over_the_cap_exits_one(tmp_path, capsys,
                                               monkeypatch):
    # [-8,7] stands in for a range too wide to enumerate, such as 64 bits
    monkeypatch.setattr(concrete, "TUPLE_CAP", 10)
    program = tmp_path / "one.up"
    program.write_text("x =. 1;\n")
    code, out, err = run(capsys, str(program), "--spec", SPEC4, "--mode",
                         "concrete", "--minint", "-8", "--maxint", "7")
    assert (code, out) == (1, "")
    assert err == "probrange: machine range [-8,7] holds more than 10 values\n"


def test_unconverged_exits_two_with_report(capsys):
    code, out, _ = run(capsys, COUNTER, "--spec", SPEC4)
    assert code == 2
    assert "converged: NO (20 iterations, round-robin)" in out
    assert "line" in out


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main([FIG1, "--spec", SPEC4, "--bogus"])
    assert exc.value.code == 1


@pytest.mark.parametrize("flags", [
    ("--widen",), ("--max-it", "5"), ("--form", "machine"),
], ids=["widening", "max-iters", "format"])
def test_long_flag_prefix_rejected(capsys, flags):
    # a prefix of a long flag is no flag: it would silently change meaning
    # once a second flag shares the prefix
    with pytest.raises(SystemExit) as exc:
        main([FIG1, "--spec", SPEC4, *flags])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(flags)}" in err


def test_max_iters_zero_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main([FIG1, "--spec", SPEC4, "--max-iters", "0"])
    assert exc.value.code == 1
    assert capsys.readouterr().err.endswith(
        "\nprobrange: error: --max-iters must be at least 1\n")


def test_concrete_with_widening_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main([FIG1, "--spec", SPEC4, "--mode", "concrete", "--widening"])
    assert exc.value.code == 1
    assert capsys.readouterr().err.endswith(
        "\nprobrange: error: widening applies to abstract mode only\n")


def test_unwritable_out_exits_one(capsys):
    code, _, err = run(capsys, FIG1, "--spec", SPEC4,
                       "--out", "/no-such-dir/report.txt")
    assert code == 1
    assert "cannot write report" in err


def test_repeated_bound_in_spec_exits_one(capsys, tmp_path):
    spec = tmp_path / "repeated.spec"
    spec.write_text("minint = -8\nminint = -4\nmaxint = 7\n")
    code, out, err = run(capsys, FIG1, "--spec", str(spec))
    assert (code, out) == (1, "")
    assert err == "probrange: spec error: line 2: duplicate key 'minint'\n"


@pytest.mark.parametrize("argv, what", [
    ((FIG1, "--spec", SPEC4), "report"),
    (("--help",), "help"),
], ids=["report", "help"])
def test_closed_stdout_exits_one_without_traceback(tmp_path, argv, what):
    # every read end of the pipe is closed before the child writes: one
    # message, and no traceback from the write or from the exit's flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "probrange", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            cwd=tmp_path, env=child_env())
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"probrange: cannot write {what}: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_report_write_copies_a_slice_not_the_report(tmp_path, monkeypatch):
    # the report goes to the file in slices, so the encoder's bytes copy is
    # a slice's; one write of the whole 436 KB traced report peaked at 441 KB
    traced = []

    def render_then_trace(report):
        rendered = render_text(report)
        traced.append(len(rendered))
        tracemalloc.start()
        return rendered

    monkeypatch.setattr(cli, "render_text", render_then_trace)
    out = tmp_path / "report.txt"
    try:
        code = main([str(Path(__file__).parent / "golden" / "loops4.up"),
                     "--spec", SPEC4, "--widening", "--trace",
                     "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out.stat().st_size == traced[0] > 400_000
    assert peak < 64 * 1024


def test_range_overrides(capsys):
    # fig1's largest literal is 10, so the range must hold it
    code, out, _ = run(capsys, FIG1, "--spec", SPEC4, "--minint", "-16",
                       "--maxint", "15", "--format", "machine")
    report = json.loads(out)
    assert report["spec"]["minint"] == -16
    assert report["spec"]["maxint"] == 15
    entry = next(r for r in report["results"] if r["node"] == 0)
    assert entry["interval"] == [-16, 15]


def test_literal_outside_overridden_range_rejected(capsys):
    code, out, err = run(capsys, FIG1, "--spec", SPEC4, "--minint", "-8",
                         "--maxint", "8")
    assert code == 1
    assert out == ""
    assert "line 2: literal 10 outside [-8,8]" in err


# several literals outside [-8,8]: the first in source order is named, in a
# guard or in an else branch, in every mode
MULTI_LITERAL = [
    ("x =. 0;\nwhile (x <. 20) {\n  x =. x +. 30;\n}\n",
     "line 2: literal 20 outside [-8,8]"),
    ("y =. 3;\nif (y ==. 2) {\n  y =. 1;\n} else {\n  y =. -40;\n}\n"
     "while (y <. 100) {\n  y =. y +. 9;\n}\n",
     "line 5: literal -40 outside [-8,8]"),
]


@pytest.mark.parametrize("flags", [(), ("--widening",), ("--mode", "concrete")])
@pytest.mark.parametrize("source, message", MULTI_LITERAL)
def test_first_out_of_range_literal_named(tmp_path, capsys, source, message,
                                          flags):
    program = tmp_path / "literals.up"
    program.write_text(source)
    result = run(capsys, str(program), "--spec", SPEC4, "--minint", "-8",
                 "--maxint", "8", *flags)
    assert result == (1, "", f"probrange: {message}\n")


def test_literal_of_5000_digits_exits_one(tmp_path, capsys):
    # more digits than int() converts by default: judged by its digit count
    program = tmp_path / "long.up"
    program.write_text("x =. " + "1" * 5000 + ";\n")
    code, out, err = run(capsys, str(program), "--spec", SPEC4)
    assert (code, out) == (1, "")
    assert err == f"probrange: line 1: literal {'1' * 5000} does not fit in 64 bits\n"


def test_literal_with_5000_leading_zeros_is_its_value(tmp_path, capsys):
    program = tmp_path / "zeros.up"
    program.write_text("x =. " + "0" * 5000 + "1;\n")
    code, out, err = run(capsys, str(program), "--spec", SPEC4)
    assert (code, err) == (0, "")
    assert "[1,1]" in out


def test_trace_sections(capsys):
    code, out, _ = run(capsys, FIG1, "--spec", SPEC4, "--trace")
    assert code == 0
    assert "trace:" in out
    assert "iteration 1:" in out
    code, machine_out, _ = run(capsys, FIG1, "--spec", SPEC4, "--trace",
                               "--format", "machine")
    report = json.loads(machine_out)
    assert len(report["trace"]) == report["iterations"]
    assert all("rows" in entry for entry in report["trace"])


def test_gcd_reports_modulus_warning(capsys):
    code, out, _ = run(capsys, GCD, "--spec", SPEC7, "--widening")
    assert code == 0
    assert "warnings:" in out
    assert "contains zero" in out


def test_widen_all_rejected(capsys):
    # widening applies at loop heads only, so there is no flag to pick nodes
    with pytest.raises(SystemExit) as exc:
        main([COLLATZ, "--spec", SPEC7, "--widen-all"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --widen-all" in capsys.readouterr().err


# Pieces of argv, valid and not, for the differential against argparse. None
# is `--`: there argparse 3.11 has quirks of its own. It reads `--spec -- x`
# as the spec x, and reports a trailing `--` after the program as
# unrecognized; test_double_dash_* pin what `--` does here instead.
ARGV_PIECES = [
    ("p.up",), ("q.up",), ("",), ("-",), ("-5",), ("a b",), ("-x y",),
    ("--spec", "s.spec"), ("--spec=t.spec",), ("--spec=",), ("--spec",),
    ("--spec", "-s"), ("--spec", "-1.5"),
    ("--mode", "concrete"), ("--mode=abstract",), ("--mode", "abs"),
    ("--mode=",), ("--mode",),
    ("--widening",), ("--widening=x",), ("--widening=",), ("--widen",),
    ("--max-iters", "5"), ("--max-iters=-3",), ("--max-iters", "-3"),
    ("--max-iters", "x"), ("--max-iters", " 7 "), ("--max-iters", "1_0"),
    ("--max-iters", "2.5"), ("--max-iters", "-x"), ("--max-it", "5"),
    ("--minint", "-64"), ("--minint=-64",), ("--minint", "-0x10"),
    ("--minint", "-\u0663"), ("--minint", "-\u00b2"),
    ("--maxint", "63"), ("--maxint", "-.5"), ("--maxint", "-5\n"),
    ("--maxint", "-5."), ("--maxint", "-\u00b2.5"),
    ("--format", "machine"), ("--format=text",), ("--format", "json"),
    ("--form", "machine"), ("--trace",), ("--trace=1",),
    ("--out", "r.txt"), ("--out=-",), ("--out", "-"), ("--out", "-o"),
    ("--bogus",), ("--bogus=1",), ("--bogus=a b",), ("-x",), ("--widen-all",),
]
HELP_PIECES = [("-h",), ("--help",), ("-hh",), ("-hx",), ("-h=x",), ("-h=",),
               ("-h=h",), ("--help=x",), ("-h x",)]


def random_argv(rng: random.Random) -> list[str]:
    pieces = rng.sample(ARGV_PIECES, rng.randint(0, 5))
    pieces += [piece for piece, chance in ((("p.up",), 0.8),
                                           (("--spec", "s.spec"), 0.8),
                                           (rng.choice(HELP_PIECES), 0.08))
               if rng.random() < chance]
    rng.shuffle(pieces)
    return [item for piece in pieces for item in piece]


def parse_outcome(parse, argv: list[str]):
    """(parsed values or None, exit code or None, last line of stderr)"""
    out, err = io.StringIO(), io.StringIO()
    values, code = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            values = parse(argv)
    except SystemExit as exc:
        code = exc.code
    lines = err.getvalue().splitlines()
    return values, code, lines[-1] if lines else ""


# argparse's own behaviour changed after 3.12.1: 3.13 words an invalid choice
# without quotes and reads "-h x" as -h. The differential runs where the
# reference behaves as the argparse the parser was written to match.
ARGPARSE_AS_WRITTEN = all(
    parse_outcome(reference_parser().parse_args, argv)[2].endswith(tail)
    for argv, tail in (
        (["p", "--spec", "s", "--mode", "x"],
         "(choose from 'concrete', 'abstract')"),
        (["p", "--spec", "s", "-h x"], "ignored explicit argument ' x'")))


@pytest.mark.skipif(not ARGPARSE_AS_WRITTEN,
                    reason="this Python's argparse words some errors anew")
def test_flag_parser_matches_argparse():
    reference = reference_parser()

    def reference_parse(argv):
        parsed = vars(reference.parse_args(argv))
        return {name if name == "program" else "--" + name.replace("_", "-"):
                value for name, value in parsed.items()}

    rng = random.Random(1201)
    mismatches, errors, outcomes = [], set(), set()
    for _ in range(10_000):
        argv = random_argv(rng)
        ours = parse_outcome(_parse_args, argv)
        if ours != parse_outcome(reference_parse, argv):
            mismatches.append(argv)
        outcomes.add(ours[1])
        errors.add(ours[2].partition(": error: ")[2].partition(":")[0])
    assert mismatches[:5] == []
    # the pieces reach every outcome and every kind of usage error
    assert outcomes == {None, 0, 1}
    assert errors >= {"", "unrecognized arguments",
                      "the following arguments are required",
                      "argument --mode", "argument --max-iters",
                      "argument --spec", "argument --widening",
                      "argument -h/--help"}


def test_double_dash_program_starting_with_dash(tmp_path, capsys,
                                                monkeypatch):
    (tmp_path / "-fig1.up").write_text((CORPUS / "fig1.up").read_text())
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "--spec", SPEC4, "--", "-fig1.up")
    assert code == 0
    expected = run(capsys, FIG1, "--spec", SPEC4)[1]
    assert out == expected.replace("program: fig1", "program: -fig1")


@pytest.mark.parametrize("argv, message", [
    ([FIG1, "--spec", SPEC4, "--", "extra", "--trace"],
     "unrecognized arguments: extra --trace"),
    (["--spec", SPEC4, "--", "--", "--trace"],
     "unrecognized arguments: --trace"),
    (["--", FIG1, "--spec", SPEC4],
     "the following arguments are required: --spec"),
], ids=["after-program", "second-dashes-is-program", "flags-after-dashes"])
def test_double_dash_makes_the_rest_positional(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert capsys.readouterr().err.endswith(f"\nprobrange: error: {message}\n")


def test_help_lists_every_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main([FIG1, "--bogus", "--help"])  # unrecognized is reported last
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    for flag in (*_FLAGS, "-h", "--help", "program"):
        assert flag in out


def test_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["probrange", FIG1, "--spec", SPEC4])
    assert main() == 0
    assert capsys.readouterr().out == run(capsys, FIG1, "--spec", SPEC4)[1]


def test_text_table_without_variables_is_header_and_rule():
    # no rows, so the line column keeps its title's width although the
    # program's nodes sit on line 12345
    spec = HardwareSpec.uniform(0.9999)
    cfg, result = analyze("\n" * 12344 + "if (1 <. 2) { } else { }\n", spec)
    report = cli.build_report("novars", "abstract", False, spec, cfg, result,
                              result.warnings)
    lines = render_text(report).split("\n\n")[1].splitlines()
    assert len(lines) == 2
    assert lines[0].split(" | ") == ["line", "variable", "value",
                                     "probability"]
    assert lines[1] == "-----+----------+-------+------------"


def test_console_script_runs(tmp_path, capsys):
    proc = subprocess.run(
        launcher() + [FIG1, "--spec", SPEC4],
        capture_output=True, cwd=tmp_path, env=child_env())
    assert proc.returncode == 0, proc.stderr.decode()
    assert b"[0,9]" in proc.stdout
    _, in_process, _ = run(capsys, FIG1, "--spec", SPEC4)
    assert proc.stdout == in_process.encode()


def test_import_leaves_out_start_up_heavy_modules(tmp_path):
    # start-up is most of a CLI run on a small program: dataclasses pulls in
    # inspect, ast and dis, annotations need no typing, flags need no
    # argparse (nor its gettext), and files need no pathlib; -S keeps site's
    # own imports out of the picture
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys; before = set(sys.modules); import probrange.cli; "
         "print(*[m for m in ('argparse', 'dataclasses', 'gettext', "
         "'inspect', 'json', 'pathlib', 'typing') "
         "if m in sys.modules and m not in before])"],
        capture_output=True, text=True, cwd=tmp_path, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_machine_report_needs_no_json(tmp_path):
    out = tmp_path / "report"
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys; from probrange.cli import main; "
         f"main([{FIG1!r}, '--spec', {SPEC4!r}, '--format', 'machine', "
         f"'--trace', '--out', {str(out)!r}]); print('json' in sys.modules)"],
        capture_output=True, text=True, cwd=tmp_path, env=child_env())
    assert proc.stdout == "False\n", proc.stderr
    assert json.loads(out.read_text())["program"] == "fig1"


@pytest.mark.parametrize("path", ["a.b.up", ".hidden", "dir/x.up", "x",
                                  "dir.d/x", "a..up"])
def test_stem_is_pathlibs(path):
    assert _stem(path) == pathlib.PurePath(path).stem


# text with every kind of character json escapes, and plain ones
_TEXT = st.text(st.one_of(
    st.characters(exclude_categories=()),  # surrogates included
    st.sampled_from('"\\\x00\x08\x0c\n\r\t\x1f\x7f\x80\xe9\u2028\ud800\udcff'
                    "\U0001f600 ~a")))
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(0, 1),
              _TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=12)


@given(_JSON_VALUES)
def test_json_encoder_matches_json_dumps(value):
    assert render_machine(value) == json.dumps(value,
                                               separators=(",", ":")) + "\n"


def test_machine_rendering_peaks_under_twice_its_output():
    # the pieces go to one list, joined once: no row or enclosing list is
    # copied into a string of its own first (3.7 times the output before)
    spec = HardwareSpec.uniform(0.9999, minint=-64, maxint=63)
    source = (Path(__file__).parent / "golden" / "loops2.up").read_text()
    cfg, result = analyze(source, spec, domain="concrete", max_iters=2000)
    report = cli.build_report("loops2", "concrete", False, spec, cfg, result,
                              result.warnings)
    tracemalloc.start()
    try:
        rendered = render_machine(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(rendered)


@pytest.mark.parametrize("trace, bound", [(False, 2.8), (True, 2.4)],
                         ids=["plain", "trace"])
def test_text_rendering_peaks_under_bound_times_its_output(trace, bound):
    # a row is three shared pieces, its node's line, its variable and its
    # element's cell, in one list joined once: no tuple and no string per
    # row (5.19 and 3.51 times the output before, 2.1 to 2.35 and 1.92 to
    # 1.96 after, on CPython 3.10 to 3.13)
    spec = HardwareSpec.uniform(0.9999)
    source = (Path(__file__).parent / "golden" / "loops4.up").read_text()
    cfg = build_cfg(parse_program(source))
    widening = collect_thresholds(cfg, spec.minint, spec.maxint)
    result = solve(build_equations(cfg), spec, widening=widening,
                   keep_trace=trace)
    report = cli.build_report("loops4", "abstract", True, spec, cfg, result,
                              result.warnings)
    tracemalloc.start()
    try:
        rendered = render_text(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * len(rendered)


@pytest.mark.parametrize("trace, bound", [(False, 1.4), (True, 1.28)],
                         ids=["plain", "trace"])
def test_machine_rendering_keeps_each_set_text_once(trace, bound):
    # a set's text is one piece that every row printing the set shares,
    # not a copy inside each memoised row tail (1.57 and 1.32 times the
    # output before)
    spec = HardwareSpec.uniform(0.9999, minint=-64, maxint=63)
    source = (Path(__file__).parent / "golden" / "loops2.up").read_text()
    cfg, result = analyze(source, spec, domain="concrete", max_iters=2000,
                          keep_trace=trace)
    report = cli.build_report("loops2", "concrete", False, spec, cfg, result,
                              result.warnings)
    tracemalloc.start()
    try:
        rendered = render_machine(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * len(rendered)


def test_machine_report_escapes_the_program_name_as_json_does(tmp_path):
    # a bare statement list takes its name from the file's stem; the
    # undecodable byte reaches it as a lone surrogate
    stem = os.fsdecode(b'q"\\\x01\t\x7f\xc3\xa9\xf0\x9f\x98\x80\xff')
    program = tmp_path / (stem + ".up")
    program.write_text("x =. 1;\n")
    out = tmp_path / "report"
    assert main([str(program), "--spec", SPEC4, "--format", "machine",
                 "--out", str(out)]) == 0
    rendered = out.read_text()
    report = json.loads(rendered)
    assert report["program"] == stem
    assert rendered == json.dumps(report, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("program, flags", [
    ("loops4.up", ("--widening", "--max-iters", "1000")),
    ("loops2.up", ("--mode", "concrete", "--minint", "-64", "--maxint", "63",
                   "--max-iters", "2000", "--format", "machine")),
], ids=["loops4-abstract", "loops2-concrete"])
def test_a_run_leaves_no_cyclic_garbage(tmp_path, program, flags):
    # nothing a run builds refers to itself, so reference counting frees it
    # all and the cyclic collector finds nothing
    argv = [str(Path(__file__).parent / "golden" / program), "--spec", SPEC4,
            *flags, "--out", str(tmp_path / "report")]
    main(argv)
    gc.collect()
    gc.disable()
    try:
        main(argv)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_only_main_freezes_the_heap(tmp_path):
    # importing the package and solving leave the collector alone
    proc = subprocess.run(
        [sys.executable, "-c",
         "import gc; import probrange.cli; from probrange import "
         "HardwareSpec, build_cfg, build_equations, parse_program, solve; "
         "solve(build_equations(build_cfg(parse_program('x =. 1;'))), "
         "HardwareSpec.uniform(0.9)); before = gc.get_freeze_count(); "
         f"code = probrange.cli.main([{FIG1!r}, '--spec', {SPEC4!r}, "
         f"'--out', {os.devnull!r}]); "
         "print(before, gc.get_freeze_count() > 0, code)"],
        capture_output=True, text=True, cwd=tmp_path, env=child_env())
    assert proc.stdout.split() == ["0", "True", "0"], proc.stderr


def test_a_later_main_call_freezes_nothing(tmp_path):
    argv = [FIG1, "--spec", SPEC4, "--out", str(tmp_path / "report")]
    main(argv)
    frozen = gc.get_freeze_count()
    assert frozen > 0
    tracked = [[] for _ in range(1000)]  # live objects a freeze would pin
    main(argv)
    assert gc.get_freeze_count() <= frozen, len(tracked)


def test_reports_are_whole_when_the_process_exits(tmp_path, capsys):
    # stdout is a pipe, block-buffered, so the report's tail is written by
    # the flush at shutdown, after main returned on a frozen heap
    argv = [COLLATZ, "--spec", SPEC4, "--mode", "concrete", "--trace",
            "--format", "machine"]
    out = tmp_path / "report"
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    piped, written = (subprocess.run(
        [sys.executable, "-m", "probrange", *argv, *extra],
        capture_output=True, cwd=tmp_path, env=env)
        for extra in ((), ("--out", str(out))))
    code, in_process, _ = run(capsys, *argv)
    assert piped.returncode == written.returncode == code, piped.stderr
    assert piped.stdout == in_process.encode()
    assert out.read_text() == in_process


@pytest.mark.parametrize("program, spec, expected", [
    (FIG1, SPEC4, 0),
    (COUNTER, SPEC4, 2),
    (COUNTER, str(CORPUS / "no-such.spec"), 1),
], ids=["converged", "budget-ran-out", "missing-spec"])
def test_module_entry_point_exit_codes(tmp_path, program, spec, expected):
    # both module forms are the same command; stderr is not compared, as
    # runpy may warn that probrange.cli was imported before it ran
    outputs = []
    for module in ("probrange", "probrange.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, program, "--spec", spec],
            capture_output=True, text=True, cwd=tmp_path, env=child_env())
        assert proc.returncode == expected, (module, proc.stderr)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_big_value_sets_elided(capsys):
    code, out, _ = run(capsys, FIG1, "--spec", SPEC4, "--mode", "concrete")
    assert code == 0
    assert "(65536 values)" in out


# --- reports written straight from the solve's two lists ---

UNREACHABLE_THEN = "x =. 0;\nif (x >. 5) {\n  y =. 1;\n}\n"
REPORT_MODES = {"abstract": (), "widening": ("--widening",),
                "concrete": ("--mode", "concrete")}


@pytest.mark.parametrize("mode", sorted(REPORT_MODES))
def test_reports_match_the_reference_renderer(tmp_path, monkeypatch, mode):
    # the reference builds a dict per row from the solve's two lists, as
    # the CLI once did from its flat states; on [-8,8], an unreachable
    # branch and seeded loop-free programs give bottom rows, value sets
    # longer than SET_DISPLAY_LIMIT, warnings, and the same element at many
    # rows
    references = []
    build = cli.build_report
    monkeypatch.setattr(cli, "build_report", lambda *args: references.append(
        reference_report(*args)) or build(*args))
    program, out = tmp_path / "program.up", tmp_path / "report"
    seen = set()
    for seed in range(12):
        program.write_text(UNREACHABLE_THEN if seed == 0 else
                           random_program(random.Random(seed), max_stmts=8))
        for fmt in ("text", "machine"):
            for trace in ((), ("--trace",)):
                code = main([str(program), "--spec", SPEC4, *REPORT_MODES[mode],
                             "--minint", "-8", "--maxint", "8", "--format",
                             fmt, *trace, "--out", str(out)])
                assert code == 0
                (report,) = references
                references.clear()
                expected = (reference_text(report) if fmt == "text" else
                            json.dumps(report, separators=(",", ":")) + "\n")
                assert out.read_text() == expected, (seed, fmt, trace)
                rows = report["results"]
                cells = [(repr(row.get("interval", row.get("values"))),
                          row["probability"]) for row in rows]
                seen.update(name for name, hit in (
                    ("warning", report["warnings"]),
                    ("trace", report.get("trace")),
                    ("bottom", {("None", 1.0), ("[]", 1.0)} & set(cells)),
                    ("long set", any(len(row.get("values", ()))
                                     > SET_DISPLAY_LIMIT for row in rows)),
                    ("repeated", len(set(cells)) < len(cells))) if hit)
    assert seen == {"warning", "trace", "bottom", "repeated"} | (
        {"long set"} if mode == "concrete" else set())
