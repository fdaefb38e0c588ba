"""Byte-exact report gate: the CLI must keep printing the committed reports.

Each case runs `main` on one program with one flag set and compares the
written report, byte for byte, with `tests/golden/<case>.txt`. A refactor of
the engine or the domains must leave every one of them unchanged: values,
probabilities to the last printed digit, warnings and their order, trace
snapshots and the machine format.

A cross-check ties the two formats together: each machine golden, and a
fresh machine report of the loops2 concrete case, must render through
`render_text` to the matching text golden byte for byte, so a machine
report carries exactly the content of its text twin. `render_machine`
writes its rows straight from the solve's flat states, so it is also held
to `json.dumps` of the row dicts that `helpers.reference_report` builds from
the same result, on the machine goldens, concrete traces and generated loop
programs.

After an intended change to the reports, rewrite the expected files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff before committing it.
"""

import json
import os
import random
import sys
from pathlib import Path

import pytest

from probrange import cli
from probrange.cli import main, render_text

from helpers import loop_program, reference_report

HERE = Path(__file__).parent
CORPUS = HERE / "corpus"
GOLDEN = HERE / "golden"
SPEC4 = ("--spec", str(CORPUS / "uniform-1e4.spec"))
SPEC7 = ("--spec", str(CORPUS / "uniform-1e7.spec"))
TRACE = ("--trace", "--max-iters", "3")
MACHINE = ("--format", "machine")

# case name -> (program, flags, exit code)
CASES = {}
for _name in ("collatz", "counter", "factorial", "fig1", "gcd", "reverse"):
    _code = 2 if _name == "counter" else 0
    CASES[_name] = (CORPUS / f"{_name}.up", SPEC4, _code)
    CASES[f"{_name}-widening"] = (CORPUS / f"{_name}.up",
                                  SPEC4 + ("--widening",), 0)
for _name in ("fig1", "collatz"):
    _program = CORPUS / f"{_name}.up"
    CASES[f"{_name}-machine"] = (_program, SPEC4 + MACHINE, 0)
    CASES[f"{_name}-trace"] = (_program, SPEC4 + TRACE, 2)
    CASES[f"{_name}-trace-machine"] = (_program, SPEC4 + TRACE + MACHINE, 2)
    CASES[f"{_name}-concrete"] = (_program, SPEC4 + ("--mode", "concrete"), 0)
CASES["fig1-spec7"] = (CORPUS / "fig1.up", SPEC7, 0)
CASES["fig1-concrete-trace"] = (CORPUS / "fig1.up",
                                SPEC4 + ("--mode", "concrete") + TRACE, 2)
# generated by perfbench/progen.py: four loops under widening, and two loops
# in concrete mode on [-64,63] (overflow warnings included)
CASES["loops4-widening"] = (GOLDEN / "loops4.up",
                            SPEC4 + ("--widening", "--max-iters", "1000"), 0)
CASES["loops2-concrete"] = (GOLDEN / "loops2.up",
                            SPEC4 + ("--mode", "concrete", "--minint", "-64",
                                     "--maxint", "63", "--max-iters", "2000"),
                            0)
WIDEN4 = SPEC4 + ("--widening",)
# the default budget of 20 passes is enough since the solver follows a weak
# topological order; 10 passes are not
CASES["loops4-budget"] = (GOLDEN / "loops4.up", WIDEN4, 0)
CASES["loops4-exhausted"] = (GOLDEN / "loops4.up",
                             WIDEN4 + ("--max-iters", "10"), 2)
CASES["loops4-trace"] = (GOLDEN / "loops4.up",
                         WIDEN4 + ("--trace", "--max-iters", "5"), 2)
# warnings in the order of the first operand tuple that raises each: a
# variable divisor that can be 0, and two overflowing operators of one
# expression whose first offending tuples come in the reverse of their order
CONCRETE8 = SPEC4 + ("--mode", "concrete", "--minint", "-8", "--maxint", "8")
CASES["warnorder-concrete"] = (GOLDEN / "warnorder.up", CONCRETE8, 0)
CASES["warnorder-concrete-machine"] = (GOLDEN / "warnorder.up",
                                       CONCRETE8 + MACHINE, 0)
# an empty loop body: the loop head is its own source through a self-loop edge
CASES["emptyloop"] = (GOLDEN / "emptyloop.up", SPEC4, 0)
CASES["emptyloop-widening"] = (GOLDEN / "emptyloop.up", WIDEN4, 0)


def _report(case: str, out: Path) -> tuple[int, bytes]:
    program, flags, _ = CASES[case]
    code = main([str(program), *flags, "--out", str(out)])
    return code, out.read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, tmp_path):
    code, got = _report(case, tmp_path / "report")
    assert code == CASES[case][2]
    assert got == (GOLDEN / f"{case}.txt").read_bytes()


@pytest.mark.parametrize("text", ["collatz", "collatz-trace", "fig1",
                                  "fig1-trace"])
def test_machine_golden_renders_to_text_golden(text):
    report = json.loads((GOLDEN / f"{text}-machine.txt").read_bytes())
    assert render_text(report).encode() == (GOLDEN / f"{text}.txt").read_bytes()


def test_fresh_machine_report_renders_to_text_golden(tmp_path):
    # the bench's loops-concrete shape, which has no machine golden of its own
    program, flags, code = CASES["loops2-concrete"]
    out = tmp_path / "report"
    assert main([str(program), *flags, *MACHINE, "--out", str(out)]) == code
    report = json.loads(out.read_bytes())
    expected = (GOLDEN / "loops2-concrete.txt").read_bytes()
    assert render_text(report).encode() == expected


# program, flags: reports the machine renderer must write as json.dumps does
RENDER_CASES = {name: CASES[name][:2] for name in (
    "fig1-machine", "collatz-machine", "fig1-trace-machine",
    "collatz-trace-machine", "fig1-concrete-trace", "loops2-concrete")}
RENDER_CASES["loops2-concrete-trace"] = (
    GOLDEN / "loops2.up", CASES["loops2-concrete"][1] + ("--trace",))


def _check_machine_rendering(program, flags, tmp_path, monkeypatch):
    # the report holds the solve's flat states; json.dumps writes the row
    # dicts the reference builder makes from the same build_report call
    references = []
    build = cli.build_report
    monkeypatch.setattr(cli, "build_report", lambda *args: references.append(
        reference_report(*args)) or build(*args))
    out = tmp_path / "report"
    main([str(program), *flags, *MACHINE, "--out", str(out)])
    (report,) = references
    rendered = out.read_text()
    expected = json.dumps(report, separators=(",", ":")) + "\n"
    # compared into a bool: pytest's diff of two megabyte strings would crawl
    same = rendered == expected
    at = len(os.path.commonprefix([rendered, expected]))
    assert same, f"differs at {at}: {rendered[at - 40:at + 40]!r}"
    round_trips = json.loads(rendered) == report
    assert round_trips


@pytest.mark.parametrize("case", sorted(RENDER_CASES))
def test_machine_rendering_matches_json_dumps(case, tmp_path, monkeypatch):
    _check_machine_rendering(*RENDER_CASES[case], tmp_path, monkeypatch)


@pytest.mark.parametrize("seed", range(10))
def test_generated_machine_rendering_matches_json_dumps(seed, tmp_path,
                                                        monkeypatch):
    # the bench's loops-concrete shape: 2 loops, concrete on [-64,63]
    program = tmp_path / "loops.up"
    program.write_text(loop_program(random.Random(seed)))
    _check_machine_rendering(program, CASES["loops2-concrete"][1], tmp_path,
                             monkeypatch)


def test_loops4_converges_within_the_default_budget():
    # the same report as with a budget of 1000
    assert ((GOLDEN / "loops4-budget.txt").read_bytes()
            == (GOLDEN / "loops4-widening.txt").read_bytes())


def test_every_golden_report_has_a_case():
    # a removed case must take its expected report with it
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


if __name__ == "__main__":
    scratch = GOLDEN / ".report"
    try:
        for name in sorted(CASES):
            code, report = _report(name, scratch)
            if code != CASES[name][2]:
                sys.exit(f"{name}: exit {code}, expected {CASES[name][2]}")
            (GOLDEN / f"{name}.txt").write_bytes(report)
    finally:
        scratch.unlink(missing_ok=True)
