"""Byte-for-byte differential of the CLI between a base revision and this tree.

    python3 tools/differential.py --base REV
    python3 tools/differential.py --base REV --values-only

Extracts `src/` at REV with `git archive` into a temporary directory (no
worktree, nothing fetched), then runs every case through both trees with
`python -m probrange` and compares stdout, stderr and the exit code. Reports
go to stdout, so `--out` is never used.

The cases are every program in tests/corpus and tests/golden, in abstract
mode without and with --widening and in concrete mode (at the default range
for the corpus, whose goldens use it, and at [-64,63] and [-8,8] for every
program; arithmetic overflows often on [-8,8], so warning order is compared
there), in text and machine format, each once plain and once with --trace
--max-iters 3, all under tests/corpus/uniform-1e4.spec; every program again
in each of those modes under tests/corpus/mixed.spec, which gives each
charged op its own probability, so that an op charged in place of another
shows, in text format, plain and with the trace; seeded programs of the
benchmark's loop family: two of four
loops under --widening and two of two loops in concrete mode on [-64,63];
and 22 programs the CLI rejects with exit code 1 (misshapen assignments and
guards, a guard missing a parenthesis, compound guards, an unexpected
character, a literal outside the machine range, and nesting too deep to
parse or to solve), each once in text format.

The last line is the summary, `differential: N cases, D differ (base REV)`;
each differing case is listed above it. The exit code is 0 when no case
differs and 1 otherwise.

With --values-only, the probability printed in each result and trace row is
set aside before the outputs are compared, so a case differs only when
something else does: a value column, a warning, the exit code. Every
changed probability is listed, `changed: CASE: ROW: BASE -> HEAD`, a row
being its line and variable (and iteration, in a trace), and the summary
counts them: `differential: N cases, D differ, P probabilities changed
(values only, base REV)`. The exit code is 1 only when some case differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "corpus"
GOLDEN = ROOT / "tests" / "golden"
SPEC = ("--spec", str(CORPUS / "uniform-1e4.spec"))
MIXED = ("--spec", str(CORPUS / "mixed.spec"))
SMALL = ("--minint", "-64", "--maxint", "63")
TINY = ("--minint", "-8", "--maxint", "8")
TRACE = ("--trace", "--max-iters", "3")
FORMATS = ((), ("--format", "machine"))
LOOP_SEEDS = (11, 12)  # progen seeds of the generated programs
CHILD_TIMEOUT_S = 120
WORKERS = min(4, os.cpu_count() or 1)

Case = tuple[str, tuple[str, ...]]  # a label, and the CLI's arguments

# each rejected by the parser, the lexer, the literal check or the solver
REJECTED = (
    ("assign-cmp", "x =. a <. b;"),
    ("assign-cmp-operand", "x =. (a <. b) +. 1;"),
    ("assign-chained", "x =. (a <. b) +. 1 =. 2;"),
    ("assign-no-semicolon", "x =. (a <. b) +. 1"),
    ("assign-no-operand", "x =. (a <. b) +. ;"),
    ("cond-bare", "if (x)"),
    ("cond-chain", "if (x <. 3 <. 4)"),
    ("cond-cmp-lhs", "if ((x <. 3) ==. 1)"),
    ("cond-cmp-rhs", "if (x <. (y <. 3))"),
    ("cond-assign", "while ((x <. 3) =. 1)"),
    ("cond-cmp-operand", "if (x +. (y ==. 1) >. 0)"),
    ("cond-no-open", "while x <. 1 { x =. 1; }"),
    ("cond-unclosed", "if (x <. 1 { x =. 1; }"),
    ("body-assign-cmp", "if ((x <. 3)) { y =. (x <. 1); }"),
    ("guard-and", "x =. 0;\nwhile (x <. 1 &&. x >. 0) {\n  x =. 1;\n}"),
    ("guard-or", "x =. 0;\nwhile (x <. 1 ||. x >. 0) {\n  x =. 1;\n}"),
    ("guard-not", "x =. 0;\nwhile (!. (x ==. 0)) {\n  x =. 1;\n}"),
    ("character", "x =. 1 $ 2;"),
    ("literal-range", "x =. 40000;"),
    # tests/helpers.nested_program's parens 200, chain 1000 and ifs 600
    ("parens-200", "x =. " + "(" * 200 + "1" + ")" * 200 + ";"),
    ("chain-1000", "x =. 0;\ny =. x" + " +. 1" * 1000 + ";"),
    ("ifs-600", "x =. 0;\n" + "if (x ==. 0) {\n" * 600 + "x =. 1;\n"
     + "}\n" * 600),
)


def cases(work: Path) -> list[Case]:
    """The full matrix; generated programs are written under work."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import progen

    out: list[Case] = []
    corpus = sorted(CORPUS.glob("*.up"))
    for program in corpus + sorted(GOLDEN.glob("*.up")):
        modes = [(), ("--widening",), ("--mode", "concrete") + SMALL,
                 ("--mode", "concrete") + TINY]
        if program in corpus:
            modes.append(("--mode", "concrete"))
        for mode in modes:
            for spec, formats, tag in ((SPEC, FORMATS, ""),
                                       (MIXED, ((),), " mixed.spec")):
                for fmt in formats:
                    for variant in ((), TRACE):
                        args = (str(program), *spec, *mode, *fmt, *variant)
                        out.append((f"{program.name}{tag} "
                                    f"{' '.join(args[3:])}", args))
    for seed in LOOP_SEEDS:
        for trips, mode in (((2, 3, 4, 5), ("--widening", "--max-iters",
                                            "1000")),
                            ((2, 4), ("--mode", "concrete", *SMALL,
                                      "--max-iters", "2000"))):
            lo, hi = (-64, 63) if "concrete" in mode else (-32768, 32767)
            program = work / f"loops{len(trips)}-{seed}.up"
            program.write_text(progen.generate(seed, trips, lo, hi).source)
            for fmt in FORMATS:
                args = (str(program), *SPEC, *mode, *fmt)
                out.append((f"{program.name} {' '.join(args[3:])}", args))
    for name, source in REJECTED:
        program = work / f"rejected-{name}.up"
        program.write_text(source + "\n")
        out.append((program.name, (str(program), *SPEC)))
    return out


def extract(rev: str, into: Path) -> Path:
    """src/ at rev, unpacked under into; returns the unpacked src/."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into / "src"


def run(src: Path, args: tuple[str, ...]) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of one CLI run against src."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(src), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-m", "probrange", *args],
                          capture_output=True, env=env, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def compare(base: Path, head: Path, todo: list[Case]) -> list[str]:
    """The labels of the cases whose exit code, stdout or stderr differ."""
    def differs(case: Case) -> bool:
        return run(base, case[1]) != run(head, case[1])

    with ThreadPoolExecutor(WORKERS) as pool:
        verdicts = list(pool.map(differs, todo))
    return [label for (label, _), bad in zip(todo, verdicts) if bad]


def split_probabilities(report: bytes) -> tuple[bytes, list]:
    """A report with each row's probability blanked, and the probabilities
    as (row, probability text) in report order. A row is its line and
    variable, after its iteration in a trace; a report that is neither
    format, such as an error's empty output, has no rows."""
    text = report.decode(errors="replace")
    if text.startswith("{"):
        data = json.loads(text)
        sections = [("", data["results"])] + [
            (f"iteration {entry['iteration']} ", entry["rows"])
            for entry in data.get("trace", ())]
        found = [(f"{where}line {row['line']} {row['variable']}",
                  repr(row.pop("probability")))
                 for where, rows in sections for row in rows]
        return json.dumps(data).encode(), found
    lines, found, where, table = text.split("\n"), [], "", False
    for i, line in enumerate(lines):
        if line and not line.strip("-+"):  # the rule under the header
            table = True
            continue
        table = table and bool(line)  # a blank line ends the table
        if line.startswith("  iteration "):
            where = line.strip().rstrip(":") + " "
        if table:
            head, sep, prob = line.rpartition(" | ")
            number, var = head.split(" | ")[:2]
        elif line.startswith("    line ") and " p=" in line:
            head, sep, prob = line.rpartition(" p=")
            number, var = head[len("    line "):].split(" = ")[0].split(": ")
        else:
            continue
        found.append((f"{where}line {number.strip()} {var.strip()}", prob))
        lines[i] = head + sep
    return "\n".join(lines).encode(), found


def compare_values(base: Path, head: Path,
                   todo: list[Case]) -> tuple[list[str], list[str]]:
    """The labels of the cases that differ in anything but probabilities,
    and a line per changed probability of the others."""
    def verdict(case: Case) -> tuple[bool, list[str]]:
        (bcode, bout, berr), (hcode, hout, herr) = (run(base, case[1]),
                                                    run(head, case[1]))
        bmasked, bprobs = split_probabilities(bout)
        hmasked, hprobs = split_probabilities(hout)
        if (bcode, bmasked, berr) != (hcode, hmasked, herr):
            return True, []
        return False, [f"changed: {case[0]}: {row}: {b} -> {h}"
                       for (row, b), (_, h) in zip(bprobs, hprobs) if b != h]

    with ThreadPoolExecutor(WORKERS) as pool:
        verdicts = list(pool.map(verdict, todo))
    return ([label for (label, _), (bad, _) in zip(todo, verdicts) if bad],
            [line for _, changed in verdicts for line in changed])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True,
                        help="git revision whose src/ is the reference")
    parser.add_argument("--values-only", action="store_true",
                        help="compare all but the rows' probabilities, and "
                             "list each changed probability")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="differential-") as tmp:
        work = Path(tmp)
        base = extract(args.base, work)
        todo = cases(work)
        if args.values_only:
            differing, changed = compare_values(base, ROOT / "src", todo)
        else:
            differing, changed = compare(base, ROOT / "src", todo), None
    for label in differing:
        print(f"differs: {label}")
    if changed is None:
        print(f"differential: {len(todo)} cases, {len(differing)} differ "
              f"(base {args.base})")
    else:
        for line in changed:
            print(line)
        print(f"differential: {len(todo)} cases, {len(differing)} differ, "
              f"{len(changed)} probabilities changed (values only, base "
              f"{args.base})")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
