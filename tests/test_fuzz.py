"""A seeded token-level mutation fuzz of the CLI.

Each mutant is a corpus or golden program with one to three tokens deleted,
inserted, swapped or replaced (by any token, or by another of its class),
run in process through cli.main with a random mode, machine range, format
and --trace. Whatever the mutant, the CLI ends with exit code 0, 1 or 2 and
nothing but SystemExit; a rejected program gets one `probrange:` line; and
a report that converged covers every value the reference interpreter in
perfbench/oracle.py observes.
"""

import random
import sys
from pathlib import Path

from probrange.cli import main
from probrange.syntax import (ARITH_TOKENS, CMP_TOKENS, KEYWORDS, OPERATORS,
                              PUNCT, tokenize)

from helpers import CORPUS

ROOT = Path(__file__).resolve().parents[1]
PROGRAMS = sorted([*CORPUS.glob("*.up"),
                   *(ROOT / "tests" / "golden").glob("*.up")])
NAMES = ("x", "y", "n", "q")
SMALL = ("0", "1", "2", "7", "8")
# every operator, punctuation mark and keyword, some names, and literals at
# the edges of the machine ranges and of 64 bits
POOL = (*OPERATORS, *PUNCT, *sorted(KEYWORDS), *NAMES, *SMALL, "63", "64",
        "32767", "9223372036854775807", "9223372036854775808")
MODES = ((), ("--widening",), ("--mode", "concrete"))
RANGES = ((-8, 7), (-64, 63))


def kin(text: str) -> tuple[str, ...]:
    """The tokens that may stand for text and keep the program well formed
    more often than not: another operator, comparison, name or small
    constant. Such swaps get more mutants to the solver."""
    for members in (tuple(ARITH_TOKENS), tuple(CMP_TOKENS)):
        if text in members:
            return members
    if text.isdigit():
        return SMALL
    return NAMES if text.isidentifier() and text not in KEYWORDS else ()


def mutate(rng: random.Random, texts: list[str], lines: list[int]) -> str:
    """One to three token edits of a program, as source with its line
    breaks: an edit keeps the lines where tokens stand, and an inserted
    token takes the line of the token it goes before."""
    texts, lines = list(texts), list(lines)
    for _ in range(rng.randint(1, 3)):
        edit, i = rng.randrange(5), rng.randrange(len(texts))
        if edit == 0 and len(texts) > 1:
            del texts[i], lines[i]
        elif edit == 1:
            texts.insert(i, rng.choice(POOL))
            lines.insert(i, lines[i])
        elif edit == 2:
            texts[i] = rng.choice(POOL)
        elif edit == 3 or not kin(texts[i]):
            j = rng.randrange(len(texts))
            texts[i], texts[j] = texts[j], texts[i]
        else:
            texts[i] = rng.choice(kin(texts[i]))
    out, at = [], 1
    for text, line in zip(texts, lines):
        out.append("\n" * (line - at) if line > at else " ")
        out.append(text)
        at = max(at, line)
    return "".join(out).lstrip(" ") + "\n"


def test_mutated_programs_exit_cleanly(tmp_path, capsys):
    sys.path.insert(0, str(ROOT / "perfbench"))
    import oracle

    mutant = tmp_path / "mutant.up"
    rng = random.Random(13)
    programs = []
    for path in PROGRAMS:
        tokens = tokenize(path.read_text())[:-1]  # without the end of input
        programs.append(([t.text for t in tokens], [t.line for t in tokens]))
    codes, checked = [], 0
    for _ in range(1000):
        source = mutate(rng, *rng.choice(programs))
        mutant.write_text(source)
        mode, (lo, hi) = rng.choice(MODES), rng.choice(RANGES)
        machine, trace = rng.random() < 0.5, rng.random() < 0.3
        argv = [str(mutant), "--spec", str(CORPUS / "uniform-1e4.spec"),
                "--minint", str(lo), "--maxint", str(hi), *mode,
                *(("--format", "machine") if machine else ()),
                *(("--trace",) if trace else ())]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            raise AssertionError(f"{argv[3:]} on\n{source}") from exc
        out, err = capsys.readouterr()
        codes.append(code)
        assert code in (0, 1, 2), (code, argv[3:], source)
        if code == 1:
            assert (err.startswith("usage: ")
                    or err.startswith("probrange: ") and err.count("\n") == 1
                    and err.endswith("\n")), (err, source)
        if code == 0 and (machine or "concrete" not in mode):
            try:
                program = oracle.parse(source)
            except oracle.OracleError:
                continue
            seen = oracle.observe(program, lo, hi, seed=0, runs=8)
            assert not oracle.misses(oracle.report_rows(out, machine), seen), (
                argv[3:], source)
            checked += 1
    # the seed's 1,000 mutants: 962 rejected, 37 converged (28 of them read
    # against the oracle) and one out of budget
    assert codes.count(1) > 900 and checked > 20
