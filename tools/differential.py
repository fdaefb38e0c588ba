"""Byte-for-byte differential of the CLI between a base revision and this tree.

    python3 tools/differential.py --base REV

Extracts `src/` at REV with `git archive` into a temporary directory (no
worktree, nothing fetched), then runs every case through both trees with
`python -m probrange` and compares stdout, stderr and the exit code. Reports
go to stdout, so `--out` is never used.

The cases are every program in tests/corpus and tests/golden, in abstract
mode without and with --widening and in concrete mode (at the default range
for the corpus, whose goldens use it, and at [-64,63] and [-8,8] for every
program; arithmetic overflows often on [-8,8], so warning order is compared
there), in text and machine format, each once plain and once with --trace
--max-iters 3; and seeded programs of the benchmark's loop family: two of four loops under
--widening and two of two loops in concrete mode on [-64,63].

The last line is the summary, `differential: N cases, D differ (base REV)`;
each differing case is listed above it. The exit code is 0 when no case
differs and 1 otherwise.
"""

from __future__ import annotations

import argparse
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
SMALL = ("--minint", "-64", "--maxint", "63")
TINY = ("--minint", "-8", "--maxint", "8")
TRACE = ("--trace", "--max-iters", "3")
FORMATS = ((), ("--format", "machine"))
LOOP_SEEDS = (11, 12)  # progen seeds of the generated programs
CHILD_TIMEOUT_S = 120
WORKERS = min(4, os.cpu_count() or 1)

Case = tuple[str, tuple[str, ...]]  # a label, and the CLI's arguments


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
            for fmt in FORMATS:
                for variant in ((), TRACE):
                    args = (str(program), *SPEC, *mode, *fmt, *variant)
                    out.append((f"{program.name} {' '.join(args[3:])}", args))
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True,
                        help="git revision whose src/ is the reference")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="differential-") as tmp:
        work = Path(tmp)
        base = extract(args.base, work)
        todo = cases(work)
        differing = compare(base, ROOT / "src", todo)
    for label in differing:
        print(f"differs: {label}")
    print(f"differential: {len(todo)} cases, {len(differing)} differ "
          f"(base {args.base})")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
