"""Benchmark of the probrange CLI: time to a written report, checked reports.

    python3 perfbench/run.py --workload corpus-cli --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from anywhere inside a source checkout; nothing needs installing. With
`--trace 0` the harness starts the CLI as a child process
(`PYTHONPATH=src python -c "...probrange.cli.main()"`), one invocation at a
time, until `--seconds` have passed, and reports the end-to-end metrics. With
`--trace 1` it runs the same invocations in process with wrappers around each
module's calls and reports the per-layer metrics. Every report is checked
against the reference interpreter in `oracle.py`. The last line of output is
one JSON object; `--workload all` instead prints one row per workload with
every metric. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle
import progen
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = ROOT / "tests" / "corpus"
SPEC = CORPUS / "uniform-1e4.spec"
CORPUS_PROGRAMS = ("collatz", "counter", "factorial", "fig1", "gcd", "reverse")

# loops-abstract: 4 loops with trip counts 2..5, 85 CFG nodes; this budget
# lets every program converge
ABSTRACT_TRIPS = (2, 3, 4, 5)
ABSTRACT_ITERS = 1000
# loops-concrete: 2 loops on the machine range [-64, 63], 43 CFG nodes
CONCRETE_TRIPS = (2, 4)
CONCRETE_RANGE = (-64, 63)
CONCRETE_ITERS = 2000

SETUP_WARMUP = 2
# generated programs per batch; set-up is sampled once per batch
LOOPS_BATCH = 4
CHILD_TIMEOUT_S = 60

# The child writes its own peak RSS (VmHWM) to argv[1] on the way out: the
# rusage of a spawned child also counts the parent's resident set, which the
# child's memory map inherits until exec.
CLI_STUB = """
import sys
from probrange.cli import main
try:
    code = main(sys.argv[2:])
finally:
    with open("/proc/self/status") as status:
        hwm = next(l for l in status if l.startswith("VmHWM:"))
    with open(sys.argv[1], "w") as out:
        out.write(hwm.split()[1])
sys.exit(code)
"""
# The reference job: the benchmark's own interpreter (no probrange code) on a
# fixed program. It runs before the first invocation and after every one, and
# each invocation's wall time is divided by the median of the REF_WINDOW
# reference times on each side of it. The host's speed drifts by more than
# the bounds allow; in the ratio it cancels out.
REF_STUB = """
import sys
sys.path.insert(0, sys.argv[1])
import oracle, progen
program = oracle.parse(progen.generate(0, (2, 3, 4, 5, 6, 7, 8, 9),
                                       -32768, 32767).source)
oracle.observe(program, -32768, 32767, seed=0)
"""
REF_WINDOW = 4
SETUP_STUB = ("import sys; from probrange.cli import main; "
              "from probrange.hardware import parse_spec; "
              "parse_spec(open(sys.argv[1]).read())")

WORKLOADS = ("corpus-cli", "loops-abstract", "loops-concrete")

END_TO_END = {
    "wall_rel_p50": "ref", "setup_s": "s", "peak_rss_mb": "MB",
    "converged_share": "share", "sound_share": "share",
    "mean_log2_width": "bits", "mean_prob_bound": "probability",
}


@dataclass
class Invocation:
    label: str
    program: Path
    flags: tuple[str, ...]
    machine: bool
    minint: int
    maxint: int
    oracle_seed: int
    nodes: int | None = None
    edges: int | None = None
    _seen: dict | None = field(default=None, repr=False)

    def observations(self) -> dict[tuple[int, str], set[int]]:
        """What the reference interpreter sees, computed on first use."""
        if self._seen is None:
            program = oracle.parse(self.program.read_text())
            self._seen = oracle.observe(program, self.minint, self.maxint,
                                        self.oracle_seed)
        return self._seen


def spec_range(path: Path) -> tuple[int, int]:
    text = path.read_text()
    bounds = dict(re.findall(r"^\s*(minint|maxint)\s*=\s*(-?\d+)", text, re.M))
    return int(bounds["minint"]), int(bounds["maxint"])


def batches(workload: str, seed: int, work: Path):
    """Endless stream of invocation batches; a run measures whole batches."""
    rng = random.Random(seed)
    if workload == "corpus-cli":
        lo, hi = spec_range(SPEC)
        round_ = [Invocation(f"{name}{'+widening' if widen else ''}",
                             CORPUS / f"{name}.up",
                             ("--spec", str(SPEC)) + (("--widening",) if widen else ()),
                             False, lo, hi, seed)
                  for name in CORPUS_PROGRAMS for widen in (False, True)]
        while True:
            rng.shuffle(round_)
            yield list(round_)
    if workload == "loops-abstract":
        lo, hi = spec_range(SPEC)
        trips = ABSTRACT_TRIPS
        flags = ("--spec", str(SPEC), "--widening",
                 "--max-iters", str(ABSTRACT_ITERS))
        machine = False
    else:
        lo, hi = CONCRETE_RANGE
        trips = CONCRETE_TRIPS
        flags = ("--spec", str(SPEC), "--mode", "concrete",
                 "--minint", str(lo), "--maxint", str(hi),
                 "--format", "machine", "--max-iters", str(CONCRETE_ITERS))
        machine = True
    while True:
        batch = []
        for _ in range(LOOPS_BATCH):
            sub = rng.getrandbits(32)
            gen = progen.generate(sub, trips, lo, hi)
            path = work / f"loops-{sub}.up"
            path.write_text(gen.source)
            batch.append(Invocation(path.stem, path, flags, machine, lo, hi,
                                    sub, gen.nodes, gen.edges))
        yield batch


def child_env() -> dict[str, str]:
    """The caller's environment without its PYTHON* settings.

    Children cache bytecode under src/ as an installed package would, and
    use a fixed hash seed, whatever the caller's environment says.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], stderr_path: Path) -> tuple[float, int]:
    """Run one child to completion: wall seconds and exit code."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        # a blocking wait, since Popen.wait(timeout) polls in steps of up to
        # 50 ms; the timer only ends a child that hangs
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        return time.perf_counter() - start, code


@dataclass
class Outcome:
    code: int
    problem: str | None = None
    width: float = math.nan
    prob: float = math.nan

    @property
    def failed(self) -> bool:
        return self.problem is not None

    @property
    def wrong(self) -> bool:
        # a miss in a report flagged as not converged is counted as failed but
        # is the documented out-of-budget defect, not a broken run
        return self.failed and not (self.code == 2 and
                                    self.problem.startswith("unsound"))


def check(inv: Invocation, code: int, out: Path, stderr: str = "") -> Outcome:
    """Judge one invocation by its exit code and its report against the oracle."""
    if code not in (0, 2):
        tail = stderr.strip().splitlines()[-1:] or [""]
        return Outcome(code, f"exit {code}: {tail[0][:200]}")
    try:
        rows = oracle.report_rows(out.read_text(), inv.machine)
    except (OSError, ValueError, StopIteration, KeyError) as exc:
        return Outcome(code, f"unreadable report: {exc!r}")
    width, prob = oracle.precision(rows)
    missed = oracle.misses(rows, inv.observations())
    problem = f"unsound: {missed[0]}" if missed else None
    return Outcome(code, problem, width, prob)


def peak_rss_mb(path: Path) -> float:
    try:
        return int(path.read_text()) / 1024
    except (OSError, ValueError):
        return math.nan


def context(work: Path) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor() or "unknown"
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit(),
        "calibration_s": statistics.median(_spin() for _ in range(5)),
        "bare_python_s": statistics.median(
            spawn([sys.executable, "-c", "pass"], work / "child.err")[0]
            for _ in range(5)),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "probrange").glob("*.py"))),
    }


def _spin() -> float:
    """Time of a fixed pure-Python loop: how fast this host runs right now."""
    start = time.perf_counter()
    x = 0
    for i in range(200_000):
        x += i * i % 7
    return time.perf_counter() - start


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_untraced(workload: str, seed: int, seconds: float, work: Path) -> dict:
    # set-up is sampled after each batch, once warm-up runs filled the caches
    setup_argv = [sys.executable, "-c", SETUP_STUB, str(SPEC)]
    ref_argv = [sys.executable, "-c", REF_STUB, str(HERE)]

    def reference() -> float:
        wall, code = spawn(ref_argv, work / "child.err")
        if code:
            raise RuntimeError(f"the reference job exited with {code}")
        return wall

    for _ in range(SETUP_WARMUP):
        spawn(setup_argv, work / "child.err")
        reference()
    setup, refs = [], [reference()]
    walls, rss, outcomes, programs = [], [], [], {}
    out, err, hwm = work / "report.out", work / "cli.err", work / "rss.kb"
    deadline = time.perf_counter() + seconds
    for batch in batches(workload, seed, work):
        for inv in batch:
            for stale in (out, hwm):
                stale.unlink(missing_ok=True)
            wall, code = spawn([sys.executable, "-c", CLI_STUB, str(hwm),
                                str(inv.program), *inv.flags, "--out", str(out)],
                               err)
            refs.append(reference())
            walls.append(wall)
            rss.append(peak_rss_mb(hwm))
            outcomes.append(check(inv, code, out, err.read_text()))
            if inv.nodes is not None:
                programs[inv.label] = {"nodes": inv.nodes, "edges": inv.edges}
        setup.append(spawn(setup_argv, work / "child.err")[0])
        if time.perf_counter() >= deadline:
            break
    n = len(outcomes)
    # invocation i ran between refs[i] and refs[i + 1]
    rel = [wall / statistics.median(refs[max(0, i - REF_WINDOW + 1):
                                         i + REF_WINDOW + 1])
           for i, wall in enumerate(walls)]
    metrics = {
        "wall_rel_p50": statistics.median(rel),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": _median(rss),
        "converged_share": sum(o.code == 0 for o in outcomes) / n,
        "sound_share": 1 - sum(o.failed for o in outcomes) / n,
        "mean_log2_width": _mean(o.width for o in outcomes),
        "mean_prob_bound": _mean(o.prob for o in outcomes),
    }
    detail = {
        "samples": n,
        "setup_samples": len(setup),
        "wall_s_p50": statistics.median(walls),
        "ref_s_p50": statistics.median(refs),
        # the highest percentile with at least ten samples beyond it
        "wall_s_p90": (statistics.quantiles(walls, n=10)[8]
                       if n >= 100 else None),
        "failed_share": sum(o.failed for o in outcomes) / n,
        "problems": sorted({o.problem for o in outcomes if o.failed}),
        "programs": programs,
    }
    return {"metrics": metrics, "units": END_TO_END, "detail": detail,
            "attempted": n, "failed": sum(o.failed for o in outcomes),
            "correct": not any(o.wrong for o in outcomes)}


def _median(values) -> float:
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def _mean(values) -> float:
    values = [v for v in values if not math.isnan(v)]
    return statistics.fmean(values) if values else math.nan


PER_LAYER = {
    "hardware.parse_spec_s": "s", "syntax.tokenize_s": "s",
    "syntax.parse_s": "s", "syntax.tokens": "count",
    "cfg.build_s": "s", "cfg.nodes": "count", "cfg.edges": "count",
    "cfg.loop_heads": "count", "cfg.thresholds_s": "s",
    "cfg.thresholds": "count", "engine.equations_s": "s",
    "engine.solve_s": "s", "engine.passes": "count",
    "engine.solve_self_s": "s", "engine.transfers_per_edge_pass": "ratio",
    "abstract.transfers": "count", "abstract.transfer_s": "s",
    "abstract.joins": "count", "abstract.join_s": "s",
    "abstract.widenings": "count", "abstract.widen_s": "s",
    "abstract.leq_checks": "count",
    "concrete.transfers": "count", "concrete.transfer_s": "s",
    "concrete.joins": "count", "concrete.join_s": "s",
    "cli.report_s": "s", "cli.render_s": "s", "cli.report_bytes": "bytes",
    "cli.main_s": "s", "trace.solve_untraced_s": "s", "trace.overhead_s": "s",
}

# shares of wall_s_p50 shown in the `all` table
DERIVED = {"startup_share": "share", "solve_share": "share"}


def _install(tracer: Tracer, probrange) -> None:
    cli, syntax, cfg = probrange.cli, probrange.syntax, probrange.cfg

    def tokens(c, result, args):
        c["tokens"] += len(result)

    def graph(c, result, args):
        c["nodes"] += result.node_count
        c["edges"] += len(result.edges)
        heads = getattr(cfg, "loop_heads", None)
        if heads is not None:
            c["loop_heads"] += len(heads(result))

    def thresholds(c, result, args):
        c["thresholds"] += len(result)

    def solved(c, result, args):
        c["passes"] += result.iterations
        executed = result.iterations + (1 if result.converged else 0)
        c["edge_passes"] += len(args[0].cfg.edges) * executed

    def rendered(c, result, args):
        c["report_bytes"] += len(result.encode())

    tracer.wrap(cli, "parse_spec", "hardware.parse_spec")
    tracer.wrap(syntax, "tokenize", "syntax.tokenize", tokens)
    tracer.wrap(cli, "parse_program", "syntax.parse")
    tracer.wrap(cli, "build_cfg", "cfg.build", graph)
    tracer.wrap(cli, "collect_thresholds", "cfg.thresholds", thresholds)
    tracer.wrap(cli, "build_equations", "engine.equations")
    tracer.wrap(cli, "solve", "engine.solve", solved)
    for name in ("abstract", "concrete"):
        module = getattr(probrange, name)
        tracer.wrap(module, "sp_assign", f"{name}.transfer")
        tracer.wrap(module, "sp_guard", f"{name}.transfer")
        tracer.wrap(module, "join_states", f"{name}.join")
        tracer.wrap(module, "leq_states", f"{name}.leq")
    tracer.wrap(probrange.abstract, "widen_states", "abstract.widen")
    tracer.wrap(cli, "build_report", "cli.report")
    tracer.wrap(cli, "render_text", "cli.render", rendered)
    tracer.wrap(cli, "render_machine", "cli.render", rendered)


# the per-layer metrics computed from each span
_SPAN_METRICS = {
    "hardware.parse_spec": ["hardware.parse_spec_s"],
    "syntax.tokenize": ["syntax.tokenize_s", "syntax.tokens", "syntax.parse_s"],
    "syntax.parse": ["syntax.parse_s"],
    "cfg.build": ["cfg.build_s", "cfg.nodes", "cfg.edges", "cfg.loop_heads"],
    "cfg.loop_heads": ["cfg.loop_heads"],
    "cfg.thresholds": ["cfg.thresholds_s", "cfg.thresholds"],
    "engine.equations": ["engine.equations_s"],
    "engine.solve": ["engine.solve_s", "engine.passes", "engine.solve_self_s",
                     "engine.transfers_per_edge_pass", "trace.solve_untraced_s",
                     "trace.overhead_s"],
    "abstract.widen": ["abstract.widenings", "abstract.widen_s",
                       "engine.solve_self_s"],
    "abstract.leq": ["abstract.leq_checks", "engine.solve_self_s"],
    "concrete.leq": ["engine.solve_self_s"],
    "cli.report": ["cli.report_s"],
    "cli.render": ["cli.render_s", "cli.report_bytes"],
}
for _dom in ("abstract", "concrete"):
    _SPAN_METRICS[f"{_dom}.transfer"] = [
        f"{_dom}.transfers", f"{_dom}.transfer_s", "engine.solve_self_s",
        "engine.transfers_per_edge_pass"]
    _SPAN_METRICS[f"{_dom}.join"] = [f"{_dom}.joins", f"{_dom}.join_s",
                                     "engine.solve_self_s"]


def run_traced(workload: str, seed: int, seconds: float, work: Path) -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import probrange.cli
    main = probrange.cli.main

    traced, bare = Tracer(), Tracer()
    outcomes, main_s = [], 0.0
    deadline = time.perf_counter() + seconds
    for batch in batches(workload, seed, work):
        for inv in batch:
            out = work / "report.out"
            argv = [str(inv.program), *inv.flags, "--out"]

            def untraced() -> None:
                nonlocal main_s
                bare.wrap(probrange.cli, "solve", "engine.solve")
                start = time.perf_counter()
                try:
                    main(argv + [str(work / "untraced.out")])
                finally:
                    main_s += time.perf_counter() - start
                    bare.uninstall()

            def traced_run() -> int:
                _install(traced, probrange)
                try:
                    return main(argv + [str(out)])
                finally:
                    traced.uninstall()

            # alternate which run goes first, so warm-up favours neither
            out.unlink(missing_ok=True)
            if len(outcomes) % 2:
                code = traced_run()
                untraced()
            else:
                untraced()
                code = traced_run()
            outcomes.append(check(inv, code, out))
        if time.perf_counter() >= deadline:
            break
    n = len(outcomes)
    missing = dict(traced.missing)
    if not hasattr(probrange.cfg, "loop_heads"):
        missing["probrange.cfg.loop_heads"] = "cfg.loop_heads"

    t, s, calls, counts = traced.total, traced.self_time, traced.calls, traced.counts
    transfers = calls["abstract.transfer"] + calls["concrete.transfer"]
    values = {
        "hardware.parse_spec_s": t["hardware.parse_spec"],
        "syntax.tokenize_s": t["syntax.tokenize"],
        "syntax.parse_s": s["syntax.parse"],
        "syntax.tokens": counts["tokens"],
        "cfg.build_s": t["cfg.build"], "cfg.nodes": counts["nodes"],
        "cfg.edges": counts["edges"], "cfg.loop_heads": counts["loop_heads"],
        "cfg.thresholds_s": t["cfg.thresholds"],
        "cfg.thresholds": counts["thresholds"],
        "engine.equations_s": t["engine.equations"],
        "engine.solve_s": t["engine.solve"], "engine.passes": counts["passes"],
        "engine.solve_self_s": s["engine.solve"],
        "cli.report_s": t["cli.report"], "cli.render_s": t["cli.render"],
        "cli.report_bytes": counts["report_bytes"], "cli.main_s": main_s,
        "trace.solve_untraced_s": bare.total["engine.solve"],
        "trace.overhead_s": t["engine.solve"] - bare.total["engine.solve"],
    }
    for dom in ("abstract", "concrete"):
        values[f"{dom}.transfers"] = calls[f"{dom}.transfer"]
        values[f"{dom}.transfer_s"] = t[f"{dom}.transfer"]
        values[f"{dom}.joins"] = calls[f"{dom}.join"]
        values[f"{dom}.join_s"] = t[f"{dom}.join"]
    values["abstract.widenings"] = calls["abstract.widen"]
    values["abstract.widen_s"] = t["abstract.widen"]
    values["abstract.leq_checks"] = calls["abstract.leq"]
    metrics = {name: v / n for name, v in values.items()}
    edge_passes = counts["edge_passes"]
    metrics["engine.transfers_per_edge_pass"] = (
        transfers / edge_passes if edge_passes else 0.0)
    absent = sorted({name for span in missing.values()
                     for name in _SPAN_METRICS[span]})
    metrics = {name: metrics[name] for name in PER_LAYER if name not in absent}
    detail = {"samples": n, "missing": sorted(missing),
              "missing_metrics": absent,
              "problems": sorted({o.problem for o in outcomes if o.failed})}
    return {"metrics": metrics, "units": PER_LAYER, "detail": detail,
            "attempted": n, "failed": sum(o.failed for o in outcomes),
            "correct": not any(o.wrong for o in outcomes)}


def result_line(res: dict) -> str:
    return json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": res["units"][k]}
                    for k, v in res["metrics"].items()},
    })


def row(workload: str, metrics: dict, units: dict) -> str:
    cells = [f"{k}={v:.6g} {units[k]}" if v is not None else f"{k}=n/a"
             for k, v in metrics.items()]
    return f"{workload:<15} " + "  ".join(cells)


def check_checkout() -> str | None:
    for need in (SRC / "probrange" / "cli.py", SPEC,
                 *(CORPUS / f"{p}.up" for p in CORPUS_PROGRAMS)):
        if not need.is_file():
            return f"missing {need.relative_to(ROOT)}: run from a full checkout"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = check_checkout()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        work = Path(tmp)
        ctx = context(work)
        print("context: " + json.dumps(ctx))
        if args.workload == "all":
            units = {**END_TO_END, "samples": "count", "wall_s_p50": "s",
                     "wall_s_p90": "s", "ref_s_p50": "s",
                     "failed_share": "share", **PER_LAYER, **DERIVED}
            for workload in WORKLOADS:
                plain = run_untraced(workload, args.seed, args.seconds, work)
                layers = run_traced(workload, args.seed, args.seconds, work)
                wall = plain["detail"]["wall_s_p50"]
                extra = {k: plain["detail"][k]
                         for k in ("samples", "wall_s_p50", "wall_s_p90",
                                   "ref_s_p50", "failed_share")}
                shares = {
                    "startup_share": 1 - layers["metrics"]["cli.main_s"] / wall,
                    "solve_share": layers["metrics"].get(
                        "trace.solve_untraced_s", math.nan) / wall,
                }
                print(row(workload, {**plain["metrics"], **extra,
                                     **layers["metrics"], **shares}, units),
                      flush=True)
            return 0
        run = run_traced if args.trace else run_untraced
        res = run(args.workload, args.seed, args.seconds, work)
        print("detail: " + json.dumps(res["detail"]))
        print(row(args.workload, res["metrics"], res["units"]))
        print(result_line(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
