"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import progen  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
import probrange.cfg  # noqa: E402
import probrange.cli  # noqa: E402
from probrange.syntax import parse_program  # noqa: E402


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        a = progen.generate(7, run.ABSTRACT_TRIPS, -32768, 32767)
        b = progen.generate(7, run.ABSTRACT_TRIPS, -32768, 32767)
        self.assertEqual(a.source.encode(), b.source.encode())
        self.assertEqual((a.nodes, a.edges), (b.nodes, b.edges))
        other = progen.generate(8, run.ABSTRACT_TRIPS, -32768, 32767)
        self.assertNotEqual(a.source, other.source)

    def test_constants_inside_machine_range(self):
        lo, hi = run.CONCRETE_RANGE
        for seed in range(20):
            source = progen.generate(seed, run.CONCRETE_TRIPS, lo, hi).source
            for literal in re.findall(r"(?<![\w])-?\d+", source):
                self.assertTrue(lo <= int(literal) <= hi, literal)

    def test_counts_match_cfg_and_lines_are_unique(self):
        for trips in (run.ABSTRACT_TRIPS, run.CONCRETE_TRIPS):
            gen = progen.generate(3, trips, -64, 63)
            cfg = probrange.cfg.build_cfg(parse_program(gen.source))
            self.assertEqual(gen.nodes, cfg.node_count)
            self.assertEqual(gen.edges, len(cfg.edges))
            self.assertEqual(len(set(cfg.lines)), cfg.node_count)


class OracleTest(unittest.TestCase):
    def test_saturation_and_c_division(self):
        program = oracle.parse("void f(int x, int y, int z) {\n"
                               "  x =. -7 /. 2;\n"
                               "  y =. -7 %. 2;\n"
                               "  z =. 30000 *. 3;\n"
                               "  z =. z -. 70000;\n"
                               "}\n")
        seen = oracle.observe(program, -32768, 32767, seed=0, runs=4)
        # the exit shares line 5 with the point before the last assignment
        self.assertEqual(seen[(5, "x")], {-3})
        self.assertEqual(seen[(5, "y")], {-1})
        self.assertEqual(seen[(5, "z")], {32767, -32768})

    def test_entry_state_maps_to_program_line(self):
        program = oracle.parse(
            (run.CORPUS / "collatz.up").read_text())
        seen = oracle.observe(program, -32768, 32767, seed=0, runs=8)
        self.assertNotIn((2, "x"), seen)
        self.assertEqual(seen[(8, "x")], {1})
        self.assertGreater(len(seen[(1, "x")]), 1)

    def test_flags_report_with_one_interval_shrunk(self):
        gen = progen.generate(5, (2, 3), -32768, 32767)
        obs = oracle.observe(oracle.parse(gen.source), -32768, 32767, seed=5)
        with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
            path, out = Path(tmp) / "p.up", Path(tmp) / "p.out"
            path.write_text(gen.source)
            code = probrange.cli.main([str(path), "--spec", str(run.SPEC),
                                       "--widening", "--max-iters", "1000",
                                       "--out", str(out)])
            rows = oracle.report_rows(out.read_text(), machine=False)
        self.assertEqual(code, 0)
        self.assertEqual(oracle.misses(rows, obs), [])

        tight = [{"line": line, "variable": var, "probability": 1.0,
                  "interval": [min(vs), max(vs)]}
                 for (line, var), vs in sorted(obs.items())]
        self.assertEqual(oracle.misses(tight, obs), [])
        planted = next(r for r in tight if r["interval"][0] < r["interval"][1])
        planted["interval"][1] -= 1
        missed = oracle.misses(tight, obs)
        self.assertEqual(len(missed), 1)
        self.assertIn(f"line {planted['line']}, {planted['variable']}:",
                      missed[0])


class MetricsTest(unittest.TestCase):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def declared(self, key: str) -> dict[str, str]:
        return {m["name"]: m["unit"] for m in self.bench[key]}

    def test_emitted_metrics_are_declared(self):
        with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
            plain = run.run_untraced("corpus-cli", 1, 0, Path(tmp))
            layers = run.run_traced("corpus-cli", 1, 0, Path(tmp))
        for res, key in ((plain, "end_to_end"), (layers, "per_layer")):
            line = json.loads(run.result_line(res))
            self.assertEqual(set(line), {"correct", "attempted", "failed",
                                         "metrics"})
            units = {k: v["unit"] for k, v in line["metrics"].items()}
            self.assertEqual(units, self.declared(key))
        # the out-of-budget counter report is the one unsound corpus case
        self.assertEqual(plain["detail"]["failed_share"], 1 / 12)
        self.assertTrue(plain["correct"])

    def test_missing_wrapper_is_reported_not_fatal(self):
        saved = probrange.cli.render_machine, probrange.cfg.loop_heads
        del probrange.cli.render_machine, probrange.cfg.loop_heads
        try:
            with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
                res = run.run_traced("corpus-cli", 1, 0, Path(tmp))
        finally:
            probrange.cli.render_machine, probrange.cfg.loop_heads = saved
        gone = {"cli.render_s", "cli.report_bytes", "cfg.loop_heads"}
        self.assertEqual(set(res["detail"]["missing_metrics"]), gone)
        self.assertFalse(gone & set(res["metrics"]))
        self.assertIn("engine.solve_s", res["metrics"])

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
            bare = Path(tmp)
            (bare / "perfbench").mkdir()
            for f in HERE.glob("*.py"):
                (bare / "perfbench" / f.name).write_text(f.read_text())
            (bare / "BENCHMARK.json").write_text(json.dumps(self.bench))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "corpus-cli",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
