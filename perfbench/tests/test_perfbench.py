#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny input size.

Run from the repository root:

    python3 perfbench/tests/test_perfbench.py

It builds hmis_perfbench like a benchmark run does (CARGO_TARGET_DIR or
.bench_build) and checks that

  * every metric BENCHMARK.json names prints, with its unit, on every
    workload, untraced and traced;
  * an injected wrong answer and an injected refused request are each
    counted as failed;
  * a second seed changes the inputs but not the metric names.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
WORKLOADS = ["stage_loop", "short_solves", "serve_mix"]


def bench(workload, seed=1, trace=0, inject="none"):
    """Run one tiny benchmark; return (meta, result)."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "2",
           "--trace", str(trace), "--scale", "tiny", "--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


class PerfbenchSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def expected(self, trace):
        key = "per_layer" if trace else "end_to_end"
        return {m["name"]: m["unit"] for m in self.spec[key]}

    def test_every_metric_prints_with_its_unit(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    _, result = bench(workload, trace=trace)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {name: entry["unit"]
                           for name, entry in result["metrics"].items()}
                    self.assertEqual(got, self.expected(trace))

    def test_wrong_and_refused_answers_count_as_failed(self):
        for workload in ("short_solves", "serve_mix"):
            for inject in ("wrong", "refuse"):
                with self.subTest(workload=workload, inject=inject):
                    _, result = bench(workload, inject=inject)
                    self.assertFalse(result["correct"])
                    self.assertEqual(result["failed"], 1)
                    self.assertGreater(result["attempted"], 1)

    def test_second_seed_changes_inputs_not_metric_names(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                meta1, result1 = bench(workload, seed=1)
                meta2, result2 = bench(workload, seed=2)
                self.assertNotEqual(meta1["input_digest"],
                                    meta2["input_digest"])
                self.assertEqual(set(result1["metrics"]),
                                 set(result2["metrics"]))


if __name__ == "__main__":
    unittest.main()
