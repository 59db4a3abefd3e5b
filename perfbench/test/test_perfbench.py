#!/usr/bin/env python3
"""Self-test of the repository benchmark at tiny size.

    python3 perfbench/test/test_perfbench.py

Run from the root of a checkout.  Runs every workload end to end with
--tiny, untraced and traced, and checks that:
- the last line of output is the result object, with every metric that
  BENCHMARK.json names, each with its unit;
- simulated metrics and counts repeat exactly for one seed and change with
  the seed;
- the run leaves the checked-in BENCH_wallclock.json and BENCH_metrics.json
  untouched and the benchmark does not build or call the bench directory's
  executable.
"""

import hashlib
import json
import os
import re
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
HERE = os.path.join(ROOT, "perfbench")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
# every workload the benchmark runs; BENCHMARK.json lists the ones with no
# failing op at baseline (unix_procs is run by hand: see README.md)
WORKLOADS = ["fault_thrash", "unix_procs", "cluster_migrate"]
CHECKED_IN = ["BENCH_wallclock.json", "BENCH_metrics.json"]


def run(workload, seed, trace):
    out = subprocess.run(
        SPEC["command"]
        + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    return out.returncode, lines, json.loads(lines[-1])


def digest(path):
    full = os.path.join(ROOT, path)
    if not os.path.exists(full):
        return None
    with open(full, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def deterministic(lines, result):
    """The counts, failures and simulated metrics a run prints."""
    kept = [l for l in lines if l.startswith(("count ", "failures per rep"))]
    sims = {k: v["value"] for k, v in result["metrics"].items() if k.startswith("sim_")}
    return kept, sims


class Benchmark(unittest.TestCase):
    def setUp(self):
        self.before = {p: digest(p) for p in CHECKED_IN}

    def tearDown(self):
        for p in CHECKED_IN:
            self.assertEqual(digest(p), self.before[p], p + " was rewritten")

    def check_result(self, rc, result, specs):
        self.assertEqual(rc, 0)
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in specs))
        for m in specs:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_spec_workloads_exist(self):
        for w in SPEC["workloads"]:
            self.assertIn(w["name"], WORKLOADS)

    def test_end_to_end(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, lines, result = run(w, 1, 0)
                self.check_result(rc, result, SPEC["end_to_end"])
                self.assertGreater(result["metrics"]["setup_s"]["value"], 0)
                self.assertGreater(result["metrics"]["ops_per_s"]["value"], 0)
                _, lines2, result2 = run(w, 1, 0)
                self.assertEqual(deterministic(lines, result), deterministic(lines2, result2))
                _, lines3, result3 = run(w, 2, 0)
                self.assertNotEqual(deterministic(lines, result), deterministic(lines3, result3))

    def test_per_layer(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, lines, result = run(w, 1, 1)
                self.check_result(rc, result, SPEC["per_layer"])
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertEqual(metrics["trace.dropped"], 0)
                self.assertGreaterEqual(metrics["host.coverage"], 0.95)

    def test_independent_of_bench_binary(self):
        # the repository's bench/ directory, not perfbench/ itself
        bench_dir = re.compile(r"(?<![A-Za-z])" + "bench/")
        for name in os.listdir(HERE):
            if name.endswith((".ml", ".py")) or name == "dune":
                with open(os.path.join(HERE, name)) as f:
                    self.assertIsNone(bench_dir.search(f.read()), name)


if __name__ == "__main__":
    unittest.main(verbosity=2)
