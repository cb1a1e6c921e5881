#!/usr/bin/env python3
"""Seed and determinism tests for the benchmark driver.

    python3 perfbench/test_perfbench.py

Runs every workload at its tiny size (--size tiny) with two seeds, and one
seed twice, and checks that:
  * every run passes its output checks with zero failed operations;
  * the two seeds give different output digests (the seed reaches the
    data and workload generators);
  * re-running a seed reproduces its digest and NAE exactly;
  * a traced run prints every per-layer metric and an untraced run every
    end-to-end metric named in BENCHMARK.json.
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ("paper-sky", "paper-gauss", "serve-sky", "fleet-cross")
DIGEST = re.compile(r"^digest ([0-9a-f]{16}) nae (\S+)$", re.MULTILINE)


def load_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    binary = None

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if cls.binary is None:
            raise RuntimeError("benchmark build failed")

    def drive(self, workload, seed, trace=0):
        proc = subprocess.run(
            [self.binary, "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--trace", str(trace), "--size", "tiny",
             "--tmp-dir", os.path.join(run.build_dir(), "perfbench-test")],
            cwd=run.ROOT, capture_output=True, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(result["failed"], 0, proc.stderr)
        self.assertGreaterEqual(result["attempted"], 1)
        if trace:
            return result, None, None
        match = DIGEST.search(proc.stdout)
        self.assertIsNotNone(match, proc.stdout)
        return result, match.group(1), match.group(2)

    def test_seeds_reach_generators_and_reproduce(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, digest_a, nae_a = self.drive(workload, 1)
                _, digest_b, _ = self.drive(workload, 2)
                _, digest_again, nae_again = self.drive(workload, 1)
                self.assertNotEqual(digest_a, digest_b)
                self.assertEqual(digest_a, digest_again)
                self.assertEqual(nae_a, nae_again)

    def test_metric_sets_match_benchmark_json(self):
        spec = load_spec()
        end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for workload in ("paper-gauss", "fleet-cross"):
            with self.subTest(workload=workload):
                untraced, _, _ = self.drive(workload, 3, trace=0)
                traced, _, _ = self.drive(workload, 3, trace=1)
                self.assertEqual(
                    {k: v["unit"] for k, v in untraced["metrics"].items()},
                    end_to_end)
                self.assertEqual(
                    {k: v["unit"] for k, v in traced["metrics"].items()},
                    per_layer)
                for name in end_to_end:
                    self.assertGreater(untraced["metrics"][name]["value"], 0,
                                       name)


if __name__ == "__main__":
    unittest.main()
