"""Tests for the benchmark's own code.

    python3 -m unittest discover -s perfbench/tests     (from the repo root)

The smoke tests build perfbench_measure on first use (about a minute) and then
run every workload at --size tiny, untraced and traced.
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import metrics  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class MetricNames(unittest.TestCase):
    def test_declared_names_match_pattern(self):
        spec = benchmark_json()
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME_RE)
            self.assertLessEqual(len(name), 64)
            self.assertRegex(name[0], r"[A-Za-z0-9]")

    def test_metric_rejects_bad_names(self):
        for bad in ("", ".lead", "has space", "slash/name", "x" * 65):
            with self.assertRaises(ValueError):
                metrics.Metric(bad, 1.0, "s")


class TailRule(unittest.TestCase):
    """Quartiles and percentiles need >= 10 samples beyond them."""

    def test_median(self):
        self.assertEqual(metrics.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(metrics.median([1.0, 2.0, 3.0, 4.0]), 2.5)
        with self.assertRaises(ValueError):
            metrics.median([])

    def test_quartiles_need_ten_beyond(self):
        self.assertIsNone(metrics.quartiles([float(i) for i in range(39)]))
        q = metrics.quartiles([float(i) for i in range(40)])
        self.assertIsNotNone(q)
        self.assertLess(q[0], q[1])

    def test_percentile_needs_ten_beyond(self):
        xs = [float(i) for i in range(99)]
        self.assertIsNone(metrics.percentile(xs, 90))
        xs.append(99.0)
        self.assertAlmostEqual(metrics.percentile(xs, 90), 89.1)
        self.assertIsNone(metrics.percentile(xs, 99))
        self.assertIsNone(metrics.percentile(xs, 100))

    def test_tail_picks_highest_supported(self):
        self.assertIsNone(metrics.tail([1.0] * 99))
        self.assertEqual(metrics.tail([1.0] * 100)[0], 90.0)
        self.assertEqual(metrics.tail([1.0] * 1000)[0], 99.0)
        self.assertEqual(metrics.tail([1.0] * 10000)[0], 99.9)

    def test_describe_states_sample_count(self):
        self.assertIn("n=5", metrics.describe([1.0] * 5, "s"))
        self.assertIn("no tail percentile", metrics.describe([1.0] * 5, "s"))


class Ratios(unittest.TestCase):
    def test_ratio_prints_its_base(self):
        m = metrics.ratio("a.b_frac", 3, 4, "ratio", "hits", "cells")
        self.assertAlmostEqual(m.value, 0.75)
        self.assertIn("[base: hits 3 / cells 4]", m.line())

    def test_zero_denominator_is_zero(self):
        self.assertEqual(metrics.ratio("x", 1, 0, "ratio", "a", "b").value, 0.0)


RATIO_HINT = re.compile(r"(_frac|_ratio|per_|ns_per)")


class Smoke(unittest.TestCase):
    """Tiny run of every workload: every declared metric, with its unit."""

    @classmethod
    def setUpClass(cls):
        cls.spec = benchmark_json()

    def run_bench(self, workload, trace):
        cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        return lines[:-1], json.loads(lines[-1])

    def check(self, workload, trace):
        declared = self.spec["per_layer" if trace else "end_to_end"]
        text, result = self.run_bench(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], text)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            printed = [l for l in text if l.startswith(m["name"] + " ")]
            self.assertEqual(len(printed), 1, m["name"])
            self.assertIn(" " + m["unit"], printed[0])
            if m["unit"] == "ratio" or RATIO_HINT.search(m["name"]):
                self.assertIn("[base: ", printed[0], m["name"])
        if not trace:
            for m in declared:
                self.assertNotEqual(result["metrics"][m["name"]]["value"], 0.0, m["name"])
        self.assertTrue(any(l.startswith("program: ") for l in text))
        self.assertTrue(any(l.startswith("host: nproc") for l in text))

    def test_core_mix(self):
        self.check("core-mix", 0)
        self.check("core-mix", 1)

    def test_core_mix_sh3(self):
        self.check("core-mix-sh3", 0)
        self.check("core-mix-sh3", 1)

    def test_userscale_churn(self):
        self.check("userscale-churn", 0)
        self.check("userscale-churn", 1)

    def test_sweep_grid(self):
        self.check("sweep-grid", 0)
        self.check("sweep-grid", 1)


if __name__ == "__main__":
    unittest.main()
