#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

Run from the repository root (builds perfbench on first use, ~2 minutes
in total afterwards):

    python3 perfbench/tests/test_perfbench.py
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402  (perfbench/run.py)

WORKLOADS = run.WORKLOADS
SIM_METRICS = (
    "sim_cycles", "bytes_moved", "speedup_vs_fastswap",
    "p50_sojourn_cycles.lo", "p99_sojourn_cycles.lo",
    "p50_sojourn_cycles.hi", "p99_sojourn_cycles.hi",
    "p999_sojourn_cycles.hi", "max_rate_in_slo",
)


def bench(workload, seed, *extra):
    """Run perfbench/run.py; returns (result, inputs digest)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"] + list(extra),
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    inputs = [l.split()[1] for l in lines if l.strip().startswith("inputs ")]
    return json.loads(lines[-1]), inputs[0]


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        assert cls.binary is not None, "perfbench failed to build"
        cls.first = {w: bench(w, 7) for w in WORKLOADS}

    def test_same_seed_repeats_simulated_metrics_exactly(self):
        for workload in WORKLOADS:
            first, inputs = self.first[workload]
            again, inputs_again = bench(workload, 7)
            self.assertTrue(first["correct"] and again["correct"], workload)
            self.assertEqual(inputs, inputs_again, workload)
            for name in SIM_METRICS:
                self.assertEqual(first["metrics"][name]["value"],
                                 again["metrics"][name]["value"],
                                 "%s %s" % (workload, name))

    def test_different_seed_changes_the_inputs(self):
        for workload in WORKLOADS:
            _, inputs = self.first[workload]
            _, other = bench(workload, 8)
            self.assertNotEqual(inputs, other, workload)

    def test_wrong_expected_value_shows_as_failure(self):
        for workload in WORKLOADS:
            result, _ = bench(workload, 7, "--corrupt-expected")
            self.assertFalse(result["correct"], workload)
            self.assertGreater(result["failed"], 0, workload)
            self.assertLess(result["metrics"]["success_frac"]["value"], 1.0,
                            workload)

    def test_every_per_layer_metric_is_measured_somewhere(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = {m["name"] for m in spec["per_layer"]}
        wanted.discard("trace.overhead_s")  # computed by run.py
        seen = set()
        for workload in WORKLOADS:
            proc = subprocess.run(
                [str(self.binary), "--workload", workload, "--seed", "7",
                 "--seconds", "0", "--trace", "1"],
                capture_output=True, text=True, check=True)
            for line in proc.stdout.splitlines():
                if line.startswith("REP "):
                    rep = json.loads(line[4:])
                    if rep["traced"]:
                        seen |= set(rep["layers"])
        self.assertEqual(sorted(wanted - seen), [])

    def test_refuses_to_run_without_the_sources(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path.insert(0, %r); import run; "
             "run.ROOT = run.Path('/nonexistent'); sys.exit(run.main())"
             % str(BENCH), "--workload", "ir-hybrid"],
            capture_output=True, text=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
