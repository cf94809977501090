#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

  python3 hostbench/test_hostbench.py

Each case runs the built `hostbench` program with a --seconds so short
that it makes one repetition (one round in the traced pass).
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BINARY = None


def drive(workload, seed, trace=False, extra=()):
    """One short run; returns (exit code, sim report text, result)."""
    args = [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", "0.01", "--trace", "1" if trace else "0", *extra]
    proc = subprocess.run(args, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    report = next(line.split(" ", 4)[4] for line in lines
                  if line.startswith("sim_report "))
    return proc.returncode, report, json.loads(lines[-1])


class HostbenchTest(unittest.TestCase):

    def test_tracing_does_not_perturb_the_run(self):
        for workload in ("lan_indexed", "wan_lp"):
            code0, untraced, result0 = drive(workload, 11)
            code1, traced, result1 = drive(workload, 11, trace=True)
            self.assertEqual((code0, code1), (0, 0))
            self.assertTrue(result0["correct"] and result1["correct"])
            self.assertEqual(untraced, traced, workload)

    def test_seed_reaches_the_simulator(self):
        _, a, _ = drive("lan_indexed", 21)
        _, b, _ = drive("lan_indexed", 22)
        self.assertNotEqual(a, b)

    def test_counts_and_sim_metrics_repeat_exactly(self):
        runs = [drive("wan_churn", 31)[2]["metrics"] for _ in range(3)]
        for name in ("allocs_per_query", "ok_ratio", "sim_p50_ms",
                     "sim_p99_ms", "sim_samples"):
            values = {m[name]["value"] for m in runs}
            self.assertEqual(len(values), 1, (name, values))

    def test_digest_mismatch_fails_the_run(self):
        code, _, result = drive("lan_indexed", 41,
                                extra=("--expect", "0000000000000000"))
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["metrics"]["ok_ratio"]["value"], 0)

    def test_default_seed_matches_pinned_digests(self):
        digests = run.load_digests()
        self.assertEqual(sorted(digests), sorted(run.WORKLOADS))
        for workload in run.WORKLOADS:
            code, _, result = drive(
                workload, run.DEFAULT_SEED,
                extra=("--expect", digests[workload]))
            self.assertEqual(code, 0, workload)
            self.assertTrue(result["correct"], workload)

    def test_traced_pass_prints_every_layer_metric(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        _, _, layers = drive("wan_churn", 51, trace=True)
        self.assertEqual(sorted(layers["metrics"]),
                         sorted(m["name"] for m in spec["per_layer"]))
        _, _, e2e = drive("wan_churn", 51)
        self.assertEqual(sorted(e2e["metrics"]),
                         sorted(m["name"] for m in spec["end_to_end"]))


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
