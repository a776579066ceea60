#!/usr/bin/env python3
"""Smoke test for the gcassert benchmark.

    python3 perfbench/tests/smoke_test.py

Runs every workload briefly through perfbench/run.py, untraced and traced,
and fails if the result line is malformed, if any metric BENCHMARK.json
names is missing, non-finite or unitless (or carries another unit), or if a
correctness check fails. On the traced suite it also checks that mark,
sweep and ownership time account for the GC time within the stated
tolerance. Run it from anywhere inside a checkout; the first run builds.
"""

import json
import math
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# mark + sweep + ownership must cover GC time to within this share; the
# rest is cycle bookkeeping and the post-trace assertion pass.
GC_ACCOUNTING_TOLERANCE = 0.10


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace} exited with "
                             f"{out.returncode}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), out.stdout


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        result, text = run(workload, trace)
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"],
                        f"{workload}: a correctness check failed:\n{text}")
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        metrics = result["metrics"]
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in specs))
        for m in specs:
            got = metrics[m["name"]]
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            self.assertTrue(got["unit"], f"{m['name']} has no unit")
            self.assertEqual(got["unit"], m["unit"], m["name"])
        if not trace:
            for m in specs:
                self.assertGreater(metrics[m["name"]]["value"], 0, m["name"])
        return metrics


def make_test(workload, trace):
    def test(self):
        metrics = self.check(workload, trace)
        if workload == "suite" and trace:
            self.assertLessEqual(
                abs(metrics["gc.unaccounted_share"]["value"]),
                GC_ACCOUNTING_TOLERANCE)
    return test


for _w in WORKLOADS:
    for _t in (0, 1):
        setattr(Smoke, f"test_{_w.replace('-', '_')}_trace{_t}",
                make_test(_w, _t))

if __name__ == "__main__":
    unittest.main()
