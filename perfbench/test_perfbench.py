#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size (~1e3 ADs per workload).

    python3 perfbench/test_perfbench.py

For every workload in BENCHMARK.json it runs perfbench/run.py --smoke,
untraced and traced, and checks that the run passes its correctness
checks, that every metric BENCHMARK.json declares for the mode is printed
with its unit (run.py refuses a result otherwise), that no probe failed,
that no end-to-end metric is zero, and that a second run with the same
seed reproduces every deterministic metric. It also checks that the
benchmark fails, without printing a result, in a directory that holds
only BENCHMARK.json and perfbench/.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DETERMINISTIC = ["ctrl_msgs", "ctrl_bytes", "sim_converge_ms",
                 "sim_reconverge_ms"]


def run_bench(workload, trace, seed=1, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    if cwd == ROOT:
        cmd.append("--smoke")
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    def result(self, workload, trace, seed=1):
        proc = run_bench(workload, trace, seed)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        return result

    def test_untraced_metrics_and_determinism(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = self.result(workload, 0)
                for name, metric in first["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                again = self.result(workload, 0)
                for name in DETERMINISTIC:
                    self.assertEqual(first["metrics"][name]["value"],
                                     again["metrics"][name]["value"], name)

    def test_traced_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.result(workload, 1)["metrics"]
                self.assertGreater(metrics["engine.events"]["value"], 0)
                self.assertGreater(metrics["engine.allocs_per_event"]["value"],
                                   0)

    def test_fails_without_sources(self):
        scratch = ROOT / ".bench_build" / "selftest"
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", scratch)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, scratch / path)
            proc = run_bench(WORKLOADS[0], 0, cwd=scratch)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
