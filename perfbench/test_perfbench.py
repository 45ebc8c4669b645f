#!/usr/bin/env python3
"""Tests of the simulator benchmark itself.

    python3 perfbench/test_perfbench.py

Each test drives perfbench/run.py the way the benchmark is run, with
--seconds small enough that every invocation makes its minimum number
of runs (two timed runs of each input, or two plain/perf pairs and
three replays).  About a minute in all.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["broadcast-64", "filtered-64", "churn-16"]
# Generated accesses per workload: vCPUs x (accesses + warmup) each.
GENERATED = {"broadcast-64": 64 * 1250, "filtered-64": 64 * 1250,
             "churn-16": 16 * 10000}


def bench(workload, trace, seed=1, cwd=ROOT):
    """Run the benchmark command; (exit code, parsed stdout lines)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=600)
    return done.returncode, [json.loads(line) for line in done.stdout.splitlines()]


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                cls.runs[workload, trace] = [bench(workload, trace) for _ in range(2)]

    def result(self, workload, trace, invocation=0):
        code, lines = self.runs[workload, trace][invocation]
        self.assertEqual(code, 0)
        return lines

    def test_runs_are_correct(self):
        for (workload, trace), invocations in self.runs.items():
            for code, lines in invocations:
                self.assertEqual(code, 0, workload)
                final = lines[-1]
                self.assertEqual(set(final), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(final["correct"], (workload, trace))
                self.assertGreater(final["attempted"], 0)
                self.assertEqual(final["failed"], 0)

    def test_printed_metrics_are_declared_with_their_units(self):
        end_to_end, per_layer = declared()
        for workload in WORKLOADS:
            for trace, spec in ((0, end_to_end), (1, per_layer)):
                metrics = self.result(workload, trace)[-1]["metrics"]
                printed = {name: m["unit"] for name, m in metrics.items()}
                self.assertEqual(printed, spec, (workload, trace))

    def test_events_per_access_repeats_exactly(self):
        for workload in WORKLOADS:
            values = [self.result(workload, 0, i)[-1]["metrics"]["events_per_access"]["value"]
                      for i in range(2)]
            self.assertEqual(values[0], values[1], workload)

    def test_ledger_repeats_exactly(self):
        for workload in WORKLOADS:
            ledgers = [self.result(workload, 1, i)[-2]["ledger"] for i in range(2)]
            self.assertGreater(len(ledgers[0]), 20)
            self.assertEqual(ledgers[0], ledgers[1], workload)

    def test_replays_reconcile_with_the_run(self):
        for workload in WORKLOADS:
            m = {k: v["value"] for k, v in self.result(workload, 1)[-1]["metrics"].items()}
            accesses = GENERATED[workload]
            # Every vCPU generated exactly its quota, warmup included.
            self.assertEqual(m["workload.accesses"], accesses)
            self.assertEqual(m["mem.replay_lookups"], accesses)
            # One mesh send, and one dispatched closure, per target.
            self.assertAlmostEqual(m["noc.replay_sends"],
                                   m["core.targets_per_call"] * accesses, delta=1e-6 * accesses)
            self.assertAlmostEqual(m["noc.replay_sends"],
                                   m["core.filter_base"] * (1 - m["core.filter_ratio"]),
                                   delta=1e-6 * accesses)
        broadcast = self.result("broadcast-64", 1)[-1]["metrics"]
        self.assertEqual(broadcast["core.targets_per_call"]["value"], 63)
        churn = self.result("churn-16", 1)[-1]["metrics"]
        self.assertGreater(churn["core.map_adds"]["value"], 0)
        self.assertGreater(churn["core.map_removals"]["value"], 0)

    def test_reference_mismatch_fails_every_run(self):
        spec = importlib.util.spec_from_file_location("run", os.path.join(HERE, "run.py"))
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        with open(run.REFERENCES) as f:
            references = json.load(f)
        raw = {"workload": "churn-16", "seed": 1, "attempted": 4, "failed": 0,
               "digests": references["churn-16"]["1"][:1]}
        run.check_reference(raw, references)
        self.assertEqual(raw["failed"], 0)
        raw["digests"] = [dict(raw["digests"][0], bytes=raw["digests"][0]["bytes"] + 1)]
        run.check_reference(raw, references)
        self.assertEqual(raw["failed"], raw["attempted"])

    def test_fails_without_the_simulator_sources(self):
        alone = os.path.join(ROOT, ".bench_build", "standalone")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        shutil.copytree(HERE, os.path.join(alone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            code, lines = bench("churn-16", 0, cwd=alone)
        finally:
            shutil.rmtree(alone)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
