#!/usr/bin/env python3
"""Tests of the benchmark itself, on tiny runs.

Run from the repository root (the first run builds the benchmark):

    python3 -m unittest perfbench/test_perfbench.py

- every workload prints every metric BENCHMARK.json names, with its unit;
- a deliberately wrong reference label makes the correctness gate fail;
- modeled metrics and per-layer counts repeat exactly for one seed, at
  OFFLOAD_THREADS=1 and 4, and change with the seed.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Wall-clock units; everything else the benchmark reports is modeled or
# counted and must be deterministic.
TIMING_UNITS = {"ms", "us", "MB/s", "1/s", "MB"}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, seed=5, extra=(), env=None):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          env=dict(os.environ, **(env or {})), timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc, result


def deterministic(result, trace):
    out = {}
    for name, m in result["metrics"].items():
        if m["unit"] in TIMING_UNITS:
            continue
        if not trace and not name.startswith("sim_"):
            continue  # setup_s is wall time
        out[name] = m["value"]
    return out


class EveryMetricTest(unittest.TestCase):
    def check(self, workload, trace):
        proc, result = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertIsNotNone(result, proc.stdout[-2000:])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        names = spec()["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in names})
        for m in names:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        if not trace:
            for m in names:  # end-to-end metrics are never 0
                self.assertNotEqual(result["metrics"][m["name"]]["value"], 0,
                                    m["name"])

    def test_cold_presend(self):
        self.check("cold_presend", 0)
        self.check("cold_presend", 1)

    def test_warm_stream(self):
        self.check("warm_stream", 0)
        self.check("warm_stream", 1)

    def test_population(self):
        self.check("population", 0)
        self.check("population", 1)


class GateTest(unittest.TestCase):
    # --corrupt-reference spoils the reference of every image but image 0,
    # the one warm_stream's set-up warm-up checks, so both workloads reach
    # their per-op gates and must report the failures in their result.
    def check_gate_fails(self, workload):
        proc, result = run(workload, 0, extra=["--corrupt-reference"])
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNotNone(result, proc.stdout[-2000:] + proc.stderr[-2000:])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("FAILED", proc.stdout)

    def test_wrong_reference_fails_cold_presend(self):
        self.check_gate_fails("cold_presend")

    def test_wrong_reference_fails_warm_stream(self):
        self.check_gate_fails("warm_stream")


class DeterminismTest(unittest.TestCase):
    def ok_run(self, workload, trace, **kw):
        proc, result = run(workload, trace, **kw)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertIsNotNone(result, proc.stdout[-2000:])
        return deterministic(result, trace)

    def check_repeats(self, workload):
        """Same seed: equal at OFFLOAD_THREADS=1 and 4, and run to run."""
        for trace in (0, 1):
            a = self.ok_run(workload, trace, env={"OFFLOAD_THREADS": "1"})
            b = self.ok_run(workload, trace, env={"OFFLOAD_THREADS": "4"})
            c = self.ok_run(workload, trace, env={"OFFLOAD_THREADS": "4"})
            self.assertTrue(a)
            self.assertEqual(a, b, (workload, trace))
            self.assertEqual(b, c, (workload, trace))

    def test_population_repeats_across_runs_and_threads(self):
        self.check_repeats("population")

    def test_cold_presend_repeats_across_runs_and_threads(self):
        self.check_repeats("cold_presend")

    def test_warm_stream_repeats_across_runs_and_threads(self):
        self.check_repeats("warm_stream")

    def test_population_seed_changes_arrivals(self):
        a = self.ok_run("population", 1, seed=5)
        b = self.ok_run("population", 1, seed=6)
        self.assertNotEqual(a["sim.workload.requests"],
                            b["sim.workload.requests"])

    def test_session_seed_changes_images(self):
        # Another seed draws other images, so the snapshots and the modeled
        # latencies differ.
        for workload in ("cold_presend", "warm_stream"):
            a = self.ok_run(workload, 0, seed=5)
            b = self.ok_run(workload, 0, seed=6)
            self.assertNotEqual(a, b, workload)


if __name__ == "__main__":
    unittest.main()
