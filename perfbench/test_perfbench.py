#!/usr/bin/env python3
"""Tests of the c3dsim benchmark itself.

Run from the repository root (builds c3d-perfbench on first use; about
two minutes on a 4-thread host):

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Checks that every metric name is well formed, that BENCHMARK.json and
run.py agree on every metric and unit, and that a shortened run of
each workload, untraced and traced, fails no row and prints every
metric with its unit.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def short_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=600)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed(self):
        s = spec()
        names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        names += list(run.END_TO_END) + list(run.PER_LAYER)
        for name in names:
            self.assertIsNotNone(NAME.fullmatch(name), name)

    def test_benchmark_json_matches_run_tables(self):
        s = spec()
        self.assertEqual({m["name"]: m["unit"] for m in s["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in s["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual({w["name"] for w in s["workloads"]},
                         set(run.WORKLOADS))


class ShortRuns(unittest.TestCase):
    def check(self, trace, declared):
        for workload in sorted(run.WORKLOADS):
            with self.subTest(workload=workload):
                code, out = short_run(workload, trace)
                self.assertEqual(code, 0)
                self.assertTrue(out["correct"])
                self.assertGreaterEqual(out["attempted"], 1)
                self.assertEqual(out["failed"], 0)
                printed = {k: v["unit"] for k, v in out["metrics"].items()}
                self.assertEqual(printed,
                                 {m["name"]: m["unit"] for m in declared})

    def test_untraced_runs(self):
        self.check(0, spec()["end_to_end"])

    def test_traced_runs(self):
        self.check(1, spec()["per_layer"])


if __name__ == "__main__":
    unittest.main()
