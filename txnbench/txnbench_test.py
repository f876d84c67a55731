#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the database).

    python3 txnbench/txnbench_test.py

Builds txnbench and txnbench_selftest the way run.py does, then checks:
  * the C++ selftest (percentile choice, span self time, gap attribution);
  * the metric catalog against BENCHMARK.json, names, units and direction;
  * that a short run prints only names from BENCHMARK.json, every one of
    them, and a correct result, untraced and traced;
  * that run.py fails, without a result, next to nothing but its own files.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class TxnbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        build_root = os.path.join(run.ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        cls.binary = run.build(build_root, ["txnbench", "txnbench_selftest"])
        cls.selftest = os.path.join(os.path.dirname(cls.binary), "txnbench_selftest")
        cls.wal_dir = os.path.join(build_root, "test-wal")
        cls.spec = load_spec()

    def test_selftest(self):
        subprocess.run([self.selftest], check=True)

    def test_catalog_matches_benchmark_json(self):
        out = subprocess.run([self.binary, "--list-metrics"], check=True,
                             capture_output=True, text=True).stdout
        listed = {"end_to_end": {}, "per_layer": {}}
        for line in out.splitlines():
            kind, name, unit, better = line.split()
            self.assertRegex(name, NAME)
            listed[kind][name] = (unit, better)
        for kind in listed:
            declared = {m["name"]: (m["unit"], m["better"]) for m in self.spec[kind]}
            self.assertEqual(listed[kind], declared, kind)

    def run_bench(self, trace):
        p = subprocess.run([self.binary, "--workload", "hot", "--seed", "7",
                            "--seconds", "0.1", "--trace", str(trace),
                            "--wal-dir", self.wal_dir],
                           capture_output=True, text=True, cwd=run.ROOT)
        self.assertEqual(p.returncode, 0, p.stderr[-2000:])
        return json.loads(p.stdout.strip().splitlines()[-1])

    def test_printed_names_are_declared(self):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = self.run_bench(trace)
            self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            declared = {m["name"]: m["unit"] for m in self.spec[kind]}
            for name, m in result["metrics"].items():
                self.assertRegex(name, NAME)
                self.assertEqual(m["unit"], declared.get(name), name)
            self.assertEqual(set(result["metrics"]), set(declared))

    def test_refuses_without_the_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            for path in self.spec["paths"]:
                shutil.copytree(os.path.join(run.ROOT, path), os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run(self.spec["command"] + ["--workload", "hot", "--seed", "1",
                                                       "--seconds", "1", "--trace", "0"],
                               capture_output=True, text=True, cwd=bare, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
