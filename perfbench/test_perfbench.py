#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, runs the C++ self-test (digest
coverage, reference check, fixed-latency stub), and checks that the names
the benchmark prints match BENCHMARK.json, that a changed result fails the
correctness check, and that malformed arguments are refused.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

ENV, _ = run.pinned_environment()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_py(*args, env=None):
    return subprocess.run([sys.executable, str(run.BENCH_DIR / "run.py")]
                          + list(args), cwd=run.ROOT, env=env or ENV,
                          capture_output=True, text=True, timeout=300)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary, _ = run.build(ENV)

    def list_metrics(self):
        out = subprocess.run([str(self.binary), "--list-metrics"],
                             env=ENV, capture_output=True, text=True,
                             check=True).stdout
        rows = [line.split() for line in out.splitlines()]
        return ({r[1]: r[2] for r in rows if r[0] == "per_layer"},
                [r[1] for r in rows if r[0] == "workload"])

    def test_selftest_binary(self):
        selftest = self.binary.parent / "perfbench_selftest"
        done = subprocess.run([str(selftest)], env=ENV,
                              capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stderr)

    def test_workload_and_layer_names_match_benchmark_json(self):
        per_layer, workloads = self.list_metrics()
        names = [w["name"] for w in BENCHMARK["workloads"]]
        self.assertEqual(workloads, names)
        self.assertEqual(list(run.WORKLOADS), names)
        self.assertEqual(per_layer, {m["name"]: m["unit"]
                                     for m in BENCHMARK["per_layer"]})

    def test_timed_run_prints_every_end_to_end_metric(self):
        env = dict(ENV, BINGO_TRACE_CACHE_MB="0")
        done = run_py("--workload", "memory_bound", "--seed", "43",
                      "--seconds", "1", "--trace", "0", env=env)
        self.assertEqual(done.returncode, 0, done.stderr)
        result = last_json(done.stdout)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(
            {k: v["unit"] for k, v in result["metrics"].items()},
            {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]})
        for name, m in result["metrics"].items():
            self.assertGreater(m["value"], 0, name)
        provenance = [line for line in done.stdout.splitlines()
                      if line.startswith("provenance ")]
        info = json.loads(provenance[0].split(" ", 1)[1])
        self.assertEqual(info["bingo_env_cleared"], ["BINGO_TRACE_CACHE_MB"])
        self.assertEqual(info["bingo_env_resolved"]["BINGO_TRACE_CACHE_MB"],
                         "512")

    def test_traced_run_prints_every_per_layer_metric(self):
        done = run_py("--workload", "memory_bound", "--seed", "43",
                      "--seconds", "1", "--trace", "1")
        self.assertEqual(done.returncode, 0, done.stderr)
        result = last_json(done.stdout)
        self.assertTrue(result["correct"])
        self.assertEqual(
            {k: v["unit"] for k, v in result["metrics"].items()},
            {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]})
        self.assertIn("unvalidated", done.stdout)

    def test_changed_reference_digest_fails_the_run(self):
        reference = run.REFERENCE_DIR / "memory_bound.txt"
        lines = reference.read_text().splitlines()
        target = next(i for i, line in enumerate(lines)
                      if line.startswith("43 1 "))
        fields = lines[target].split(" ", 3)
        fields[2] = "%016x" % (int(fields[2], 16) ^ 1)
        lines[target] = " ".join(fields)
        with tempfile.TemporaryDirectory(dir=self.binary.parent) as tmp:
            changed = Path(tmp) / "memory_bound.txt"
            changed.write_text("\n".join(lines) + "\n")
            done = subprocess.run(
                [str(self.binary), "--sweep", "--workload", "memory_bound",
                 "--seed", "43", "--threads", "2", "--reference",
                 str(changed)], env=ENV, capture_output=True, text=True)
        self.assertEqual(done.returncode, 1)
        result = last_json(done.stdout)
        self.assertEqual((result["attempted"], result["failed"]), (4, 1))

    def test_stray_bingo_variable_is_refused_by_the_program(self):
        done = subprocess.run(
            [str(self.binary), "--setup", "--workload", "fig8", "--seed",
             "42", "--threads", "1"], env=dict(ENV, BINGO_BATCH="4"),
            capture_output=True, text=True)
        self.assertEqual(done.returncode, 2)
        self.assertIn("BINGO_BATCH", done.stderr)

    def test_malformed_arguments_are_refused(self):
        good = {"--workload": "fig8", "--seed": "1", "--seconds": "1",
                "--trace": "0"}
        for flag, bad in [("--seed", "5e4"), ("--seed", "-1"),
                          ("--seed", "abc"), ("--seconds", "0"),
                          ("--seconds", "2.5"), ("--trace", "2"),
                          ("--workload", "fig9")]:
            args = dict(good, **{flag: bad})
            done = run_py(*[x for kv in args.items() for x in kv])
            self.assertEqual(done.returncode, 2, (flag, bad))
            self.assertEqual(done.stdout.strip(), "", (flag, bad))


if __name__ == "__main__":
    unittest.main()
