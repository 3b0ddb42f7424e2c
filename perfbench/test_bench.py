#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_bench.py

Run from the root of a checkout; it builds through perfbench/run.py. It
checks that:
  * the metrics each run prints are exactly the ones BENCHMARK.json names;
  * with a fixed seed the single-client count metrics repeat exactly;
  * the traced run's span export parses, every span's parent is present
    (or the span is a root), and obs.trace_overhead_frac is printed for
    every workload;
  * the traced runs agree with the known shape of the seed: the TEE seal is
    the largest layer of a vault store, catchup falls back to log scans and
    vault never does, and fleet spends no time in crypto;
  * in a directory that holds only BENCHMARK.json and perfbench/ the
    benchmark exits non-zero without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join("perfbench", "run.py")]
SEED = 7
COUNT_METRICS = [
    "tee.seals_per_op",
    "storage.full_scans_per_op",
    "storage.flash_programs_per_op",
    "rpc.bytes_per_op",
    "cloud.bytes_per_user_byte",
]


def run(workload, seconds, trace, cwd=ROOT):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(SEED), "--seconds",
               str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc, result


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.traced = {}
        for workload, seconds in (("vault", 2), ("catchup", 1),
                                  ("fleet", 2)):
            proc, result = run(workload, seconds, 1)
            if proc.returncode != 0 or result is None:
                raise AssertionError("traced %s run failed:\n%s%s" % (
                    workload, proc.stdout[-2000:], proc.stderr[-2000:]))
            cls.traced[workload] = result

    def layer(self, workload, name):
        return self.traced[workload]["metrics"][name]["value"]

    def test_end_to_end_metrics_match_spec(self):
        proc, result = run("vault", 1, 0)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        names = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         names)
        for name, metric in result["metrics"].items():
            self.assertGreater(metric["value"], 0, name)

    def test_per_layer_metrics_match_spec(self):
        names = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        for workload, result in self.traced.items():
            self.assertEqual(
                {k: v["unit"] for k, v in result["metrics"].items()}, names,
                workload)
            self.assertIn("obs.trace_overhead_frac", result["metrics"])

    def test_count_metrics_repeat_exactly(self):
        for workload, seconds in (("vault", 1), ("catchup", 1)):
            proc, again = run(workload, seconds, 1)
            self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
            for name in COUNT_METRICS:
                self.assertEqual(again["metrics"][name]["value"],
                                 self.layer(workload, name),
                                 "%s %s" % (workload, name))

    def test_trace_export_parses_and_links(self):
        for workload in self.traced:
            path = os.path.join(ROOT, ".bench_out",
                                "%s-seed%d-spans.json" % (workload, SEED))
            with open(path) as f:
                spans = json.load(f)["spans"]
            self.assertTrue(spans, workload)
            ids = {s["id"] for s in spans}
            for s in spans:
                self.assertTrue(s["parent"] == 0 or s["parent"] in ids,
                                "%s span %d has no parent" % (workload,
                                                              s["id"]))
            with open(os.path.join(ROOT, ".bench_out",
                                   "%s-seed%d-registry.json" %
                                   (workload, SEED))) as f:
                registry = json.load(f)
            self.assertIn("before", registry)
            self.assertIn("after", registry)

    def test_known_shape(self):
        seal = self.layer("vault", "tee.seal_p50_us")
        for other in ("storage.append_p50_us", "storage.get_p50_us",
                      "net.call_p50_us.put", "policy.evaluate_us",
                      "cell.self_us.store"):
            self.assertGreater(seal, self.layer("vault", other), other)
        self.assertEqual(self.layer("vault", "storage.full_scans_per_op"), 0)
        self.assertGreater(self.layer("catchup", "storage.full_scans_per_op"),
                           0)
        self.assertEqual(self.layer("fleet", "crypto.self_us_per_op"), 0)

    def test_fails_without_library_sources(self):
        stripped = os.path.join(ROOT, ".bench_out", "stripped")
        shutil.rmtree(stripped, ignore_errors=True)
        os.makedirs(stripped)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(stripped, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = subprocess.run(
            RUN + ["--workload", "vault", "--seed", "1", "--seconds", "1",
                   "--trace", "0"],
            cwd=stripped, capture_output=True, text=True, timeout=180,
            env=env)
        shutil.rmtree(stripped, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
