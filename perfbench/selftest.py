"""The benchmark's own tests.

    python3 perfbench/selftest.py

Runs each workload at tiny size, checks the printed metric names and units
against BENCHMARK.json, checks that counters repeat for a seed, and checks
that perturbed results are counted as failures.
"""
from __future__ import annotations

import copy
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"], cwd=ROOT, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise AssertionError(out.stderr)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


class MetricNames(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result, text = run(workload, 5, trace)
                    self.assertTrue(result["correct"], text)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    printed = {line.split()[0]: line.split()[2] for line in text
                               if line.split() and line.split()[0] in want}
                    self.assertEqual(printed, want)
                    self.assertTrue(any(line.startswith("failed_frac") for line in text))


class Counters(unittest.TestCase):
    def test_counters_repeat_for_a_seed(self):
        timed = {m["name"] for m in SPEC["per_layer"] if m["unit"] == "s"}
        timed.add("trace.layer_share")
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, _ = run(workload, 9, 1)
                second, _ = run(workload, 9, 1)
                counts = lambda r: {k: v["value"] for k, v in r["metrics"].items()
                                    if k not in timed}
                self.assertEqual(counts(first), counts(second))


def _results(workload, inputs):
    tracer = Tracer()
    return {name: ("ok", thunk())
            for name, thunk in workloads.run_jobs(workload, inputs, tracer)}


class Checker(unittest.TestCase):
    def failed(self, workload, inputs, results, job, value):
        results = dict(results, **{job: ("ok", value)})
        failures = workloads.check_results(workload, inputs, results)
        self.assertEqual(list(failures), [job])
        return failures

    def test_clean_results_pass(self):
        for workload in WORKLOADS:
            inputs = workloads.make_inputs(workload, 3, 0, "tiny")
            self.assertEqual(workloads.check_results(
                workload, inputs, _results(workload, inputs)), {})

    def test_wrong_prime_is_counted(self):
        inputs = workloads.make_inputs("scan", 3, 0, "tiny")
        results = _results("scan", inputs)
        rc, text = results["find"][1]
        payload = json.loads(text)
        self.assertTrue(payload["found"])
        payload["primes"][0] += 1  # even, so not prime
        payload["diameter"] -= 1
        self.failed("scan", inputs, results, "find", (rc, json.dumps(payload)))

    def test_wrong_membership_is_counted(self):
        inputs = workloads.make_inputs("scan", 3, 0, "tiny")
        results = _results("scan", inputs)
        flags = list(results["member"][1])
        flags[0] = not flags[0]
        self.failed("scan", inputs, results, "member", flags)

    def test_nonzero_residual_is_counted(self):
        inputs = workloads.make_inputs("certify", 3, 0, "tiny")
        results = _results("certify", inputs)
        trips = list(results["weights"][1])
        ctx, family, inverse = trips[0]
        trips[0] = (ctx, family, dataclasses.replace(
            inverse, max_residual=Fraction(1, 10**12), consistent=False))
        self.failed("certify", inputs, results, "weights", trips)

    def test_fraction_off_by_one_ulp_is_counted(self):
        inputs = workloads.make_inputs("certify", 3, 0, "tiny")
        results = _results("certify", inputs)
        bounds = list(results["mk"][1])
        bound, cert = bounds[0]
        # the certified float one ulp high
        bounds[0] = (math.nextafter(bound, math.inf), cert)
        self.failed("certify", inputs, results, "mk", bounds)
        # the exact quotient moved by one unit in the last place of its float
        ulp = Fraction(math.ulp(bound))
        bounds[0] = (bound, dataclasses.replace(cert, quotient=cert.quotient + ulp))
        self.failed("certify", inputs, results, "mk", bounds)

    def test_wrong_harness_value_is_counted(self):
        inputs = workloads.make_inputs("sweep", 3, 0, "tiny")
        results = _results("sweep", inputs)
        rows = copy.deepcopy(results["bv_exact"][1])
        q, a, e = rows[0]["terms"][0]
        rows[0]["terms"][0] = (q, a, math.nextafter(e, math.inf))
        failures = self.failed("sweep", inputs, results, "bv_exact", rows)
        self.assertEqual(len(failures) / len(results), 0.25)

    def test_raised_job_is_counted(self):
        inputs = workloads.make_inputs("certify", 3, 0, "tiny")
        results = _results("certify", inputs)
        results["chain"] = ("raised", "Traceback: ...")
        self.assertEqual(list(workloads.check_results("certify", inputs, results)),
                         ["chain"])

    def test_bare_directory_is_refused(self):
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-bare-") as bare:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
