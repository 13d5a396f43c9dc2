#!/usr/bin/env python3
"""Tests of perf_ab.py's decision rule, on synthetic times (no timing).

    python3 tools/test_perf_ab.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_ab  # noqa: E402

# Ten base runs spread like same-binary mipsy-suite runs on a shared
# 4-vCPU host: IQR about 11% of the median.
BASE = [1.00, 1.10, 0.95, 1.05, 1.20, 0.90, 1.02, 1.08, 0.97, 1.15]
# The same runs on a host that speeds up by 1.5x after pair 3, as one
# parent-vs-parent run did: their IQR reads over 30% of the median.
DRIFT = [t if i <= 3 else t / 1.5 for i, t in enumerate(BASE)]
# Pair-to-pair noise of the change/base ratio, a few percent.
NOISE = [1.00, 1.03, 0.98, 1.01, 0.97, 1.02, 0.99, 1.04, 0.96, 1.00]
RESULT = '{"correct": %s, "attempted": 18, "failed": 0, "metrics": {}}'


def runs(times, wrong=()):
    return [perf_ab.Run(t, i not in wrong) for i, t in enumerate(times)]


class DecisionRule(unittest.TestCase):
    def test_identical_sides_pass(self):
        self.assertEqual(perf_ab.judge(runs(BASE), runs(BASE)).reasons, [])

    def test_one_slow_outlier_pair_passes(self):
        change = [t * 0.99 for t in BASE]
        change[3] = BASE[3] * 3
        self.assertEqual(perf_ab.judge(runs(BASE), runs(change)).reasons,
                         [])

    def test_consistent_slowdown_within_ratio_iqr_passes(self):
        # Slower in every pair, by a median of 5.5%, but the pair
        # ratios spread wider than that (IQR 9.25%).
        ratios = [1.01, 1.02, 1.02, 1.03, 1.05, 1.06, 1.10, 1.12, 1.15,
                  1.20]
        change = [t * r for t, r in zip(BASE, ratios)]
        verdict = perf_ab.judge(runs(BASE), runs(change))
        self.assertEqual(verdict.slower, 10)
        self.assertAlmostEqual(verdict.ratio, 1.055)
        self.assertAlmostEqual(verdict.iqr, 0.0925)
        self.assertEqual(verdict.reasons, [])

    def test_drifting_host_identical_sides_pass(self):
        change = [t * n for t, n in zip(DRIFT, NOISE)]
        self.assertEqual(perf_ab.judge(runs(DRIFT), runs(change)).reasons,
                         [])

    def test_drifting_host_slowdown_fails(self):
        # The base runs' own IQR is over 30% of their median here, so
        # a rule on it would let this 1.2x slowdown through.
        change = [t * 1.2 * n for t, n in zip(DRIFT, NOISE)]
        q1, median, q3 = perf_ab.quartiles(DRIFT)
        self.assertGreater((q3 - q1) / median, 0.3)
        verdict = perf_ab.judge(runs(DRIFT), runs(change))
        self.assertEqual(verdict.slower, 10)
        self.assertEqual(len(verdict.reasons), 1)
        self.assertIn("slower in 10/10 pairs", verdict.reasons[0])

    def test_consistent_slowdown_fails(self):
        change = [t * 1.3 for t in BASE]
        verdict = perf_ab.judge(runs(BASE), runs(change))
        self.assertEqual(verdict.slower, 10)
        self.assertEqual(len(verdict.reasons), 1)
        self.assertIn("slower in 10/10 pairs", verdict.reasons[0])

    def test_incorrect_run_on_either_side_fails(self):
        for base, change in ((runs(BASE, wrong={4}), runs(BASE)),
                             (runs(BASE), runs(BASE, wrong={9}))):
            reasons = perf_ab.judge(base, change).reasons
            self.assertEqual(len(reasons), 1)
            self.assertIn("not correct", reasons[0])


class Parse(unittest.TestCase):
    def test_reads_median_host_seconds_and_verdict(self):
        out = ("wall_s per pass: 1.1 1.2 1.3\n"
               "host wall_s per pass: 2.5 2.1 2.3\n" + RESULT % "true")
        self.assertEqual(perf_ab.parse(out), perf_ab.Run(2.3, True))
        out = "host wall_s per pass: 2.5 2.1 2.3\n" + RESULT % "false"
        self.assertFalse(perf_ab.parse(out).correct)
        out = "host wall_s per pass: 2.5 2.1 2.3\nperfbench: crashed\n"
        self.assertFalse(perf_ab.parse(out).correct)

    def test_missing_host_line_raises(self):
        for out in ("wall_s per pass: 1.1 1.2 1.3\n" + RESULT % "true",
                    "host wall_s per pass:\n" + RESULT % "true", ""):
            with self.assertRaises(perf_ab.GateError):
                perf_ab.parse(out)

    def test_missing_host_line_fails_the_gate(self):
        with tempfile.TemporaryDirectory() as tree:
            os.mkdir(os.path.join(tree, "perfbench"))
            with open(os.path.join(tree, "perfbench", "run.py"), "w") as f:
                f.write("print(%r)\n" % (RESULT % "true"))
            with open(os.path.join(tree, "BENCHMARK.json"), "w") as f:
                json.dump({"workloads": [{"name": "mipsy-suite"}]}, f)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = perf_ab.main(["perf_ab.py", tree, tree])
        self.assertEqual(status, 1)
        self.assertIn("perf_ab: FAIL", out.getvalue())
        self.assertIn("no 'host wall_s per pass:' line", out.getvalue())


NM = """\
000000000003df60 T perfbench::referenceWork(unsigned long)
000000000003db90 t perfbench::referenceWork(unsigned long) [clone .constprop.0]
0000000000017ba0 T main
                 U memcpy@GLIBC_2.14
"""


class Yardstick(unittest.TestCase):
    def test_reads_the_kernel_and_its_clone_from_nm(self):
        self.assertEqual(perf_ab.yardstick(NM), {
            "perfbench::referenceWork(unsigned long)": 0x3df60,
            "perfbench::referenceWork(unsigned long) [clone .constprop.0]":
                0x3db90})
        self.assertEqual(perf_ab.yardstick("0000000000017ba0 T main\n"),
                         {})

    def test_warns_only_when_the_trees_differ(self):
        same = perf_ab.yardstick(NM)
        lines = perf_ab.yardstick_lines({"base": same, "change": same})
        self.assertEqual(len(lines), 2)
        self.assertEqual(
            lines[0], "perf_ab: base yardstick: 0x3df60 "
            "perfbench::referenceWork(unsigned long), 0x3db90 "
            "perfbench::referenceWork(unsigned long) [clone .constprop.0]")
        moved = perf_ab.yardstick(NM.replace("3df60", "3df50"))
        lines = perf_ab.yardstick_lines({"base": same, "change": moved})
        self.assertEqual(len(lines), 3)
        self.assertIn("change yardstick: 0x3df50 perfbench::", lines[1])
        self.assertIn("WARNING", lines[2])
        self.assertIn("different addresses", lines[2])


if __name__ == "__main__":
    unittest.main()
