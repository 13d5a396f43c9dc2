#!/usr/bin/env python3
"""Interleaved perfbench A/B: fail when a change makes the simulator slower.

    python3 tools/perf_ab.py BASE_TREE CHANGE_TREE

Both arguments are checkouts of this repository; each builds and runs
its own perfbench (perfbench/run.py builds into the tree's own
.bench_build/). For every workload named in the change tree's
BENCHMARK.json the script runs PAIRS pairs. Pair i runs both trees'
`perfbench/run.py --workload W --seed i --trace 0` at the same run
length, the base tree first on even i and the change tree first on
odd i, so a slow phase of the host lands on both sides alike.

A run's time is the median of its `host wall_s per pass` line. That is
host seconds, not perfbench's reference seconds: the reference kernel
links into the measured binary, so code placement can move it, but it
cannot move the host clock.

A workload fails when either side's result line lacks "correct": true,
or when the change is slower in at least SLOWER_PAIRS of the PAIRS
pairs and its median exceeds the base median by more than the
interquartile range of the base runs. Both conditions must hold, so
one slow pair (a noisy neighbour) never fails the gate, and neither
does a consistent slowdown smaller than the base's own spread. The
script prints every pair and exits 1 if any workload fails; a run
whose output has no `host wall_s per pass` line stops it at once.
"""

import collections
import json
import os
import statistics
import subprocess
import sys
import time

PAIRS = 10
SLOWER_PAIRS = 9
# Below the time of one pass, so every run makes perfbench's minimum
# of three passes whatever the host's speed.
RUN_SECONDS = "0.01"
HOST_LINE = "host wall_s per pass:"

Run = collections.namedtuple("Run", "seconds correct")
# reasons lists why the workload fails; it is empty when it passes.
Verdict = collections.namedtuple(
    "Verdict", "base_median iqr change_median slower reasons")


class GateError(Exception):
    """A run whose output cannot be judged."""


def parse(stdout):
    """The Run a perfbench --trace 0 run printed on stdout."""
    lines = stdout.splitlines()
    passes = [line[len(HOST_LINE):].split() for line in lines
              if line.startswith(HOST_LINE)]
    if not passes or not passes[-1]:
        raise GateError("no '%s' line in perfbench output" % HOST_LINE)
    try:
        seconds = statistics.median(float(x) for x in passes[-1])
    except ValueError as e:
        raise GateError("bad '%s' line: %s" % (HOST_LINE, e)) from e
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    correct = isinstance(result, dict) and result.get("correct") is True
    return Run(seconds, correct)


def quartiles(values):
    """Lower quartile, median and upper quartile, interpolated linearly
    between order statistics as perfbench does."""
    return statistics.quantiles(values, n=4, method="inclusive")


def judge(base, change):
    """The Verdict on one workload from its paired Runs."""
    reasons = []
    for side, runs in (("base", base), ("change", change)):
        wrong = [i for i, run in enumerate(runs) if not run.correct]
        if wrong:
            reasons.append("%s not correct in pair(s) %s" % (side, wrong))
    slower = sum(c.seconds > b.seconds for b, c in zip(base, change))
    q1, base_median, q3 = quartiles([run.seconds for run in base])
    change_median = statistics.median(run.seconds for run in change)
    if slower >= SLOWER_PAIRS and change_median - base_median > q3 - q1:
        reasons.append(
            "change slower in %d/%d pairs and its median is %.4f s "
            "above the base's, more than the base IQR %.4f s"
            % (slower, len(base), change_median - base_median, q3 - q1))
    return Verdict(base_median, q3 - q1, change_median, slower, reasons)


def run_perfbench(tree, workload, seed):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", RUN_SECONDS, "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    try:
        return parse(proc.stdout)
    except GateError as e:
        tail = (proc.stdout + proc.stderr).splitlines()[-20:]
        raise GateError("%s (%s, seed %d, exit %d): %s\n%s" % (
            tree, workload, seed, proc.returncode, e,
            "\n".join(tail))) from e


def measure(workload, base_tree, change_tree):
    """Run the pairs of one workload, printing each as it finishes."""
    base, change = [], []
    print("%s\n  %4s  %-6s  %9s  %9s  %6s" % (
        workload, "pair", "first", "base_s", "change_s", "ratio"))
    for i in range(PAIRS):
        sides = [(base_tree, base), (change_tree, change)]
        if i % 2:
            sides.reverse()
        for tree, runs in sides:
            runs.append(run_perfbench(tree, workload, i))
        print("  %4d  %-6s  %9.4f  %9.4f  %6.3f%s" % (
            i, "change" if i % 2 else "base", base[i].seconds,
            change[i].seconds, change[i].seconds / base[i].seconds,
            "" if base[i].correct and change[i].correct
            else "  NOT CORRECT"), flush=True)
    return base, change


def main(argv):
    if len(argv) != 3:
        print("usage: %s BASE_TREE CHANGE_TREE" % argv[0],
              file=sys.stderr)
        return 2
    base_tree, change_tree = (os.path.abspath(p) for p in argv[1:])
    with open(os.path.join(change_tree, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]

    start = time.monotonic()
    print("perf_ab: base %s, change %s: %d pairs per workload; "
          "seconds are host wall_s per pass, median of the run's "
          "passes" % (base_tree, change_tree, PAIRS), flush=True)
    failed = []
    for workload in workloads:
        try:
            base, change = measure(workload, base_tree, change_tree)
        except GateError as e:
            print("perf_ab: FAIL: %s" % e, flush=True)
            return 1
        v = judge(base, change)
        print("  base median %.4f s, IQR %.4f s (%.1f%% of median); "
              "change median %.4f s (%+.1f%%), slower in %d/%d pairs: "
              "%s" % (v.base_median, v.iqr, 100 * v.iqr / v.base_median,
                      v.change_median,
                      100 * (v.change_median / v.base_median - 1),
                      v.slower, len(base),
                      "FAIL" if v.reasons else "pass"), flush=True)
        for reason in v.reasons:
            print("  FAIL: " + reason)
        if v.reasons:
            failed.append(workload)
    print("perf_ab: %s in %.0f s" % (
        "FAIL on " + ", ".join(failed) if failed else "pass",
        time.monotonic() - start))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
