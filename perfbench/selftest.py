#!/usr/bin/env python3
"""Self-test of the benchmark: every workload in quick mode, untraced and
traced, must print every metric BENCHMARK.json names, with its unit and a
sample count, and report zero failed operations.

    python3 perfbench/selftest.py

Exits 0 when every check holds, 1 otherwise (each failure is printed).
"""
import json
import math
import os
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(spec, workload, trace):
    """Run one quick workload; return a list of failure messages."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    where = "%s trace=%d" % (workload, trace)
    if proc.returncode != 0:
        return ["%s: exit code %d\n%s" % (where, proc.returncode, proc.stderr)]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (where, sorted(result)))
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("%s: correct=%s failed=%s\n%s" % (
            where, result.get("correct"), result.get("failed"), proc.stderr))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("%s: attempted=%r" % (where, result.get("attempted")))

    expected = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in expected):
        missing = {m["name"] for m in expected} - set(metrics)
        extra = set(metrics) - {m["name"] for m in expected}
        errors.append("%s: missing %s, unexpected %s" % (
            where, sorted(missing), sorted(extra)))
    # The human-readable block: "# metric <name> <value> <unit> n=<samples>".
    block = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 6 and parts[:2] == ["#", "metric"]:
            block[parts[2]] = (parts[4], parts[5])
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if sorted(got) != ["unit", "value"] or got["unit"] != m["unit"]:
            errors.append("%s: %s printed as %r, want unit %s" % (
                where, m["name"], got, m["unit"]))
        elif not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            errors.append("%s: %s value %r" % (where, m["name"], got["value"]))
        unit, samples = block.get(m["name"], (None, ""))
        if unit != m["unit"] or not samples.startswith("n="):
            errors.append("%s: %s missing from the metric block" % (
                where, m["name"]))
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    # Every workload the driver has, listed in BENCHMARK.json or not.
    for workload in WORKLOADS:
        for trace in (0, 1):
            errors += check_run(spec, workload, trace)
    for e in errors:
        print("FAIL " + e)
    print("selftest: %d failure(s)" % len(errors))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
