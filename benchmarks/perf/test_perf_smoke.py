"""Smoke test of the wall-clock benchmark (not collected by tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q``.  Drives
``run.py --smoke`` (quarter-size streams, 3 replays) over every workload and
both passes, and checks the output against what ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
METRIC_LINE = re.compile(r"^(\S+) (\S+) = (\S+) (\S+)$")


def test_smoke_prints_every_declared_metric_once_per_workload():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    units = {
        entry["name"]: entry["unit"]
        for entry in bench["end_to_end"] + bench["per_layer"]
    }
    workloads = [entry["name"] for entry in bench["workloads"]]

    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr

    printed: Counter = Counter()
    results = []
    for line in done.stdout.splitlines():
        if line.startswith("{"):
            results.append(json.loads(line))
            continue
        found = METRIC_LINE.match(line)
        if found is None:  # headers and the unit-less ops_* counts
            continue
        workload, metric, value, unit = found.groups()
        assert math.isfinite(float(value)), line
        assert units[metric] == unit, line
        printed[workload, metric] += 1

    assert printed == Counter(
        {(workload, metric): 1 for workload in workloads for metric in units}
    )
    # One JSON object per workload and pass, all correct, none empty.
    assert len(results) == 2 * len(workloads)
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        for name, metric in result["metrics"].items():
            assert math.isfinite(metric["value"]), name
