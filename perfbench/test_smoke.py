"""Smoke test of the benchmark itself, at tiny size.

    python3 -m pytest perfbench/test_smoke.py

Every workload must report every end-to-end metric of BENCHMARK.json with
its unit, a traced run every per-layer metric, and the last output line
must be the documented result object.  Runs from the repository root.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, "--seconds", "1", "--quick", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["attempted"] >= 1
    assert doc["failed"] == 0  # known failures are found in set-up, not timed
    return doc


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_with_units(workload):
    doc = result(run("--workload", workload, "--seed", "3", "--trace", "0"))
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    got = {name: m["unit"] for name, m in doc["metrics"].items()}
    assert got == want
    for name, m in doc["metrics"].items():
        assert isinstance(m["value"], (int, float)) and m["value"] > 0, name


def test_traced_run_reports_every_layer_metric():
    doc = result(run("--workload", "pipeline", "--seed", "3", "--trace", "1"))
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == want
    assert doc["metrics"]["transform.normalize.nodes_in"]["value"] > 0
    assert doc["metrics"]["semantics.oracle.calls"]["value"] == 0
    assert doc["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    proc = run("--workload", "sweep", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
