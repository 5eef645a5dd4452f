"""Smoke test of the benchmark itself, on shortened workloads.

    python3 -m pytest perfbench/test_smoke.py

It checks that a shortened run of every workload prints every metric that
BENCHMARK.json names, with its unit; that the traced self times plus
unattributed_s add up to the traced wall time; and that the benchmark
refuses to run, without a result line, where the package is missing.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path.insert(0, HERE)
from tracer import LAYERS  # noqa: E402

WORKLOAD_METRICS = {
    "mlp-quickstart": {"train_examples_per_s", "epoch_ms_p50", "epoch_ms_p90",
                       "eval_examples_per_s", "eval_ms_p50", "inspect_s",
                       "robust_acc", "kappa_max_final"},
    "diagnose": {"eval_examples_per_s", "eval_ms_p50", "radius_ms_p50",
                 "radius_ms_p90", "inspect_s", "robust_acc"},
}
WORKLOAD_METRICS["cnn-trend"] = WORKLOAD_METRICS["mlp-quickstart"]


def run(workload, trace, cwd=ROOT):
    cmd = SPEC["command"][1:] + ["--workload", workload, "--seed", "3",
                                 "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run([sys.executable] + cmd, cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def result_of(out):
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result, json.loads(lines[-2])["detail"]


def check_metrics(result, listed):
    expected = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for m in result["metrics"].values():
        assert math.isfinite(m["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_reports_every_end_to_end_metric(workload):
    result, detail = result_of(run(workload, 0))
    check_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert set(detail["workload_metrics"]) - {"samples"} == WORKLOAD_METRICS[workload]
    assert detail["environment"]["blas_threads"] in (1, None)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_add_up_to_wall_time(workload):
    result, detail = result_of(run(workload, 1))
    check_metrics(result, SPEC["per_layer"])
    m = {name: v["value"] for name, v in result["metrics"].items()}
    wall, rest = m["traced_wall_s"], m["unattributed_s"]
    assert rest >= 0.0
    assert all(v >= 0.0 for v in detail["self_s"].values())
    assert math.isclose(sum(detail["self_s"].values()) + rest, wall, rel_tol=1e-9)
    layers = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    assert math.isclose(layers + rest, wall, rel_tol=1e-9)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
