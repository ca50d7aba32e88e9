"""Tests of the benchmark itself, at smoke size.

Each workload must report every metric BENCHMARK.json names, with its unit,
in both passes; a wrong expected value must trip the output check; and the
command must fail, without a result line, when the sources are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def _run(tmp_path, workload, trace=False, expect=workloads.reference_output):
    ctx = workloads.Context(
        workload=workload,
        seed=3,
        seconds=0.0,
        trace=trace,
        workdir=str(tmp_path),
        src_dir=os.path.join(ROOT, "src"),
        sizes=workloads.SMOKE,
        expect=expect,
    )
    return workloads.run_workload(ctx)


def _units(result):
    return {name: unit for name, (_value, unit) in result.metrics.items()}


def test_declared_workloads_match_the_runner():
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == workloads.WORKLOADS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(tmp_path, workload):
    result = _run(tmp_path, workload)
    assert result.correct and result.attempted > 0, result.details
    assert _units(result) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(value > 0 for value, _unit in result.metrics.values()), result.metrics


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_smoke_run_reports_every_per_layer_metric(tmp_path, workload):
    result = _run(tmp_path, workload, trace=True)
    assert result.correct, result.details
    assert _units(result) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert result.metrics["trace.overhead_ratio"][0] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrong_expected_value_trips_the_output_check(tmp_path, workload):
    def off_by_one(spec, x):
        return workloads.reference_output(spec, x) + 1

    result = _run(tmp_path, workload, expect=off_by_one)
    assert not result.correct
    assert 0 < result.failed <= result.attempted


def test_reference_values_agree_with_the_specs():
    from repro.lab import resolve_spec

    for name in workloads.REFERENCE:
        spec = resolve_spec(name)
        for x in spec.grid(7):
            assert workloads.reference_output(name, x) == spec(x), (name, x)


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny-cells", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
