"""Reduced-size runs of every workload through the benchmark command."""

import json
import os
import subprocess
import sys

import pytest

from test_spec import ROOT, SPEC


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "2",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported(workload, trace):
    lines, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        reading = result["metrics"][metric["name"]]
        assert reading["unit"] == metric["unit"]
        assert isinstance(reading["value"], float)
        # every metric is printed by name with its unit before the result line
        assert any(
            line.split()[:1] == [metric["name"]] and line.endswith(metric["unit"])
            for line in lines[:-1]
        )
    if not trace:
        assert all(r["value"] > 0 for r in result["metrics"].values())
    else:
        assert result["metrics"]["trace.overhead_share"]["value"] != 0


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (bench / "run.py").write_text(open(os.path.join(ROOT, "perfbench", "run.py")).read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ntp-fleet", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
