"""BENCHMARK.json: names, units and the limits the benchmark contract sets."""

import json
import os
import re

from pbench.stats import valid_metric_name

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def test_top_level_keys():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 1 <= SPEC["run_seconds"] <= 60
    assert SPEC["paths"] == ["perfbench"]


def test_names_fit_the_charset_and_are_unique():
    names = (
        [w["name"] for w in SPEC["workloads"]]
        + [m["name"] for m in SPEC["end_to_end"]]
        + [m["name"] for m in SPEC["per_layer"]]
    )
    assert all(valid_metric_name(name) for name in names)
    assert len(names) == len(set(names))
    assert not valid_metric_name("bad name")
    assert not valid_metric_name("_leading")
    assert not valid_metric_name("x" * 65)


def test_metric_entries():
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert unit.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == [
        "ntp-fleet", "lossy-mesh-hardened", "serve-probes",
    ]
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
