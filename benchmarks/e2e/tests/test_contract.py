"""``BENCHMARK.json`` says what ``run.py`` prints, in the driver's format."""

import json
import os
import re

import definitions
import layers

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_keys_and_limits():
    bench = load()
    assert sorted(bench) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads",
    ]
    assert bench["paths"] == ["benchmarks/e2e"]
    assert bench["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    names = (
        [w["name"] for w in bench["workloads"]]
        + [m["name"] for m in bench["end_to_end"]]
        + [m["name"] for m in bench["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for workload in bench["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in bench["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_names_equal_what_run_py_prints():
    bench = load()
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == definitions.WORKLOADS
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]
    ] == definitions.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in bench["per_layer"]
    ] == definitions.PER_LAYER


def test_every_layer_metric_is_produced_and_every_span_is_charged():
    declared = {name for name, _, _ in definitions.PER_LAYER}
    assert set(layers.SPAN_LAYER.values()) <= declared
    assert set(definitions.SIZES) == set(definitions.SMOKE_SIZES) == {
        name for name, _ in definitions.WORKLOADS
    }
    assert set(definitions.POOLED) <= set(definitions.SIZES)
