"""The metric table obeys the driver's contract and matches BENCHMARK.json."""

import json
import re
from pathlib import Path

import layers
import metrics

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_names_units_and_counts():
    every = metrics.END_TO_END + metrics.PER_LAYER
    names = [m.name for m in every] + list(metrics.WORKLOADS)
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m.unit) for m in every)
    assert all(m.better in ("lower", "higher") for m in every)
    assert all(m.clock in ("host", "simulated", "count") for m in every)
    assert 1 <= len(metrics.END_TO_END) <= 16
    assert 1 <= len(metrics.PER_LAYER) <= 128
    assert 2 <= len(metrics.WORKLOADS) <= 8


def test_end_to_end_bounds_and_setup():
    by_name = {m.name: m for m in metrics.END_TO_END}
    assert all(0 < m.bound <= 0.25 for m in metrics.END_TO_END)
    setup = by_name["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in metrics.END_TO_END)
    # the contract wants every end-to-end metric on every workload
    assert all(m.workloads == metrics.ALL for m in metrics.END_TO_END)


def test_workloads_and_reasons():
    assert tuple(metrics.WORKLOADS) == metrics.ALL
    assert set(metrics.N_CHECKS) == set(metrics.ALL)
    for why in metrics.WORKLOADS.values():
        assert len(why) <= 200 and "\n" not in why
    for m in metrics.PER_LAYER:
        assert m.workloads and set(m.workloads) <= set(metrics.ALL), m.name
        assert m.moves, m.name


def test_every_layer_has_a_share_metric():
    names = {m.name for m in metrics.PER_LAYER}
    assert {f"{layer}.self_share" for layer in layers.LAYERS} <= names


def test_benchmark_json_is_the_manifest():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == metrics.manifest()
    assert list(committed) == [
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    ]
    assert committed["paths"] == ["bench"]
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
