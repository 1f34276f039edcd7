"""Every workload at ``--smoke`` size: passes its oracle, names only
defined metrics, all six inside 25 s; plus the run.py contract."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import harness
import metrics
from spans import NullTracer
from workloads import REGISTRY

ROOT = Path(__file__).resolve().parents[2]
PER_LAYER = {m.name: m for m in metrics.PER_LAYER}
SPENT = {}


@pytest.mark.parametrize("name", metrics.ALL)
def test_smoke_workload_passes_its_oracle(name):
    start = time.perf_counter()
    workload = REGISTRY[name](seed=3, smoke=True)
    workload.setup()
    sample = workload.repeat(NullTracer())
    SPENT[name] = time.perf_counter() - start

    assert [label for label, ok in sample.checks if not ok] == []
    assert len(sample.checks) == metrics.N_CHECKS[name]
    assert sample.wall_s > 0
    for key in sample.exact:
        assert key in metrics.EXACT, f"{key} is not a deterministic per-layer metric"
        assert name in PER_LAYER[key].workloads, f"{key} not declared for {name}"
    for key in sample.host:
        assert PER_LAYER[key].clock == "host"
        assert name in PER_LAYER[key].workloads


def test_smoke_sizes_fit_the_budget():
    assert set(SPENT) == set(metrics.ALL), "run the whole module"
    assert sum(SPENT.values()) < 25.0, SPENT


def test_traced_pass_yields_every_per_layer_metric():
    workload = REGISTRY["dslash-wire"](seed=3, smoke=True)
    workload.setup()
    layer, document, samples = harness.traced_pass(workload, "dslash-wire")
    assert set(layer) == set(PER_LAYER)
    shares = [v for k, v in layer.items() if k.endswith(".self_share")]
    assert abs(sum(shares) - 1.0) <= 0.01
    assert document["unmapped_files"] == []
    # the word protocol and the event kernel do the work here
    engine = sum(layer[f"{k}.self_share"] for k in ("sim.core", "machine.scu", "machine.hssl", "machine.machine"))
    assert engine > 0.5
    assert layer["machine.engine_s"] > layer["parallel.rank_program_s"] > 0
    assert layer["sim.kernel_events_per_host_s"] > 0
    assert all(ok for s in samples for _, ok in s.checks)
    names = {e["name"] for e in document["traceEvents"]}
    assert {"machine.machine.run_partition", "machine.machine.bring_up"} <= names


def run_py(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=str(cwd),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_run_py_prints_the_contract_line(trace):
    done = run_py(ROOT, "--workload", "dslash-wire", "--seed", "4", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert set(result["metrics"]) == {m.name for m in expected}
    for m in expected:
        assert result["metrics"][m.name]["unit"] == m.unit
        assert isinstance(result["metrics"][m.name]["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_py_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = run_py(tmp_path, "--workload", "dslash-wire", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
