"""Shared helpers for the experiment benchmarks (E1-E14).

Each ``bench_eNN_*.py`` regenerates one quantitative claim of the paper's
evaluation and prints a paper-vs-measured table; ``pytest benchmarks/
--benchmark-only`` runs them all.  The tables land on stdout (pytest's
``-s`` shows them live; the captured output is in the report either way).

``--report`` (PR 3) additionally dumps machine telemetry: any bench that
calls the ``telemetry_report`` fixture writes the full
:meth:`~repro.telemetry.report.MachineReport.to_json` snapshot — derived
metrics plus the complete counter hierarchy — to
``BENCH_<name>_telemetry.json`` at the repo root.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.lattice import GaugeField, LatticeGeometry
from repro.machine.asic import MachineConfig
from repro.machine.machine import QCDOCMachine
from repro.parallel import (
    solve_dwf_on_machine,
    solve_on_machine,
    solve_staggered_on_machine,
)
from repro.util import rng_stream
from repro.util.tables import Table

REPO_ROOT = Path(__file__).resolve().parents[1]


def pytest_addoption(parser):
    parser.addoption(
        "--report",
        action="store_true",
        default=False,
        help="write BENCH_<name>_telemetry.json machine-telemetry dumps "
        "beside the benchmark outputs",
    )


def _twin_solve(op: str, dims, local_shape, maxiter: int, Ls: int):
    """One CG of ``op`` stopped after ``maxiter`` iterations on a fresh
    machine of ``dims`` (a 4D partition of all of it), ``local_shape`` per
    node, one frame per face."""
    machine = QCDOCMachine(MachineConfig(dims=dims), word_batch="face")
    machine.bring_up()
    partition = machine.partition(groups=[(0,), (1,), (2,), (3,)])
    shape = tuple(l * d for l, d in zip(local_shape, partition.logical_dims))
    geom = LatticeGeometry(shape)
    rng = rng_stream(1, f"twin-cg-{op}")
    gauge = GaugeField.weak(geom, rng, eps=0.25)
    stop = dict(tol=1e-30, maxiter=maxiter, max_time=1e9)
    if op == "dwf":
        b = rng.standard_normal((Ls, geom.volume, 4, 3)) + 0j
        res = solve_dwf_on_machine(machine, partition, gauge, b, Ls=Ls, **stop)
    elif op == "asqtad":
        b = rng.standard_normal((geom.volume, 3)) + 0j
        res = solve_staggered_on_machine(
            machine, partition, gauge, b, mass=0.2, **stop
        )
    else:
        b = rng.standard_normal((geom.volume, 4, 3)) + 0j
        c_sw = 1.0 if op == "clover" else None
        res = solve_on_machine(
            machine, partition, gauge, b, mass=0.4, c_sw=c_sw, **stop
        )
    assert res.iterations == maxiter and res.checksum_mismatches == []
    return machine, partition, res


def twin_cg(op: str, dims, local_shape, iterations: int = 4, Ls: int = 8) -> dict:
    """A few CG iterations of ``op`` on the functional twin — the "measured
    on the twin" column of E1 / E2: the paper's sustained fraction of peak,
    and the seconds of one rank over the whole solve split the way
    hep-lat/0210034 tabulates its estimates — compute, exposed
    communication, global sums.  The paper's figure is the steady
    state's, so the set-up (``D^+ b`` and its two dots, no vector
    updates) is run on its own, stopped before the first iteration, and
    taken out of the fraction; ``iterations`` can then be small."""
    _machine, _partition, setup = _twin_solve(op, dims, local_shape, 0, Ls)
    machine, partition, res = _twin_solve(op, dims, local_shape, iterations, Ls)
    iterating = res.machine_time - setup.machine_time
    rep = machine.report()
    n = machine.n_nodes
    return {
        "nodes": n,
        "machine_dims": partition.logical_dims,
        "fraction": (res.flops - setup.flops) / (machine.peak_flops * iterating),
        "compute_s": rep.total_compute_seconds / n,
        "exposed_comm_s": rep.exposed_comm_seconds(n),
        "global_sum_s": machine.global_sum_seconds,
        "run_s": machine.run_seconds,
    }


def write_artifact(name: str, payload: dict) -> Path:
    """Write ``BENCH_<name>.json`` at the repo root: the one writer of the
    committed benchmark artifacts (two-space indent, trailing newline)."""
    out = REPO_ROOT / f"BENCH_{name}.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    return out


def emit(table: Table) -> None:
    """Print a results table, unbuffered, with surrounding whitespace."""
    sys.stdout.write("\n" + table.render() + "\n")
    sys.stdout.flush()


@pytest.fixture
def report():
    """A factory for paper-vs-measured tables."""

    def make(title: str, headers):
        return Table(headers, title=title)

    return make


@pytest.fixture
def telemetry_report(request):
    """A writer for machine-telemetry JSON dumps.

    ``write(machine, name)`` samples ``machine.report()`` and writes it to
    ``BENCH_<name>_telemetry.json`` when ``--report`` was passed (or when
    ``force=True`` — the dslash smoke always emits its dump so the perf
    gate has counters to diff against).  Returns the path, or ``None``
    when reporting is off.
    """
    enabled = request.config.getoption("--report")

    def write(machine, name: str, force: bool = False):
        if not (enabled or force):
            return None
        return write_artifact(f"{name}_telemetry", machine.report().to_json())

    return write
