"""MachineReport: derived metrics, crosscheck acceptance, CG timeline (PR 3).

This file pins the PR's acceptance criteria:

* the measured-vs-model crosscheck passes **exactly** on a 2-node
  ``2^4``-per-node Wilson dslash run (rel tol 1e-9 on counted words and
  charged flops, wire overhead exactly 1.0);
* a distributed CG solve with tracing on exports a Chrome-tracing JSON
  that validates as the trace-event format — the per-node
  compute/comms/solver timeline of the paper's benchmark workload;
* the report's derived metrics (sustained GFlops, peak fraction, link
  utilisation and Mbit/s wire rate, overlap fraction) are consistent with
  the raw counters they summarise, and ``to_json`` is a faithful,
  serialisable dump.

Also covered: the closed-form prediction helpers in
:mod:`repro.perfmodel.dirac_perf` (face counting, compression switch,
unknown-operator errors) that the crosscheck is built on.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.fermions.flops import (
    HALF_SPINOR_WORDS,
    MATVEC_SU3,
    SPINOR_WORDS,
    STAGGERED_WORDS,
    operator_cost,
)
from repro.parallel import PhysicsMapping
from repro.parallel.pcg import solve_on_machine
from repro.perfmodel.dirac_perf import (
    DiracPerfModel,
    cg_kernel_calls,
    dirac_compute_seconds_per_node,
    dirac_flops_per_node,
    halo_payload_words,
)
from repro.telemetry import MachineReport, validate_trace
from repro.telemetry.report import EXACT_REL_TOL
from repro.telemetry.chrometrace import export_chrome_trace
from repro.util.errors import ConfigError
from tests.harness import applied, booted, crosschecked, system

pytestmark = pytest.mark.telemetry

DIMS_1D = (2, 1, 1, 1, 1, 1)
MACHINE_DIMS = (2, 1, 1, 1)


def wilson_machine(shape=(4, 2, 2, 2), n_applications=1, trace=False):
    m, part = booted(DIMS_1D, word_batch=4096, trace=trace)
    gauge, psi = system((17, "report"), shape)
    applied(m, part, "wilson", gauge, psi, applies=n_applications, mass=0.3)
    return m, PhysicsMapping(gauge.geometry, part)


# ---------------------------------------------------------------------------
# the acceptance crosscheck
# ---------------------------------------------------------------------------


def test_crosscheck_acceptance_2node_wilson():
    """PR 3 acceptance: exact crosscheck on the 2-node 2^4 Wilson run.

    Global (4,2,2,2) over machine dims (2,1,1,1) gives each node the
    paper's 2^4 local volume.
    """
    m, mapping = wilson_machine()
    assert mapping.local_shape == (2, 2, 2, 2)
    result = m.report().crosscheck("wilson", mapping.local_shape, MACHINE_DIMS)
    assert result.ok, f"crosscheck failed:\n{result}"
    assert result.failures() == []
    for entry in result.entries:
        assert entry.rel_error <= 1e-9
        assert str(entry).startswith("[ok]")


def test_crosscheck_counts_applications():
    """n_applications scales the word/flop predictions linearly."""
    m, mapping = wilson_machine(n_applications=3)
    report = m.report()
    assert report.crosscheck(
        "wilson", mapping.local_shape, MACHINE_DIMS, n_applications=3
    ).ok
    # the wrong application count must NOT pass
    wrong = report.crosscheck(
        "wilson", mapping.local_shape, MACHINE_DIMS, n_applications=2
    )
    assert not wrong.ok


def test_machine_report_and_bank_accessors():
    """QCDOCMachine.report()/counters() are the front door."""
    m, _ = wilson_machine()
    report = m.report()
    assert isinstance(report, MachineReport)
    assert report.counters == m.counters()


#: sha256 of ``wilson_machine()``'s report as sorted JSON: every counter,
#: total and derived metric of the run, pinned to the bit
REPORT_SHA256 = "24dcae4b1908456352d76016231c17c865dfe6d0e2789ff382bd1471677d9e08"


def test_report_json_is_pinned():
    m, _ = wilson_machine()
    blob = json.dumps(m.report().to_json(), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == REPORT_SHA256


#: a report's totals and the counter rows each one sums
TOTALS = {
    "total_flops": ".cpu.flops_charged",
    "total_compute_seconds": ".cpu.compute_seconds",
    "total_payload_words": ".scu.payload_words_sent",
    "total_wire_words": ".scu.wire_words_sent",
    "total_parity_errors": ".scu.parity_errors",
    "total_resends": ".scu.resends",
}


def test_report_is_one_snapshot():
    """A report reads the one sample it takes: another application on the
    machine moves the machine's counters, not a report taken before it."""
    m, part = booted(DIMS_1D, word_batch=4096)
    gauge, psi = system((17, "report"), (4, 2, 2, 2))
    applied(m, part, "wilson", gauge, psi, mass=0.3)
    report = m.report()
    before = {name: getattr(report, name) for name in TOTALS}
    applied(m, part, "wilson", gauge, psi, mass=0.3)
    assert m.report().total_flops > before["total_flops"]
    assert {name: getattr(report, name) for name in TOTALS} == before
    for name, suffix in TOTALS.items():
        rows = [v for path, v in report.counters.items() if path.endswith(suffix)]
        assert len(rows) == m.n_nodes
        assert before[name] == sum(rows)


def test_report_links_and_books_are_one_snapshot():
    """The link metrics, the overlap fraction, the exposed seconds and the
    crosscheck read the moment the report was taken too: one more
    application on the machine moves none of them."""
    m, part = booted(DIMS_1D, word_batch=4096)
    gauge, psi = system((17, "report"), (4, 2, 2, 2))
    applied(m, part, "wilson", gauge, psi, mass=0.3)
    report = m.report()

    def figures(rep):
        crosscheck = rep.crosscheck("wilson", (2, 2, 2, 2), MACHINE_DIMS)
        return (
            rep.link_utilisation(),
            rep.link_rate_mbit_s(),
            rep.overlap_fraction(),
            rep.exposed_comm_seconds(m.n_nodes),
            [(e.metric, e.measured, e.predicted) for e in crosscheck.entries],
        )

    before = figures(report)
    applied(m, part, "wilson", gauge, psi, mass=0.3)
    assert figures(m.report()) != before  # the machine ran on
    assert figures(report) == before


# ---------------------------------------------------------------------------
# derived metrics
# ---------------------------------------------------------------------------


def test_derived_metrics_consistent_with_counters():
    m, _ = wilson_machine()
    rep = m.report()
    assert rep.elapsed > 0
    # sustained rate is just flops / time
    assert rep.sustained_gflops == pytest.approx(
        rep.total_flops / rep.elapsed / 1e9
    )
    peak = m.n_nodes * m.asic.peak_flops
    assert rep.peak_fraction == pytest.approx(
        rep.total_flops / (peak * rep.elapsed)
    )
    assert 0.0 < rep.peak_fraction <= 1.0
    util = rep.link_utilisation()
    assert util["links_active"] > 0
    assert 0.0 < util["mean"] <= util["max"] <= 1.0
    # achieved wire rate is positive and below the physical line rate
    rate = rep.link_rate_mbit_s()
    assert rate > 0.0
    assert 0.0 <= rep.overlap_fraction() <= 1.0


def test_to_json_is_serialisable_and_faithful(tmp_path):
    m, _ = wilson_machine()
    rep = m.report()
    payload = rep.to_json()
    # survives a real JSON round trip
    blob = json.dumps(payload)
    back = json.loads(blob)
    assert back["n_nodes"] == m.n_nodes
    assert back["derived"]["sustained_gflops"] == pytest.approx(
        rep.sustained_gflops
    )
    assert back["derived"]["wire_overhead"] == 1.0
    assert back["totals"]["payload_words_sent"] == rep.total_payload_words
    assert back["totals"]["resends"] == 0
    # the full counter hierarchy rides along, sorted
    assert list(back["counters"]) == sorted(back["counters"])
    assert back["counters"]["node0.scu.payload_words_sent"] > 0


# ---------------------------------------------------------------------------
# perfmodel closed forms
# ---------------------------------------------------------------------------


def test_halo_words_closed_form():
    local = (2, 2, 2, 2)
    v = 16
    nface = v // 2
    # one decomposed axis, both faces, compressed
    assert halo_payload_words("wilson", local, (2, 1, 1, 1)) == (
        2 * nface * HALF_SPINOR_WORDS
    )
    assert halo_payload_words(
        "wilson", local, (2, 1, 1, 1), compress=False
    ) == (2 * nface * SPINOR_WORDS)
    # DWF scales by Ls; staggered ships 7 colour vectors per face site
    assert halo_payload_words("dwf", local, (2, 1, 1, 1), Ls=8) == (
        8 * 2 * nface * HALF_SPINOR_WORDS
    )
    assert halo_payload_words("asqtad", (4, 2, 2, 2), (2, 1, 1, 1)) == (
        7 * (32 // 4) * STAGGERED_WORDS
    )
    # undecomposed machine: no halo at all
    assert halo_payload_words("wilson", local, (1, 1, 1, 1)) == 0


def test_flops_closed_form():
    local = (2, 2, 2, 2)
    v = 16
    nface = v // 2
    # one staging matvec per high-face site on the decomposed axis
    wilson = dirac_flops_per_node("wilson", local, (2, 1, 1, 1))
    assert wilson == v * operator_cost("wilson").flops_per_site + (
        nface * MATVEC_SU3
    )
    # clover > wilson on identical geometry (the SU(3) clover term)
    clover = dirac_flops_per_node("clover", local, (2, 1, 1, 1))
    assert clover > wilson
    # no decomposition => no staging matvecs
    assert dirac_flops_per_node("wilson", local, (1, 1, 1, 1)) == (
        v * operator_cost("wilson").flops_per_site
    )


def test_unknown_operator_rejected():
    with pytest.raises(ConfigError):
        halo_payload_words("overlap5d", (2, 2, 2, 2), (2, 1, 1, 1))
    with pytest.raises(ConfigError):
        dirac_flops_per_node("overlap5d", (2, 2, 2, 2), (2, 1, 1, 1))
    # ... and a name is known to both functions or to neither: the
    # one-hop staggered sheet predicts its own packing (face + products,
    # one colour vector each), not ASQTAD's seven, and has a flop form
    local, dims = (4, 4, 4, 4), (2, 1, 1, 1)
    nface = 4**4 // 4
    assert halo_payload_words("naive-staggered", local, dims) == (
        2 * nface * STAGGERED_WORDS
    )  # 768
    assert dirac_flops_per_node("naive-staggered", local, dims) == (
        4**4 * operator_cost("naive-staggered").flops_per_site
        + nface * MATVEC_SU3
    )


# ---------------------------------------------------------------------------
# one compute-time rule: the twin's CPU clock reads the model's cost sheet
# ---------------------------------------------------------------------------

DIMS_16 = (2, 2, 2, 2, 1, 1)


def kernel_fraction(machine):
    """The paper's figure for the kernel alone: charged flops over FPU
    peak times the seconds the CPUs spent on them."""
    rep = machine.report()
    return rep.total_flops / (machine.asic.peak_flops * rep.total_compute_seconds)


def model_kernel_fraction(op, local_shape, Ls=1):
    model = DiracPerfModel()
    cycles = model.dirac_cycles_per_site(op, local_shape, Ls=Ls)
    return operator_cost(op).flops_per_site / (model.asic.flops_per_cycle * cycles)


def test_twin_reads_the_papers_kernel_efficiency():
    """A 16-node, 4^4-per-node Wilson chain sustains the model's
    kernel-only fraction of peak on the twin — 41.0%, the 40% CG figure
    less its linear algebra and global sums — by construction."""
    m, part = booted(DIMS_16, word_batch="face")
    gauge, psi = system((29, "twin-4"), (8, 8, 8, 8))
    applied(m, part, "wilson", gauge, psi, applies=2, mass=0.3)
    expected = model_kernel_fraction("wilson", (4, 4, 4, 4))
    assert expected == pytest.approx(0.410, abs=5e-4)
    assert kernel_fraction(m) == pytest.approx(expected, rel=1e-12)


def test_twin_falls_to_thirty_percent_when_the_tile_leaves_edram():
    """E2 seen on the twin: an 8^4-per-node tile (8.65 MB against 4 MB of
    EDRAM) streams half its words from DDR and falls to the model's
    spilled 32.2% (two nodes: the residency is the tile's, not the
    machine's)."""
    m, part = booted(DIMS_1D, word_batch="face")
    gauge, psi = system((29, "twin-8"), (16, 8, 8, 8))
    applied(m, part, "wilson", gauge, psi, applies=1, mass=0.3)
    cost = operator_cost("wilson")
    assert m.asic.edram_bytes < cost.working_set_bytes(8**4) < 3 * m.asic.edram_bytes
    expected = model_kernel_fraction("wilson", (8, 8, 8, 8))
    assert expected == pytest.approx(0.322, abs=5e-4)
    assert kernel_fraction(m) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "op, params, Ls",
    [
        ("wilson", {"mass": 0.3}, None),
        ("dwf", {"M5": 1.8, "mf": 0.1}, 4),
        ("asqtad", {"mass": 0.1}, None),
    ],
)
def test_crosscheck_seconds_at_the_hot_shape(op, params, Ls):
    """``dslash-hot``'s shape (8^4 on 16 nodes, one frame per face): every
    second of the run is accounted for — the CPU seconds equal the rule
    over the sheet, there is no global sum, and the wires keep no rank
    waiting, as the pipeline's phase order says."""
    m, part = booted(DIMS_16, word_batch="face")
    gauge, src = system((31, f"hot-{op}"), (8, 8, 8, 8), op, Ls=Ls)
    if Ls is not None:
        params = dict(params, Ls=Ls)
    applied(m, part, op, gauge, src, applies=2, **params)
    result = m.report().crosscheck(
        op, (4, 4, 4, 4), (2, 2, 2, 2), n_applications=2, Ls=Ls or 1
    )
    assert result.ok, f"crosscheck failed:\n{result}"
    entries = {e.metric: e for e in result.entries}
    assert entries["compute_seconds"].measured > 0.0
    assert entries["global_sum_seconds"].measured == 0.0
    assert entries["exposed_comm_seconds"].predicted == 0.0
    assert all(e.rel_error <= EXACT_REL_TOL for e in result.entries)
    # one application's phases — staging, interior, each halo, merge, the
    # site-local term — sum to the closed form: flops at the sheet's rate
    per_rank = entries["compute_seconds"].predicted / m.n_nodes / 2
    assert per_rank == pytest.approx(
        dirac_compute_seconds_per_node(op, (4, 4, 4, 4), (2, 2, 2, 2), Ls=Ls or 1)
    )


#: each operator's parameters in the exposure sweep
SWEEP_PARAMS = {
    "wilson": {"mass": 0.3},
    "dwf": {"M5": 1.8, "mf": 0.1, "Ls": 4},
    "asqtad": {"mass": 0.1},
}


def exposure(result):
    return {e.metric: e for e in result.entries}["exposed_comm_seconds"]


@pytest.mark.parametrize(
    "op, comm_axes, extent",
    # Wilson on every local extent 1-4 over 1-4 decomposed axes, the
    # domain wall on each extent and each axis count once, ASQTAD at the
    # one extent it runs (its Kawamoto-Smit phases need an even extent,
    # its Naik halo 3); the full product is X1's
    [("wilson", axes, extent) for axes in (1, 2, 3, 4) for extent in (1, 2, 3, 4)]
    + [("dwf", axes, 5 - axes) for axes in (1, 2, 3, 4)]
    + [("asqtad", axes, 4) for axes in (1, 2, 3)],
)
def test_exposure_is_the_pipelines_phase_order(op, comm_axes, extent):
    """Every second a rank waits on the wires is the model's: the
    pipeline's phase order over the error-free transfer times, word at a
    time and one frame per face."""
    tile = (extent,) * comm_axes + (2,) * (4 - comm_axes)
    for result in crosschecked(op, tile, comm_axes, (1, "face"), **SWEEP_PARAMS[op]):
        assert result.ok, f"crosscheck failed:\n{result}"
        assert exposure(result).rel_tol == EXACT_REL_TOL


@pytest.mark.parametrize(
    "op, tile, comm_axes",
    [
        ("wilson", (1, 1, 1, 1), 4),
        ("wilson", (1, 4, 4, 4), 4),
        ("wilson", (1, 1, 4, 4), 2),
        ("dwf", (1, 2, 2, 2), 4),
    ],
)
def test_thin_tiles_wait_on_the_wires(op, tile, comm_axes):
    """The tiles where the wires keep a rank waiting — an extent-1 axis
    has no interior to hide its exchange behind — over two applications
    word at a time: a tenth of the run or more, priced to float
    tolerance."""
    (result,) = crosschecked(op, tile, comm_axes, (1,), applies=2, **SWEEP_PARAMS[op])
    assert result.ok, f"crosscheck failed:\n{result}"
    assert exposure(result).measured > 0.1 * exposure(result).scale
    assert exposure(result).rel_error <= EXACT_REL_TOL


def test_crosscheck_seconds_of_a_solve(cg_machine):
    """A CG solve: with its vector kernels charged, the CPU and
    global-sum seconds are closed forms too."""
    m, result = cg_machine
    solve = dict(
        n_applications=2 * result.iterations + 1,
        linalg=cg_kernel_calls(result.iterations),
    )
    check = m.report().crosscheck("wilson", (2, 2, 2, 2), MACHINE_DIMS, **solve)
    assert check.ok, f"crosscheck failed:\n{check}"
    entries = {e.metric: e for e in check.entries}
    assert entries["global_sum_seconds"].measured > 0.0
    for metric in ("flops_charged", "compute_seconds", "global_sum_seconds"):
        assert entries[metric].rel_error <= EXACT_REL_TOL
    # the kernels are part of the count: leave them out and three entries
    # say so
    without = m.report().crosscheck(
        "wilson", (2, 2, 2, 2), MACHINE_DIMS, n_applications=solve["n_applications"]
    )
    assert {e.metric for e in without.failures()} == {
        "flops_charged", "compute_seconds", "global_sum_seconds"
    }


def test_crosscheck_of_a_solve_set_up():
    """A solve with no iteration to run is its set-up: ``D^+ b`` and the
    two inner products ``<r, r>`` and ``<b, b>``, each charging its own
    dot and no share of an iteration's updates."""
    m, part = booted(DIMS_1D, word_batch=4096)
    gauge, b = system((23, "report-cg"), (4, 2, 2, 2))
    result = solve_on_machine(m, part, gauge, b, mass=0.3, maxiter=0)
    assert result.iterations == 0
    assert cg_kernel_calls(0) == {
        ("axpy", "complex128"): 0, ("xpay", "complex128"): 0, ("dot", "complex128"): 2
    }
    check = m.report().crosscheck(
        "wilson", (2, 2, 2, 2), MACHINE_DIMS, n_applications=1,
        linalg=cg_kernel_calls(0),
    )
    assert check.ok, f"crosscheck failed:\n{check}"
    entries = {e.metric: e for e in check.entries}
    for metric in ("flops_charged", "compute_seconds", "global_sum_seconds"):
        assert entries[metric].measured > 0.0
        assert entries[metric].rel_error <= EXACT_REL_TOL


# ---------------------------------------------------------------------------
# distributed CG: solver telemetry + Chrome timeline (acceptance)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cg_machine():
    m, part = booted(DIMS_1D, word_batch=4096, trace=True)
    gauge, b = system((23, "report-cg"), (4, 2, 2, 2))
    result = solve_on_machine(
        m, part, gauge, b, mass=0.3, tol=1e-6, maxiter=200
    )
    return m, result


def test_cg_iteration_trace(cg_machine):
    m, result = cg_machine
    assert result.converged
    recs = m.trace.tagged("cg.iteration")
    # every rank narrates every iteration
    assert len(recs) == m.n_nodes * result.iterations
    rank0 = [r for r in recs if r.fields["rank"] == 0]
    assert [r.fields["iteration"] for r in rank0] == list(
        range(1, result.iterations + 1)
    )
    # the traced residual history IS the solver's residual history
    assert [r.fields["residual"] for r in rank0] == result.residuals[1:]
    assert validate_trace(m.trace) == []


def test_cg_chrome_export_validates(cg_machine, tmp_path):
    """Acceptance: the distributed-CG trace is a valid Chrome trace."""
    m, _ = cg_machine
    out = export_chrome_trace(m.trace, tmp_path / "cg.json")
    payload = json.loads(out.read_text())
    events = payload["traceEvents"]
    phases = {e["ph"] for e in events}
    assert phases <= {"X", "i", "M"}
    # the CG timeline interleaves compute spans, SCU traffic, global sums
    names = {e["name"] for e in events}
    assert any(n.startswith("cpu.compute") for n in names)
    assert "scu.send" in names
    assert "gsum.complete" in names
    assert "cg.iteration" in names
    # trace-event essentials on every record
    for e in events:
        assert {"name", "ph", "pid", "tid"} <= set(e)
        if e["ph"] == "X":
            assert e["dur"] >= 0.0
        if e["ph"] != "M":
            assert e["ts"] >= 0.0
    # per-pid monotone timestamps (the exporter's sorting guarantee)
    by_pid = {}
    for e in events:
        if e["ph"] != "M":
            by_pid.setdefault(e["pid"], []).append(e["ts"])
    for pid, stamps in by_pid.items():
        assert stamps == sorted(stamps), f"pid {pid} not monotone"


def test_cg_report_totals(cg_machine):
    m, result = cg_machine
    rep = m.report()
    # the report's flop total covers the whole run (machine history),
    # and the solve accounted every one of them
    assert rep.total_flops == pytest.approx(result.flops, rel=1e-12)
    assert rep.wire_overhead == 1.0
    assert rep.sustained_gflops > 0.0
