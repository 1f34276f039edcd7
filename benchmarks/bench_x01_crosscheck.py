"""X1 — Cross-validation: functional simulator vs analytic model.

The two halves of this reproduction must agree where they overlap.  A
distributed Wilson CG runs on the *functional* machine (real SCU DMA
traffic, real global sums, compute charged by the machine's one
compute-time rule over the operator's cost sheet); the *analytic* model
prices the identical configuration with the same rule.  The comparison is
in seconds, part by part:

* every part is a closed form of what the twin does — the CPU seconds of
  every operator application and inner product, the global-sum seconds,
  and the seconds the ranks wait on the wires (the pipeline's own phase
  order over the error-free transfer times) — and is **equal** to float
  tolerance (``MachineReport.crosscheck``);
* the seconds per iteration differ by what the model's per-site sheet
  leaves out: the sender-side staging matvecs the twin charges on
  decomposed faces — 3.5% of an iteration here, the whole of the gap.

The exposure is then held over the full product the pipelines run:
Wilson, DWF (``Ls = 4``) and ASQTAD, every local extent 1-4 on 1-4
decomposed axes (ASQTAD only at 4: its Kawamoto-Smit phases need an even
extent, its Naik halo 3), word at a time and one frame per face.  Every
point's crosscheck passes; the largest exposure error is recorded in
``BENCH_crosscheck.json``.
"""

import pytest

from conftest import emit, write_artifact
from repro.fermions.flops import operator_cost
from repro.lattice import GaugeField, LatticeGeometry
from repro.machine.asic import MachineConfig
from repro.machine.machine import QCDOCMachine
from repro.parallel import solve_on_machine
from repro.perfmodel import DiracPerfModel
from repro.perfmodel.dirac_perf import cg_kernel_calls
from repro.telemetry.report import EXACT_REL_TOL
from repro.util import rng_stream
from repro.util.units import US
from tests.harness import crosschecked

LOCAL_SHAPE = (4, 4, 4, 4)
MACHINE_DIMS = (2, 2, 2, 1)


def run_functional():
    """8-node machine, 4^4-per-node Wilson lattice."""
    machine = QCDOCMachine(MachineConfig(dims=(2, 2, 2, 1, 1, 1)), word_batch=8192)
    machine.bring_up()
    partition = machine.partition(groups=[(0,), (1,), (2,), (3,)])
    geom = LatticeGeometry((8, 8, 8, 4))  # 4^4 per node on 2x2x2x1
    rng = rng_stream(1, "crosscheck")
    gauge = GaugeField.weak(geom, rng, eps=0.25)
    b = rng.standard_normal((geom.volume, 4, 3)) + 0j
    res = solve_on_machine(
        machine, partition, gauge, b, mass=0.4, tol=1e-7, max_time=1e9
    )
    assert res.converged and res.checksum_mismatches == []
    return machine, res


def test_x01_functional_vs_model(benchmark, report):
    machine, res = benchmark.pedantic(run_functional, rounds=1, iterations=1)
    iterations = res.iterations

    # the solve: D^+ b, then two applications per iteration; each
    # iteration's vector kernels after the set-up's two inner products
    crosscheck = machine.report().crosscheck(
        "wilson",
        LOCAL_SHAPE,
        MACHINE_DIMS,
        n_applications=2 * iterations + 1,
        linalg=cg_kernel_calls(iterations),
    )
    entries = {entry.metric: entry for entry in crosscheck.entries}

    model = DiracPerfModel()
    volume = 4**4
    predicted = (
        model.cg_cycles_per_site("wilson", LOCAL_SHAPE, machine_dims=MACHINE_DIMS)
        * volume
        / model.asic.clock_hz
    )
    # per-iteration time; +1 for the initial D^+ b application pair
    t_iter = res.machine_time / (iterations + 1)
    measured_fraction = res.flops / (machine.peak_flops * res.machine_time)
    modelled_fraction = model.efficiency("wilson", LOCAL_SHAPE, MACHINE_DIMS)
    # the named residual: staged U^+ psi matvecs on the three decomposed
    # axes, as a share of the sheet's flops on the tile
    cost = operator_cost("wilson")
    face_sites = sum(volume // LOCAL_SHAPE[mu] for mu in range(3))
    staging = cost.halo_flops(face_sites) / (volume * cost.flops_per_site)

    t = report(
        "X1: simulated machine vs analytic model, Wilson CG, 4^4/node, 8 nodes",
        ["quantity", "functional simulator", "analytic model", "rel. difference"],
    )
    for name in ("compute_seconds", "global_sum_seconds", "exposed_comm_seconds"):
        e = entries[name]
        t.add_row(
            [
                name.replace("_", " ") + " (whole solve)",
                f"{e.measured/US:.3f} us",
                f"{e.predicted/US:.3f} us",
                f"{e.rel_error:.1e}",
            ]
        )
    t.add_row(
        [
            "seconds per CG iteration",
            f"{t_iter/US:.1f} us",
            f"{predicted/US:.1f} us",
            f"{t_iter/predicted - 1:+.1%} (staging flops: {staging:.1%})",
        ]
    )
    t.add_row(
        [
            "sustained fraction of peak",
            f"{measured_fraction:.4f}",
            f"{modelled_fraction:.4f}",
            f"{measured_fraction/modelled_fraction - 1:+.2%}",
        ]
    )
    t.add_row(["CG iterations (tol 1e-7)", iterations, "-", "-"])
    emit(t)

    # every part is an equality ...
    assert crosscheck.ok, f"crosscheck failed:\n{crosscheck}"
    for name in ("compute_seconds", "global_sum_seconds", "exposed_comm_seconds"):
        assert entries[name].rel_error <= EXACT_REL_TOL
    # ... at this shape the wires keep no rank waiting ...
    assert entries["exposed_comm_seconds"].predicted == 0.0
    # ... and the seconds per iteration differ by the staging flops the
    # twin charges and the per-site sheet leaves out, and by nothing else
    assert 0.0 < t_iter / predicted - 1.0 <= staging < 0.05
    # they are charged flops at the same rate, so the paper's figure — the
    # sustained fraction of peak — is the model's 40% on the twin
    assert measured_fraction == pytest.approx(modelled_fraction, rel=1e-3)
    assert measured_fraction == pytest.approx(0.40, abs=1e-3)


#: the sweep's operators and their parameters
SWEEP = {
    "wilson": {"mass": 0.3},
    "dwf": {"M5": 1.8, "mf": 0.1, "Ls": 4},
    "asqtad": {"mass": 0.1},
}


def test_x01_exposure_sweep(report):
    points = []
    for op, params in SWEEP.items():
        for comm_axes in (1, 2, 3, 4):
            for extent in (4,) if op == "asqtad" else (1, 2, 3, 4):
                tile = (extent,) * comm_axes + (2,) * (4 - comm_axes)
                batches = (1, "face")
                results = crosschecked(op, tile, comm_axes, batches, **params)
                for batch, result in zip(batches, results):
                    assert result.ok, f"{op} {tile} {batch}:\n{result}"
                    exposed = {e.metric: e for e in result.entries}[
                        "exposed_comm_seconds"
                    ]
                    points.append(
                        {
                            "op": op,
                            "tile": list(tile),
                            "comm_axes": comm_axes,
                            "word_batch": batch,
                            "exposed_measured_s": exposed.measured,
                            "exposed_predicted_s": exposed.predicted,
                            "run_s": exposed.scale,
                            "rel_error": exposed.rel_error,
                        }
                    )

    t = report(
        "X1: exposed communication, twin vs the pipeline's phase order "
        "(per operator: points, largest exposure, largest error)",
        ["operator", "points", "largest share of the run", "largest rel. error"],
    )
    for op in SWEEP:
        mine = [p for p in points if p["op"] == op]
        t.add_row(
            [
                op,
                len(mine),
                f"{max(p['exposed_measured_s'] / p['run_s'] for p in mine):.1%}",
                f"{max(p['rel_error'] for p in mine):.1e}",
            ]
        )
    emit(t)
    largest = max(p["rel_error"] for p in points)
    assert largest <= EXACT_REL_TOL
    write_artifact(
        "crosscheck",
        {
            "experiment": "X1 exposure sweep",
            "points": points,
            "max_exposure_rel_error": largest,
        },
    )
