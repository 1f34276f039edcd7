"""Dslash smoke benchmark (``make bench-smoke``).

Quantifies the hot-path perf levers on a deliberately comm-heavy tile
(2 nodes, 2^4 local volume) and records them in ``BENCH_dslash.json`` at
the repo root:

* **Wire compression** — the compressed SCU exchange ships 12 words per
  Wilson face site instead of the seed's 24; with word-at-a-time DMA
  (``word_batch=1``, the protocol-test convention) the simulated exchange
  — read off the serialised order, which exposes all of it, and equal
  on either wire to what the model prices that order at — must be at
  least 1.5x faster than the seed full-spinor one.  In the overlapped
  step the tile's arithmetic hides the compressed exchange whole and
  leaves a sixth of the seed step exposed, which is asserted as that
  ordering; the step ratio it implies (1.19x; no tile reaches 1.5x, see
  EXPERIMENTS.md "Known deviations") is recorded.
* **Face batching** — ``word_batch="face"`` moves each halo face as one
  frame: one 8-bit header per face instead of per word on the simulated
  wire, and two orders of magnitude fewer simulator events on the host.
* **Compiled replay** — replay never changes simulated time (the
  replayed timeline is bit-identical by construction, asserted here); it
  removes host-side event interpretation from steady-state iterations.
* **Cumulative ≥3x row** — the three levers compound on the *host
  wall-clock of the simulated steady-state dslash workload* (12
  applications): seed configuration (full spinor, per-word DMA,
  interpreted) vs hot path (compressed, face-batched, replayed) must be
  at least **3x** faster end to end.  Simulated time is compute-bound on
  this tile (the charged flops are physics-invariant), so the simulated-
  time trajectory (1.19x compression; face batching adds nothing once
  the exchange is hidden) is recorded alongside, not gated at 3x.
* **Bit-exactness attestation** — face batching is bit-identical to
  per-word DMA in both wire formats, replay is bit-identical to the
  interpreted engine, and the hot-path output is bit-identical to the
  *serial* operator (the physics reference).  The seed full-spinor path
  itself deviates from the serial kernel at fp-rounding level (it
  multiplies before projecting); the compressed kernel matches the
  serial arithmetic exactly.
* **Memoised gather tables** — repeated operator applications must be
  pure cache hits; the wall-clock cost of rebuilding the index tables on
  every application (the seed behaviour) is measured against the
  memoised path.

Marked ``perf`` so it can be selected with ``pytest -m perf``.
"""

import time

import numpy as np
import pytest

from conftest import write_artifact
from repro.fermions import WilsonDirac
from repro.fermions.flops import HALF_SPINOR_WORDS, SPINOR_WORDS
from repro.lattice import GaugeField, LatticeGeometry, stencil
from repro.machine.asic import MachineConfig
from repro.machine.machine import QCDOCMachine
from repro.parallel import PhysicsMapping, apply_on_machine
from repro.parallel.pcg import wilson_context
from repro.perfmodel import DiracPerfModel
from repro.telemetry.report import EXACT_REL_TOL
from repro.util import rng_stream

GLOBAL_SHAPE = (4, 2, 2, 2)  # -> 2^4 local volume on a 2-node decomposition
DIMS = (2, 1, 1, 1, 1, 1)
STEADY_APPLIES = 12  # steady-state workload for the cumulative wall row


def _problem():
    rng = rng_stream(17, "bench-dslash")
    geom = LatticeGeometry(GLOBAL_SHAPE)
    gauge = GaugeField.hot(geom, rng)
    psi = rng.standard_normal((geom.volume, 4, 3)) + 1j * rng.standard_normal(
        (geom.volume, 4, 3)
    )
    return geom, gauge, psi


def _serial_reference(applies: int = 1):
    """The serial-operator ground truth for ``applies`` chained dslashes."""
    geom, gauge, psi = _problem()
    d = WilsonDirac(gauge, mass=0.3)
    out = psi
    for _ in range(applies):
        out = d.apply(out)
    return out


def _dslash_step(
    compress: bool, word_batch, applies: int = 1, replay: bool = True, overlap=True
):
    """Run ``applies`` distributed Wilson dslash applications.

    ``word_batch`` configures *both* the machine and the operator context
    (the context default is ``"face"``; the seed configuration forces the
    word-at-a-time protocol end to end).  Returns (simulated seconds,
    host wall seconds, gathered result, per-rank transfer counters, face
    sites, the machine).
    """
    machine = QCDOCMachine(
        MachineConfig(dims=DIMS), word_batch=word_batch, replay=replay
    )
    machine.bring_up()
    partition = machine.partition(groups=[(0,), (1,), (2,), (3,)])
    geom, gauge, psi = _problem()
    mapping = PhysicsMapping(geom, partition)
    context = wilson_context(
        mapping,
        gauge,
        0.3,
        overlap=overlap,  # True: the seed default pipeline
        compress=compress,
        word_batch=word_batch,
    )
    t0 = machine.sim.now
    w0 = time.perf_counter()
    result = apply_on_machine(machine, partition, context, psi, applies=applies)
    wall = time.perf_counter() - w0
    sim_t = machine.sim.now - t0
    counters = [
        machine.nodes[partition.physical_node(rank)].scu.transfer_counters()
        for rank in range(partition.n_nodes)
    ]
    local = LatticeGeometry(mapping.local_shape)
    nface = local.volume // local.shape[0]
    return sim_t, wall, result, counters, nface, machine


def _wall_time_per_application(cold: bool, n: int = 10) -> float:
    """Median wall seconds per serial dslash application; ``cold=True``
    clears the memoised stencil tables before every application (the
    seed's per-call rebuild behaviour)."""
    rng = rng_stream(19, "bench-wall")
    geom = LatticeGeometry((8, 8, 8, 8))
    gauge = GaugeField.hot(geom, rng)
    d = WilsonDirac(gauge, mass=0.3)
    psi = rng.standard_normal((geom.volume, 4, 3)) + 0j
    d.apply(psi)  # warm everything once (numpy, allocator, tables)
    samples = []
    for _ in range(n):
        if cold:
            stencil.cache_clear()
        t0 = time.perf_counter()
        d.apply(psi)
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples))


@pytest.mark.perf
def test_dslash_smoke(telemetry_report):
    # -- word_batch x compression sweep over the simulated machine --------
    # seed configuration: full spinor, word-at-a-time DMA
    t_seed, _, r_seed, counters_full, nface, m_seed = _dslash_step(
        compress=False, word_batch=1
    )
    # compression alone (the half-spinor PR's original claim)
    t_comp, _, r_comp, counters_comp, _, m_comp = _dslash_step(
        compress=True, word_batch=1
    )
    # face batching alone
    t_face, _, r_face, _, _, _ = _dslash_step(compress=False, word_batch="face")
    # the full hot path: compression + face batching
    t_hot, _, r_hot, _, _, machine = _dslash_step(compress=True, word_batch="face")

    words_comp = counters_comp[0]["payload_words_sent"] // (2 * nface)
    words_full = counters_full[0]["payload_words_sent"] // (2 * nface)
    assert words_comp == HALF_SPINOR_WORDS  # 12 on the wire
    assert words_full == SPINOR_WORDS  # the seed's 24
    # the exchange itself, read off the serialised order (nothing hides it),
    # is what the model prices the serialised order at, on either wire
    exchange_seed, exchange_comp = (
        _dslash_step(compress=compress, word_batch=1, overlap=False)[5]
        .report()
        .exposed_comm_seconds(2)
        for compress in (False, True)
    )
    for compress, exchange in ((False, exchange_seed), (True, exchange_comp)):
        assert exchange == pytest.approx(
            DiracPerfModel().exposed_comm_seconds(
                "wilson", (2, 2, 2, 2), DIMS[:4], overlap=False, compress=compress
            ),
            rel=EXACT_REL_TOL,
        )
    exchange_speedup = exchange_seed / exchange_comp
    assert exchange_speedup >= 1.5, f"compression speedup {exchange_speedup:.3f} < 1.5"
    # overlapped, the tile's arithmetic hides the compressed exchange whole
    # and the step gains what the seed wire left exposed
    speedup = t_seed / t_comp
    exposed_seed = m_seed.report().exposed_comm_seconds(2)
    exposed_comp = m_comp.report().exposed_comm_seconds(2)
    assert exposed_comp <= 1e-9 * t_comp < 0.15 * t_seed <= exposed_seed
    sim_hot_factor = t_seed / t_hot

    # bit-exactness attestation, layer by layer:
    #  * face batching never changes a bit in either wire format,
    #  * the hot path reproduces the serial operator exactly (the seed
    #    full-spinor path is the one with an fp-rounding deviation).
    assert np.array_equal(r_seed, r_face), "face batching drifted (full spinor)"
    assert np.array_equal(r_comp, r_hot), "face batching drifted (compressed)"
    assert np.array_equal(r_hot, _serial_reference()), (
        "hot path drifted from the serial operator"
    )

    # -- steady state: the cumulative >=3x row ---------------------------
    # Host wall-clock of the simulated dslash workload, seed configuration
    # (full spinor, per-word DMA, interpreted) vs the full hot path
    # (compressed, face-batched, replayed).
    _, wall_seed, r_seed_n, _, _, _ = _dslash_step(
        compress=False, word_batch=1, applies=STEADY_APPLIES, replay=False
    )
    sim_int, wall_int, r_int, _, _, _ = _dslash_step(
        compress=True, word_batch="face", applies=STEADY_APPLIES, replay=False
    )
    sim_rep, wall_rep, r_rep, _, _, m_rep = _dslash_step(
        compress=True, word_batch="face", applies=STEADY_APPLIES, replay=True
    )
    replay_stats = m_rep.replay_stats()
    assert replay_stats["epochs_replayed"] > 0, "replay never engaged"
    assert sim_int == sim_rep  # the replayed timeline is exact
    assert np.array_equal(r_int, r_rep)
    assert np.array_equal(r_rep, _serial_reference(STEADY_APPLIES))

    cumulative = wall_seed / wall_rep
    assert cumulative >= 3.0, (
        f"cumulative hot-path speedup {cumulative:.3f} < 3.0 "
        f"(seed {wall_seed*1e3:.1f} ms vs hot {wall_rep*1e3:.1f} ms "
        f"over {STEADY_APPLIES} applications)"
    )

    # -- wall clock: memoised gather tables vs per-call rebuild ----------
    wall_cached = _wall_time_per_application(cold=False)  # builds tables
    before = stencil.cache_info()
    wall_cached = _wall_time_per_application(cold=False)  # pure cache hits
    info = stencil.cache_info()
    # Zero per-call recomputation is the deterministic claim (the wall
    # numbers are reported, not asserted — they ride on host noise):
    # warm applications never rebuild an index table.
    assert info["misses"] == before["misses"]
    assert info["hits"] > before["hits"]
    wall_cold = _wall_time_per_application(cold=True)

    payload = {
        "tile": {
            "global_lattice": list(GLOBAL_SHAPE),
            "local_lattice": [2, 2, 2, 2],
            "nodes": 2,
        },
        "wire_words_per_face_site": {
            "compressed": words_comp,
            "seed_full_spinor": words_full,
        },
        "simulated_dslash_step_seconds": {
            "seed_full_spinor_word_batch_1": t_seed,
            "compressed_word_batch_1": t_comp,
            "full_spinor_face_batched": t_face,
            "compressed_face_batched": t_hot,
        },
        "exposed_comm_seconds": {
            "seed_full_spinor_word_batch_1": exposed_seed,
            "compressed_word_batch_1": exposed_comp,
        },
        "serialised_exchange_seconds": {
            "seed_full_spinor_word_batch_1": exchange_seed,
            "compressed_word_batch_1": exchange_comp,
        },
        "exchange_speedup_vs_seed_path": exchange_speedup,
        "speedup_vs_seed_path": speedup,
        "simulated_speedups": {
            "compression": speedup,
            "face_batching_full_spinor": t_seed / t_face,
            "face_batching_compressed": t_comp / t_hot,
            "hot_path_vs_seed": sim_hot_factor,
            "note": (
                "simulated time is compute-bound on this tile; the charged "
                "flops are physics-invariant, so the simulated trajectory "
                "saturates near the CPU floor"
            ),
        },
        "cumulative_speedup_vs_seed": {
            "factor": cumulative,
            "metric": (
                "host wall-clock of the simulated steady-state dslash "
                f"workload ({STEADY_APPLIES} applications): seed "
                "configuration (full spinor, word_batch=1, interpreted) "
                "vs hot path (compressed, face-batched, replayed)"
            ),
            "levers": [
                "half-spinor compression",
                "face batching",
                "compiled event-trace replay",
            ],
            "bit_exact": True,
            "bit_exactness": (
                "hot-path output bit-identical to the serial operator; "
                "face batching bit-identical to word_batch=1 per wire "
                "format; replayed timeline bit-identical to interpreted"
            ),
            "simulated_time_factor": sim_hot_factor,
        },
        "replay": {
            "applies": STEADY_APPLIES,
            "interpreted_wall_seconds": wall_int,
            "replayed_wall_seconds": wall_rep,
            "wall_factor_vs_interpreted": wall_int / wall_rep,
            "epochs_replayed": replay_stats["epochs_replayed"],
            "replayed_transfers": replay_stats["replayed_transfers"],
            "interpreted_fallbacks": replay_stats["interpreted_fallbacks"],
            "simulated_seconds_identical": sim_int == sim_rep,
        },
        "wall_seconds_per_application": {
            "lattice": [8, 8, 8, 8],
            "memoised_tables": wall_cached,
            "per_call_rebuild": wall_cold,
            "speedup": wall_cold / wall_cached,
        },
        "gather_table_cache": info,
    }
    out = write_artifact("dslash", payload)

    # -- full machine-telemetry dump beside the perf numbers --------------
    telemetry = telemetry_report(machine, "dslash", force=True)
    print(
        f"\nBENCH_dslash: {words_comp} wire words/face site "
        f"(seed {words_full}), compression {speedup:.3f}x sim, "
        f"hot path {sim_hot_factor:.3f}x sim / {cumulative:.2f}x wall "
        f"cumulative over {STEADY_APPLIES} applies (bit-exact vs serial), "
        f"replay {wall_int / wall_rep:.2f}x wall vs interpreted, "
        f"wall/apply {wall_cached * 1e3:.2f} ms memoised vs "
        f"{wall_cold * 1e3:.2f} ms rebuilt -> {out.name}"
        + (f" (+ {telemetry.name})" if telemetry else "")
    )
