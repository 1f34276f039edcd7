"""Counter-conservation suite for the telemetry subsystem (PR 3).

The counters are hardware-style: incremented unconditionally on the hot
path, read on demand by :func:`repro.telemetry.counters.sample`.
That makes them cheap — and it makes their *invariants* the test surface:

* **conservation** — at quiesce, every payload word sent has been
  received and nothing is in flight (``sent == received + in_flight`` with
  ``in_flight == 0`` once the event heap drains);
* **wire ordering** — wire words >= payload words always, with equality
  *iff* the go-back-N engine never resent;
* **flop exactness** — machine-charged flops for each fermion action
  match the :mod:`repro.fermions.flops` cost sheets to the word, via the
  :mod:`repro.perfmodel.dirac_perf` closed forms;
* **attribution** — per-kernel flop counters partition the total exactly.

The protocol-level cases are property-based (hypothesis drives transfer
sizes, batching and fault rates); the physics cases pin one configuration
per action.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.asic import MachineConfig
from repro.machine.machine import QCDOCMachine
from repro.machine.scu import DmaDescriptor
from repro.parallel import PhysicsMapping
from repro.perfmodel.dirac_perf import dirac_flops_per_node, halo_payload_words
from repro.telemetry import observable_diff, observables
from tests.harness import applied, booted, system

pytestmark = pytest.mark.telemetry

DIMS_1D = (2, 1, 1, 1, 1, 1)


# ---------------------------------------------------------------------------
# raw SCU transfers: conservation + wire ordering (property-based)
# ---------------------------------------------------------------------------


def run_transfer(nwords: int, word_batch: int, ber: float, seed: int):
    """One send/recv pair across a 2-node machine; returns the machine."""
    m = QCDOCMachine(
        MachineConfig(dims=DIMS_1D),
        word_batch=word_batch,
        bit_error_rate=ber,
        seed=seed,
    )
    m.bring_up()
    data = np.arange(1, nwords + 1, dtype=np.uint64)
    m.nodes[0].memory.alloc("tx", data)
    m.nodes[1].memory.alloc("rx", np.zeros(nwords, dtype=np.uint64))
    d = m.topology.direction(0, +1)
    recv = m.nodes[1].scu.recv(
        m.topology.opposite(d), DmaDescriptor("rx", block_len=nwords)
    )
    send = m.nodes[0].scu.send(d, DmaDescriptor("tx", block_len=nwords))
    m.sim.run(until=m.sim.all_of([send, recv]), max_time=5.0)
    assert np.array_equal(m.nodes[1].memory.get("rx"), data)
    return m


def totals(machine, name: str) -> float:
    return sum(
        n.scu.transfer_counters()[name] for n in machine.nodes.values()
    )


@settings(deadline=None, max_examples=25)
@given(
    nwords=st.integers(min_value=1, max_value=160),
    word_batch=st.sampled_from([1, 4, 32, 4096]),
)
def test_conservation_clean_link(nwords, word_batch):
    """sent == received and in_flight == 0 at quiesce, on a clean link."""
    m = run_transfer(nwords, word_batch, ber=0.0, seed=11)
    assert totals(m, "payload_words_sent") == nwords
    assert totals(m, "payload_words_received") == nwords
    assert totals(m, "payload_words_sent") == totals(
        m, "payload_words_received"
    )
    assert sum(n.scu.in_flight_words() for n in m.nodes.values()) == 0
    # clean link: wire == payload, no protocol exceptions of any kind
    assert totals(m, "wire_words_sent") == totals(m, "payload_words_sent")
    assert totals(m, "resends") == 0
    assert totals(m, "parity_errors") == 0


@settings(deadline=None, max_examples=20)
@given(
    nwords=st.integers(min_value=8, max_value=160),
    ber=st.sampled_from([0.0, 5e-4, 2e-3, 8e-3]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_wire_dominates_payload(nwords, ber, seed):
    """wire >= payload always; equality holds iff nothing was resent."""
    m = run_transfer(nwords, word_batch=1, ber=ber, seed=seed)
    payload = totals(m, "payload_words_sent")
    wire = totals(m, "wire_words_sent")
    resends = totals(m, "resends")
    assert wire >= payload
    assert (wire == payload) == (resends == 0)
    # conservation survives retransmission: receiver still got every word
    assert totals(m, "payload_words_received") == nwords
    assert sum(n.scu.in_flight_words() for n in m.nodes.values()) == 0


@settings(deadline=None, max_examples=15)
@given(
    nwords=st.integers(min_value=4, max_value=120),
    word_batch=st.sampled_from([1, 16, 4096]),
)
def test_completion_counters(nwords, word_batch):
    """Exactly one send and one recv complete; protocol frame counters
    balance (every data frame acked on a clean link)."""
    m = run_transfer(nwords, word_batch, ber=0.0, seed=3)
    assert totals(m, "sends_completed") == 1
    assert totals(m, "recvs_completed") == 1
    assert totals(m, "acks_sent") == totals(m, "acks_received")
    assert totals(m, "resend_requests") == 0


# ---------------------------------------------------------------------------
# distributed operators: flop + payload exactness per action
# ---------------------------------------------------------------------------


def operator_run(op, stream, shape, **params):
    """One application of ``op`` on a fresh 2-node machine; returns the
    machine and the mapping (for the tile shape)."""
    gauge, src = system((17, stream), shape, op, Ls=params.get("Ls"))
    m, part = booted(DIMS_1D, word_batch=4096)
    applied(m, part, op, gauge, src, **params)
    return m, PhysicsMapping(gauge.geometry, part)


MACHINE_DIMS = (2, 1, 1, 1)


def _assert_exact(m, mapping, op, Ls=1):
    n_ranks = m.n_nodes
    predicted_words = n_ranks * halo_payload_words(
        op, mapping.local_shape, MACHINE_DIMS, Ls=Ls
    )
    predicted_flops = n_ranks * dirac_flops_per_node(
        op, mapping.local_shape, MACHINE_DIMS, Ls=Ls
    )
    measured_words = totals(m, "payload_words_sent")
    measured_flops = sum(n.flops_charged for n in m.nodes.values())
    assert measured_words == predicted_words
    assert measured_flops == pytest.approx(predicted_flops, rel=1e-12)
    # conservation holds for the physics path too
    assert totals(m, "payload_words_received") == measured_words
    assert sum(n.scu.in_flight_words() for n in m.nodes.values()) == 0


def test_wilson_flops_and_words_exact():
    m, mapping = operator_run("wilson", "telemetry-wilson", (4, 2, 2, 2), mass=0.3)
    _assert_exact(m, mapping, "wilson")


def test_clover_flops_and_words_exact():
    m, mapping = operator_run(
        "wilson", "telemetry-wilson", (4, 2, 2, 2), mass=0.3, c_sw=1.0
    )
    _assert_exact(m, mapping, "clover")


def test_dwf_flops_and_words_exact():
    m, mapping = operator_run(
        "dwf", "telemetry-dwf", (4, 2, 2, 2), Ls=4, M5=1.8, mf=0.1
    )
    _assert_exact(m, mapping, "dwf", Ls=4)


def test_asqtad_flops_and_words_exact():
    m, mapping = operator_run("asqtad", "telemetry-stag", (8, 2, 2, 2), mass=0.1)
    _assert_exact(m, mapping, "asqtad")


def test_kernel_attribution_partitions_total():
    """Per-kernel flop counters sum exactly to each node's flops_charged."""
    m, _ = operator_run(
        "wilson", "telemetry-wilson", (4, 2, 2, 2), mass=0.3, c_sw=1.0
    )
    for node in m.nodes.values():
        assert node.kernel_flops, "no kernel tags recorded"
        assert None not in node.kernel_flops, "untagged compute on Dirac path"
        assert sum(node.kernel_flops.values()) == pytest.approx(
            node.flops_charged, rel=1e-12
        )
        assert "dslash" in node.kernel_flops
        assert "clover_term" in node.kernel_flops


# ---------------------------------------------------------------------------
# the counter sample
# ---------------------------------------------------------------------------


def test_bank_for_machine_hierarchy():
    m, mapping = operator_run("wilson", "telemetry-wilson", (4, 2, 2, 2), mass=0.3)
    flat = m.counters()
    # every node exposes the SCU + cpu + memory counters
    for node_id in m.nodes:
        assert flat[f"node{node_id}.scu.payload_words_sent"] > 0
        assert flat[f"node{node_id}.scu.in_flight_words"] == 0
        assert flat[f"node{node_id}.cpu.flops_charged"] > 0
        assert f"node{node_id}.mem.edram.read_bytes" in flat


def test_observable_diff_names_what_drifted():
    """The fingerprint's drift report: nothing for a re-sample, and
    exactly the one counter and the one trace record that moved."""
    gauge, psi = system((17, "telemetry-wilson"), (4, 2, 2, 2))
    m, part = booted(DIMS_1D, word_batch=4096, trace=True)
    applied(m, part, "wilson", gauge, psi, mass=0.3)
    ref = observables(m)
    assert set(ref) == {"counters", "trace", "now", "replay"}
    assert ref["trace"] and ref["counters"]
    assert observable_diff(ref, observables(m)) == {}

    got = {name: copy.copy(value) for name, value in ref.items()}
    path = "node1.scu.payload_words_sent"
    got["counters"][path] += 1
    record = next(r for r in ref["trace"] if r[1] == "scu.send")
    del got["trace"][record]
    assert observable_diff(ref, got) == {
        "counters": {path: (ref["counters"][path], ref["counters"][path] + 1)},
        "trace": {record: (1, None)},
    }
    # a scalar observable drifts as (ref, got); a sub-dict compares fewer
    got["now"] = ref["now"] + 1e-9
    assert observable_diff({"now": ref["now"]}, got) == {
        "now": (ref["now"], got["now"])
    }
