"""Counter-conservation suite for the telemetry subsystem (PR 3).

The counters are hardware-style: incremented unconditionally on the hot
path, sampled on demand by a :class:`repro.telemetry.counters.CounterBank`.
That makes them cheap — and it makes their *invariants* the test surface:

* **conservation** — at quiesce, every payload word sent has been
  received and nothing is in flight (``sent == received + in_flight`` with
  ``in_flight == 0`` once the event heap drains);
* **wire ordering** — wire words >= payload words always, with equality
  *iff* the go-back-N engine never resent;
* **flop exactness** — machine-charged flops for each fermion action
  match the :mod:`repro.fermions.flops` cost sheets to the word, via the
  :mod:`repro.perfmodel.dirac_perf` closed forms;
* **attribution** — per-kernel flop counters partition the total exactly;
* **ledger** — the solver flop ledger is off by default and exact when on.

The protocol-level cases are property-based (hypothesis drives transfer
sizes, batching and fault rates); the physics cases pin one configuration
per action.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fermions.flops import CADD, CMUL
from repro.lattice import GaugeField, LatticeGeometry
from repro.machine.asic import MachineConfig
from repro.machine.machine import QCDOCMachine
from repro.machine.scu import DmaDescriptor
from repro.parallel import PhysicsMapping
from repro.perfmodel.dirac_perf import dirac_flops_per_node, halo_payload_words
from repro.solvers import kernels
from repro.solvers.krylov import lift, run_serial
from repro.telemetry.counters import CounterBank, bank_for_machine
from repro.util import rng_stream

pytestmark = pytest.mark.telemetry

GROUPS = [(0,), (1,), (2,), (3,)]
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


def make_machine(word_batch=4096):
    m = QCDOCMachine(MachineConfig(dims=DIMS_1D), word_batch=word_batch)
    m.bring_up()
    return m, m.partition(groups=GROUPS)


def wilson_like_run(shape, clover: bool):
    from repro.fermions.clover import CloverDirac
    from repro.parallel.pdirac import DistributedWilsonContext

    rng = rng_stream(17, "telemetry-wilson")
    geom = LatticeGeometry(shape)
    gauge = GaugeField.hot(geom, rng)
    psi = rng.standard_normal((geom.volume, 4, 3)) + 1j * rng.standard_normal(
        (geom.volume, 4, 3)
    )
    m, part = make_machine()
    mapping = PhysicsMapping(geom, part)
    links = mapping.scatter_gauge(gauge)
    lpsi = mapping.scatter_field(psi)
    clov = None
    if clover:
        serial = CloverDirac(gauge, mass=0.3, c_sw=1.0)
        clov = mapping.scatter_field(serial.clover_tensor)

    def program(api):
        ctx = DistributedWilsonContext(
            api,
            mapping.local_shape,
            links[api.rank],
            mass=0.3,
            clover_tensor=None if clov is None else clov[api.rank],
        )
        out = yield from ctx.apply(lpsi[api.rank])
        return out

    m.run_partition(part, program)
    return m, mapping


def dwf_run(shape, Ls):
    from repro.parallel.pdwf import DistributedDWFContext

    rng = rng_stream(17, "telemetry-dwf")
    geom = LatticeGeometry(shape)
    gauge = GaugeField.hot(geom, rng)
    psi = rng.standard_normal((Ls, geom.volume, 4, 3)) + 1j * rng.standard_normal(
        (Ls, geom.volume, 4, 3)
    )
    m, part = make_machine()
    mapping = PhysicsMapping(geom, part)
    links = mapping.scatter_gauge(gauge)
    lb = np.stack([mapping.scatter_field(psi[s]) for s in range(Ls)], axis=1)

    def program(api):
        ctx = DistributedDWFContext(
            api, mapping.local_shape, links[api.rank], Ls=Ls, M5=1.8, mf=0.1
        )
        out = yield from ctx.apply(lb[api.rank])
        return out

    m.run_partition(part, program)
    return m, mapping


def staggered_run(shape):
    from repro.fermions.staggered import fat_links, long_links
    from repro.parallel.pstaggered import DistributedStaggeredContext

    rng = rng_stream(17, "telemetry-stag")
    geom = LatticeGeometry(shape)
    gauge = GaugeField.hot(geom, rng)
    m, part = make_machine()
    mapping = PhysicsMapping(geom, part)
    fat = fat_links(gauge)
    lng = long_links(gauge)
    ndim = geom.ndim
    v = mapping.tiling.local_volume
    lfat = np.empty((mapping.n_ranks, ndim, v, 3, 3), dtype=np.complex128)
    llong = np.empty_like(lfat)
    for mu in range(ndim):
        lfat[:, mu] = mapping.tiling.scatter(fat[mu])
        llong[:, mu] = mapping.tiling.scatter(lng[mu])
    chi = rng.standard_normal((geom.volume, 3)) + 1j * rng.standard_normal(
        (geom.volume, 3)
    )
    lchi = mapping.scatter_field(chi)

    def program(api):
        ctx = DistributedStaggeredContext(
            api, mapping.local_shape, lfat[api.rank], llong[api.rank], mass=0.1
        )
        out = yield from ctx.apply(lchi[api.rank])
        return out

    m.run_partition(part, program)
    return m, mapping


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
    m, mapping = wilson_like_run((4, 2, 2, 2), clover=False)
    _assert_exact(m, mapping, "wilson")


def test_clover_flops_and_words_exact():
    m, mapping = wilson_like_run((4, 2, 2, 2), clover=True)
    _assert_exact(m, mapping, "clover")


def test_dwf_flops_and_words_exact():
    m, mapping = dwf_run((4, 2, 2, 2), Ls=4)
    _assert_exact(m, mapping, "dwf", Ls=4)


def test_asqtad_flops_and_words_exact():
    m, mapping = staggered_run((8, 2, 2, 2))
    _assert_exact(m, mapping, "asqtad")


def test_kernel_attribution_partitions_total():
    """Per-kernel flop counters sum exactly to each node's flops_charged."""
    m, _ = wilson_like_run((4, 2, 2, 2), clover=True)
    for node in m.nodes.values():
        assert node.kernel_flops, "no kernel tags recorded"
        assert None not in node.kernel_flops, "untagged compute on Dirac path"
        assert sum(node.kernel_flops.values()) == pytest.approx(
            node.flops_charged, rel=1e-12
        )
        assert "dslash" in node.kernel_flops
        assert "clover_term" in node.kernel_flops


# ---------------------------------------------------------------------------
# CounterBank mechanics
# ---------------------------------------------------------------------------


def test_bank_for_machine_hierarchy():
    m, mapping = wilson_like_run((4, 2, 2, 2), clover=False)
    bank = bank_for_machine(m)
    flat = bank.sample()
    # every node exposes the SCU + cpu + memory counters
    for node_id in m.nodes:
        assert flat[f"node{node_id}.scu.payload_words_sent"] > 0
        assert flat[f"node{node_id}.scu.in_flight_words"] == 0
        assert flat[f"node{node_id}.cpu.flops_charged"] > 0
        assert f"node{node_id}.mem.edram.read_bytes" in flat
    # tree() nests by path segment
    tree = bank.tree()
    assert tree["node0"]["scu"]["payload_words_sent"] == pytest.approx(
        flat["node0.scu.payload_words_sent"]
    )
    # total() aggregates a subtree and matches the node-summed counters
    assert bank.total("node0.scu.payload_words_sent") + bank.total(
        "node1.scu.payload_words_sent"
    ) == totals(m, "payload_words_sent")
    # units are declared for the protocol counters
    assert bank.unit("node0.scu.payload_words_sent") == "words"
    assert bank.unit("node0.cpu.flops_charged") == "flops"


def test_bank_manual_counters_merge():
    bank = CounterBank()
    bank.add("app.solver.iterations", 3)
    bank.add("app.solver.iterations", 2)
    bank.register_provider(lambda: {"app.solver.iterations": 10, "x.y": 1})
    flat = bank.sample()
    # provider values add onto the manual counter at the same path
    assert flat["app.solver.iterations"] == 15
    assert flat["x.y"] == 1
    assert bank.total("app") == 15
    assert len(bank) == 2


def test_bank_providers_are_pull_mode():
    """Registering a provider must not invoke it (sample-on-demand)."""
    calls = []
    bank = CounterBank()
    bank.register_provider(lambda: calls.append(1) or {"a.b": 1})
    assert calls == []
    bank.sample()
    bank.sample()
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# solver flop ledger
# ---------------------------------------------------------------------------


@pytest.fixture(autouse=True)
def _ledger_off():
    """Keep the module-global ledger disabled and empty across tests."""
    kernels.LEDGER.enabled = False
    kernels.LEDGER.reset()
    yield
    kernels.LEDGER.enabled = False
    kernels.LEDGER.reset()


def test_ledger_disabled_by_default_records_nothing():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    y = x.copy()
    ws = np.empty_like(x)
    kernels.axpy(0.5, x, y, ws)
    kernels.xpay(x, 0.25, y)
    assert kernels.LEDGER.total() == 0.0
    assert kernels.LEDGER.calls == {}


def test_ledger_exact_flop_counts():
    n = 48
    rng = np.random.default_rng(7)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ws = np.empty_like(x)
    kernels.LEDGER.enabled = True
    kernels.axpy(0.5 + 0.1j, x, y, ws)
    kernels.xpay(x, 0.25, y)
    run_serial(kernels.axpy_norm2(-0.5, x, y, ws, lift(np.vdot)))
    kernels.scale_axpy(0.3, x, 0.7j, y, ws)
    per = {
        "axpy": 2 * (CMUL + CADD) * n,  # two axpy-class calls (axpy + inner
        # axpy of axpy_norm2)
        "xpay": (CMUL + CADD) * n,
        "dot": (CMUL + CADD) * n,
        "scale_axpy": (2 * CMUL + CADD) * n,
    }
    assert kernels.LEDGER.flops == pytest.approx(per)
    assert kernels.LEDGER.calls == {
        "axpy": 2,
        "xpay": 1,
        "dot": 1,
        "scale_axpy": 1,
    }
    assert kernels.LEDGER.total() == pytest.approx(sum(per.values()))
