"""Fault-injection telemetry: counters under a degraded link (PR 3).

The paper's link hardware detects single-bit errors by parity and recovers
by an automatic go-back-N resend; the end-of-link checksum confirms no
erroneous data survived.  The telemetry layer must *account* for that
recovery, not absorb it:

* every injected fault is detected exactly once — receiver
  ``parity_errors`` equals the network's injected-fault count, and the
  trace shows matching ``link.fault`` / ``scu.parity_error`` records;
* sender ``resends`` is at least the fault count (gap-triggered duplicate
  RESEND requests may rewind the window more than once per fault) and
  every resend puts extra words on the wire: ``wire > payload`` strictly;
* the payload itself is delivered intact (counters and checksum audit);
* :meth:`MachineReport.crosscheck` **flags** the degraded link: the
  ``wire_overhead`` entry fails its 1.0 prediction while the payload and
  flop entries — which count useful work — still pass exactly.
"""

import pytest

from repro.parallel import PhysicsMapping
from tests.harness import applied, booted, system

pytestmark = [pytest.mark.telemetry, pytest.mark.protocol]

DIMS_1D = (2, 1, 1, 1, 1, 1)
MACHINE_DIMS = (2, 1, 1, 1)
SHAPE = (4, 2, 2, 2)
BER = 2e-3


def faulty_dslash(ber=BER, seed=17):
    """One distributed Wilson dslash at word_batch=1 over lossy links."""
    m, part = booted(
        DIMS_1D, word_batch=1, bit_error_rate=ber, seed=seed, trace=True
    )
    gauge, psi = system((17, "fault-telemetry"), SHAPE)
    applied(m, part, "wilson", gauge, psi, mass=0.3)
    return m, PhysicsMapping(gauge.geometry, part)


@pytest.fixture(scope="module")
def degraded():
    return faulty_dslash()


def _scu_total(m, name):
    return sum(n.scu.transfer_counters()[name] for n in m.nodes.values())


def test_every_fault_detected_exactly_once(degraded):
    m, _ = degraded
    faults = m.network.total_faults_injected()
    assert faults > 0, "seed/ber produced no faults; test is vacuous"
    assert _scu_total(m, "parity_errors") == faults


def test_trace_records_match_fault_counters(degraded):
    m, _ = degraded
    faults = m.network.total_faults_injected()
    assert m.trace.count("link.fault") == faults
    assert m.trace.count("scu.parity_error") == faults
    assert m.trace.count("scu.resend") == _scu_total(m, "resends")


def test_resends_cover_faults_and_inflate_wire(degraded):
    m, _ = degraded
    faults = m.network.total_faults_injected()
    resends = _scu_total(m, "resends")
    # go-back-N: at least one rewind per detected fault; duplicate RESEND
    # requests may rewind more
    assert resends >= faults
    assert _scu_total(m, "wire_words_sent") > _scu_total(
        m, "payload_words_sent"
    )
    # receiver-side accounting of the recovery protocol
    assert _scu_total(m, "resend_requests") > 0


def test_payload_survives_degradation(degraded):
    """Retransmission is invisible to the payload accounting: delivered
    words equal sent words, nothing in flight, checksums clean."""
    m, _ = degraded
    assert _scu_total(m, "payload_words_received") == _scu_total(
        m, "payload_words_sent"
    )
    assert sum(n.scu.in_flight_words() for n in m.nodes.values()) == 0
    assert m.audit_checksums() == []


def test_crosscheck_flags_degraded_link(degraded):
    """The measured-vs-model crosscheck fails loudly — on the wire-rate
    entry, never on the useful work — instead of absorbing retransmission
    traffic; the seconds the resends keep the ranks waiting show too."""
    m, mapping = degraded
    result = m.report().crosscheck("wilson", mapping.local_shape, MACHINE_DIMS)
    assert not result.ok
    by_metric = {e.metric: e for e in result.entries}
    # useful-work entries stay exact under degradation
    assert by_metric["payload_words_sent"].ok
    assert by_metric["flops_charged"].ok
    assert by_metric["compute_seconds"].ok
    # the wire-overhead prediction (1.0) is violated and reported
    flagged = by_metric["wire_overhead"]
    assert not flagged.ok
    assert flagged.measured > 1.0
    # a clean run of this shape hides all its communication (the control
    # below); go-back-N on a lossy wire does not
    exposed = by_metric["exposed_comm_seconds"]
    assert exposed.predicted == 0.0 < exposed.measured
    assert [e for e in result.failures() if e is not exposed] == [flagged]
    assert "FAIL" in str(flagged)


def test_wire_overhead_metric(degraded):
    m, _ = degraded
    rep = m.report()
    assert rep.wire_overhead == pytest.approx(
        rep.total_wire_words / rep.total_payload_words
    )
    assert rep.wire_overhead > 1.0
    assert rep.total_resends == _scu_total(m, "resends")
    assert rep.total_parity_errors == m.network.total_faults_injected()


def test_clean_machine_has_unit_overhead():
    """Control: the same workload without fault injection crosschecks
    fully, wire_overhead exactly 1.0."""
    m, mapping = faulty_dslash(ber=0.0)
    result = m.report().crosscheck("wilson", mapping.local_shape, MACHINE_DIMS)
    assert result.ok, str(result)
    exposed = {e.metric: e for e in result.entries}["exposed_comm_seconds"]
    assert exposed.rel_error < 1e-9
    assert m.report().wire_overhead == 1.0
    assert m.network.total_faults_injected() == 0
