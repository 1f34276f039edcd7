"""The registry of every structured-trace tag emitted in :mod:`repro`.

Contract (PR 3): a tag may be emitted **only** if it appears here, with
**exactly** the field names declared here.  ``tests/test_trace_schema.py``
enforces both directions — it AST-scans the source tree for ``.emit(...)``
call sites and diffs them against :data:`TRACE_SCHEMA`, so adding an
emission without registering it (or silently renaming a field) fails CI.

Tags are namespaced ``unit.event``:

``link.*``
    the bit-serial physical layer (:mod:`repro.machine.hssl`);
``scu.*``
    the serial-communications unit protocol engines
    (:mod:`repro.machine.scu`);
``irq.*``
    the partition interrupt tree (:mod:`repro.machine.interrupts`);
``cpu.*``
    node compute charging (:mod:`repro.machine.node`);
``gsum.*``
    global-operations engine (:mod:`repro.machine.globalops`);
``cg.*``
    the distributed solver layer (:mod:`repro.parallel.pcg`);
``fault.*``
    the permanent-hardware-fault injection schedule
    (:mod:`repro.machine.faults`).

A record whose fields include ``dur`` is a **span**: it is emitted at the
*end* of the interval it describes, ``record.time - dur`` being the start.
The Chrome-trace exporter renders spans as complete ("X") events and
everything else as instants.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List

from repro.sim.trace import Trace, TraceRecord

#: tag -> exact field-name set carried by every emission of that tag
TRACE_SCHEMA: Dict[str, FrozenSet[str]] = {
    # -- physical link layer ------------------------------------------------
    "link.trained": frozenset({"link"}),
    "link.fault": frozenset({"link", "bit", "seq"}),
    "link.deliver": frozenset({"link", "ptype", "seq", "nwords"}),
    "link.down": frozenset({"link", "mode"}),
    # -- SCU protocol engines ----------------------------------------------
    "scu.send": frozenset({"node", "direction", "words", "resends", "dur"}),
    "scu.recv": frozenset({"node", "direction", "words", "dur"}),
    "scu.resend": frozenset({"node", "direction", "seq"}),
    "scu.parity_error": frozenset({"node", "direction", "seq"}),
    "scu.start_stored": frozenset({"node", "group", "n_transfers"}),
    "scu.supervisor": frozenset({"node", "direction", "word"}),
    # -- SCU hard-fault watchdog (companion papers) -------------------------
    "scu.backoff": frozenset({"node", "direction", "wait"}),
    "scu.link_down": frozenset({"node", "direction", "reason"}),
    # -- fault-injection schedule -------------------------------------------
    "fault.inject": frozenset({"kind", "node", "direction"}),
    # -- interrupt tree -----------------------------------------------------
    "irq.forward": frozenset({"node", "bits"}),
    "irq.present": frozenset({"node", "bits"}),
    # -- CPU compute charging ----------------------------------------------
    "cpu.compute": frozenset({"node", "flops", "kernel", "dur"}),
    # -- global operations --------------------------------------------------
    "gsum.complete": frozenset({"nwords", "hops", "dur"}),
    # -- solver layer -------------------------------------------------------
    "cg.iteration": frozenset({"rank", "iteration", "residual"}),
    "cg.checkpoint": frozenset({"rank", "iteration"}),
    "hmc.force": frozenset({"rank", "iterations"}),
}

#: tags whose records are spans (carry ``dur``; exporter draws intervals)
SPAN_TAGS: FrozenSet[str] = frozenset(
    tag for tag, fields in TRACE_SCHEMA.items() if "dur" in fields
)


def validate_record(record: TraceRecord) -> List[str]:
    """Schema violations for one record (empty list = conformant)."""
    problems: List[str] = []
    expected = TRACE_SCHEMA.get(record.tag)
    if expected is None:
        problems.append(f"unregistered trace tag {record.tag!r}")
        return problems
    got = frozenset(record.names)
    if got != expected:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        problems.append(
            f"tag {record.tag!r} field drift: missing {missing}, extra {extra}"
        )
    return problems


def validate_trace(trace: Trace) -> List[str]:
    """Schema violations across an entire trace (empty list = conformant)."""
    problems: List[str] = []
    for record in trace:
        problems.extend(validate_record(record))
    return problems
