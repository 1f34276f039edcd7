"""SCU counter ownership (REPRO2xx).

The SCU and the links keep always-on hardware counters (paper section
2.2), and the measured-vs-model crosscheck audits them.  They are
charged inside the owning units and read through
``CommsAPI.transfer_counters`` or ``telemetry.counters.sample``; nothing
else writes them.  (The SCU's other contract — every send-family
completion event is consumed — is REPRO501,
:mod:`repro.analysis.flow.rules`, which follows it through wrappers.)
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.engine import Finding, Project, Rule, register_rule


#: always-on hardware counters: mutating them anywhere but inside the
#: owning machine/sim units forges telemetry.  The read path is
#: ``telemetry.counters.sample`` (read on demand).
_COUNTER_ATTRS = frozenset(
    {
        "payload_words",
        "wire_words",
        "acks_received",
        "acks_sent",
        "resends",
        "resend_requests",
        "parity_errors",
        "idle_hold_events",
        "idle_held_words_total",
        "transfers_completed",
        "flops_charged",
        "compute_time",
        "kernel_flops",
        "frames_sent",
        "bits_sent",
        "faults_injected",
        "busy_seconds",
        "read_bytes",
        "write_bytes",
    }
)

#: packages that own counters (hardware units + the sim substrate); the
#: telemetry layer itself only *samples* but its test doubles may write
_COUNTER_OWNERS = frozenset({"machine", "sim", "telemetry"})


@register_rule
class CounterOwnershipRule(Rule):
    """Hardware counters are charged only inside the owning units.

    Node programs and solvers read counters through
    ``CommsAPI.transfer_counters`` / ``telemetry.counters.sample``;
    writing ``node.flops_charged`` (or any SCU/link counter) from the
    physics layer would silently fork the books the
    measured-vs-model crosscheck audits.
    """

    rule_id = "REPRO202"
    name = "counterbank-only"
    summary = (
        "machine counters (payload_words, flops_charged, ...) may be "
        "mutated only inside repro.machine / repro.sim units"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            if module.package in _COUNTER_OWNERS:
                continue
            for node in module.nodes:
                targets: list = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr in _COUNTER_ATTRS
                    ):
                        yield self.finding(
                            module,
                            node,
                            f"write to hardware counter .{target.attr} outside "
                            "the owning machine unit; charge through the unit "
                            "(compute(), SCU transfers) and read through "
                            "CommsAPI.transfer_counters or "
                            "telemetry.counters.sample",
                        )
