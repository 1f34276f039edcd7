"""Machine-as-a-service: multi-tenant job service over one machine.

The layer the facility papers describe around QCDOC — one booted
machine, many users, the qdaemon carving congruent sub-torus partitions
per job — realised over the software twin:

* :class:`~repro.service.scheduler.SchedulerCore` — pure packing /
  fair-share / preemption decisions (property-tested in isolation);
* :class:`~repro.service.service.QcdocService` — the orchestrator
  binding those decisions to real launches, checkpointed preemption,
  and fault-driven remap + resubmit.
"""

from repro.service.jobs import Job, JobResult, JobState, TenantRollup, WilsonJobSpec
from repro.service.scheduler import (
    AdmissionError,
    Preempt,
    QueueFullError,
    SchedJob,
    SchedulerCore,
    Start,
)
from repro.service.service import QcdocService
from repro.telemetry.counters import usage_delta, usage_totals

__all__ = [
    "AdmissionError",
    "Job",
    "JobResult",
    "JobState",
    "Preempt",
    "QcdocService",
    "QueueFullError",
    "SchedJob",
    "SchedulerCore",
    "Start",
    "TenantRollup",
    "WilsonJobSpec",
    "usage_delta",
    "usage_totals",
]
