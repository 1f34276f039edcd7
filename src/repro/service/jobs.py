"""Job specifications and runtime records for the service layer.

A :class:`WilsonJobSpec` is everything a tenant hands over: the physics
(gauge field, source, mass, clover) and the machine shape it wants (the
logical sub-torus ``groups``/``extents``).  The service wraps each
accepted spec in a :class:`Job` — the host-side record that survives
restarts, remaps, and preemptions — and resolves it to a
:class:`JobResult` exactly once (zero lost jobs, zero double
completions).
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.solvers.checkpoint import CGCheckpointStore
from repro.telemetry.counters import USAGE_COUNTERS, merge_samples
from repro.util.errors import ConfigError


class JobState(enum.Enum):
    """Host-side lifecycle of a submitted job.

    ``QUEUED -> RUNNING -> DONE`` is the happy path.  ``PREEMPTING``
    and ``RECOVERING`` are both "revocation in flight" (a checkpointed
    drain for preemption, an abort-and-quarantine for a hard fault);
    both return to ``QUEUED`` for re-dispatch.  ``FAILED`` is terminal
    and always carries the error.
    """

    QUEUED = "queued"
    RUNNING = "running"
    PREEMPTING = "preempting"
    RECOVERING = "recovering"
    DONE = "done"
    FAILED = "failed"


@dataclass
class WilsonJobSpec:
    """One Wilson/clover CGNE solve, as a tenant submits it."""

    gauge: Any
    b: np.ndarray
    mass: float
    #: physical-axis folding groups for the requested logical machine
    groups: Sequence[Sequence[int]]
    #: physical extents of the requested sub-torus
    extents: Tuple[int, ...]
    c_sw: Optional[float] = None
    tol: float = 1e-8
    maxiter: int = 2000
    require_periodic: bool = True

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.extents))

    def validate(self) -> None:
        if self.b.shape != (self.gauge.geometry.volume, 4, 3):
            raise ConfigError(f"bad source shape {self.b.shape}")
        if self.n_nodes < 1:
            raise ConfigError(f"bad partition extents {self.extents}")


@dataclass
class JobResult:
    """The resolved outcome of one job, with its service-level history."""

    job_id: int
    tenant: str
    x: np.ndarray
    converged: bool
    iterations: int
    residuals: List[float]
    #: simulated seconds this job spent running (summed over attempts)
    machine_time: float
    #: flops charged on this job's nodes (summed over attempts)
    flops: float
    #: fault-driven restarts survived
    restarts: int
    #: preemption round-trips survived
    preemptions: int
    #: submit -> first launch, simulated seconds
    queue_latency: float


@dataclass
class Recovery:
    """One fault-and-restart cycle of a job: what failed and what the
    daemon found; then, once it is launched again, where it went on."""

    time: float
    error: str
    diagnosis: dict
    resumed_from: Optional[int] = None  # checkpoint iteration; None = cold
    partition_nodes: List[int] = field(default_factory=list)  # rank order


class Job:
    """Host-side record of one submitted job (the service owns these)."""

    def __init__(
        self,
        job_id: int,
        tenant: str,
        spec: WilsonJobSpec,
        priority: int,
        seq: int,
        submit_time: float,
        store: CGCheckpointStore,
    ) -> None:
        self.job_id = job_id
        self.tenant = tenant
        self.spec = spec
        self.priority = priority
        self.seq = seq
        self.submit_time = submit_time
        #: host-side checkpoint store — survives every remap/preemption
        self.store = store
        self.state = JobState.QUEUED
        #: live execution state (valid while RUNNING/PREEMPTING/RECOVERING)
        self.run = None
        self.alloc = None
        self.mapping = None
        #: counter snapshot of this attempt's nodes at launch
        self.usage_baseline: Optional[Dict[str, float]] = None
        self.restarts = 0
        self.preemptions = 0
        #: one :class:`Recovery` per fault survived (or died of), in order
        self.diagnoses: List[Recovery] = []
        self.started_at: Optional[float] = None
        self.last_start: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: simulated seconds spent running, summed over attempts
        self.run_seconds = 0.0
        #: attributed usage totals, summed over attempts
        self.usage: Dict[str, float] = {}
        self.result: Optional[JobResult] = None
        self.error: Optional[BaseException] = None

    @property
    def terminal(self) -> bool:
        return self.state in (JobState.DONE, JobState.FAILED)

    @property
    def queue_latency(self) -> float:
        """Submit -> first launch, simulated seconds (0 until launched)."""
        if self.started_at is None:
            return 0.0
        return self.started_at - self.submit_time

    def __repr__(self) -> str:
        return (
            f"Job({self.job_id}, {self.tenant!r}, {self.state.value}, "
            f"{self.spec.n_nodes} nodes)"
        )


@dataclass
class TenantRollup:
    """Accumulated per-tenant accounting, fed one resolved job at a time."""

    tenant: str
    jobs_completed: int = 0
    jobs_failed: int = 0
    restarts: int = 0
    preemptions: int = 0
    node_seconds: float = 0.0
    queue_latencies: List[float] = field(default_factory=list)
    usage: Dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(USAGE_COUNTERS, 0.0)
    )

    def absorb(self, job: Job) -> None:
        """Fold one terminal job into the rollup."""
        if job.state is JobState.DONE:
            self.jobs_completed += 1
        else:
            self.jobs_failed += 1
        self.restarts += job.restarts
        self.preemptions += job.preemptions
        self.node_seconds += job.run_seconds * job.spec.n_nodes
        self.queue_latencies.append(job.queue_latency)
        self.usage = merge_samples([self.usage, job.usage])

    def as_dict(self) -> dict:
        out = asdict(self)
        usage, waits = out.pop("usage"), out.pop("queue_latencies")
        out["queue_latency_p50"], out["queue_latency_p99"] = (
            np.percentile(waits, [50, 99]).tolist() if waits else (0.0, 0.0)
        )
        out["usage"] = usage
        return out
