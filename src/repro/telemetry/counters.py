"""Typed hierarchical performance counters (sample-on-demand).

Design rule (acceptance criterion of PR 3): **telemetry disabled costs at
most one attribute check on simulation hot paths**.  The machine units
therefore keep the counters they always kept — plain integer attributes
like ``SendUnit.payload_words`` or ``SerialLink.bits_sent``, incremented
unconditionally (an int add is cheaper than any indirection we could
design around it).  A :class:`CounterBank` never intercepts those
increments; it registers *providers* — zero-argument callables returning
``{dotted.path: value}`` — and reads them only when :meth:`CounterBank
.sample` is called.  Attaching a bank to a machine is free until you look.

Counter paths are dotted hierarchies ``node.unit.counter``::

    node0.scu.payload_words_sent      (words)
    node0.mem.edram.read_bytes        (bytes)
    node0.cpu.kernel.dslash           (flops)
    link.n0.d0.bits_sent              (bits)

:func:`bank_for_machine` wires up the canonical provider set for a
:class:`~repro.machine.machine.QCDOCMachine`: per-node SCU transfer
counters (payload/wire words, acks, parity errors, resends, idle holds,
in-flight words), per-region memory DMA bytes, per-kernel CPU flops, and
per-link wire statistics.

Manual counters (:meth:`CounterBank.counter` / :meth:`CounterBank.add`)
exist for application-layer accounting — e.g. the solver flop ledger —
and are merged into the same namespace at sampling time.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

Sample = Dict[str, float]


def merge_samples(samples: Iterable[Sample]) -> Sample:
    """Sum flat dotted-path samples into one (sharded-machine merge path).

    Per-shard :meth:`CounterBank.sample` snapshots — or per-shard subsets
    of one machine-wide bank — combine by plain addition because every
    counter in the hierarchy is a sum (words, bytes, flops, seconds);
    paths missing from a shard contribute zero.  Key order of the result
    follows first appearance, so merging sorted inputs stays sorted.
    """
    out: Sample = {}
    for sample in samples:
        for path, value in sample.items():
            out[path] = out.get(path, 0) + value
    return out


class Counter:
    """One manually-driven counter: a named value with a unit."""

    __slots__ = ("path", "unit", "value")

    def __init__(self, path: str, unit: str = "count"):
        self.path = path
        self.unit = unit
        self.value: float = 0

    def add(self, n: float = 1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.path}={self.value} {self.unit})"


class CounterBank:
    """A hierarchy of counters: manual :class:`Counter` objects plus
    sample-on-demand providers.

    Providers are zero-argument callables returning ``{path: value}``;
    they are invoked only inside :meth:`sample`, so registering any
    number of them adds zero cost to the simulation itself.
    """

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._providers: List[Callable[[], Sample]] = []
        self._units: Dict[str, str] = {}

    # -- registration -----------------------------------------------------
    def counter(self, path: str, unit: str = "count") -> Counter:
        """Get or create a manual counter at ``path``."""
        c = self._counters.get(path)
        if c is None:
            c = Counter(path, unit)
            self._counters[path] = c
            self._units[path] = unit
        return c

    def add(self, path: str, n: float = 1, unit: str = "count") -> None:
        self.counter(path, unit).add(n)

    def register_provider(
        self, fn: Callable[[], Sample], units: Optional[Dict[str, str]] = None
    ) -> None:
        """Register a pull-mode counter source.

        ``units`` optionally declares the unit of each path the provider
        will report (for documentation/typing of the hierarchy).
        """
        self._providers.append(fn)
        if units:
            self._units.update(units)

    def unit(self, path: str) -> str:
        return self._units.get(path, "count")

    # -- sampling ----------------------------------------------------------
    def sample(self) -> Sample:
        """A flat ``{dotted.path: value}`` snapshot, providers included."""
        out: Sample = {c.path: c.value for c in self._counters.values()}
        for fn in self._providers:
            for path, value in fn().items():
                out[path] = out.get(path, 0) + value
        return out

    flat = sample

    def tree(self) -> Dict:
        """The snapshot as a nested dict keyed by path segments."""
        root: Dict = {}
        for path, value in self.sample().items():
            node = root
            parts = path.split(".")
            for part in parts[:-1]:
                node = node.setdefault(part, {})
            node[parts[-1]] = value
        return root

    def total(self, prefix: str) -> float:
        """Sum of every counter at or under ``prefix``."""
        dotted = prefix + "."
        return sum(
            v
            for p, v in self.sample().items()
            if p == prefix or p.startswith(dotted)
        )

    def __len__(self) -> int:
        return len(self.sample())


# -- the canonical machine wiring ------------------------------------------

#: unit names for the per-node SCU counters reported by
#: :meth:`repro.machine.scu.SCU.transfer_counters`
SCU_COUNTER_UNITS = {
    "payload_words_sent": "words",
    "wire_words_sent": "words",
    "payload_words_received": "words",
    "resends": "events",
    "acks_received": "frames",
    "sends_completed": "transfers",
    "parity_errors": "events",
    "resend_requests": "frames",
    "acks_sent": "frames",
    "idle_held_words": "words",
    "idle_hold_events": "events",
    "recvs_completed": "transfers",
    # hard-fault watchdog (companion papers hep-lat/0306023 / 0309096)
    "watchdog_trips": "events",
    "backoff_waits": "events",
    "link_down": "links",
}


def _node_provider(node_id: int, node) -> Callable[[], Sample]:
    prefix = f"node{node_id}"

    def sample() -> Sample:
        out: Sample = {}
        for name, value in node.scu.transfer_counters().items():
            out[f"{prefix}.scu.{name}"] = value
        out[f"{prefix}.scu.in_flight_words"] = node.scu.in_flight_words()
        for region, nbytes in node.memory.read_bytes.items():
            out[f"{prefix}.mem.{region}.read_bytes"] = nbytes
        for region, nbytes in node.memory.write_bytes.items():
            out[f"{prefix}.mem.{region}.write_bytes"] = nbytes
        out[f"{prefix}.cpu.flops_charged"] = node.flops_charged
        out[f"{prefix}.cpu.compute_seconds"] = node.compute_time
        for kernel, flops in node.kernel_flops.items():
            out[f"{prefix}.cpu.kernel.{kernel or 'untagged'}"] = flops
        return out

    return sample


def _link_provider(src: int, direction: int, link) -> Callable[[], Sample]:
    prefix = f"link.n{src}.d{direction}"

    def sample() -> Sample:
        return {
            f"{prefix}.frames_sent": link.frames_sent,
            f"{prefix}.bits_sent": link.bits_sent,
            f"{prefix}.faults_injected": link.faults_injected,
            f"{prefix}.frames_dropped": link.frames_dropped,
            f"{prefix}.busy_seconds": link.busy_seconds,
        }

    return sample


def sample_nodes(machine, node_ids: Iterable[int]) -> Sample:
    """One-shot counter snapshot restricted to the given nodes.

    Same paths and values as the ``node<i>.*`` subset of
    :func:`bank_for_machine`'s bank, but without registering anything —
    the building block for per-job/per-tenant attribution: since a
    scheduler guarantees no two jobs share a node, the delta of this
    sample over a job's nodes between launch and completion is exactly
    the job's resource usage.
    """
    out: Sample = {}
    for node_id in sorted(node_ids):
        out.update(_node_provider(node_id, machine.nodes[node_id])())
    return out


#: job-attributed totals -> the per-node counter path suffix they sum
USAGE_COUNTERS: Dict[str, str] = {
    "flops": "cpu.flops_charged",
    "compute_seconds": "cpu.compute_seconds",
    "payload_words": "scu.payload_words_sent",
    "wire_words": "scu.wire_words_sent",
    "resends": "scu.resends",
}


def usage_totals(machine, node_ids: Iterable[int]) -> Sample:
    """:func:`sample_nodes` collapsed to the :data:`USAGE_COUNTERS` totals."""
    by_suffix: Dict[str, List[float]] = {}
    for path, value in sample_nodes(machine, node_ids).items():
        by_suffix.setdefault(path.split(".", 1)[1], []).append(value)
    return {k: sum(by_suffix.get(s, ()), 0.0) for k, s in USAGE_COUNTERS.items()}


def usage_delta(after: Sample, before: Sample) -> Sample:
    """Per-key difference (counters are monotone, so this is the usage)."""
    return {key: after[key] - before.get(key, 0.0) for key in after}


def bank_for_machine(machine) -> CounterBank:
    """The canonical :class:`CounterBank` over a
    :class:`~repro.machine.machine.QCDOCMachine`.

    Hierarchy: ``node<i>.scu.*`` (transfer protocol counters),
    ``node<i>.mem.<region>.*`` (DMA bytes by memory region),
    ``node<i>.cpu.*`` (flops, per-kernel attribution), and
    ``link.n<src>.d<dir>.*`` (wire statistics per serial link).
    """
    bank = CounterBank()
    for node_id, node in machine.nodes.items():
        units = {
            f"node{node_id}.scu.{k}": u for k, u in SCU_COUNTER_UNITS.items()
        }
        units[f"node{node_id}.scu.in_flight_words"] = "words"
        units[f"node{node_id}.cpu.flops_charged"] = "flops"
        units[f"node{node_id}.cpu.compute_seconds"] = "seconds"
        bank.register_provider(_node_provider(node_id, node), units=units)
    for (src, direction), link in machine.network.links.items():
        bank.register_provider(
            _link_provider(src, direction, link),
            units={
                f"link.n{src}.d{direction}.bits_sent": "bits",
                f"link.n{src}.d{direction}.busy_seconds": "seconds",
            },
        )
    return bank
