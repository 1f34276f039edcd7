"""The machine's counters as one flat sample, read on demand.

Telemetry disabled costs nothing on the simulation hot paths: the machine
units keep the counters they always kept — plain integer attributes like
``SendUnit.payload_words`` or ``SerialLink.bits_sent``, incremented
unconditionally — and :func:`sample` only reads them, when called.

A sample maps dotted paths ``node.unit.counter`` to values::

    node0.scu.payload_words_sent      (words; SCU.transfer_counters)
    node0.scu.in_flight_words         (words)
    node0.mem.edram.read_bytes        (bytes, per memory region)
    node0.cpu.flops_charged           (flops; cpu.kernel.<name> per kernel)
    node0.cpu.compute_seconds         (seconds)
    link.n0.d0.bits_sent              (bits, per serial link)
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

Sample = Dict[str, float]


def merge_samples(samples: Iterable[Sample]) -> Sample:
    """Sum flat dotted-path samples into one (sharded-machine merge path).

    Per-shard :func:`sample` snapshots — or per-shard subsets of one
    machine-wide sample — combine by plain addition because every
    counter in the hierarchy is a sum (words, bytes, flops, seconds);
    paths missing from a shard contribute zero.  Key order of the result
    follows first appearance, so merging sorted inputs stays sorted.
    """
    out: Sample = {}
    for sample in samples:
        for path, value in sample.items():
            out[path] = out.get(path, 0) + value
    return out


def sample(machine, node_ids: Optional[Iterable[int]] = None) -> Sample:
    """A flat ``{dotted.path: value}`` snapshot of ``machine``'s counters.

    With ``node_ids=None`` every node's ``node<i>.*`` rows, in
    ``machine.nodes`` order, then every link's ``link.n<src>.d<dir>.*``
    rows.  Given nodes, only their ``node<i>.*`` rows, in id order — the
    building block for per-job attribution: a scheduler puts no two jobs
    on one node, so the delta of this sample over a job's nodes between
    launch and completion is exactly the job's resource usage.
    """
    out: Sample = {}
    for node_id in machine.nodes if node_ids is None else sorted(node_ids):
        node = machine.nodes[node_id]
        prefix = f"node{node_id}"
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
    if node_ids is None:
        for (src, direction), link in machine.network.links.items():
            prefix = f"link.n{src}.d{direction}"
            out[f"{prefix}.frames_sent"] = link.frames_sent
            out[f"{prefix}.bits_sent"] = link.bits_sent
            out[f"{prefix}.faults_injected"] = link.faults_injected
            out[f"{prefix}.frames_dropped"] = link.frames_dropped
            out[f"{prefix}.busy_seconds"] = link.busy_seconds
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
    """:func:`sample` of the nodes collapsed to the :data:`USAGE_COUNTERS` totals."""
    by_suffix: Dict[str, List[float]] = {}
    for path, value in sample(machine, node_ids).items():
        by_suffix.setdefault(path.split(".", 1)[1], []).append(value)
    return {k: sum(by_suffix.get(s, ()), 0.0) for k, s in USAGE_COUNTERS.items()}


def usage_delta(after: Sample, before: Sample) -> Sample:
    """Per-key difference (counters are monotone, so this is the usage)."""
    return {key: after[key] - before.get(key, 0.0) for key in after}
