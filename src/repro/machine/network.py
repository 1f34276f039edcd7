"""Wiring the torus: one SerialLink per (node, direction), fault injection,
and the end-of-run checksum audit.

"Only a two-dimensional slice of the SCU network can be easily
represented" (paper figure 2) — here the full six-dimensional wiring is a
dictionary keyed by ``(node, direction)``.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.machine.asic import ASICConfig
from repro.machine.hssl import SerialLink
from repro.machine.node import Node
from repro.machine.topology import TorusTopology
from repro.sim.core import Event, Simulator
from repro.sim.trace import Trace
from repro.util.errors import ConfigError


class MeshNetwork:
    """All physical links of the machine, attached to the nodes' SCUs."""

    def __init__(
        self,
        sim: Simulator,
        asic: ASICConfig,
        topology: TorusTopology,
        nodes: Dict[int, Node],
        trace: Optional[Trace] = None,
        error_rng: Optional[np.random.Generator] = None,
        bit_error_rate: float = 0.0,
    ):
        self.sim = sim
        self.asic = asic
        self.topology = topology
        self.nodes = nodes
        self.links: Dict[Tuple[int, int], SerialLink] = {}
        for src, direction, dst in topology.links():
            link = SerialLink(
                sim,
                asic,
                name=f"n{src}.d{direction}->n{dst}",
                trace=trace,
                error_rng=error_rng,
                bit_error_rate=bit_error_rate,
            )
            arrival = topology.opposite(direction)
            link.set_receiver(partial(nodes[dst].scu.on_frame, arrival))
            nodes[src].scu.attach_link(direction, link)
            # Replay delivery path: the sender's SCU can hand a compiled
            # hot-epoch payload straight to the neighbour's engine (only
            # ever used when the pair's links are same-shard, so both SCU
            # objects are authoritative in this process).
            nodes[src].scu.attach_peer(direction, nodes[dst].scu, arrival)
            self.links[(src, direction)] = link

    # -- sharding ------------------------------------------------------------
    def bind_shards(self, router, shard_of) -> None:
        """Wire the mesh into a sharded simulator's cross-shard router.

        Every link registers under its ``(src, direction)`` key (the
        fork executor resolves posted frames by key on the target side);
        links whose endpoints live on different shards get their
        deliveries routed through the window barrier.  Each
        ``SerialLink`` is written only by its source node's units (ACK/
        RESEND control frames travel on the *receiver's own* out-link),
        so source-shard ownership partitions all link state cleanly.
        """
        for (src, direction), link in sorted(self.links.items()):
            router.register_link((src, direction), link)
            dst = self.topology.neighbour_by_direction(src, direction)
            dst_shard = shard_of(dst)
            if shard_of(src) != dst_shard:
                link.cross_shard = (router, dst_shard, (src, direction))

    # -- bring-up ------------------------------------------------------------
    def train_all(self) -> Event:
        """Train every *live* HSSL link; the returned event completes when
        all are usable (they train concurrently, as after power-on, so one
        heap entry at the common completion time marks them all — a
        12,288-node mesh has ~147k links).

        Links already known dead are skipped — the daemon quarantines bad
        cables before calling this — and so is one that dies while the
        sequence runs: a dead cable never finishes training.
        """
        done = self.sim.event()
        links = [link for _key, link in sorted(self.links.items()) if link.alive]

        def finish_all():
            for link in links:
                link.finish_training()
            done.succeed()

        # a mesh without a cable (one node) has no sequence to wait for
        self.sim.schedule(self.asic.training_time if links else 0.0, finish_all)
        return done

    # -- permanent faults ------------------------------------------------------
    def fail_link(self, src: int, direction: int, mode: str = "dead") -> None:
        """Permanently fail the unidirectional cable ``(src, direction)``.

        ``mode`` is ``"dead"`` (nothing delivered) or ``"stuck"`` (every
        payload frame corrupt).  A physical QCDOC cable carries one
        direction of traffic per wire, so a single-wire fault is exactly
        one ``(node, direction)`` entry here; killing both directions of a
        neighbour pair takes two calls (or :meth:`fail_node`).
        """
        key = (src, direction)
        if key not in self.links:
            raise ConfigError(f"no link at node {src} direction {direction}")
        self.links[key].fail(mode=mode)

    def fail_node(self, node: int) -> None:
        """Permanently kill a node: every cable touching it goes dead.

        Both the node's outbound wires and its neighbours' wires *into* it
        are cut — frames in either direction vanish, which is how a powered
        -off daughterboard presents to the rest of the mesh.
        """
        if node not in self.nodes:
            raise ConfigError(f"no node {node} in the mesh")
        for direction in range(self.topology.n_directions):
            if (node, direction) not in self.links:
                continue  # axis of extent 1: no cable on this direction
            # outbound wire from the dead node
            self.links[(node, direction)].fail(mode="dead")
            # the neighbour's wire back into the dead node
            neighbour = self.topology.neighbour_by_direction(node, direction)
            back = self.topology.opposite(direction)
            self.links[(neighbour, back)].fail(mode="dead")

    def link_ok(self, src: int, direction: int) -> bool:
        """True when the cable ``(src, direction)`` is usable for data."""
        return self.links[(src, direction)].healthy

    def dead_links(self) -> List[Tuple[int, int]]:
        """Sorted ``(node, direction)`` keys of unusable cables."""
        return sorted(k for k, l in self.links.items() if not l.healthy)

    def dead_nodes(self) -> List[int]:
        """Nodes with *every* attached cable (in and out) unusable.

        This is the network's-eye view of a dead node; the daemon overlays
        it with boot/RPC health to form the full failed-node registry.
        """
        out = []
        for node in sorted(self.nodes):
            attached = [
                self.links[(node, d)]
                for d in range(self.topology.n_directions)
                if (node, d) in self.links
            ]
            if attached and all(not l.healthy for l in attached):
                out.append(node)
        return out

    @property
    def n_links(self) -> int:
        return len(self.links)

    # -- fault statistics ------------------------------------------------------
    def total_faults_injected(self) -> int:
        return sum(link.faults_injected for link in self.links.values())

    def active_links(self) -> List[Tuple[Tuple[int, int], SerialLink]]:
        """Links that carried at least one frame, with their keys."""
        return [(k, l) for k, l in self.links.items() if l.frames_sent > 0]

    # -- the end-of-run confirmation (paper section 2.2) -------------------------
    def audit_checksums(self) -> List[str]:
        """Compare each link's send-side and receive-side checksums.

        Returns a list of human-readable mismatch descriptions (empty on a
        clean run).  "At the conclusion of a calculation, these checksums
        can be compared.  This offers a final confirmation that no erroneous
        data was exchanged."
        """
        mismatches = []
        for (src, direction), _link in self.links.items():
            dst = self.topology.neighbour_by_direction(src, direction)
            arrival = self.topology.opposite(direction)
            send_cs = self.nodes[src].scu.send_units[direction].checksum
            recv_cs = self.nodes[dst].scu.recv_units[arrival].checksum
            if not send_cs.matches(recv_cs):
                mismatches.append(
                    f"link n{src}.d{direction}->n{dst}: sent {send_cs!r} "
                    f"!= received {recv_cs!r}"
                )
        return mismatches
