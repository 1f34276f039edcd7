"""Point-to-point latency/bandwidth model and the Ethernet comparison (E3).

Paper section 2.2: "Our 600 ns memory-to-memory latency is to be compared
to times of 5-10 us just to begin a transfer when using standard networks
like Ethernet."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.machine.asic import ASICConfig
from repro.util.units import US


@dataclass(frozen=True)
class ClusterNetwork:
    """A 2004-era commodity cluster interconnect (Ethernet-class)."""

    name: str = "gigabit-ethernet"
    startup_latency: float = 7.5 * US  # the paper's "5-10 us" midpoint
    bandwidth: float = 1e9 / 8  # GigE payload bandwidth
    #: one NIC per node: messages to different neighbours serialise
    concurrent_links: int = 1


def qcdoc_message_time(nwords: int, asic: Optional[ASICConfig] = None) -> float:
    """Memory-to-memory time for an ``nwords`` x 64-bit nearest-neighbour
    transfer, word at a time on an otherwise idle cable: 600 ns first word
    + streaming at the wire rate
    (:meth:`~repro.machine.asic.ASICConfig.transfer_times`)."""
    asic = asic if asic is not None else ASICConfig()
    stored, _sent = asic.transfer_times(((0.0, nwords),))[0]
    return stored


def cluster_message_time(nwords: int, net: Optional[ClusterNetwork] = None) -> float:
    """Same transfer over the commodity network."""
    net = net if net is not None else ClusterNetwork()
    if nwords <= 0:
        return 0.0
    return net.startup_latency + (nwords * 8) / net.bandwidth


def message_time_table(
    sizes_words: Sequence[int] = (1, 3, 24, 96, 384, 1536, 6144),
    asic: Optional[ASICConfig] = None,
    net: Optional[ClusterNetwork] = None,
) -> List[Tuple[int, float, float, float]]:
    """Rows of ``(nwords, qcdoc_time, cluster_time, advantage)``.

    The QCDOC advantage is largest exactly where hard scaling lives: many
    small transfers.  At 24 words (the paper's example) QCDOC has sent and
    *stored* everything before the cluster's kernel has begun transmitting.
    """
    rows = []
    for n in sizes_words:
        tq = qcdoc_message_time(n, asic)
        tc = cluster_message_time(n, net)
        rows.append((n, tq, tc, tc / tq))
    return rows
