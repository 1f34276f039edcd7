"""Host-side software and the Ethernet service network.

Paper sections 2.3 and 3.1: physics runs on the red (SCU) network; booting,
diagnostics and I/O run on a parallel **Ethernet** tree (green in figure 2)
connecting every node to an SMP host.  Each ASIC has two Ethernet-facing
controllers: a conventional 100 Mbit port (driven by the run kernel) and an
**Ethernet/JTAG** port that decodes UDP packets entirely in hardware — so a
machine with *no PROMs* can be bootstrapped over the network from power-on.

* :mod:`~repro.host.ethernet` — the switched/hubbed service network;
* :mod:`~repro.host.jtag` — the software-free UDP -> JTAG controller;
* :mod:`~repro.host.boot` — the two-stage (boot kernel, run kernel) boot;
* :mod:`~repro.host.qdaemon` — the host daemon: boot orchestration, node
  status, partition allocation, job execution, RPC;
* :mod:`~repro.host.qcsh` — the user-facing command shell.
"""

from repro.host.ethernet import EthernetFabric, UdpDatagram
from repro.host.jtag import EthernetJtagController, JtagCommand, JtagOp
from repro.host.boot import BootReport
from repro.host.qdaemon import Qdaemon
from repro.host.qcsh import Qcsh

__all__ = [
    "EthernetFabric",
    "UdpDatagram",
    "EthernetJtagController",
    "JtagCommand",
    "JtagOp",
    "BootReport",
    "Qdaemon",
    "Qcsh",
]
