"""qcdoc-repro: a software twin of QCDOC, the 10-Teraflops lattice-QCD
machine (Boyle et al., SC 2004).

The package reproduces the paper's three layers:

* the **machine** — a functional, timed simulation of the 6-dimensional
  torus of custom ASICs: SCU serial links with the three-in-the-air /
  idle-receive / auto-resend protocol, prefetching EDRAM + DDR memory
  system, pass-through global sums, partition interrupts, Ethernet/JTAG
  boot, qdaemon host software (:mod:`repro.machine`, :mod:`repro.host`,
  :mod:`repro.kernel`, :mod:`repro.comms`);
* the **application** — a from-scratch lattice-QCD library: SU(3) gauge
  fields, Wilson / clover / ASQTAD / domain-wall Dirac operators, Krylov
  solvers, HMC (:mod:`repro.lattice`, :mod:`repro.fermions`,
  :mod:`repro.solvers`, :mod:`repro.hmc`), runnable serially *or*
  distributed across the simulated nodes (:mod:`repro.parallel`);
* the **evaluation** — a calibrated performance/cost/packaging model that
  regenerates every number in the paper's evaluation
  (:mod:`repro.perfmodel`); see EXPERIMENTS.md for paper-vs-model.

Quickstart::

    from repro import QCDOCMachine, MachineConfig, GaugeField, LatticeGeometry
    from repro.parallel import solve_on_machine
    from repro.util import rng_stream

    machine = QCDOCMachine(MachineConfig(dims=(2, 2, 2, 1, 1, 1)), word_batch=4096)
    machine.bring_up()
    partition = machine.partition(groups=[(0,), (1,), (2,), (3,)])

    geom = LatticeGeometry((4, 4, 4, 2))
    gauge = GaugeField.hot(geom, rng_stream(1, "gauge"))
    b = ...  # a (V, 4, 3) source
    result = solve_on_machine(machine, partition, gauge, b, mass=0.3)
"""

from repro.fermions import (
    AsqtadDirac,
    CloverDirac,
    DomainWallDirac,
    WilsonDirac,
    operator_cost,
)
from repro.hmc import HMC
from repro.host import Qcsh, Qdaemon
from repro.lattice import GaugeField, LatticeGeometry
from repro.machine import MachineConfig, PRESETS, QCDOCMachine
from repro.perfmodel import DiracPerfModel, PackagingModel
from repro.solvers import cg, cgne

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # machine
    "MachineConfig",
    "PRESETS",
    "QCDOCMachine",
    "Qdaemon",
    "Qcsh",
    # lattice + fermions
    "LatticeGeometry",
    "GaugeField",
    "WilsonDirac",
    "CloverDirac",
    "AsqtadDirac",
    "DomainWallDirac",
    "operator_cost",
    # solvers + hmc
    "cg",
    "cgne",
    "HMC",
    # evaluation
    "DiracPerfModel",
    "PackagingModel",
]
