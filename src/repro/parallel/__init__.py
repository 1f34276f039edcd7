"""Distributed lattice QCD on the simulated QCDOC machine.

This is the paper's workload actually running on the machine model: the
physics lattice is tiled over a logical partition (one tile per node,
paper section 1's "trivial mapping of the physics coordinate grid to the
machine mesh"), each node program applies the Wilson/clover operator to its
tile with **halo exchange through the simulated SCU DMA engines**, and the
conjugate-gradient reductions run through the **SCU global-sum tree** — so
a distributed solve exercises links, windows, checksums and collectives end
to end, and its residual history can be compared against the serial solver.
"""

from repro.parallel.decomp import PhysicsMapping
from repro.parallel.pdirac import DistributedWilsonContext
from repro.parallel.pstaggered import DistributedStaggeredContext
from repro.parallel.pdwf import DistributedDWFContext
from repro.parallel.pcg import (
    DistributedSolveResult,
    MachineSiteDot,
    apply_on_machine,
    solve_dwf_on_machine,
    solve_on_machine,
    solve_staggered_on_machine,
)
from repro.parallel.phmc import DistributedTwoFlavorHMC

__all__ = [
    "PhysicsMapping",
    "DistributedWilsonContext",
    "DistributedStaggeredContext",
    "DistributedDWFContext",
    "DistributedSolveResult",
    "MachineSiteDot",
    "apply_on_machine",
    "solve_on_machine",
    "solve_staggered_on_machine",
    "solve_dwf_on_machine",
    "DistributedTwoFlavorHMC",
]
