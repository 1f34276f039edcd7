"""Krylov solvers.

"Standard Krylov space solvers work well to produce the solution and
dominate the calculational time for QCD simulations" (paper section 1);
QCDOC's benchmarks (section 4) are conjugate-gradient solves of the Dirac
normal equations.  These implementations take the inner product as a
parameter so the distributed versions can route it through the simulated
machine's SCU global-sum hardware.
"""

from repro.solvers.cg import SolveResult, cg, cgne, mixed_precision_cg
from repro.solvers.multishift import MultiShiftResult, multishift_cg
from repro.solvers.sitedot import canonical_dot

__all__ = [
    "SolveResult",
    "cg",
    "cgne",
    "mixed_precision_cg",
    "canonical_dot",
    "multishift_cg",
    "MultiShiftResult",
]
