"""Discretisations of the Dirac operator.

The paper benchmarks four fermion discretisations on QCDOC (section 4):

* **naive Wilson** — nearest-neighbour hopping, 40% of peak;
* **clover-improved Wilson** — Wilson plus a site-local field-strength
  term, 46.5% of peak (the extra local flops raise arithmetic intensity);
* **ASQTAD staggered** — smeared ("fat") one-link term plus a 3-hop Naik
  term, 38% of peak (third-nearest-neighbour communication);
* **domain-wall** — five-dimensional, the prime target for QCDOC's
  production running.

All four are implemented here against :mod:`repro.lattice`, each exposing
``apply`` (the operator), ``apply_dagger``, and exact per-site flop/byte
accounting in :mod:`repro.fermions.flops` consumed by the performance model.
"""

from repro.fermions.gamma import GAMMA, GAMMA5, reconstruct_lower, sigma_munu, spin_project
from repro.fermions.wilson import WilsonDirac
from repro.fermions.clover import CloverDirac
from repro.fermions.staggered import AsqtadDirac, NaiveStaggeredDirac, fat_links, long_links
from repro.fermions.dwf import DomainWallDirac
from repro.fermions.flops import OPERATOR_COSTS, OperatorCost, operator_cost
from repro.fermions.propagator import (
    effective_mass,
    pion_correlator,
    point_propagator,
    point_source,
)

__all__ = [
    "point_source",
    "point_propagator",
    "pion_correlator",
    "effective_mass",
    "GAMMA",
    "GAMMA5",
    "sigma_munu",
    "spin_project",
    "reconstruct_lower",
    "WilsonDirac",
    "CloverDirac",
    "NaiveStaggeredDirac",
    "AsqtadDirac",
    "fat_links",
    "long_links",
    "DomainWallDirac",
    "OperatorCost",
    "OPERATOR_COSTS",
    "operator_cost",
]
