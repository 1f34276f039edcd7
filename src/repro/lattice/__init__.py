"""Lattice-QCD substrate: grids, SU(3) algebra, gauge fields.

QCDOC exists to run lattice QCD (paper section 1): a regular four-dimensional
space-time grid (five-dimensional for domain-wall fermions) of SU(3) gauge
links and fermion fields.  This package is the from-scratch implementation of
that substrate; the Dirac operators live in :mod:`repro.fermions` and the
machine mapping in :mod:`repro.parallel`.

Conventions
-----------
* Sites are indexed lexicographically with the **last** axis fastest
  (C order over ``shape``); :class:`LatticeGeometry` owns all index maps.
* A gauge field is a complex array ``U[mu, site, a, b]`` of shape
  ``(ndim, V, 3, 3)``; ``U[mu][x]`` is the parallel transporter from site
  ``x`` to ``x + mu``.
* Wilson-type fermion fields are ``psi[site, spin, color]`` =
  ``(V, 4, 3)``; staggered fields are ``(V, 3)``; domain-wall fields are
  ``(Ls, V, 4, 3)``.
"""

from repro.lattice.geometry import LatticeGeometry
from repro.lattice.su3 import (
    expm_su3,
    gell_mann,
    project_su3,
    random_algebra,
    random_su3,
    su3_distance,
    unitarity_defect,
)
from repro.lattice.gauge import GaugeField
from repro.lattice.io import gauge_from_bytes, gauge_to_bytes, load_gauge, save_gauge

__all__ = [
    "save_gauge",
    "load_gauge",
    "gauge_to_bytes",
    "gauge_from_bytes",
    "LatticeGeometry",
    "GaugeField",
    "random_su3",
    "random_algebra",
    "project_su3",
    "expm_su3",
    "gell_mann",
    "su3_distance",
    "unitarity_defect",
]
