"""Halo (ghost-zone) index plans for distributed operators.

When the physics lattice is tiled over QCDOC nodes (one tile per node,
paper section 1), every Dirac application needs the neighbour tile's
boundary sites.  These helpers compute, once per geometry, exactly which
local site rows are sent and which rows of a gathered-neighbour array must
be overwritten with received data.  The index tables themselves live in
the process-wide memo cache of :mod:`repro.lattice.stencil` — every rank
of a distributed run (same local shape) shares one set, and repeated
operator applications never rebuild them.

Convention (matches :mod:`repro.parallel.pdirac`):

* the tile sends its **low** face (``x_mu = 0``) toward its ``-mu``
  neighbour — that neighbour needs it as "my forward neighbour's value";
* rows of ``psi[fwd[mu]]`` belonging to the **high** face
  (``x_mu = L_mu - 1``) wrapped around the local torus and must be
  overwritten with the halo received from the ``+mu`` neighbour.

Because every tile has the same local geometry and faces are enumerated in
lexicographic site order, the sender's low-face ordering and the receiver's
high-face fill ordering agree element-by-element with *no* permutation on
the wire — this is what lets the SCU DMA engines move the data with plain
block-strided descriptors (paper section 2.2) and keeps distributed
arithmetic bitwise identical to serial arithmetic.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.lattice import stencil
from repro.lattice.geometry import LatticeGeometry
from repro.lattice.stencil import HaloPlan

__all__ = [
    "HaloPlan",
    "face_indices",
    "halo_exchange_plan",
    "all_halo_plans",
    "interior_boundary_sites",
    "surface_site_count",
]


def face_indices(
    geometry: LatticeGeometry, axis: int, side: int, depth: int = 1
) -> np.ndarray:
    """Site indices within ``depth`` of one boundary face, in site order.

    ``side=-1`` selects ``x_axis < depth`` (the low face), ``side=+1``
    selects ``x_axis >= L - depth``.  ``depth > 1`` supports the ASQTAD
    Naik term's 3-link hops.  Memoised per (shape, axis, side, depth).
    """
    return stencil.face_sites(geometry.shape, axis, side, depth)


def halo_exchange_plan(
    geometry: LatticeGeometry, axis: int, depth: int = 1
) -> HaloPlan:
    """The memoised :class:`HaloPlan` for one axis at one hop distance.

    For ``depth=1`` this is the nearest-neighbour plan every Wilson-type
    operator uses; ASQTAD additionally needs ``depth=3`` plans.
    """
    return stencil.halo_plan(geometry.shape, axis, depth)


def all_halo_plans(
    geometry: LatticeGeometry, depths: Tuple[int, ...] = (1,)
) -> Dict[Tuple[int, int], HaloPlan]:
    """Plans for every axis at every requested depth, keyed ``(axis, depth)``."""
    plans: Dict[Tuple[int, int], HaloPlan] = {}
    for mu in range(geometry.ndim):
        for d in depths:
            plans[(mu, d)] = halo_exchange_plan(geometry, mu, d)
    return plans


def interior_boundary_sites(
    geometry: LatticeGeometry,
    comm_axes: Tuple[int, ...],
    depth: int = 1,
) -> Tuple[np.ndarray, np.ndarray]:
    """Partition local sites into (interior, boundary) index arrays.

    Both arrays are sorted ascending, disjoint, and together cover every
    site exactly once — the two-phase hopping term computes the first set
    during communication and the second as halos land, then merges rows,
    so the union must be a permutation-free cover for bit-exactness.
    """
    return stencil.site_partition(geometry.shape, tuple(comm_axes), depth)


def surface_site_count(geometry: LatticeGeometry, depth: int = 1) -> int:
    """Total sites sent per direction pair, summed over axes.

    Used by the performance model: communication volume per Dirac
    application is ``surface sites x payload per site``.
    """
    total = 0
    for mu in range(geometry.ndim):
        face = geometry.volume // geometry.shape[mu]
        total += 2 * face * min(depth, geometry.shape[mu])
    return total
