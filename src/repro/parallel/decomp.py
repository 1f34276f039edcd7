"""Mapping the physics lattice onto a machine partition.

"On a four-dimensional machine, each processor becomes responsible for the
local variables associated with a space-time hypercube" (paper section 1).
:class:`PhysicsMapping` pairs a global :class:`~repro.lattice.geometry.Tiling`
with a :class:`~repro.machine.topology.Partition` whose logical dimensions
equal the processor grid — tile index *is* logical rank (both enumerate
lexicographically) — and provides the scatter/gather of gauge and fermion
fields.
"""

from __future__ import annotations

import numpy as np

from repro.lattice.gauge import GaugeField
from repro.lattice.geometry import LatticeGeometry, Tiling
from repro.machine.topology import Partition
from repro.util.errors import ConfigError


class PhysicsMapping:
    """One tile of the physics lattice per logical machine rank."""

    def __init__(self, geometry: LatticeGeometry, partition: Partition):
        pgrid = partition.logical_dims
        if len(pgrid) != geometry.ndim:
            raise ConfigError(
                f"lattice is {geometry.ndim}-dim but partition is "
                f"{len(pgrid)}-dim; remap the partition first"
            )
        self.geometry = geometry
        self.partition = partition
        self.tiling = geometry.tile(pgrid)
        self.local_geometry = self.tiling.local_geometry
        self.local_shape = self.tiling.local_shape
        self.n_ranks = partition.n_nodes

    # -- fermion fields ------------------------------------------------------
    def scatter_field(self, field: np.ndarray) -> np.ndarray:
        """Global ``(V, ...)`` -> per-rank ``(n_ranks, v, ...)``."""
        return self.tiling.scatter(field)

    def gather_field(self, locals_: np.ndarray) -> np.ndarray:
        return self.tiling.gather(np.asarray(locals_))

    def scatter_stack(self, fields: np.ndarray) -> np.ndarray:
        """Global ``(k, V, ...)`` -> per-rank ``(n_ranks, k, v, ...)``: a
        stack of fields (5D slices, smeared links per direction) whose
        leading axis stays node-local."""
        fields = np.asarray(fields)
        shape = (self.n_ranks, len(fields), self.tiling.local_volume)
        out = np.empty(shape + fields.shape[2:], dtype=fields.dtype)
        for i, f in enumerate(fields):
            out[:, i] = self.scatter_field(f)
        return out

    def gather_stack(self, locals_: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`scatter_stack`."""
        locals_ = np.asarray(locals_)
        return np.stack(
            [self.gather_field(locals_[:, i]) for i in range(locals_.shape[1])]
        )

    # -- gauge fields ---------------------------------------------------------
    def scatter_gauge(self, gauge: GaugeField) -> np.ndarray:
        """``(n_ranks, ndim, v, 3, 3)`` local link sets.

        Only the links *owned* by each tile are shipped; the backward-face
        link matrices a node would need (``U_mu(x - mu)`` for ``x`` on the
        low face) are never fetched — instead the *owner* applies them and
        sends the product, halving gauge traffic exactly as the real
        half-spinor kernels do.
        """
        if gauge.geometry != self.geometry:
            raise ConfigError("gauge field geometry does not match the mapping")
        return self.scatter_stack(gauge.links)

    def __repr__(self) -> str:
        return (
            f"PhysicsMapping({self.geometry.shape} over "
            f"{self.partition.logical_dims})"
        )
