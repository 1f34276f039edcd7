"""Fermion boundary conditions via phased links.

Finite-temperature field theory requires fermions **antiperiodic** in
Euclidean time; production codes implement this (and twisted spatial
boundary conditions used for momentum interpolation) by multiplying the
gauge links that cross the boundary by a phase before handing the field to
the Dirac operator.  Every operator in :mod:`repro.fermions` then inherits
the boundary condition with no code changes — including the distributed
versions, since the phase rides along with the scattered links.
"""

from __future__ import annotations

import numpy as np

from repro.lattice.gauge import GaugeField
from repro.util.errors import ConfigError


def with_boundary_phase(
    gauge: GaugeField, axis: int, phase: complex = -1.0
) -> GaugeField:
    """A copy of the field with boundary-crossing links multiplied by
    ``phase`` along ``axis``.

    ``phase=-1`` gives antiperiodic fermions (the thermal choice);
    ``exp(i theta)`` gives twisted boundary conditions.  The gauge action
    and all gauge observables are unaffected by a pure phase (it cancels
    in every closed loop that wraps the axis zero or a multiple-of-|phase
    order| times — and identically for the plaquette, which never wraps).
    """
    g = gauge.geometry
    if not 0 <= axis < g.ndim:
        raise ConfigError(f"axis {axis} out of range for {g}")
    p = complex(phase)
    if abs(abs(p) - 1.0) > 1e-12:
        raise ConfigError(f"boundary phase must be a pure phase, got {phase!r}")
    out = gauge.copy()
    boundary = np.nonzero(g.coords[:, axis] == g.shape[axis] - 1)[0]
    out.set_links(axis, boundary, p * out.links[axis][boundary])
    return out


def antiperiodic_in_time(gauge: GaugeField) -> GaugeField:
    """The standard thermal setup: ``phase=-1`` on the last axis."""
    return with_boundary_phase(gauge, gauge.geometry.ndim - 1, -1.0)
