"""The (naive) Wilson-Dirac operator.

``D psi(x) = (m + 4r) psi(x)
  - (1/2) sum_mu [ (r - gamma_mu) U_mu(x) psi(x+mu)
                 + (r + gamma_mu) U_mu(x-mu)^+ psi(x-mu) ]``

with Wilson parameter ``r`` (default 1).  The operator satisfies
``D^+ = gamma_5 D gamma_5`` (gamma5-hermiticity), which the test suite and
the CG normal-equation solver both rely on.
"""

from __future__ import annotations

import numpy as np

from repro.fermions.gamma import (
    GAMMA,
    apply_spin_matrix,
    gamma5_sandwich,
    spin_project,
    spin_reconstruct,
)
from repro.lattice.gauge import GaugeField, cmatvec
from repro.lattice.su3 import dagger
from repro.util.errors import ConfigError


class WilsonDirac:
    """Wilson fermion matrix on a 4-dimensional gauge field.

    Parameters
    ----------
    gauge:
        Background gauge field (any dimension is accepted; QCD uses 4).
    mass:
        Bare quark mass ``m``.
    r:
        Wilson parameter; ``r=1`` is the universal production choice.
    """

    #: field shape suffix this operator acts on
    spin_dof = (4, 3)

    def __init__(self, gauge: GaugeField, mass: float, r: float = 1.0):
        self.gauge = gauge
        self.geometry = gauge.geometry
        self.mass = float(mass)
        self.r = float(r)
        # Preallocated hopping-term workspaces (lazily built on first use):
        # the projected half spinor, the SU(3) x half-spinor product, and
        # the reconstructed full spinor.  The hand-tuned assembly the paper
        # describes runs allocation-free; reusing these buffers is the
        # numpy equivalent.
        self._half: "np.ndarray | None" = None
        self._prod: "np.ndarray | None" = None
        self._rec: "np.ndarray | None" = None

    def _workspaces(self):
        if self._half is None:
            v = self.geometry.volume
            self._half = np.empty((v, 2, 3), dtype=np.complex128)
            self._prod = np.empty((v, 2, 3), dtype=np.complex128)
            self._rec = np.empty((v, 4, 3), dtype=np.complex128)
        return self._half, self._prod, self._rec

    @property
    def diag(self) -> float:
        """The site-diagonal coefficient ``m + ndim * r``."""
        return self.mass + self.geometry.ndim * self.r

    def _check(self, psi: np.ndarray) -> None:
        expected = (self.geometry.volume,) + self.spin_dof
        if psi.shape != expected:
            raise ConfigError(f"field shape {psi.shape}, expected {expected}")

    def hopping(self, psi: np.ndarray) -> np.ndarray:
        """The nearest-neighbour ("dslash") part, without the diagonal.

        Returns ``sum_mu [(r - gamma_mu) U psi_fwd + (r + gamma_mu) U^+ psi_bwd]``
        (the caller supplies the -1/2).  This is the routine the paper's
        hand-tuned assembly implements and the SCU halo exchange feeds.
        """
        self._check(psi)
        g = self.gauge
        out = np.zeros_like(psi)
        if self.r != 1.0:
            # General-r fallback: the projector (r -+ gamma_mu) has full
            # rank, so no half-spinor shortcut exists.  Seed formulation.
            for mu in range(self.geometry.ndim):
                fwd = g.transport_fwd(mu, psi)
                bwd = g.transport_bwd(mu, psi)
                # (r - gamma) fwd + (r + gamma) bwd
                #   = r (fwd+bwd) - gamma (fwd-bwd)
                out += self.r * (fwd + bwd)
                out -= apply_spin_matrix(GAMMA[mu], fwd - bwd)
            return out
        # r == 1 (the production choice): (1 -+ gamma_mu) is rank 2, so
        # project to a half spinor *before* the SU(3) multiply — half the
        # colour arithmetic of the naive path and exactly the compressed
        # form QCDOC's SCU puts on the wire (paper section 2.2).  The
        # statement sequence below is shared verbatim with the distributed
        # operators in repro.parallel, which keeps serial and distributed
        # results bitwise identical.
        geom = self.geometry
        half, prod, rec = self._workspaces()
        for mu in range(geom.ndim):
            # forward hop: U_mu(x) (1 - gamma_mu) psi(x + mu)
            gathered = psi[geom.neighbour_fwd(mu)]
            cmatvec(g.links[mu], spin_project(mu, +1, gathered, out=half), out=prod)
            out += spin_reconstruct(mu, +1, prod, out=rec)
            # backward hop: U_mu(x - mu)^+ (1 + gamma_mu) psi(x - mu)
            bwd_idx = geom.neighbour_bwd(mu)
            gathered = psi[bwd_idx]
            cmatvec(
                dagger(g.links[mu][bwd_idx]),
                spin_project(mu, -1, gathered, out=half),
                out=prod,
            )
            out += spin_reconstruct(mu, -1, prod, out=rec)
        return out

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """``D psi``."""
        return self.diag * psi - 0.5 * self.hopping(psi)

    def apply_dagger(self, psi: np.ndarray) -> np.ndarray:
        """``D^+ psi = gamma_5 D gamma_5 psi``."""
        return gamma5_sandwich(self.apply(gamma5_sandwich(psi)))

    def normal(self, psi: np.ndarray) -> np.ndarray:
        """``D^+ D psi`` — the hermitian positive operator CG inverts."""
        return self.apply_dagger(self.apply(psi))

    def __repr__(self) -> str:
        return f"WilsonDirac(shape={self.geometry.shape}, m={self.mass}, r={self.r})"
