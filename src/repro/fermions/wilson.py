"""The (naive) Wilson-Dirac operator.

``D psi(x) = (m + 4) psi(x)
  - (1/2) sum_mu [ (1 - gamma_mu) U_mu(x) psi(x+mu)
                 + (1 + gamma_mu) U_mu(x-mu)^+ psi(x-mu) ]``

with the Wilson parameter at ``r = 1``, the production choice and the
only one at which ``(1 -+ gamma_mu)`` is a rank-2 projector, so that a
hop ships the 12-word half spinor.  The operator satisfies
``D^+ = gamma_5 D gamma_5`` (gamma5-hermiticity), which the test suite and
the CG normal-equation solver both rely on.
"""

from __future__ import annotations

import numpy as np

from repro.fermions.gamma import gamma5_sandwich, reconstruct_lower, spin_project
from repro.lattice.gauge import GaugeField, cmatvec_site_fastest
from repro.util.errors import ConfigError
from repro.util.hotpath import hot_path


class WilsonDirac:
    """Wilson fermion matrix on a 4-dimensional gauge field.

    Parameters
    ----------
    gauge:
        Background gauge field (any dimension is accepted; QCD uses 4).
    mass:
        Bare quark mass ``m``.
    """

    #: field shape suffix this operator acts on
    spin_dof = (4, 3)

    def __init__(self, gauge: GaugeField, mass: float):
        self.gauge = gauge
        self.geometry = gauge.geometry
        self.mass = float(mass)
        # The kernel's scratch, site index fastest (DESIGN.md §12):
        # the transposed input and accumulator, then the projected half
        # spinor, its gather, the SU(3) product and the scaled lower rows.
        # The hand-tuned assembly the paper describes streams each operand
        # once over a long site loop and allocates nothing; one inner loop
        # of V sites per numpy call over buffers made once is the numpy
        # equivalent.
        v = self.geometry.volume
        self._full = np.empty((2, 4, 3, v), dtype=np.complex128)
        self._half = np.empty((4, 2, 3, v), dtype=np.complex128)

    @property
    def diag(self) -> float:
        """The site-diagonal coefficient ``m + ndim``."""
        return self.mass + self.geometry.ndim

    def _check(self, psi: np.ndarray) -> None:
        expected = (self.geometry.volume,) + self.spin_dof
        if psi.shape != expected:
            raise ConfigError(f"field shape {psi.shape}, expected {expected}")
        if psi.dtype != np.complex128:
            # a complex64 field would otherwise be accumulated in double
            # by the kernel scratch and handed back in single
            raise ConfigError(f"field dtype {psi.dtype}, expected complex128")

    def hopping(self, psi: np.ndarray) -> np.ndarray:
        """The nearest-neighbour ("dslash") part, without the diagonal.

        Returns ``sum_mu [(1 - gamma_mu) U psi_fwd + (1 + gamma_mu) U^+ psi_bwd]``
        (the caller supplies the -1/2).  This is the routine the paper's
        hand-tuned assembly implements and the SCU halo exchange feeds.
        The result is a fresh array the caller owns.
        """
        self._check(psi)
        out = np.empty_like(psi)  # caller-owned: never the kernel's scratch
        self._hop_half_spinors(psi, out)
        return out

    @hot_path
    def _hop_half_spinors(self, psi: np.ndarray, out: np.ndarray) -> None:
        """The hopping sum of ``psi`` into ``out``, both ``(V, 4, 3)``.

        ``(1 -+ gamma_mu)`` is rank 2, so project to a half spinor *before*
        the SU(3) multiply — half the colour arithmetic of the naive path
        and exactly the compressed form QCDOC's SCU puts on the wire
        (paper section 2.2).  Every array here has the site index fastest.
        Element for element these are the operations of the distributed
        operators in repro.parallel, in the same ``mu``-ascending,
        forward-then-backward order, which keeps serial and distributed
        results bitwise identical.
        """
        geom = self.geometry
        u, u_dagger = self.gauge.resident_pair
        src, acc = self._full
        half, gathered, prod, lower = self._half
        np.copyto(src, psi.transpose(1, 2, 0))
        acc.fill(0)
        # mode="clip": the memoised tables are in range by construction,
        # and numpy buffers ``out`` under the default "raise"
        for mu in range(geom.ndim):
            for sign in (+1, -1):
                spin_project(mu, sign, src, out=half)
                if sign > 0:
                    # forward hop: U_mu(x) (1 - gamma_mu) psi(x + mu)
                    table = geom.neighbour_fwd(mu)
                    half.take(table, axis=-1, out=gathered, mode="clip")
                    hop = cmatvec_site_fastest(u[mu], gathered, out=prod)
                else:
                    # backward hop: U_mu(x - mu)^+ (1 + gamma_mu) psi(x - mu),
                    # multiplied where the link lives (the sender-side
                    # staging of the distributed pipeline) and the product
                    # gathered: no shifted copy of the links exists
                    table = geom.neighbour_bwd(mu)
                    cmatvec_site_fastest(u_dagger[mu], half, out=prod)
                    hop = prod.take(table, axis=-1, out=gathered, mode="clip")
                acc[:2] += hop
                acc[2:] += reconstruct_lower(mu, sign, hop, out=lower)
        np.copyto(out.transpose(1, 2, 0), acc)

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """``D psi``."""
        return self.diag * psi - 0.5 * self.hopping(psi)

    def apply_dagger(self, psi: np.ndarray) -> np.ndarray:
        """``D^+ psi = gamma_5 D gamma_5 psi``."""
        self._check(psi)
        return gamma5_sandwich(self.apply(gamma5_sandwich(psi)))

    def normal(self, psi: np.ndarray) -> np.ndarray:
        """``D^+ D psi`` — the hermitian positive operator CG inverts."""
        return self.apply_dagger(self.apply(psi))

    def __repr__(self) -> str:
        return f"WilsonDirac(shape={self.geometry.shape}, m={self.mass})"
