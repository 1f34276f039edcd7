"""The clover-improved Wilson-Dirac operator (Sheikholeslami-Wohlert).

``D_clover = D_wilson - (c_sw / 2) sum_{mu<nu} sigma_{mu nu} F_{mu nu}``

The added term is strictly site-local (built from the four plaquette
"clover leaves" around each site), so it adds floating-point work without
adding communication — which is exactly why the paper measures clover at
46.5% of peak versus 40% for naive Wilson (section 4): the extra local
flops raise arithmetic intensity on the same memory and network traffic.
"""

from __future__ import annotations

import numpy as np

from repro.fermions.gamma import sigma_munu
from repro.fermions.wilson import WilsonDirac
from repro.lattice.gauge import GaugeField


class CloverDirac(WilsonDirac):
    """Wilson operator plus the clover term.

    Parameters
    ----------
    c_sw:
        Sheikholeslami-Wohlert coefficient; 1.0 at tree level.
    """

    def __init__(self, gauge: GaugeField, mass: float, c_sw: float = 1.0):
        super().__init__(gauge, mass)
        self.c_sw = float(c_sw)
        # Precompute the (V, 4, 3, 4, 3) clover tensor
        #   C[x, s, a, t, b] = -(c_sw/2) sum_{mu<nu} sigma[s,t] F[x,a,b].
        # For production this would be stored as two packed hermitian 6x6
        # blocks; we keep the explicit tensor for clarity and test the
        # hermiticity property instead.
        g = self.geometry
        clover = np.zeros((g.volume, 4, 3, 4, 3), dtype=np.complex128)
        for mu in range(g.ndim):
            for nu in range(mu + 1, g.ndim):
                sig = sigma_munu(mu, nu)
                # gauge.field_strength returns the anti-hermitian
                # (Q - Q^+)/8; the physical hermitian F_{mu nu} is -i times
                # that, making sigma (x) F hermitian in (spin x colour).
                f_herm = -1j * gauge.field_strength(mu, nu)
                clover += np.einsum("st,xab->xsatb", sig, f_herm)
        self.clover_tensor = -(self.c_sw / 2.0) * clover

    def clover_term(self, psi: np.ndarray) -> np.ndarray:
        """Apply the site-local clover matrix to ``psi``."""
        self._check(psi)
        return np.einsum("xsatb,xtb->xsa", self.clover_tensor, psi)

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """``(D_wilson + clover) psi``."""
        return super().apply(psi) + self.clover_term(psi)

    def clover_is_hermitian(self, tol: float = 1e-12) -> bool:
        """The packed clover matrix must be hermitian in (spin x colour)."""
        v = self.geometry.volume
        m = self.clover_tensor.reshape(v, 12, 12)
        return bool(np.max(np.abs(m - np.conj(np.swapaxes(m, 1, 2)))) < tol)

    def __repr__(self) -> str:
        return (
            f"CloverDirac(shape={self.geometry.shape}, m={self.mass}, "
            f"c_sw={self.c_sw})"
        )
