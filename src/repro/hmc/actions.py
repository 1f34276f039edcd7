"""The Wilson gauge action and its molecular-dynamics force.

``S[U] = beta * sum_{x, mu<nu} (1 - Re tr P_{mu nu}(x) / 3)``

With conjugate momenta ``P`` (traceless anti-hermitian, one per link),
Hamilton's equations are ``U_dot = P U`` and
``P_dot = -(beta/6) TA(U_mu(x) S_mu(x))`` where ``S_mu`` is the staple sum
of :meth:`repro.lattice.gauge.GaugeField.staple` and ``TA`` projects onto
the traceless anti-hermitian algebra.  The normalisation is fixed by
``dH/dt = 0`` and verified against a numerical derivative in the tests.
"""

from __future__ import annotations

import numpy as np

from repro.lattice.gauge import GaugeField
from repro.lattice.su3 import dagger
from repro.util.errors import ConfigError


def traceless_antihermitian(m: np.ndarray) -> np.ndarray:
    """Project matrices onto the su(3) algebra: ``(M - M^+)/2 - trace/3``."""
    a = (m - dagger(m)) / 2.0
    tr = np.einsum("...aa->...", a) / 3.0
    out = a.copy()
    for i in range(3):
        out[..., i, i] -= tr
    return out


class WilsonGaugeAction:
    """Plaquette action with coupling ``beta``."""

    def __init__(self, beta: float):
        if beta <= 0:
            raise ConfigError(f"beta must be positive, got {beta}")
        self.beta = float(beta)

    def __call__(self, gauge: GaugeField) -> float:
        """``S[U]`` (the Metropolis energy)."""
        g = gauge.geometry
        nplanes = g.ndim * (g.ndim - 1) // 2
        return self.beta * g.volume * nplanes * (1.0 - gauge.plaquette())

    def force(self, gauge: GaugeField) -> np.ndarray:
        """``P_dot``: shape ``(ndim, V, 3, 3)``, traceless anti-hermitian."""
        g = gauge.geometry
        out = np.empty_like(gauge.links)
        for mu in range(g.ndim):
            out[mu] = traceless_antihermitian(
                gauge.links[mu] @ gauge.staple(mu)
            )
        out *= -self.beta / 6.0
        return out

    def gradient_check(
        self, gauge: GaugeField, mu: int, site: int, direction: np.ndarray, eps: float = 1e-6
    ) -> float:
        """Numerical ``dS/d eps`` for ``U -> exp(eps Q) U`` on one link.

        The analytic counterpart (used by the force) is
        ``-(beta/3) Re tr[Q U_mu(x) S_mu(x)]``; the test suite compares the
        two.  ``direction`` is an anti-hermitian 3x3 matrix ``Q``.
        """
        from repro.lattice.su3 import expm_su3

        def perturbed(sign: float) -> float:
            g2 = gauge.copy()
            rot = expm_su3((sign * eps * direction)[None])[0]
            g2.set_links(mu, site, rot @ gauge.links[mu][site])
            return self(g2)

        return (perturbed(+1.0) - perturbed(-1.0)) / (2 * eps)
