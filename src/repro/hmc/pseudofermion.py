"""Dynamical (two-flavor) Wilson HMC with pseudofermions.

The paper's production workload was *dynamical* QCD — the five-day
128-node verification run "evolve[d] a QCD system through the phase space
of the Feynman path integral" with the Dirac solves inside the force.
This module implements the standard two-flavor algorithm:

* at the start of each trajectory draw ``eta ~ exp(-eta^+ eta)`` and set
  the pseudofermion field ``phi = D^+ eta``, so that
  ``S_pf = phi^+ (D^+ D)^{-1} phi`` starts at exactly ``eta^+ eta``;
* the molecular-dynamics force needs ``X = (D^+ D)^{-1} phi`` (a CG
  solve — the paper's "dominant calculational time" inside every MD
  step) and ``Y = D X``; the link derivative of the hopping term gives

  ``F_mu(x) = -(1/2) TA[ U_mu(x) B1 - D2 U_mu(x)^+ ]``, with colour
  matrices built from ``(1 -+ gamma_mu)``-projected outer products of
  ``X`` and ``Y`` (derivation in the docstring of
  :meth:`TwoFlavorWilsonHMC.fermion_force`; validated against a numerical
  derivative of ``S_pf`` in the tests);
* leapfrog/Omelyan MD on ``S_gauge + S_pf``, then a Metropolis test on
  the exact Hamiltonian.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.fermions.gamma import GAMMA, apply_spin_matrix
from repro.fermions.wilson import WilsonDirac
from repro.hmc.actions import traceless_antihermitian
from repro.hmc.hmc import HMC, TrajectoryResult, kinetic_energy
from repro.hmc.integrators import omelyan
from repro.lattice.gauge import GaugeField
from repro.lattice.su3 import dagger, expm_su3
from repro.solvers.krylov import cg_iter, lift, mixed_cg_iter, run_serial
from repro.solvers.sitedot import canonical_dot
from repro.util.errors import ConfigError
from repro.util.rng import rng_stream

#: force-solver choices -> the Krylov core generator each one runs: plain
#: double-precision CG, or mixed-precision CG with reliable updates
SOLVERS = {"cg": cg_iter, "mixed": mixed_cg_iter}


def wilson_force_term(mu, link, x_field, y_field, fwd, halo=None):
    """``(1/2) TA[ U_mu B1 - D2 U_mu^+ ]``, the fermion force on direction
    ``mu``'s links (derivation in
    :meth:`TwoFlavorWilsonHMC.fermion_force`), site by site.

    ``fwd`` gathers ``x + mu`` from the tile.  A rank whose forward
    neighbours along ``mu`` live on another node passes ``halo = (rows,
    halo_x, halo_y)``: the received ``X`` and ``Y`` of those rows, whose
    ``(1 + gamma_mu)`` projection is taken here like every other row's
    (projection is per site, so patch-then-project equals
    project-then-gather bit for bit).
    """
    proj_minus_y = y_field - apply_spin_matrix(GAMMA[mu], y_field)
    proj_plus_y = y_field + apply_spin_matrix(GAMMA[mu], y_field)
    x_fwd = x_field[fwd]
    proj_plus_fwd = proj_plus_y[fwd]
    if halo is not None:
        rows, halo_x, halo_y = halo
        x_fwd[rows] = halo_x
        proj_plus_fwd[rows] = halo_y + apply_spin_matrix(GAMMA[mu], halo_y)
    b1 = np.einsum("xtc,xta->xca", x_fwd, np.conj(proj_minus_y))
    d2 = np.einsum("xtb,xtc->xbc", x_field, np.conj(proj_plus_fwd))
    grad = link @ b1 - d2 @ dagger(link)
    return 0.5 * traceless_antihermitian(grad)


class TwoFlavorWilsonHMC(HMC):
    """HMC for two degenerate Wilson flavors (quenched + ``det(D^+D)``).

    The pure-gauge driver with the pseudofermion action added: the chain
    loop, the Metropolis tail and the diagnostics are inherited; ``action``
    is the gauge part.
    """

    def __init__(
        self,
        gauge: GaugeField,
        beta: float,
        mass: float,
        seed: int = 0,
        n_steps: int = 10,
        dt: float = 0.05,
        cg_tol: float = 1e-10,
        cg_maxiter: int = 4000,
        solver: str = "cg",
    ):
        if solver not in SOLVERS:
            raise ConfigError(
                f"unknown force solver {solver!r}; options: {list(SOLVERS)}"
            )
        super().__init__(gauge, beta, seed, n_steps, dt)
        self.mass = float(mass)
        self.cg_tol = float(cg_tol)
        self.cg_maxiter = int(cg_maxiter)
        self.solver = solver
        self.cg_iterations: List[int] = []

    # -- pseudofermion machinery ------------------------------------------------
    def _dirac(self, gauge: GaugeField) -> WilsonDirac:
        return WilsonDirac(gauge, mass=self.mass)

    def _solve_x(self, gauge: GaugeField, phi: np.ndarray) -> np.ndarray:
        """``X = (D^+ D)^{-1} phi`` by CG on the normal operator.

        Every inner product is the decomposition-independent
        :func:`~repro.solvers.sitedot.canonical_dot`, so the machine-
        distributed driver reproduces this solve bit for bit at any node
        count.
        """
        d = self._dirac(gauge)
        res = run_serial(
            SOLVERS[self.solver](
                lift(d.normal), lift(canonical_dot), phi, self.cg_tol, self.cg_maxiter
            )
        )
        if not res.converged:
            raise ConfigError(
                f"fermion-force CG failed to converge in {self.cg_maxiter}"
            )
        self.cg_iterations.append(res.iterations)
        return res.x

    def pseudofermion_action(self, gauge: GaugeField, phi: np.ndarray) -> float:
        x = self._solve_x(gauge, phi)
        return float(canonical_dot(phi, x).real)

    def fermion_force(self, gauge: GaugeField, phi: np.ndarray) -> np.ndarray:
        """``P_dot`` contribution of ``S_pf`` (traceless anti-hermitian).

        Derivation: under ``U_mu(x) -> exp(eps Q) U_mu(x)``,

        ``dS_pf = -2 Re[ Y^+ dD X ]``
        ``      = Re tr[ Q ( U_mu(x) B1(x) - D2(x) U_mu(x)^+ ) ]``

        with colour matrices

        ``B1_{ca} = sum_t X(x+mu)_{tc} conj[((1 - gamma_mu) Y(x))_{ta}]``
        ``D2_{bc} = sum_t X(x)_{tb} conj[((1 + gamma_mu) Y(x+mu))_{tc}]``

        With ``dS/d eps = Re tr[Q G]`` and the kinetic normalisation
        ``K = -tr P^2``, energy conservation fixes
        ``P_dot = +(1/2) TA(G)`` — the same convention under which the
        gauge force is ``-(beta/6) TA(U S)`` (its ``G`` carries the
        ``-beta/3``).  Both signs are pinned by the numerical-gradient
        tests.
        """
        d = self._dirac(gauge)
        x_field = self._solve_x(gauge, phi)
        y_field = d.apply(x_field)
        g = gauge.geometry
        out = np.empty_like(gauge.links)
        for mu in range(g.ndim):
            out[mu] = wilson_force_term(
                mu, gauge.links[mu], x_field, y_field, g.neighbour_fwd(mu)
            )
        return out

    def total_force(self, gauge: GaugeField, phi: np.ndarray) -> np.ndarray:
        return self.action.force(gauge) + self.fermion_force(gauge, phi)

    def pseudofermion_gradient_check(
        self, gauge: GaugeField, phi: np.ndarray, mu: int, site: int,
        direction: np.ndarray, eps: float = 1e-5,
    ) -> float:
        """Numerical ``dS_pf/d eps`` for one link (force validation)."""

        def perturbed(sign: float) -> float:
            g2 = gauge.copy()
            rot = expm_su3((sign * eps * direction)[None])[0]
            g2.set_links(mu, site, rot @ gauge.links[mu][site])
            return self.pseudofermion_action(g2, phi)

        return (perturbed(+1.0) - perturbed(-1.0)) / (2 * eps)

    # -- trajectories ------------------------------------------------------------
    def heatbath(self, eta: np.ndarray) -> np.ndarray:
        """The pseudofermion heat-bath ``phi = D^+ eta``."""
        return self._dirac(self.gauge).apply_dagger(eta)

    def draw_fields(self):
        momenta = self.draw_momenta()
        g = self.gauge.geometry
        rng_e = rng_stream(self.seed, f"eta/{self.trajectory_index}")
        eta = (
            rng_e.standard_normal((g.volume, 4, 3))
            + 1j * rng_e.standard_normal((g.volume, 4, 3))
        ) / np.sqrt(2.0)
        return momenta, eta, self.heatbath(eta)

    def trajectory(self) -> TrajectoryResult:
        momenta, eta, phi = self.draw_fields()
        # S_pf(start) = eta^+ eta exactly, by construction of phi.
        h_old = (
            kinetic_energy(momenta)
            + self.action(self.gauge)
            + float(canonical_dot(eta, eta).real)
        )
        proposal = self.gauge.copy()
        # the shared Omelyan loop, closed over the pseudofermion field (the
        # force is the one method a machine-distributed driver overrides)
        omelyan(
            proposal,
            momenta,
            lambda g: self.total_force(g, phi),
            self.n_steps,
            self.dt,
        )
        h_new = (
            kinetic_energy(momenta)
            + self.action(proposal)
            + self.pseudofermion_action(proposal, phi)
        )
        return self.metropolis(proposal, h_new - h_old)
