"""The HMC driver: momenta refresh, MD trajectory, Metropolis test.

Every random draw comes from a stream named ``(seed, "momenta/<k>")`` or
``(seed, "metropolis/<k>")`` for trajectory index ``k``, so an evolution is
a pure function of ``(initial gauge field, seed)`` — re-running it must
produce configurations *identical in all bits*, which is the software
analogue of the paper's five-day 128-node verification (section 4) and is
asserted by tests and benchmark E10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.hmc.actions import WilsonGaugeAction
from repro.hmc.integrators import INTEGRATORS
from repro.lattice.gauge import GaugeField
from repro.lattice.su3 import random_algebra
from repro.util.errors import ConfigError
from repro.util.rng import rng_stream


@dataclass
class TrajectoryResult:
    """One HMC trajectory's bookkeeping."""

    index: int
    delta_h: float
    accepted: bool
    plaquette: float
    action: float


def kinetic_energy(momenta: np.ndarray) -> float:
    """``K = -sum tr(P^2)`` — equals ``(1/2) sum_a c_a^2`` for Gaussian
    algebra coefficients, the canonical Gaussian kinetic term."""
    return float(-np.einsum("dxab,dxba->", momenta, momenta).real)


class HMC:
    """Pure-gauge hybrid Monte Carlo.

    Parameters
    ----------
    gauge:
        The state to evolve (mutated in place by accepted trajectories).
    beta:
        Wilson gauge coupling.
    seed:
        Root seed for the named RNG streams.
    integrator:
        ``"leapfrog"`` or ``"omelyan"``.
    """

    def __init__(
        self,
        gauge: GaugeField,
        beta: float,
        seed: int = 0,
        n_steps: int = 10,
        dt: float = 0.05,
        integrator: str = "omelyan",
    ):
        if integrator not in INTEGRATORS:
            raise ConfigError(
                f"unknown integrator {integrator!r}; options: {sorted(INTEGRATORS)}"
            )
        self.gauge = gauge
        self.action = WilsonGaugeAction(beta)
        self.seed = int(seed)
        self.n_steps = int(n_steps)
        self.dt = float(dt)
        self.integrator = integrator
        self.trajectory_index = 0
        self.history: List[TrajectoryResult] = []

    # -- single trajectory ------------------------------------------------------
    def draw_momenta(self) -> np.ndarray:
        rng = rng_stream(self.seed, f"momenta/{self.trajectory_index}")
        g = self.gauge.geometry
        return random_algebra(rng, g.ndim * g.volume).reshape(
            g.ndim, g.volume, 3, 3
        )

    def trajectory(self) -> TrajectoryResult:
        """One refresh-integrate-accept/reject cycle."""
        momenta = self.draw_momenta()
        h_old = kinetic_energy(momenta) + self.action(self.gauge)

        proposal = self.gauge.copy()
        INTEGRATORS[self.integrator](
            proposal, momenta, self.action.force, self.n_steps, self.dt
        )
        h_new = kinetic_energy(momenta) + self.action(proposal)
        return self.metropolis(proposal, h_new - h_old)

    def metropolis(self, proposal: GaugeField, delta_h: float) -> TrajectoryResult:
        """Accept or reject ``proposal`` on ``exp(-delta_h)``, record the
        trajectory and advance the index (every driver's tail)."""
        rng = rng_stream(self.seed, f"metropolis/{self.trajectory_index}")
        accepted = bool(rng.random() < np.exp(min(0.0, -delta_h)))
        if accepted:
            self.gauge.links = proposal.links
        result = TrajectoryResult(
            index=self.trajectory_index,
            delta_h=float(delta_h),
            accepted=accepted,
            plaquette=self.gauge.plaquette(),
            action=self.action(self.gauge),
        )
        self.history.append(result)
        self.trajectory_index += 1
        return result

    def step(self, reunitarise_every: int = 10) -> TrajectoryResult:
        """One trajectory, then the periodic link reprojection.

        The one chain-loop body (``run`` and ``run_with_checkpoints`` both
        step through it).  The reprojection is phase-aligned on the
        absolute ``trajectory_index``, so a chain run in pieces — or
        resumed from a checkpoint — is the chain run in one go:
        ``run(a); run(b)`` leaves the same bits as ``run(a + b)``.
        """
        result = self.trajectory()
        if reunitarise_every and self.trajectory_index % reunitarise_every == 0:
            self.gauge.reunitarise()
        return result

    def run(self, n_trajectories: int, reunitarise_every: int = 10) -> List[TrajectoryResult]:
        """Run several trajectories, reprojecting links periodically."""
        return [self.step(reunitarise_every) for _ in range(n_trajectories)]

    # -- diagnostics ------------------------------------------------------------
    @property
    def acceptance_rate(self) -> float:
        if not self.history:
            return 0.0
        return sum(t.accepted for t in self.history) / len(self.history)

    def fingerprint(self) -> bytes:
        """Bit-level digest of the current configuration (the paper's
        "identical in all bits" comparison object)."""
        return self.gauge.links.tobytes()
