"""Checkpoint/restart for HMC evolutions, pure-gauge and dynamical.

Because every random draw in the HMC drivers comes from a named stream
keyed by the trajectory index (``(seed, "momenta/<k>")``,
``(seed, "eta/<k>")``, ``(seed, "metropolis/<k>")``), the full evolution
is a pure function of ``(initial configuration, seed)``: an evolution
killed after trajectory ``k`` and restarted from a snapshot of
``(links, k, history)`` replays trajectories ``k, k+1, ...`` with
*exactly* the random numbers the uninterrupted run would have drawn —
the resumed chain is identical in all bits (the paper's section-4
verification criterion, extended to the companion papers'
fail/remap/resume operating mode).

The same snapshot serves all three drivers — the pure-gauge
:class:`repro.hmc.hmc.HMC`, the serial
:class:`repro.hmc.pseudofermion.TwoFlavorWilsonHMC` and the
machine-distributed :class:`repro.parallel.phmc.DistributedTwoFlavorHMC` —
the dynamical ones additionally carrying the ``cg_iterations`` audit
trail, so a resumed dynamical chain reports the same solver history as
the uninterrupted run.

The snapshot deliberately excludes the integrator/step parameters: those
belong to the job script, and restoring onto a differently-configured
driver is a *user* error the restore guards against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.hmc.hmc import HMC, TrajectoryResult
from repro.util.errors import ConfigError


@dataclass(frozen=True)
class HMCCheckpoint:
    """One host-side snapshot of an HMC evolution.

    Frozen and deep-copied on both save and restore, so later evolution
    (or a crashing run mutating its gauge field mid-trajectory) can never
    corrupt a snapshot already taken.
    """

    links: np.ndarray
    trajectory_index: int
    seed: int
    history: List[TrajectoryResult] = field(default_factory=list)
    #: per-solve CG iteration counts (``None`` for pure-gauge drivers)
    cg_iterations: Optional[List[int]] = None

    @classmethod
    def save(cls, hmc: HMC) -> "HMCCheckpoint":
        """Snapshot the driver between trajectories."""
        cg_iterations = getattr(hmc, "cg_iterations", None)
        return cls(
            links=np.array(hmc.gauge.links, copy=True),
            trajectory_index=int(hmc.trajectory_index),
            seed=int(hmc.seed),
            history=list(hmc.history),
            cg_iterations=None if cg_iterations is None else list(cg_iterations),
        )

    def restore(self, hmc: HMC) -> HMC:
        """Load this snapshot into a (fresh or reused) driver in place.

        The driver must use the same root seed — restoring a seed-``a``
        snapshot into a seed-``b`` evolution would silently splice two
        different Markov chains.  Likewise pure-gauge and dynamical
        snapshots cannot cross drivers: the actions differ, so the
        "resumed" chain would not be a continuation of anything.
        """
        if int(hmc.seed) != self.seed:
            raise ConfigError(
                f"checkpoint was taken at seed {self.seed}, driver has "
                f"seed {hmc.seed}; refusing to splice chains"
            )
        dynamical_driver = hasattr(hmc, "cg_iterations")
        if (self.cg_iterations is not None) != dynamical_driver:
            kind = "dynamical" if self.cg_iterations is not None else "pure-gauge"
            raise ConfigError(
                f"checkpoint is {kind} but the driver is not; "
                "refusing to splice chains across actions"
            )
        hmc.gauge.links = np.array(self.links, copy=True)
        hmc.trajectory_index = self.trajectory_index
        hmc.history = list(self.history)
        if self.cg_iterations is not None:
            hmc.cg_iterations = list(self.cg_iterations)
        return hmc

    def __repr__(self) -> str:
        return (
            f"HMCCheckpoint(trajectory={self.trajectory_index}, "
            f"seed={self.seed}, {len(self.history)} results)"
        )


def run_with_checkpoints(
    hmc: HMC,
    n_trajectories: int,
    every: int = 5,
    reunitarise_every: int = 10,
) -> tuple:
    """Run ``n_trajectories``, snapshotting every ``every`` trajectories.

    Returns ``(results, checkpoints)`` where ``checkpoints[-1]`` is the
    final state — the caller (e.g. the resilience harness or a fault
    campaign) can restart from any element and replay the tail
    bit-identically.
    """
    if every < 1:
        raise ConfigError(f"checkpoint cadence must be >= 1, got {every}")
    checkpoints: List[HMCCheckpoint] = [HMCCheckpoint.save(hmc)]
    results: List[TrajectoryResult] = []
    for _ in range(n_trajectories):
        results.append(hmc.step(reunitarise_every))
        # Phase-align on the *absolute* trajectory index (not the loop
        # counter), as ``step`` does for the reprojection: a run resumed
        # from a checkpoint then snapshots at exactly the same points as
        # the uninterrupted run.
        if hmc.trajectory_index % every == 0 or len(results) == n_trajectories:
            checkpoints.append(HMCCheckpoint.save(hmc))
    return results, checkpoints
