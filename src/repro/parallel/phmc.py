"""Distributed two-flavor dynamical HMC on the simulated machine.

The paper's production workload — "evolve[ing] a QCD system through the
phase space of the Feynman path integral" with Dirac solves inside every
MD force step (the five-day 128-node verification run) — executed end to
end on the machine model: the pseudofermion heat-bath
(``phi = D^+ eta``), every fermion-force CG solve, the ``Y = D X`` apply,
the force outer products (with their own SCU halo exchange) and the
Metropolis pseudofermion action all run as node programs through
:class:`~repro.parallel.pdirac.DistributedWilsonContext`, while the RNG
draws, the gauge force, the symplectic drift and the accept/reject test
stay host-side — they *are* the serial driver's code, inherited.

Bit-identity contract
---------------------
:class:`DistributedTwoFlavorHMC` produces *exactly* the trajectory
history of :class:`repro.hmc.pseudofermion.TwoFlavorWilsonHMC` — same
``delta_h`` doubles, same acceptances, same ``cg_iterations``, same final
links — at any node count, shard count or word batch, because every
ingredient is individually bitwise stable under tiling:

* the operator applications (``D``, ``D^+``, ``D^+ D``) are the
  established bit-identical distributed kernels of ``pdirac``;
* every inner product is the decomposition-independent canonical site
  dot (:mod:`repro.solvers.sitedot`), serial and machine flavours
  summing the *same* length-``V`` site array in the same order;
* the CG loops *are* the serial ones — rank programs ``yield from`` the
  one Krylov core (:mod:`repro.solvers.krylov`), whose fused vector
  kernels are elementwise;
* the fermion-force kernel runs the serial force's own per-direction
  contraction (:func:`~repro.hmc.pseudofermion.wilson_force_term`) on
  the tile, with raw ``X``/``Y`` low faces exchanged over the SCU and the
  ``(r + gamma_mu)`` projection taken on received rows (projection is
  row-independent, so patch-then-project equals project-then-gather).

Named RNG streams keyed by the absolute trajectory index make the
evolution a pure function of ``(configuration, seed)``, so
:class:`~repro.hmc.checkpoint.HMCCheckpoint` snapshots restore onto a
*different* healthy partition (after a hard fault and a Qdaemon remap)
and replay the chain bit-identically — benchmark E18.
"""

from __future__ import annotations

from typing import Any, Callable, List

import numpy as np

from repro.comms.api import full_descriptor
from repro.fermions.flops import operator_cost
from repro.hmc.pseudofermion import SOLVERS, TwoFlavorWilsonHMC, wilson_force_term
from repro.lattice.gauge import GaugeField
from repro.machine.machine import QCDOCMachine
from repro.machine.topology import Partition
from repro.parallel.decomp import PhysicsMapping
from repro.parallel.pcg import (
    MachineSiteDot,
    agreed,
    iteration_hook,
    run_on_partition,
    wilson_context,
)
from repro.util.errors import ConfigError


def wilson_force_kernel(api, ctx, x_field, y_field):
    """The two-flavor fermion force on one rank's tile (generator).

    Per communicated axis the rank ships the raw low faces of **both**
    solver fields packed into a single transfer (``X`` then ``Y``,
    ``2 * nface`` full spinors — the ``"wilson-force"`` cost sheet of
    :mod:`repro.fermions.flops`), and the serial force's own per-``mu``
    contraction, :func:`repro.hmc.pseudofermion.wilson_force_term`,
    patches the received rows into its locally-gathered forward hops.
    Each direction is charged its share of the sheet's per-site
    flops plus the reprojection of the halo rows, which the telemetry
    crosscheck holds against
    :func:`repro.perfmodel.dirac_perf.dirac_flops_per_node`.
    """
    cost = operator_cost("wilson-force")
    g = ctx.geometry
    v = g.volume
    mem = api.memory
    rate = ctx.kernel_rate(cost)
    halos = {}
    events = []
    for mu in ctx.comm_axes:
        plan = ctx.plans[mu]
        nface = len(plan.send_low)
        stage = mem.zeros(f"force_stage{mu}", (2, nface, 4, 3))
        halos[mu] = mem.zeros(f"force_halo{mu}", (2, nface, 4, 3))
        api.cpu_write(f"force_stage{mu}")
        stage[0] = x_field[plan.send_low]
        stage[1] = y_field[plan.send_low]
        events.append(
            api.send(
                mu,
                -1,
                full_descriptor(api.node, f"force_stage{mu}"),
                word_batch=ctx.word_batch,
            )
        )
        events.append(
            api.recv(mu, +1, full_descriptor(api.node, f"force_halo{mu}"))
        )
    yield api.wait(events)

    out = np.empty((g.ndim, v, 3, 3), dtype=np.complex128)
    for mu in range(g.ndim):
        halo = None
        nface = 0
        if mu in halos:
            api.cpu_read(f"force_halo{mu}")
            rows = ctx.plans[mu].fill_from_fwd
            halo = (rows, halos[mu][0], halos[mu][1])
            nface = len(rows)
        out[mu] = wilson_force_term(
            mu, ctx.links[mu], x_field, y_field, g.neighbour_fwd(mu), halo
        )
        yield api.compute(
            v * cost.flops_per_site // g.ndim + cost.halo_flops(nface),
            kernel="fermion_force",
            rate=rate,
        )
    return out


def _machine_solve(api, ctx, dot, b, solver, tol, maxiter):
    res = yield from SOLVERS[solver](
        ctx.normal, dot, b, tol, maxiter, on_iteration=iteration_hook(api),
        charge=ctx.charge,
    )
    if not res.converged:
        raise ConfigError(f"fermion-force CG failed to converge in {maxiter}")
    return res.x, res.iterations


def hmc_heatbath_program(api, context, local_eta):
    """``phi = D^+ eta`` on the machine (the pseudofermion heat-bath)."""
    phi = yield from context(api).apply_dagger(local_eta[api.rank])
    return phi.copy()


def hmc_force_program(api, context, mapping, local_phi, solver, tol, maxiter):
    """Solve ``X = (D^+ D)^{-1} phi``, apply ``Y = D X``, form the force."""
    ctx = context(api)
    dot = MachineSiteDot(ctx, mapping)
    x, iters = yield from _machine_solve(
        api, ctx, dot, local_phi[api.rank], solver, tol, maxiter
    )
    y = yield from ctx.apply(x)
    force = yield from wilson_force_kernel(api, ctx, x, y.copy())
    if api.trace is not None:
        api.trace.emit("hmc.force", rank=api.rank, iterations=iters)
    return force, iters


def hmc_action_program(api, context, mapping, local_phi, solver, tol, maxiter):
    """``S_pf = phi^+ (D^+ D)^{-1} phi`` for the Metropolis Hamiltonian."""
    ctx = context(api)
    dot = MachineSiteDot(ctx, mapping)
    x, iters = yield from _machine_solve(
        api, ctx, dot, local_phi[api.rank], solver, tol, maxiter
    )
    s_pf = yield from dot(local_phi[api.rank], x)
    return s_pf, iters


class DistributedTwoFlavorHMC(TwoFlavorWilsonHMC):
    """Two-flavor Wilson HMC whose fermionic work runs on the machine.

    :class:`~repro.hmc.pseudofermion.TwoFlavorWilsonHMC` with the machine
    and partition prepended and exactly its fermionic methods overridden
    — the heat-bath, the fermion force and the pseudofermion action run
    as node programs; the RNG draws, the gauge force, the Omelyan loop
    and the Metropolis test are the serial driver's own code.  Each
    trajectory launches ``2 * n_steps + 2`` node-program runs: the
    heat-bath, two force evaluations per Omelyan step (links change, so
    each run rebuilds its operator context from freshly scattered links),
    and the final pseudofermion action.  Run-allocated node buffers are
    freed after every run so repeated launches on one machine never
    collide.
    """

    def __init__(
        self,
        machine: QCDOCMachine,
        partition: Partition,
        gauge: GaugeField,
        beta: float,
        mass: float,
        seed: int = 0,
        n_steps: int = 10,
        dt: float = 0.05,
        cg_tol: float = 1e-10,
        cg_maxiter: int = 4000,
        solver: str = "cg",
        word_batch=None,
        max_time: float = 1e9,
    ):
        super().__init__(
            gauge, beta, mass, seed, n_steps, dt, cg_tol, cg_maxiter, solver
        )
        self.machine = machine
        self.partition = partition
        self.mapping = PhysicsMapping(gauge.geometry, partition)
        self.word_batch = word_batch
        self.max_time = float(max_time)

    # -- machine plumbing --------------------------------------------------------
    def rebind(self, machine: QCDOCMachine, partition: Partition) -> None:
        """Re-home the evolution onto a congruent (healthy) partition.

        The fault-recovery path: after a hard fault kills the current
        partition, the Qdaemon maps it out and allocates a spare of the
        same logical shape; the evolution then restores its checkpoint
        and replays bit-identically — tiling, not placement, is what the
        arithmetic sees.
        """
        mapping = PhysicsMapping(self.gauge.geometry, partition)
        if mapping.local_shape != self.mapping.local_shape:
            raise ConfigError(
                f"partition tiles the lattice as {mapping.local_shape}, "
                f"evolution ran at {self.mapping.local_shape}; refusing"
            )
        self.machine = machine
        self.partition = partition
        self.mapping = mapping

    def _run(
        self, program: Callable[..., Any], gauge: GaugeField, **kwargs: Any
    ) -> List[Any]:
        """One node-program run on freshly scattered links (they change
        every MD step); :func:`~repro.parallel.pcg.run_on_partition` frees
        what the run allocated."""
        context = wilson_context(
            self.mapping, gauge, self.mass, word_batch=self.word_batch
        )
        return run_on_partition(
            self.machine, self.partition, program, self.max_time, context=context,
            **kwargs,
        )

    def _solve(
        self, program: Callable[..., Any], gauge: GaugeField, phi: np.ndarray
    ) -> List[Any]:
        """Run a solver program and record its (agreed) iteration count."""
        results = self._run(
            program,
            gauge,
            mapping=self.mapping,
            local_phi=self.mapping.scatter_field(phi),
            solver=self.solver,
            tol=self.cg_tol,
            maxiter=self.cg_maxiter,
        )
        self.cg_iterations.append(
            agreed([res[1] for res in results], "CG iteration count")
        )
        return results

    # -- pseudofermion machinery (machine-side) ----------------------------------
    def fermion_force(self, gauge: GaugeField, phi: np.ndarray) -> np.ndarray:
        results = self._solve(hmc_force_program, gauge, phi)
        return self.mapping.gather_stack(np.stack([res[0] for res in results]))

    def pseudofermion_action(self, gauge: GaugeField, phi: np.ndarray) -> float:
        results = self._solve(hmc_action_program, gauge, phi)
        return float(agreed([complex(res[0]) for res in results], "S_pf").real)

    def heatbath(self, eta: np.ndarray) -> np.ndarray:
        results = self._run(
            hmc_heatbath_program,
            self.gauge,
            local_eta=self.mapping.scatter_field(eta),
        )
        return self.mapping.gather_field(np.stack(results))
