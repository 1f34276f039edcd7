"""Distributed conjugate gradients on the simulated machine.

This is the paper's benchmark workload end to end: CG on the Dirac normal
equations, every hopping term through SCU DMA halo exchanges and every
inner product through the SCU global-sum tree.  Rank programs ``yield
from`` the one Krylov core of :mod:`repro.solvers.krylov` — the very
generators the serial solvers run to completion — over ``ctx.normal``,
``ctx.charge`` (the solver's vector kernels, priced on the rank's tile)
and one of two dots (DESIGN.md §15): :func:`rank_partial_dot`, the paper's
one-word collective (equal to serial ``cgne`` to rounding, bit-reproducible
run over run, restart and shard count), or :class:`MachineSiteDot`, the
V-word canonical site sum (equal to a serial ``canonical_dot`` solve in
all bits).  ``cg.iteration``/``cg.checkpoint`` come from this backend's
:func:`iteration_hook`, never from the core.

An operator reaches the machine as a host-side *context factory* —
:func:`wilson_context`, :func:`dwf_context`, :func:`staggered_context`:
scatter once, then ``context(api)`` on each rank — and two drivers take
one: :func:`apply_on_machine` applies it, ``solve_*_on_machine`` solve
with it (DESIGN.md "Running an operator or a solve on the machine").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.comms.api import CommsAPI
from repro.fermions.clover import CloverDirac
from repro.fermions.staggered import fat_links, long_links
from repro.lattice.gauge import GaugeField
from repro.machine.machine import QCDOCMachine
from repro.machine.topology import Partition
from repro.parallel.decomp import PhysicsMapping
from repro.parallel.pdirac import DistributedWilsonContext
from repro.parallel.pdwf import DistributedDWFContext
from repro.parallel.pstaggered import DistributedStaggeredContext
from repro.solvers.checkpoint import CGCheckpointStore
from repro.solvers.krylov import GenDot, IterationHook, SolveResult, Steps, cg_iter
from repro.solvers.sitedot import reduce_site_inner, site_inner
from repro.util.errors import ConfigError


@dataclass
class DistributedSolveResult:
    """Gathered outcome of a machine-distributed CGNE solve."""

    x: np.ndarray
    converged: bool
    iterations: int
    residuals: List[float]
    #: simulated wall-clock of the solve (seconds of machine time)
    machine_time: float
    #: total flops charged across nodes
    flops: float
    #: link checksum audit result (must be [])
    checksum_mismatches: List[str] = field(default_factory=list)

    @property
    def sustained_flops(self) -> float:
        return self.flops / self.machine_time if self.machine_time > 0 else 0.0


class MachineSiteDot:
    """Canonical inner product through the SCU global-sum tree (generator).

    The machine flavour of :func:`repro.solvers.sitedot.canonical_dot`
    (see that module for why the bits agree): the rank scatters its
    per-site partials into a zero-padded global site array and contributes
    it to the elementwise global sum, which rebuilds the very array the
    serial code reduces.  Works in any dtype the fields carry — the
    mixed-precision inner solver sends ``complex64`` sites through the tree.

    ``ctx`` is the rank's operator context, whose ``charge`` prices the
    dot on the rank's tile.
    """

    def __init__(self, ctx: Any, mapping: PhysicsMapping):
        self.ctx = ctx
        self.global_sites = mapping.tiling.global_of[ctx.api.rank]
        self.global_volume = mapping.geometry.volume

    def __call__(self, u: np.ndarray, v: np.ndarray) -> Steps[complex]:
        site = site_inner(u, v)
        padded = np.zeros(self.global_volume, dtype=site.dtype)
        padded[self.global_sites] = site
        api = self.ctx.api
        yield from self.ctx.charge({"dot": 1}, u)
        summed = yield api.global_sum(padded)
        return reduce_site_inner(summed)


def rank_partial_dot(ctx: Any) -> GenDot:
    """The rank's ``vdot`` partial through a one-word SCU global sum,
    charged to the rank of ``ctx`` first."""
    api = ctx.api

    def dot(u: np.ndarray, v: np.ndarray) -> Steps[complex]:
        partial = np.array([np.vdot(u, v)])
        yield from ctx.charge({"dot": 1}, u)
        return (yield api.global_sum(partial))[0]

    return dot


def iteration_hook(
    api: CommsAPI, checkpoint: Optional[CGCheckpointStore] = None
) -> IterationHook:
    """The machine backend's ``on_iteration``: trace, then checkpoint this
    rank's state at the store's cadence (iteration 0 always, so a hard
    fault at any point can resume rather than restart)."""

    def on_iteration(state: Dict[str, Any], converged: bool) -> None:
        it = state["it"]
        if it and api.trace is not None:
            api.trace.emit(
                "cg.iteration",
                rank=api.rank,
                iteration=it,
                residual=state["residuals"][-1],
            )
        if checkpoint is not None and checkpoint.due(it, converged):
            checkpoint.put(api.rank, it, state)
            if api.trace is not None:
                api.trace.emit("cg.checkpoint", rank=api.rank, iteration=it)

    return on_iteration


# -- the shared driver: scatter -> launch, settle, finalize -> agree-and-gather --
def run_on_partition(
    machine: QCDOCMachine,
    partition: Partition,
    program: Callable[..., Any],
    max_time: float,
    **kwargs: Any,
) -> List[Any]:
    """One whole job: ``run_partition`` (launch, drive to settle), then
    the ``finalize`` it leaves to its caller on success — the nodes are
    back in boot state for the next run of any shape."""
    before = machine.last_run
    try:
        return machine.run_partition(partition, program, max_time=max_time, **kwargs)
    finally:
        if machine.last_run is not before:  # it got as far as launching
            machine.last_run.finalize()


def agreed(values: Sequence[Any], what: str) -> Any:
    """The one value every rank reported: control flow is driven by
    globally-summed scalars, so the ranks must agree exactly."""
    distinct = set(values)
    if len(distinct) != 1:
        raise ConfigError(f"ranks disagree on {what}: {distinct}")
    return values[0]


def gather_cg_results(
    machine: QCDOCMachine,
    gather: Callable[[np.ndarray], np.ndarray],
    results: Sequence[SolveResult],
    machine_time: float,
    flops: float,
    audit: bool = True,
) -> DistributedSolveResult:
    """Assemble per-rank solves into one :class:`DistributedSolveResult`;
    ``gather`` rebuilds the global field from the stacked tiles
    (``mapping.gather_field``, or ``gather_stack`` for 5D fields).
    ``audit=False`` skips the machine-wide link-checksum comparison — the
    per-job path on a shared machine, where other jobs are still
    mid-flight and the service audits once at drain."""
    return DistributedSolveResult(
        x=gather(np.stack([res.x for res in results])),
        converged=all(res.converged for res in results),
        iterations=agreed([res.iterations for res in results], "iteration count"),
        residuals=results[0].residuals,
        machine_time=machine_time,
        flops=flops,
        checksum_mismatches=machine.audit_checksums() if audit else [],
    )


@dataclass(frozen=True)
class _Scattered:
    """One operator scattered host-side over a mapping: call it with a
    rank's ``api`` for that rank's context; ``scatter``/``gather`` move
    its fields (the ``*_stack`` pair when a leading axis stays node-local)."""

    build: Callable[[CommsAPI], Any]
    scatter: Callable[[np.ndarray], np.ndarray]
    gather: Callable[[np.ndarray], np.ndarray]

    def __call__(self, api: CommsAPI) -> Any:
        return self.build(api)


def wilson_context(
    mapping: PhysicsMapping,
    gauge: GaugeField,
    mass: float,
    c_sw: Optional[float] = None,
    **ctx: Any,
) -> _Scattered:
    """Scatter one Wilson (or, with ``c_sw``, clover) system host-side;
    returns the ``context(api)`` factory each rank builds its operator
    from.  ``ctx`` passes ``overlap``/``compress``/``word_batch`` through."""
    links = mapping.scatter_gauge(gauge)
    clover = None
    if c_sw is not None:
        serial = CloverDirac(gauge, mass=mass, c_sw=c_sw)
        clover = mapping.scatter_field(serial.clover_tensor)

    def build(api: CommsAPI) -> DistributedWilsonContext:
        return DistributedWilsonContext(
            api,
            mapping.local_shape,
            links[api.rank],
            mass=mass,
            clover_tensor=None if clover is None else clover[api.rank],
            **ctx,
        )

    return _Scattered(build, mapping.scatter_field, mapping.gather_field)


def dwf_context(
    mapping: PhysicsMapping,
    gauge: GaugeField,
    Ls: int,
    M5: float = 1.8,
    mf: float = 0.1,
    **ctx: Any,
) -> _Scattered:
    """The domain-wall factory: fields are ``(Ls, V, 4, 3)``, the fifth
    dimension stays node-local while space-time tiles over the partition.
    ``ctx`` passes ``overlap``/``word_batch`` through."""
    links = mapping.scatter_gauge(gauge)

    def build(api: CommsAPI) -> DistributedDWFContext:
        return DistributedDWFContext(
            api, mapping.local_shape, links[api.rank], Ls=Ls, M5=M5, mf=mf, **ctx
        )

    return _Scattered(build, mapping.scatter_stack, mapping.gather_stack)


def staggered_context(
    mapping: PhysicsMapping, gauge: GaugeField, mass: float, **ctx: Any
) -> _Scattered:
    """The ASQTAD factory: the fat and Naik links are smeared from the
    global gauge field before scattering (smearing needs neighbour
    links).  ``ctx`` passes ``overlap``/``word_batch`` through."""
    fat = mapping.scatter_stack(fat_links(gauge))
    long = mapping.scatter_stack(long_links(gauge))

    def build(api: CommsAPI) -> DistributedStaggeredContext:
        return DistributedStaggeredContext(
            api, mapping.local_shape, fat[api.rank], long[api.rank], mass=mass, **ctx
        )

    return _Scattered(build, mapping.scatter_field, mapping.gather_field)


def _apply_rank_program(
    api: CommsAPI,
    context: Callable[[CommsAPI], Any],
    local_src: np.ndarray,
    applies: int,
    dagger: bool,
) -> Steps[np.ndarray]:
    ctx = context(api)
    out = local_src[api.rank]
    for _ in range(applies):
        out = yield from (ctx.apply_dagger(out) if dagger else ctx.apply(out))
    return out


def apply_on_machine(
    machine: QCDOCMachine,
    partition: Partition,
    context: _Scattered,
    src: np.ndarray,
    applies: int = 1,
    dagger: bool = False,
) -> np.ndarray:
    """``D^applies src`` (``D^+`` with ``dagger``) on the simulated machine:
    scatter, one rank program chaining the applications through one
    context, :func:`run_on_partition`, gather.  ``context`` comes from
    :func:`wilson_context`, :func:`dwf_context` or :func:`staggered_context`."""
    results = run_on_partition(
        machine,
        partition,
        _apply_rank_program,
        100.0,  # run_partition's own default horizon
        context=context,
        local_src=context.scatter(src),
        applies=applies,
        dagger=dagger,
    )
    return context.gather(np.stack(results))


def _solve(
    machine: QCDOCMachine,
    partition: Partition,
    context: _Scattered,
    b: np.ndarray,
    max_time: float,
    **kwargs: Any,
) -> DistributedSolveResult:
    """Run :func:`cg_rank_program` to completion and gather its result,
    with machine-level accounting (simulated time, flops, checksums)."""
    flops_before = sum(n.flops_charged for n in machine.nodes.values())
    t0 = machine.sim.now
    results = run_on_partition(
        machine,
        partition,
        cg_rank_program,
        max_time,
        context=context,
        local_b=context.scatter(b),
        **kwargs,
    )
    machine_time = machine.sim.now - t0
    flops = sum(n.flops_charged for n in machine.nodes.values()) - flops_before
    return gather_cg_results(machine, context.gather, results, machine_time, flops)


def cg_rank_program(
    api: CommsAPI,
    context: Callable[[CommsAPI], Any],
    local_b: np.ndarray,
    tol: float = 1e-8,
    maxiter: int = 2000,
    checkpoint: Optional[CGCheckpointStore] = None,
    resume_states: Optional[Dict[int, Dict[str, Any]]] = None,
) -> Steps[SolveResult]:
    """The per-rank node program: CGNE over the operator ``context(api)``,
    which provides generator methods ``apply_dagger`` and ``normal``.

    Public so job-launching layers (the service scheduler) can hand it to
    :meth:`~repro.machine.machine.QCDOCMachine.launch_partition` directly;
    the ``solve_*_on_machine`` wrappers add scatter/gather for the
    blocking single-job path.

    ``resume_states[rank]`` is a stored state: the solve then skips the
    ``D^+ b`` setup and the initial global sums and continues the
    residual history **bit-identically** (global sums accumulate in
    canonical rank order, so the arithmetic after a resume is exactly the
    arithmetic of the uninterrupted run).
    """
    ctx = context(api)
    rhs = local_b[api.rank]
    state = None if resume_states is None else resume_states[api.rank]
    if state is None:  # a resumed solve never reads its right-hand side
        rhs = yield from ctx.apply_dagger(rhs)  # normal equations: D^+ b
    hook = iteration_hook(api, checkpoint)
    result = yield from cg_iter(
        ctx.normal, rank_partial_dot(ctx), rhs, tol, maxiter, hook, state,
        charge=ctx.charge,
    )
    return result


def solve_on_machine(
    machine: QCDOCMachine,
    partition: Partition,
    gauge: GaugeField,
    b: np.ndarray,
    mass: float,
    c_sw: Optional[float] = None,
    tol: float = 1e-8,
    maxiter: int = 2000,
    max_time: float = 10_000.0,
    checkpoint: Optional[CGCheckpointStore] = None,
    resume: bool = False,
) -> DistributedSolveResult:
    """Solve ``D x = b`` (Wilson, or clover when ``c_sw`` given) on the
    simulated machine via CG on the normal equations.

    The lattice is tiled over ``partition``; returns the gathered global
    solution plus machine-level accounting (simulated time, flops,
    checksum audit).

    With ``checkpoint`` given, each rank streams its iteration state to
    the host-side store at the store's cadence; ``resume=True`` loads the
    newest complete generation before launching the node programs (loaded
    host-side, so every rank sees one consistent generation even though
    a fault may have caught them mid-stride).  A solve resumed on a
    *different* healthy partition of the same logical shape reproduces
    the uninterrupted residual history bit for bit.
    """
    resume_states: Optional[Dict[int, dict]] = None
    if resume:
        if checkpoint is None:
            raise ConfigError("resume=True needs a checkpoint store")
        resume_states = checkpoint.latest_complete_states(partition.n_nodes)
    mapping = PhysicsMapping(gauge.geometry, partition)
    if b.shape != (gauge.geometry.volume, 4, 3):
        raise ConfigError(f"bad source shape {b.shape}")
    return _solve(
        machine,
        partition,
        wilson_context(mapping, gauge, mass, c_sw),
        b,
        max_time,
        tol=tol,
        maxiter=maxiter,
        checkpoint=checkpoint,
        resume_states=resume_states,
    )


def solve_dwf_on_machine(
    machine: QCDOCMachine,
    partition: Partition,
    gauge: GaugeField,
    b: np.ndarray,
    Ls: int,
    M5: float = 1.8,
    mf: float = 0.1,
    tol: float = 1e-8,
    maxiter: int = 4000,
    max_time: float = 10_000.0,
) -> DistributedSolveResult:
    """Solve the domain-wall system ``D x = b`` on the simulated machine.

    ``b`` has shape ``(Ls, V, 4, 3)``; the fifth dimension stays node-local
    while space-time tiles over the partition.
    """
    mapping = PhysicsMapping(gauge.geometry, partition)
    if b.shape != (Ls, gauge.geometry.volume, 4, 3):
        raise ConfigError(f"bad domain-wall source shape {b.shape}")
    return _solve(
        machine,
        partition,
        dwf_context(mapping, gauge, Ls, M5, mf),
        b,
        max_time,
        tol=tol,
        maxiter=maxiter,
    )


def solve_staggered_on_machine(
    machine: QCDOCMachine,
    partition: Partition,
    gauge: GaugeField,
    b: np.ndarray,
    mass: float,
    tol: float = 1e-8,
    maxiter: int = 2000,
    max_time: float = 10_000.0,
) -> DistributedSolveResult:
    """Solve the ASQTAD system ``D x = b`` on the simulated machine.

    The fat and Naik links are smeared from the global gauge field before
    scattering (smearing needs neighbour links); the solve itself runs
    distributed, exchanging both depth-1 and depth-3 halos per hop.
    """
    mapping = PhysicsMapping(gauge.geometry, partition)
    if b.shape != (gauge.geometry.volume, 3):
        raise ConfigError(f"bad staggered source shape {b.shape}")
    return _solve(
        machine,
        partition,
        staggered_context(mapping, gauge, mass),
        b,
        max_time,
        tol=tol,
        maxiter=maxiter,
    )
