"""Shared test harness: the one booted machine, the seeded systems, the
operator run and the observable comparison every suite uses.

Test-only — nothing under ``src/`` imports it.  The production driver it
leans on is :func:`repro.parallel.apply_on_machine` over the host-side
context factories of :mod:`repro.parallel.pcg`; this module only binds
them to what a test names: machine dims and kwargs, an RNG stream, a
lattice shape, an operator and its parameters.
"""

from repro.lattice import GaugeField, LatticeGeometry
from repro.machine.asic import MachineConfig
from repro.machine.machine import QCDOCMachine
from repro.parallel import PhysicsMapping, apply_on_machine
from repro.parallel.pcg import dwf_context, staggered_context, wilson_context
from repro.solvers.krylov import lift
from repro.solvers.sitedot import canonical_dot
from repro.telemetry import observable_diff, observables
from repro.util import rng_stream

#: one physical axis per logical axis: the 4D machine every suite carves
GROUPS = [(0,), (1,), (2,), (3,)]

#: operator -> (host-side context factory, per-site field shape)
OPERATORS = {
    "wilson": (wilson_context, (4, 3)),
    "dwf": (dwf_context, (4, 3)),
    "asqtad": (staggered_context, (3,)),
}


def booted(dims, groups=GROUPS, **machine_kwargs):
    """A brought-up machine and the partition of all of it."""
    machine = QCDOCMachine(MachineConfig(dims=dims), **machine_kwargs)
    machine.bring_up()
    return machine, machine.partition(groups=groups)


def source(rng, geometry, op="wilson", Ls=None, imag=True):
    """A Gaussian field of ``op``'s site shape (``Ls`` slices of it for
    DWF); the real part is drawn before the imaginary one."""
    shape = (() if Ls is None else (Ls,)) + (geometry.volume,) + OPERATORS[op][1]
    real = rng.standard_normal(shape)
    return real + (1j * rng.standard_normal(shape) if imag else 0j)


def system(rng, shape, op="wilson", Ls=None, imag=True, start="hot", **start_kwargs):
    """``(gauge, source)`` on a lattice of ``shape``, the links drawn
    first; ``rng`` is a generator or the ``(seed, stream)`` naming one."""
    if isinstance(rng, tuple):
        rng = rng_stream(*rng)
    geometry = LatticeGeometry(shape)
    gauge = getattr(GaugeField, start)(geometry, rng, **start_kwargs)
    return gauge, source(rng, geometry, op, Ls, imag)


def scattered(partition, op, gauge, **params):
    """``op``'s context factory for ``gauge`` tiled over ``partition``;
    ``params`` are the operator's (``mass``, ``Ls``, ...) and the
    context's (``overlap``, ``compress``, ``word_batch``)."""
    mapping = PhysicsMapping(gauge.geometry, partition)
    return OPERATORS[op][0](mapping, gauge, **params)


def applied(machine, partition, op, gauge, src, applies=1, dagger=False, **params):
    """``op`` applied to ``src`` on the machine; the gathered result."""
    context = scattered(partition, op, gauge, **params)
    return apply_on_machine(machine, partition, context, src, applies, dagger)


def crosschecked(op, tile, comm_axes, word_batches, applies=1, **params):
    """``op`` applied ``applies`` times on the ``2**comm_axes``-node machine
    whose first ``comm_axes`` axes are decomposed, ``tile`` per node, once
    per frame batch in ``word_batches`` (one scattered system serves them
    all: their partitions agree); each run's crosscheck."""
    dims = tuple(2 if mu < comm_axes else 1 for mu in range(4)) + (1, 1)
    shape = tuple(extent * d for extent, d in zip(tile, dims))
    gauge, src = system((37, f"crosscheck-{op}"), shape, op, Ls=params.get("Ls"))
    context, results = None, []
    for batch in word_batches:
        machine, partition = booted(dims, word_batch=batch)
        context = context or scattered(partition, op, gauge, **params)
        apply_on_machine(machine, partition, context, src, applies)
        results.append(
            machine.report().crosscheck(
                op, tile, dims[:4], n_applications=applies, Ls=params.get("Ls", 1)
            )
        )
    return results


def counting_backend(tally, dot=canonical_dot):
    """A serial ``(dot, charge)`` pair for the Krylov core that tallies
    its vector kernels into the ``Counter`` ``tally`` as ``(kernel, dtype
    name) -> calls``: per rank, what a machine run of the same solve
    charges, in the shape of the crosscheck's ``linalg=``."""

    def counted(u, v):
        tally["dot", u.dtype.name] += 1
        return dot(u, v)

    def charge(kernels, v):
        for kernel, calls in kernels.items():
            tally[kernel, v.dtype.name] += calls

    return lift(counted), lift(charge)


def transfer_counters(machine, partition):
    """Each rank's cumulative SCU payload/wire word counters."""
    return [
        machine.nodes[partition.physical_node(rank)].scu.transfer_counters()
        for rank in range(partition.n_nodes)
    ]


def assert_same_observables(m_ref, m_got):
    """Counters, trace multiset and simulated clock agree after a full
    drain (only the replay statistics differ across engines: they say
    which engine ran)."""
    ref, got = observables(m_ref), observables(m_got)
    drift = observable_diff({k: ref[k] for k in ("counters", "trace", "now")}, got)
    assert drift == {}, f"observable drift: {drift}"


def assert_boot_state(machine, node_ids):
    """What ``PartitionRun.finalize`` promises of every node a run held,
    however the run ended: nothing of the job is left on it."""
    for node_id in node_ids:
        node, scu = machine.nodes[node_id], machine.nodes[node_id].scu
        assert node.memory.buffer_names() == [], node_id
        assert len(scu._stored) == 0 and scu.supervisor_reg == {}, node_id
        assert scu.in_flight_words() == 0 and not scu._draining, node_id
        replay = scu.replay
        assert replay.records == {} and replay.epoch_seq == {}, node_id
        assert replay.active_tag is None and replay._verdicts == {}, node_id
        assert not any(u.active for u in scu.send_units.values()), node_id
        assert all(
            u.descriptor is None and u.done is None and not u.held and not u._eot_due
            for u in scu.recv_units.values()
        ), node_id
        assert machine.interrupts[node_id].presented_bits == 0, node_id
