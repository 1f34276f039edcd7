"""``make fingerprint``: two sha256 per case of a fixed matrix of machine runs.

A change that claims "same numbers to the bit" proves it with ``make
fingerprint-check``, which ``diff``s this output against the committed
``benchmarks/fingerprint.txt``.  Each line digests everything a run can
be observed by — the gathered result bytes and the
:func:`repro.telemetry.observables` sample — split in two columns so a
change can prove *what* it moved:

``results``
    what was computed and what it cost in countable things: gathered
    bytes, residual histories, iteration counts, every counter that is
    not a duration (words, flops, resends), the replay statistics, and
    the trace as a multiset of tags and fields without their times;
``timeline``
    when: the simulated clock, ``machine_time``, the second-valued
    counters, and every trace record's time and duration.

A change to how long the machine takes over the same work moves the
second column and leaves the first alone.

The matrix: Wilson, DWF and ASQTAD × a 1D and a 2D decomposition ×
``word_batch`` ``"face"`` (compiled replay from the second application)
and ``1`` (the interpreted word protocol) × ``shards`` 1 and 2, three
chained applications each; then one CGNE solve per operator (solution,
residual history and iteration count in the results digest,
``machine_time`` in the timeline's).  Ten more on the 2D decomposition
pin paths the matrix does not reach: the clover operator and Wilson on
the uncompressed full-spinor wire (``compress=False``), three
applications each;
and DWF, ASQTAD, Wilson and clover, ``apply`` and ``apply_dagger``, on a
point source whose empty sites carry zeros of both signs.

Then the serial operators the machine runs are checked against, with no
machine and so no timeline (the second column is dashes): Wilson, clover,
DWF (``Ls = 4``) and ASQTAD × ``apply`` and ``apply_dagger`` × a random
and a point source whose empty sites carry zeros of both signs.  These pin
the serial kernels' bytes directly rather than through the distributed
runs that are compared with them.
"""

import hashlib
import itertools
from collections import Counter

import numpy as np

from repro.fermions import (
    AsqtadDirac,
    CloverDirac,
    DomainWallDirac,
    WilsonDirac,
)
from repro.lattice import GaugeField, LatticeGeometry
from repro.machine.asic import MachineConfig
from repro.machine.machine import QCDOCMachine
from repro.parallel import (
    PhysicsMapping,
    apply_on_machine,
    solve_dwf_on_machine,
    solve_on_machine,
    solve_staggered_on_machine,
)
from repro.parallel.pcg import dwf_context, staggered_context, wilson_context
from repro.telemetry import observables
from repro.util import rng_stream

GROUPS = [(0,), (1,), (2,), (3,)]
DIMS = {"1d": (2, 1, 1, 1, 1, 1), "2d": (2, 2, 1, 1, 1, 1)}
LS = 2

#: operator -> (field shape after the volume, leading axes, global lattice
#: per decomposition, context factory, solve); ASQTAD needs an even local
#: extent >= 4 on every decomposed axis
OPERATORS = {
    "wilson": (
        (4, 3),
        (),
        {"1d": (4, 2, 2, 2), "2d": (4, 4, 2, 2)},
        lambda mapping, gauge, **ctx: wilson_context(mapping, gauge, 0.3, **ctx),
        lambda m, part, gauge, b: solve_on_machine(
            m, part, gauge, b, mass=0.3, tol=1e-6, max_time=1e9
        ),
    ),
    "dwf": (
        (4, 3),
        (LS,),
        {"1d": (4, 2, 2, 2), "2d": (4, 4, 2, 2)},
        lambda mapping, gauge, **ctx: dwf_context(mapping, gauge, LS, **ctx),
        lambda m, part, gauge, b: solve_dwf_on_machine(
            m, part, gauge, b, Ls=LS, mf=0.3, tol=1e-6, max_time=1e9
        ),
    ),
    "asqtad": (
        (3,),
        (),
        {"1d": (8, 2, 2, 2), "2d": (8, 8, 2, 2)},
        lambda mapping, gauge, **ctx: staggered_context(mapping, gauge, 0.2, **ctx),
        lambda m, part, gauge, b: solve_staggered_on_machine(
            m, part, gauge, b, mass=0.2, tol=1e-6, max_time=1e9
        ),
    ),
}


def gaussian(rng, shape):
    """A complex Gaussian field, the real part drawn first."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def problem(op, decomp, start):
    site, lead, lattices, _, _ = OPERATORS[op]
    rng = rng_stream(15, f"fingerprint-{op}-{decomp}")
    geom = LatticeGeometry(lattices[decomp])
    gauge = getattr(GaugeField, start)(geom, rng)
    shape = lead + (geom.volume,) + site
    return gauge, gaussian(rng, shape)


def booted(decomp, **machine_kwargs):
    config = MachineConfig(dims=DIMS[decomp])
    machine = QCDOCMachine(config, trace=True, **machine_kwargs)
    machine.bring_up()
    return machine, machine.partition(groups=GROUPS)


#: trace fields that are durations (the rest of a record is a result)
TIME_FIELDS = ("dur", "wait")


def _sha256(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def digest(machine, *results, machine_time=None):
    """``"<results sha256>  <timeline sha256>"`` of one drained run."""
    obs = observables(machine)
    seconds = {k: v for k, v in obs["counters"].items() if k.endswith("_seconds")}
    counts = {k: v for k, v in obs["counters"].items() if k not in seconds}
    what, when = Counter(), Counter()
    for (time, tag, fields), n in obs["trace"].items():
        # the untimed fields ride in both: they say whose duration it is
        untimed = tuple(kv for kv in fields if kv[0] not in TIME_FIELDS)
        timed = tuple(kv for kv in fields if kv[0] in TIME_FIELDS)
        what[tag, untimed] += n
        when[time, tag, untimed, timed] += n
    ordered = lambda mapping: sorted(repr(item) for item in mapping.items())
    return "  ".join(
        (
            _sha256(*results, ordered(counts), ordered(what), ordered(obs["replay"])),
            _sha256(obs["now"], machine_time, ordered(seconds), ordered(when)),
        )
    )


def apply_case(op, decomp, word_batch, shards):
    gauge, src = problem(op, decomp, "hot")
    machine, part = booted(decomp, word_batch=word_batch, shards=shards)
    *_, factory, _solve = OPERATORS[op]
    mapping = PhysicsMapping(gauge.geometry, part)
    context = factory(mapping, gauge, word_batch=word_batch)
    out = apply_on_machine(machine, part, context, src, applies=3)
    return digest(machine, out.tobytes())


def point_source(src, lead):
    """``src`` reduced to one nonzero site; the empty ones carry zeros of
    both signs, whose bytes a kernel that re-associated a sum would move."""
    point = np.zeros_like(src)
    point.reshape(-1)[1::2] = -0.0
    site = (0,) * len(lead) + (7,)
    point[site] = src[site]
    return point


#: name -> (operator, context arguments, point source, dagger)
EXTRA = {
    "apply/clover/2d": ("wilson", {"c_sw": 1.0}, False, False),
    "apply/wilson-full/2d": ("wilson", {"compress": False}, False, False),
    "apply/dwf/2d/point": ("dwf", {}, True, False),
    "apply_dagger/dwf/2d/point": ("dwf", {}, True, True),
    "apply/asqtad/2d/point": ("asqtad", {}, True, False),
    "apply_dagger/asqtad/2d/point": ("asqtad", {}, True, True),
    "apply/wilson/2d/point": ("wilson", {}, True, False),
    "apply_dagger/wilson/2d/point": ("wilson", {}, True, True),
    "apply/clover/2d/point": ("wilson", {"c_sw": 1.0}, True, False),
    "apply_dagger/clover/2d/point": ("wilson", {"c_sw": 1.0}, True, True),
}


def extra_case(op, ctx, point, dagger):
    gauge, src = problem(op, "2d", "hot")
    if point:
        src = point_source(src, OPERATORS[op][1])
    machine, part = booted("2d", word_batch="face")
    *_, factory, _solve = OPERATORS[op]
    context = factory(PhysicsMapping(gauge.geometry, part), gauge, **ctx)
    out = apply_on_machine(
        machine, part, context, src, applies=1 if point else 3, dagger=dagger
    )
    return digest(machine, out.tobytes())


def solve_case(op):
    gauge, b = problem(op, "2d", "weak")
    machine, part = booted("2d", word_batch="face")
    *_, solve = OPERATORS[op]
    res = solve(machine, part, gauge, b)
    return digest(
        machine,
        res.x.tobytes(),
        res.residuals,
        res.iterations,
        machine_time=res.machine_time,
    )


SERIAL_SHAPE = (4, 4, 4, 4)
SERIAL_LS = 4
NO_TIMELINE = "-" * 64

#: serial operator -> (field shape before the volume, after it, constructor)
SERIAL = {
    "wilson": ((), (4, 3), lambda gauge: WilsonDirac(gauge, mass=0.3)),
    "clover": ((), (4, 3), lambda gauge: CloverDirac(gauge, mass=0.3)),
    "dwf": ((SERIAL_LS,), (4, 3), lambda gauge: DomainWallDirac(gauge, Ls=SERIAL_LS)),
    "asqtad": ((), (3,), lambda gauge: AsqtadDirac(gauge, mass=0.2)),
}


def serial_cases():
    geom = LatticeGeometry(SERIAL_SHAPE)
    for op, (lead, site, build) in SERIAL.items():
        rng = rng_stream(15, f"fingerprint-serial-{op}")
        dirac = build(GaugeField.hot(geom, rng))
        shape = lead + (geom.volume,) + site
        random = gaussian(rng, shape)
        # one nonzero site; the empty ones carry zeros of both signs
        point = np.zeros(shape, dtype=np.complex128)
        point.reshape(-1)[1::2] = -0.0
        site = (0,) * len(lead) + (7,)
        point[site] = random[site]
        for source, src in (("random", random), ("point", point)):
            for method in ("apply", "apply_dagger"):
                out = getattr(dirac, method)(src)
                yield _sha256(out.tobytes()), f"serial/{op}/{method}/{source}"


def main():
    for op, decomp, word_batch, shards in itertools.product(
        OPERATORS, DIMS, ("face", 1), (1, 2)
    ):
        name = f"apply/{op}/{decomp}/word_batch={word_batch}/shards={shards}"
        print(f"{apply_case(op, decomp, word_batch, shards)}  {name}", flush=True)
    for op in OPERATORS:
        print(f"{solve_case(op)}  solve/{op}/2d", flush=True)
    for name, case in EXTRA.items():
        print(f"{extra_case(*case)}  {name}", flush=True)
    for results, name in serial_cases():
        print(f"{results}  {NO_TIMELINE}  {name}", flush=True)


if __name__ == "__main__":
    main()
