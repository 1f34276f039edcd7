"""Span self-time arithmetic and the stepping proxy's transparency."""

import numpy as np
import pytest

import spans
from spans import RANK_PROGRAM, NullTracer, Tracer, instrument, stepped, uninstrument

from repro.fermions import WilsonDirac
from repro.lattice import GaugeField, LatticeGeometry
from repro.machine.asic import MachineConfig
from repro.machine.machine import QCDOCMachine
from repro.parallel import PhysicsMapping
from repro.parallel.pdirac import DistributedWilsonContext
from repro.util import rng_stream
from repro.util.errors import LinkDownError


class FakeClock:
    """perf_counter that only moves when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(spans.time, "perf_counter", fake)
    return fake


def test_self_time_is_span_minus_children_and_charges(clock):
    tracer = Tracer("w")
    with tracer.span("outer"):  # 0 .. 10
        clock.now = 1.0
        with tracer.span("inner"):  # 1 .. 4
            clock.now = 2.0
            with tracer.span("leaf"):  # 2 .. 3
                clock.now = 3.0
            clock.now = 4.0
        tracer.charge("steps", 2.5)
        tracer.charge("steps", 0.5)
        with tracer.span("inner"):  # 4 .. 6
            clock.now = 6.0
        clock.now = 10.0
    assert tracer.total("outer") == 10.0
    assert tracer.total("inner") == 5.0
    assert tracer.count("inner") == 2
    assert tracer.total("steps") == 3.0
    assert tracer.count("steps") == 2
    self_times = tracer.self_times()
    assert self_times == {"outer": 2.0, "inner": 4.0, "leaf": 1.0, "steps": 3.0}
    # self times partition the top-level span
    assert sum(self_times.values()) == tracer.total("outer")


def test_span_records_parent_and_survives_exceptions(clock):
    tracer = Tracer("w")
    with pytest.raises(ValueError):
        with tracer.span("a"):
            with tracer.span("b"):
                clock.now = 1.0
                raise ValueError
    assert [(s[0], s[3]) for s in tracer.spans] == [("a", None), ("b", 0)]
    assert all(s[2] == 1.0 for s in tracer.spans)
    with tracer.span("c"):
        pass
    assert tracer.spans[2][3] is None  # the stack unwound
    events = tracer.chrome_events()
    assert [e["name"] for e in events] == ["a", "b", "c"]
    assert all(e["ph"] == "X" and e["pid"] == "w" for e in events)


def test_null_tracer_is_inert():
    tracer = NullTracer()
    with tracer.span("anything"):
        tracer.charge("x", 1.0)
    assert not tracer.enabled


# -- the stepping proxy ----------------------------------------------------------


def echo():
    """Yields what it is sent; survives one thrown KeyError; returns a log."""
    log = []
    value = yield "first"
    while value != "stop":
        log.append(value)
        try:
            value = yield ("got", value)
        except KeyError as exc:
            log.append(("caught", exc.args[0]))
            value = yield "recovered"
    return log


def drive(gen):
    out = [next(gen)]
    out.append(gen.send(1))
    out.append(gen.throw(KeyError("k")))
    out.append(gen.send(2))
    try:
        gen.send("stop")
    except StopIteration as stop:
        out.append(stop.value)
    return out


def test_stepped_forwards_send_throw_and_return():
    charged = []
    assert drive(stepped(echo(), charged.append)) == drive(echo())
    assert len(charged) == 5  # one charge per step of the inner generator
    assert all(c >= 0 for c in charged)


def test_stepped_propagates_unhandled_throw_and_close():
    closed = []

    def inner():
        try:
            yield 1
            yield 2
        finally:
            closed.append(True)

    proxy = stepped(inner(), lambda s: None)
    next(proxy)
    with pytest.raises(LinkDownError):  # what a watchdog abort throws into a rank
        proxy.throw(LinkDownError(0, 0, "test"))
    assert closed == [True]

    proxy = stepped(inner(), lambda s: None)
    next(proxy)
    proxy.close()
    assert closed == [True, True]


def dslash(tracer):
    machine = QCDOCMachine(MachineConfig(dims=(2, 2, 1, 1, 1, 1)), word_batch="face")
    instrument(machine, tracer)
    machine.bring_up()
    part = machine.partition(groups=[(0,), (1,), (2,), (3,)])
    geom = LatticeGeometry((4, 4, 2, 2))
    rng = rng_stream(5, "bench-test-proxy")
    gauge = GaugeField.hot(geom, rng)
    psi = rng.standard_normal((geom.volume, 4, 3)) + 0j
    mapping = PhysicsMapping(geom, part)
    links, lpsi = mapping.scatter_gauge(gauge), mapping.scatter_field(psi)

    def program(api):
        ctx = DistributedWilsonContext(api, mapping.local_shape, links[api.rank], mass=0.3)
        out = yield from ctx.apply(lpsi[api.rank])
        out = yield from ctx.apply(out)
        return out

    out = mapping.gather_field(np.stack(machine.run_partition(part, program)))
    machine.quiesce()
    serial = WilsonDirac(gauge, mass=0.3)
    assert out.tobytes() == serial.apply(serial.apply(psi)).tobytes()
    return out.tobytes(), machine.sim.now, machine.sim.events_processed, machine


def test_instrumented_machine_is_bit_identical():
    plain = dslash(NullTracer())
    tracer = Tracer("w")
    traced = dslash(tracer)
    assert traced[:3] == plain[:3]
    assert tracer.count("machine.machine.run_partition") == 1
    assert tracer.count(RANK_PROGRAM) > 4  # every rank stepped, several times
    engine = tracer.self_times()["machine.machine.run_partition"]
    assert 0 < engine < tracer.total("machine.machine.run_partition")
    machine = traced[3]
    assert "run_partition" in vars(machine)
    uninstrument(machine)
    assert "run_partition" not in vars(machine) and "launch_partition" not in vars(machine)
