"""The discrete-event kernel: events, processes, composition, determinism."""

import pytest

from repro.sim import AllOf, AnyOf, Event, Interrupt, Simulator, Trace
from repro.util.errors import SimulationError


@pytest.fixture
def sim():
    return Simulator()


class TestEvent:
    def test_succeed_carries_value(self, sim):
        ev = sim.event()
        ev.succeed(123)
        assert ev.triggered and ev.ok and ev.value == 123

    def test_fail_carries_exception(self, sim):
        ev = sim.event()
        ev.fail(ValueError("boom"))
        assert ev.triggered and not ev.ok
        with pytest.raises(ValueError):
            _ = ev.value

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_value_before_trigger_rejected(self, sim):
        with pytest.raises(SimulationError):
            _ = sim.event().value

    def test_callback_after_trigger_still_runs(self, sim):
        ev = sim.event()
        ev.succeed(5)
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == [5]


class TestTimeoutAndClock:
    def test_timeout_advances_clock(self, sim):
        def proc(sim):
            yield sim.timeout(1.5)
            return sim.now

        p = sim.process(proc(sim))
        assert sim.run(until=p) == 1.5
        assert sim.now == 1.5

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_fifo_order_within_same_tick(self, sim):
        order = []
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(1.0, lambda: order.append("b"))
        sim.schedule(0.5, lambda: order.append("first"))
        sim.run()
        assert order == ["first", "a", "b"]


class TestProcess:
    def test_return_value_becomes_event_value(self, sim):
        def proc(sim):
            yield sim.timeout(1.0)
            return "done"

        assert sim.run(until=sim.process(proc(sim))) == "done"

    def test_process_waits_on_process(self, sim):
        def child(sim):
            yield sim.timeout(2.0)
            return 7

        def parent(sim):
            value = yield sim.process(child(sim))
            return value * 3

        assert sim.run(until=sim.process(parent(sim))) == 21
        assert sim.now == 2.0

    def test_yield_already_triggered_event_resumes(self, sim):
        ev = sim.event()
        ev.succeed("early")

        def proc(sim):
            v = yield ev
            return v

        assert sim.run(until=sim.process(proc(sim))) == "early"

    def test_failed_event_raises_inside_process(self, sim):
        ev = sim.event()

        def proc(sim):
            try:
                yield ev
            except RuntimeError as exc:
                return f"caught {exc}"

        p = sim.process(proc(sim))
        sim.schedule(1.0, lambda: ev.fail(RuntimeError("hw")))
        assert sim.run(until=p) == "caught hw"

    def test_bad_yield_fails_process(self, sim):
        def proc(sim):
            yield 42  # not an Event

        p = sim.process(proc(sim))
        with pytest.raises(SimulationError):
            sim.run(until=p)

    def test_interrupt_redirects_waiting_process(self, sim):
        def proc(sim):
            try:
                yield sim.timeout(100.0)
                return "slept"
            except Interrupt as i:
                return f"interrupted:{i.cause}"

        p = sim.process(proc(sim))
        sim.schedule(1.0, lambda: p.interrupt("supervisor"))
        assert sim.run(until=p) == "interrupted:supervisor"
        assert sim.now == pytest.approx(1.0)

    def test_uncaught_interrupt_fails_process(self, sim):
        def proc(sim):
            yield sim.timeout(100.0)

        p = sim.process(proc(sim))
        sim.schedule(1.0, lambda: p.interrupt())
        sim.run()
        assert p.triggered and not p.ok

    def test_interrupt_after_completion_is_noop(self, sim):
        def proc(sim):
            yield sim.timeout(1.0)
            return "ok"

        p = sim.process(proc(sim))
        sim.run(until=p)
        p.interrupt()  # must not raise
        sim.run()
        assert p.value == "ok"


class TestConditions:
    def test_all_of_collects_values(self, sim):
        def proc(sim):
            values = yield AllOf(sim, [sim.timeout(1.0, "a"), sim.timeout(2.0, "b")])
            return values

        assert sim.run(until=sim.process(proc(sim))) == ["a", "b"]
        assert sim.now == 2.0

    def test_any_of_returns_first(self, sim):
        def proc(sim):
            first = yield AnyOf(sim, [sim.timeout(5.0, "slow"), sim.timeout(1.0, "fast")])
            return first.value

        assert sim.run(until=sim.process(proc(sim))) == "fast"
        assert sim.now == 1.0

    def test_empty_all_of_succeeds_immediately(self, sim):
        ev = sim.all_of([])
        assert ev.triggered and ev.value == []


class TestRun:
    def test_deadlock_detected(self, sim):
        def proc(sim):
            yield sim.event()  # never triggered

        p = sim.process(proc(sim))
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run(until=p)

    def test_time_horizon_enforced(self, sim):
        def proc(sim):
            yield sim.timeout(1e9)

        p = sim.process(proc(sim))
        with pytest.raises(SimulationError, match="horizon"):
            sim.run(until=p, max_time=1.0)

    def test_run_without_target_drains_heap(self, sim):
        sim.schedule(3.0, lambda: None)
        sim.run()
        assert sim.now == 3.0
        assert sim.peek() == float("inf")

    def test_two_identical_simulations_agree_exactly(self):
        def world(sim, log):
            def worker(sim, k):
                yield sim.timeout(0.1 * k)
                log.append((sim.now, k))

            for k in range(10):
                sim.process(worker(sim, (k * 7) % 10))

        log1, log2 = [], []
        s1, s2 = Simulator(), Simulator()
        world(s1, log1)
        world(s2, log2)
        s1.run()
        s2.run()
        assert log1 == log2


class TestHeapEntries:
    """What ``events_processed`` counts: a heap entry exists only if it
    does simulated work (DESIGN.md section 2, "Event kernel")."""

    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_timeout_sleeps_cost_one_entry_each(self, sim, n):
        def sleeper():
            for _ in range(n):
                yield sim.timeout(1.0)

        p = sim.process(sleeper())
        sim.run()
        assert p.ok and sim.now == float(n)
        # the kick-off, then one entry per sleep: the entry that fires the
        # timeout resumes the sleeper too
        assert sim.events_processed == n + 1

    def test_timeout_runs_its_waiters_in_order_in_the_firing_entry(self, sim):
        seen = []
        tick = sim.timeout(1.0, "tick")
        tick.add_callback(lambda e: seen.append(("first", sim.events_processed)))
        tick.add_callback(lambda e: seen.append(("second", sim.events_processed)))
        sim.schedule(1.0, lambda: seen.append(("later", sim.events_processed)))
        sim.run()
        assert seen == [("first", 1), ("second", 1), ("later", 2)]

    def test_succeed_from_running_code_defers_its_waiters(self, sim):
        ev = sim.event()
        log = []
        ev.add_callback(lambda e: log.append("waiter"))

        def trigger():
            yield sim.timeout(1.0)
            ev.succeed()
            log.append("after succeed")

        sim.process(trigger())
        sim.run()
        assert log == ["after succeed", "waiter"]
        # kick-off, the sleep, and the waiter's own zero-delay entry
        assert sim.events_processed == 3

    def test_ping_pong_does_not_recurse(self, sim):
        # two processes hand an event back and forth 10,000 times: were a
        # succeed() to run its waiter inline, each hand-over would nest
        rounds = 10_000
        counts = [0, 0]

        def player(me, mine, theirs):
            for _ in range(rounds):
                theirs[0].succeed()
                theirs[0] = sim.event()
                yield mine[0]
                counts[me] += 1

        ping, pong = [sim.event()], [sim.event()]
        sim.process(player(0, ping, pong))
        sim.process(player(1, pong, ping))
        sim.run()  # to a dry heap: the pair ends blocked on the last events
        assert min(counts) >= rounds - 1

    def test_interrupt_during_timeout_discards_the_stale_wakeup(self, sim):
        log = []

        def proc():
            try:
                yield sim.timeout(5.0, "slept")
            except Interrupt as irq:
                log.append((sim.now, irq.cause))
            value = yield sim.timeout(10.0, "second sleep")
            log.append((sim.now, value))

        p = sim.process(proc())
        sim.schedule(1.0, p.interrupt, "irq")
        sim.run()
        # the first timeout still fires at t=5 and must not resume the
        # process, which by then sleeps on another event
        assert log == [(1.0, "irq"), (11.0, "second sleep")]
        assert p.ok


class TestAnyOfDetaches:
    def test_no_child_keeps_a_callback_of_a_resolved_any_of(self, sim):
        children = [sim.event() for _ in range(6)]
        cond = sim.any_of(children)
        assert all(len(ev.callbacks) == 1 for ev in children)
        children[2].succeed("winner")
        sim.run()
        assert cond.value is children[2]
        assert all(ev.callbacks == [] for ev in children if ev is not children[2])

    def test_other_waiters_of_a_losing_child_stay(self, sim):
        a, b = sim.event(), sim.event()
        seen = []
        b.add_callback(lambda e: seen.append(e.value))
        sim.any_of([a, b])
        a.succeed()
        sim.run()
        b.succeed("b")
        sim.run()
        assert seen == ["b"]

    @pytest.mark.parametrize("k", [1, 4, 16, 64])
    def test_drain_loop_costs_a_linear_number_of_entries(self, sim, k):
        # the shape of HaloPipeline.exchange's drain while it sleeps (a
        # transfer that has already landed it takes inline, with no
        # AnyOf): wait on what is left of a set until nothing is.  Per
        # event, each landing while the loop waits: the entry that succeeds
        # it, the AnyOf's child callback, the resumed process; plus the
        # kick-off.  (A registration left behind on every still-pending
        # event by every earlier turn made this k(k+1)/2 + 2k + 1.)
        pending = {i: sim.event() for i in range(k)}
        order = []

        def drain():
            while pending:
                fired = yield sim.any_of(pending.values())
                key = next(i for i, ev in pending.items() if ev is fired)
                del pending[key]
                order.append(key)

        sim.process(drain())
        for i, ev in pending.items():
            sim.schedule(1.0 + i, ev.succeed)
        sim.run()
        assert order == list(range(k))
        assert sim.events_processed == 3 * k + 1

    def test_already_triggered_children_first_in_list_order_wins(self, sim):
        early, late, pending = sim.event(), sim.event(), sim.event()
        late.succeed("late")
        early.succeed("early")
        cond = sim.any_of([pending, early, late])
        # decided at construction: nothing is registered on the others
        assert pending.callbacks == []
        sim.run()
        assert cond.value is early

    def test_already_failed_first_child_fails_the_any_of(self, sim):
        bad, good = sim.event(), sim.event()
        bad.fail(RuntimeError("first in list"))
        good.succeed("ok")
        cond = sim.any_of([bad, good])
        sim.run()
        assert cond.triggered and not cond.ok
        assert isinstance(cond.exception, RuntimeError)


class TestTrace:
    def test_records_time_and_fields(self, sim):
        tr = Trace(sim)

        def proc(sim):
            yield sim.timeout(1.0)
            tr.emit("send", word=3)
            yield sim.timeout(1.0)
            tr.emit("ack", word=3)

        sim.run(until=sim.process(proc(sim)))
        assert tr.count("send") == 1
        assert tr.tagged("ack")[0].time == 2.0
        assert tr.last("send").fields["word"] == 3
        assert len(tr) == 2
        tr.clear()
        assert len(tr) == 0
