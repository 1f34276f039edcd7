"""Benchmark-side tracing: spans, the stepping proxy, machine instrumentation.

Everything here observes the program *from outside*: spans wrap calls the
benchmark makes into a layer's public functions, and the stepping proxy
wraps the rank-program generators on their way into ``run_partition`` /
``launch_partition``.  No file under ``src/`` is edited.
"""

import contextlib
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: name under which the stepping proxy charges rank-program host time
RANK_PROGRAM = "parallel.rank_program"


class NullTracer:
    """Tracing off: what the end-to-end pass runs with."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def charge(self, name: str, seconds: float) -> None:
        pass


class Tracer:
    """In-memory span recorder (written out when the run ends).

    A span is ``[name, start, end, parent]`` with ``parent`` the index of
    the enclosing span (``None`` at top level); all spans of one tracer
    share its ``workload`` identifier.  ``charge`` books an *aggregate*
    child under the currently open span — used for work too fine-grained
    to keep one span each (the per-step times of the stepping proxy).  A
    charged interval must not itself contain a span.
    """

    enabled = True

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[list] = []
        #: (parent span index, name) -> [seconds, count]
        self.charges: Dict[Tuple[Optional[int], str], List[float]] = {}
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def charge(self, name: str, seconds: float) -> None:
        key = (self._stack[-1] if self._stack else None, name)
        entry = self.charges.setdefault(key, [0.0, 0])
        entry[0] += seconds
        entry[1] += 1

    # -- queries -------------------------------------------------------------
    def total(self, name: str) -> float:
        """Seconds inside spans (and charges) called ``name``."""
        spans = sum(s[2] - s[1] for s in self.spans if s[0] == name)
        return spans + sum(v[0] for (_, n), v in self.charges.items() if n == name)

    def count(self, name: str) -> int:
        spans = sum(1 for s in self.spans if s[0] == name)
        return spans + sum(int(v[1]) for (_, n), v in self.charges.items() if n == name)

    def self_times(self) -> Dict[str, float]:
        """Self seconds by name: a span's duration minus the part of it
        its child spans and charges cover; a charge is all self time."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: Dict[str, float] = {}
        for (parent, name), (seconds, _) in self.charges.items():
            if parent is not None:
                covered[parent] += seconds
            out[name] = out.get(name, 0.0) + seconds
        for index, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - covered[index]
        return out

    def chrome_events(self) -> List[dict]:
        """The spans as Chrome trace-event "complete" (``X``) events."""
        if not self.spans:
            return []
        origin = self.spans[0][1]
        return [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": self.workload,
                "tid": "host",
                "args": {"parent": parent},
            }
            for name, start, end, parent in self.spans
        ]


def stepped(gen, charge: Callable[[float], None]):
    """Drive ``gen``, timing every step, otherwise transparent.

    Values sent in, exceptions thrown in and ``close()`` are forwarded to
    ``gen`` unchanged; what it yields, returns or raises comes back
    unchanged — so a fault thrown into a rank program still aborts it.
    """
    clock = time.perf_counter
    step, arg = gen.send, None
    while True:
        start = clock()
        try:
            item = step(arg)
        except StopIteration as stop:
            return stop.value
        finally:
            charge(clock() - start)
        try:
            arg = yield item
            step = gen.send
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # forwarded into gen, which decides
            step, arg = gen.throw, exc


def instrument(machine, tracer) -> None:
    """Make ``machine`` report its partition runs to ``tracer``.

    Shadows ``run_partition`` / ``launch_partition`` on this one instance:
    every blocking run becomes a ``machine.machine.run_partition`` span
    and every rank program is driven through :func:`stepped`, so host time
    splits into rank code (``parallel`` + ``comms`` + numpy kernels, plus
    what they call synchronously) and the engine underneath.  This reaches
    the runs that ``solve_on_machine``, the HMC driver and the job service
    start, whose rank programs the benchmark never sees.
    """
    if not tracer.enabled:
        return
    run_partition = machine.run_partition
    launch_partition = machine.launch_partition

    def charge(seconds: float) -> None:
        tracer.charge(RANK_PROGRAM, seconds)

    def wrap(program):
        # run_partition on an unsharded machine calls launch_partition
        if getattr(program, "bench_stepped", False):
            return program

        def stepped_program(api, **kwargs):
            return stepped(program(api, **kwargs), charge)

        stepped_program.bench_stepped = True
        return stepped_program

    def traced_run(partition, program, *args, **kwargs):
        with tracer.span("machine.machine.run_partition"):
            return run_partition(partition, wrap(program), *args, **kwargs)

    def traced_launch(partition, program, *args, **kwargs):
        return launch_partition(partition, wrap(program), *args, **kwargs)

    machine.run_partition = traced_run
    machine.launch_partition = traced_launch


def uninstrument(machine) -> None:
    """Undo :func:`instrument` (a no-op on an uninstrumented machine)."""
    vars(machine).pop("run_partition", None)
    vars(machine).pop("launch_partition", None)
