"""Event tracing for protocol tests, telemetry, and debugging.

Machine components emit ``trace.emit(tag, **fields)``; tests assert on the
recorded sequence (e.g. "a parity error is followed by exactly one resend of
the same word").  Tracing is off unless a Trace is attached, so the hot path
costs one attribute check.

Structured-trace contract (PR 3)
--------------------------------
* **Tags are namespaced** ``"unit.event"`` (``scu.resend``, ``link.fault``,
  ``cpu.compute`` ...).  Every tag emitted anywhere in :mod:`repro` is
  enumerated — with its exact field names — in
  :data:`repro.telemetry.schema.TRACE_SCHEMA`; a regression test fails on
  unregistered tags or field-name drift.
* **Records carry a monotone per-trace sequence number** in addition to the
  simulation time.  A Trace attached to no simulator records ``time=0.0``
  for everything, which used to break ordering assertions; ``seq`` is the
  durable order and is what :meth:`tagged` / :meth:`last` sort by.
* **Spans**: a record whose fields include ``dur`` (seconds) describes a
  completed interval ending at ``record.time``; the Chrome-tracing exporter
  (:mod:`repro.telemetry.chrometrace`) renders those as complete events so
  a dslash iteration shows up as a per-node compute/comms timeline.

Record layout
-------------
A record is ``TraceRecord(time, tag, names, values, seq)``: ``values`` is a
tuple of the field values and ``names`` the tuple of their names, in the
emitting call's keyword order.  ``names`` is interned — one tuple per
distinct key order, shared by every record a call site emits — so a record
costs its own tuple and its values' tuple, not a per-record dict (on a
traced fault run, where records are most of the resident memory, that is
about a 40 % smaller record).  :attr:`TraceRecord.fields` is a read-only
mapping built when it is read; readers that touch every record
(:func:`repro.telemetry.observables`, the schema check) read ``names`` and
``values`` directly.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Dict, Iterator, List, Mapping, NamedTuple, Optional, Tuple

#: every field-name tuple a record has carried, keyed by itself: one
#: shared tuple per call-site key order, for the life of the process
_NAMES: Dict[Tuple[str, ...], Tuple[str, ...]] = {}


class TraceRecord(NamedTuple):
    time: float
    tag: str
    #: the field names, in emission order (interned: see the module notes)
    names: Tuple[str, ...]
    #: the field values, position for position with :attr:`names`
    values: Tuple[Any, ...]
    #: monotone per-trace emission index (total order even at equal time,
    #: or when the trace is detached from a simulator and time is 0.0)
    seq: int = -1

    @property
    def fields(self) -> Mapping[str, Any]:
        """The fields as a read-only name -> value mapping."""
        return MappingProxyType(dict(zip(self.names, self.values)))


class TraceNamespace:
    """A bound emitter that prefixes every tag with ``prefix + '.'``."""

    __slots__ = ("trace", "prefix")

    def __init__(self, trace: "Trace", prefix: str) -> None:
        self.trace = trace
        self.prefix = prefix

    def emit(self, tag: str, **fields: Any) -> None:
        self.trace.emit(f"{self.prefix}.{tag}", **fields)

    def namespace(self, sub: str) -> "TraceNamespace":
        return TraceNamespace(self.trace, f"{self.prefix}.{sub}")

    def __repr__(self) -> str:
        return f"TraceNamespace({self.prefix!r})"


class Trace:
    """An append-only record of tagged simulation occurrences.

    Parameters
    ----------
    sim:
        The simulator whose clock stamps records; ``None`` (detached mode,
        used by unit tests) stamps ``time=0.0`` — ordering then relies on
        the per-record ``seq``.
    """

    def __init__(self, sim: Optional[Any] = None) -> None:
        self.sim = sim
        self.records: List[TraceRecord] = []
        #: total records ever emitted: the next record's ``seq``
        #: (:meth:`clear` empties ``records`` but keeps counting)
        self.emitted = 0

    def emit(self, tag: str, **fields: Any) -> None:
        t = self.sim.now if self.sim is not None else 0.0
        names = tuple(fields)
        names = _NAMES.setdefault(names, names)
        values = tuple(fields.values())
        self.records.append(TraceRecord(t, tag, names, values, self.emitted))
        self.emitted += 1

    def namespace(self, prefix: str) -> TraceNamespace:
        """A bound emitter whose tags are all ``prefix + '.' + tag``."""
        return TraceNamespace(self, prefix)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def tags(self) -> set:
        """The set of distinct tags recorded."""
        return {r.tag for r in self.records}

    def tagged(self, tag: str) -> List[TraceRecord]:
        """All records with the given tag, in emission (``seq``) order.

        ``seq`` — not ``time`` — is the ordering key: a detached trace
        stamps every record ``time=0.0``, and simultaneous events tie.
        """
        return sorted(
            (r for r in self.records if r.tag == tag), key=lambda r: r.seq
        )

    def prefixed(self, prefix: str) -> List[TraceRecord]:
        """All records in the ``prefix`` namespace, in ``seq`` order."""
        dotted = prefix + "."
        return sorted(
            (r for r in self.records if r.tag.startswith(dotted) or r.tag == prefix),
            key=lambda r: r.seq,
        )

    def count(self, tag: str) -> int:
        return sum(1 for r in self.records if r.tag == tag)

    def last(self, tag: str) -> Optional[TraceRecord]:
        """The highest-``seq`` record with the given tag."""
        best: Optional[TraceRecord] = None
        for r in self.records:
            if r.tag == tag and (best is None or r.seq > best.seq):
                best = r
        return best

    def clear(self) -> None:
        self.records.clear()
