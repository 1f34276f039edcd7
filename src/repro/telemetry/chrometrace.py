"""Chrome-tracing (``chrome://tracing`` / Perfetto) trace exporter.

Turns a machine :class:`~repro.sim.trace.Trace` into the Trace Event JSON
format, so a simulated dslash or CG iteration renders as a per-node
timeline: one *process* per node, with *threads* for the CPU and each
SCU send/receive direction — compute spans and in-flight communication
visually overlapping exactly as the two-phase pipeline schedules them.

Mapping
-------
* records whose fields carry ``dur`` (the span convention of
  :mod:`repro.telemetry.schema`) become complete events (``ph="X"``) with
  ``ts = (time - dur)`` — spans are emitted at interval *end*;
* all other records become thread-scoped instant events (``ph="i"``);
* ``pid`` is the node id (``node``/``rank`` field, or the source node
  parsed from a link name); machine-global records (``gsum.*``) live in
  pid ``-1``;
* ``tid`` is a small integer allocated per (pid, lane) with
  ``thread_name`` metadata events labelling the lanes (``cpu``,
  ``scu.send.d3`` ...).

All events are sorted by timestamp, so per-process timestamps are
monotone by construction — the property the schema regression test
asserts after a ``json.loads`` round trip.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Union

from repro.sim.trace import Trace

_US = 1e6  # trace-event timestamps are microseconds


def _json_safe(value: Any) -> Any:
    """Coerce numpy scalars etc. into plain JSON types."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return str(value)


def _pid(fields: Mapping[str, Any]) -> int:
    if "node" in fields:
        return int(fields["node"])
    if "rank" in fields:
        return int(fields["rank"])
    link = fields.get("link")
    if isinstance(link, str) and link.startswith("n"):
        # link names are "n<src>.d<dir>->n<dst>"
        head = link.split(".", 1)[0][1:]
        if head.isdigit():
            return int(head)
    return -1  # machine-global lane (gsum.* etc.)


def _lane(tag: str, fields: Mapping[str, Any]) -> str:
    if tag == "cpu.compute":
        return "cpu"
    if tag.startswith("scu.") and "direction" in fields:
        kind = "recv" if tag in ("scu.recv", "scu.parity_error") else "send"
        return f"scu.{kind}.d{int(fields['direction'])}"
    return tag.split(".", 1)[0]


def _name(tag: str, fields: Mapping[str, Any]) -> str:
    if tag == "cpu.compute" and fields.get("kernel"):
        return f"cpu.compute:{fields['kernel']}"
    return tag


def chrome_trace_events(trace: Trace) -> List[Dict[str, Any]]:
    """The trace as a list of Trace Event dicts (metadata + sorted events)."""
    tids: Dict[tuple, int] = {}
    metadata: List[Dict[str, Any]] = []
    events: List[Dict[str, Any]] = []
    for record in trace:
        fields = record.fields
        pid = _pid(fields)
        lane = _lane(record.tag, fields)
        key = (pid, lane)
        tid = tids.get(key)
        if tid is None:
            tid = len([k for k in tids if k[0] == pid])
            tids[key] = tid
            metadata.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": lane},
                }
            )
        args = {k: _json_safe(v) for k, v in fields.items()}
        args["seq"] = record.seq
        dur = fields.get("dur")
        if dur is not None:
            events.append(
                {
                    "name": _name(record.tag, fields),
                    "ph": "X",
                    "ts": (record.time - float(dur)) * _US,
                    "dur": float(dur) * _US,
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
        else:
            events.append(
                {
                    "name": _name(record.tag, fields),
                    "ph": "i",
                    "s": "t",
                    "ts": record.time * _US,
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
    events.sort(key=lambda e: (e["ts"], e["pid"], e["tid"]))
    return metadata + events


def export_chrome_trace(trace: Trace, path: Union[str, Path]) -> Path:
    """Write the Trace Event JSON file; load it in ``chrome://tracing``
    or https://ui.perfetto.dev."""
    path = Path(path)
    payload = {
        "traceEvents": chrome_trace_events(trace),
        "displayTimeUnit": "ms",
    }
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return path
