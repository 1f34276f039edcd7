"""The observable fingerprint of a machine run, and the drift between two.

Every bit-identity claim in this repo (serial ≡ sharded ≡ replayed ≡
resumed, this commit ≡ its parent) compares the same things after a full
drain: the counter sample, the trace as a *multiset* of ``(time, tag,
fields)`` — engines may interleave simultaneous events differently, but
every record must exist at the same simulated time with the same payload
— the simulated clock, and the replay statistics.  :func:`observables`
takes them once; :func:`observable_diff` says what moved.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Mapping


def observables(machine: Any) -> Dict[str, Any]:
    """Drain ``machine`` and sample ``counters`` (``machine.counters()``),
    ``trace`` (the record multiset; empty without tracing), ``now`` and
    ``replay`` (the summed replay statistics)."""
    machine.quiesce()
    records = machine.trace.records if machine.trace is not None else ()
    return {
        "counters": machine.counters(),
        "trace": Counter(
            (r.time, r.tag, tuple(sorted(zip(r.names, r.values)))) for r in records
        ),
        "now": machine.sim.now,
        "replay": machine.replay_stats(),
    }


def observable_diff(ref: Mapping[str, Any], got: Mapping[str, Any]) -> Dict[str, Any]:
    """What drifted between two :func:`observables` samples, as a dict:
    ``{observable: {key: (ref, got)}}`` for the keyed ones (a counter
    path, a trace record with its multiplicities), ``{observable: (ref,
    got)}`` for ``now``.  Only the observables present in ``ref`` are
    compared — pass a sub-dict to compare fewer — and ``{}`` means none
    moved."""
    drift: Dict[str, Any] = {}
    for name, want in ref.items():
        have = got[name]
        if isinstance(want, Mapping):
            moved = {
                key: (want.get(key), have.get(key))
                for key in [*want, *(k for k in have if k not in want)]
                if want.get(key) != have.get(key)
            }
            if moved:
                drift[name] = moved
        elif want != have:
            drift[name] = (want, have)
    return drift
