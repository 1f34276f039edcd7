"""Machine-wide telemetry: performance counters, trace schema, exporters.

QCDOC's ASIC exposed hardware performance counters that made the paper's
quantitative claims — sustained Dirac efficiency, 420 Mbit/s/link wire
rates, global-sum hop counts — *measurable*.  This package is the
simulator's equivalent observability layer:

* :mod:`repro.telemetry.counters` — :func:`~repro.telemetry.counters.sample`,
  one flat ``node.unit.counter`` snapshot of the always-on plain counters
  every machine unit keeps, read on demand: the hot paths never see it.
* :mod:`repro.telemetry.schema` — the registry of every structured-trace
  tag (and its exact field names) emitted anywhere in :mod:`repro`;
  regression tests diff the registry against an AST scan of the source.
* :mod:`repro.telemetry.chrometrace` — a ``chrome://tracing`` /
  Perfetto-compatible JSON exporter turning a machine trace into a
  per-node timeline of compute vs. in-flight communication.
* :mod:`repro.telemetry.observables` — :func:`observables`, the one
  fingerprint every bit-identity comparison samples (counters, trace
  multiset, simulated clock, replay statistics), and
  :func:`observable_diff`, the drift between two of them.
* :mod:`repro.telemetry.report` — :class:`MachineReport`, the roll-up of
  one counter sample into the paper's derived metrics (sustained GFlops, link
  utilisation, overlap fraction) with a :meth:`MachineReport.crosscheck`
  that compares measurement against :mod:`repro.perfmodel` predictions
  within declared tolerances.
"""

from repro.telemetry.chrometrace import chrome_trace_events, export_chrome_trace
from repro.telemetry.counters import merge_samples, sample
from repro.telemetry.observables import observable_diff, observables
from repro.telemetry.report import CrosscheckEntry, CrosscheckResult, MachineReport
from repro.telemetry.schema import TRACE_SCHEMA, validate_record, validate_trace

__all__ = [
    "merge_samples",
    "sample",
    "observables",
    "observable_diff",
    "MachineReport",
    "CrosscheckEntry",
    "CrosscheckResult",
    "TRACE_SCHEMA",
    "validate_record",
    "validate_trace",
    "chrome_trace_events",
    "export_chrome_trace",
]
