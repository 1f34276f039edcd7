"""repro.analysis — simulator-aware static analysis + runtime sanitizers.

Two correctness layers live here (PR 4):

**reprolint** — a custom AST-based lint engine whose rules encode the
QCDOC software twin's *machine invariants* as static checks:
determinism (no wall-clock, no unseeded RNG, no unordered iteration
where order reaches the wire or the trace), SCU protocol conformance
(every send-family completion event is consumed, through wrappers
too; counters written only by their units), counter and flop
accounting hygiene (magic constants single-sourced in
:mod:`repro.fermions.flops`, every distributed compute charge tagged
with a ``kernel=`` and reached by one, every trace tag registered in
:data:`repro.telemetry.schema.TRACE_SCHEMA`), API hygiene (no mutable
default arguments, no bare ``except``), package layering (imports
flow strictly downward, ``machine`` never up into ``fermions``) and
snapshot / boot-reset completeness.  Every
rule checks one :class:`~repro.analysis.engine.Project` — the scan's
modules, parsed once, with a symbol table and call graph built on
first use.

Run it as a CLI (the CI gate)::

    PYTHONPATH=src python -m repro.analysis src/
    PYTHONPATH=src python -m repro.analysis src/ --format json
    PYTHONPATH=src python -m repro.analysis --list-rules

Exit code 0 means zero findings outside the checked-in allowlist
(``.reprolint-allow`` at the repository root; one justified entry per
line).

**HaloRaceSanitizer** — a runtime TSan-analogue for the simulated
machine: shadow ownership state per SCU send/receive buffer, flagging
any CPU read/write that overlaps an in-flight DMA (see
:mod:`repro.analysis.sanitizer`).  Off by default; attaching it costs
the hot paths one ``is not None`` attribute check.
"""

from __future__ import annotations

from repro.analysis.allowlist import AllowEntry, Allowlist
from repro.analysis.engine import (
    Finding,
    LintEngine,
    LintResult,
    ModuleContext,
    Project,
    Rule,
    all_rules,
    get_rule,
    register_rule,
)
from repro.analysis.sanitizer import HaloRaceError, HaloRaceSanitizer, RaceReport

# Importing the rule modules populates the registry.
from repro.analysis import rules as _rules  # noqa: F401  (registration side effect)

__all__ = [
    "AllowEntry",
    "Allowlist",
    "Finding",
    "HaloRaceError",
    "HaloRaceSanitizer",
    "LintEngine",
    "LintResult",
    "ModuleContext",
    "Project",
    "RaceReport",
    "Rule",
    "all_rules",
    "get_rule",
    "register_rule",
]
