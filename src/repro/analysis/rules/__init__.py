"""The reprolint rule catalogue (importing this package registers all).

Numbering scheme
----------------
``REPRO1xx`` determinism, ``REPRO2xx`` SCU counter ownership,
``REPRO3xx`` accounting hygiene, ``REPRO4xx`` API hygiene and layering,
``REPRO5xx`` the rules that read the project's symbol table and call
graph (``repro.analysis.flow.rules``: send completion, flop-charge
coverage, snapshot completeness).  The numbers say what a
rule is about, not how it runs: every rule checks the one project a run
builds.  The full catalogue with rationale lives in DESIGN.md sections 9
and 14.
"""

from __future__ import annotations

from repro.analysis.flow import rules as flow_rules
from repro.analysis.rules import accounting, determinism, hygiene, layering, protocol

__all__ = [
    "accounting",
    "determinism",
    "flow_rules",
    "hygiene",
    "layering",
    "protocol",
]
