"""Interprocedural analysis for reprolint (the REPRO5xx rules).

The engine (:mod:`repro.analysis.engine`) builds the symbol table and
call graph once per run, on the project's first request for them:

``symbols``
    A project-wide symbol table: every function/method of every scanned
    module, keyed by bare name and by qualified name.
``callgraph``
    A name-resolved call graph over the symbol table (``self.m()`` binds
    to the caller's own class when it defines ``m``).
``dataflow``
    Def-use helpers: dead-store detection, taint-style return/escape
    tracking, and consuming-use classification.
``rules``
    The REPRO501, REPRO503 and REPRO504 rules.  They register into the
    one rule registry and run on every scan, like every other rule.

The model-bounds and soundness caveats are documented in DESIGN.md
section 14.
"""

from repro.analysis.flow.callgraph import CallGraph, build_call_graph
from repro.analysis.flow.symbols import (
    ClassInfo,
    FunctionInfo,
    SymbolTable,
    build_symbols,
)

__all__ = [
    "CallGraph",
    "ClassInfo",
    "FunctionInfo",
    "SymbolTable",
    "build_call_graph",
    "build_symbols",
]
