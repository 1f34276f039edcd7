"""Name-resolved call graph over the project symbol table.

Resolution is intentionally simple and *over-approximating* — Python
has no static types here, so a call site binds to every definition its
bare name could mean:

* ``self.m(...)`` binds to ``m`` on the caller's own class when that
  class defines it (the precise, common case), otherwise falls back to
  every definition named ``m``;
* ``obj.m(...)`` and ``m(...)`` bind to every definition named ``m``.

Rules that act on call sites must therefore decide what to do with
ambiguity; the REPRO5xx rules only fire when *every* candidate agrees
(see :mod:`repro.analysis.flow.rules`), trading recall for a zero
false-positive budget.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.analysis.flow.symbols import FunctionInfo, SymbolTable
from repro.analysis.visitor import attr_chain


@dataclass
class CallGraph:
    """Edges between qualified names."""

    symbols: SymbolTable
    callees: Dict[str, Set[str]] = field(default_factory=dict)
    callers: Dict[str, Set[str]] = field(default_factory=dict)

    def callers_of(self, qualname: str) -> Set[str]:
        return self.callers.get(qualname, set())

    def callees_of(self, qualname: str) -> Set[str]:
        return self.callees.get(qualname, set())


def resolve(
    call: ast.Call, cls: Optional[str], symbols: SymbolTable
) -> Tuple[FunctionInfo, ...]:
    """Candidate definitions for one call site (possibly empty); ``cls``
    is the class ``self`` names at the site, if any."""
    func = call.func
    name = attr_chain(func)[-1]
    if (
        cls is not None
        and isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in ("self", "cls")
    ):
        own = symbols.methods_of(cls, name)
        if own:
            return tuple(own)
    return tuple(symbols.functions.get(name, ()))


def build_call_graph(symbols: SymbolTable) -> CallGraph:
    graph = CallGraph(symbols=symbols)
    for info in symbols.all_functions():
        graph.callees.setdefault(info.qualname, set())
        graph.callers.setdefault(info.qualname, set())
    for info in symbols.all_functions():
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                for target in resolve(node, info.cls, symbols):
                    graph.callees[info.qualname].add(target.qualname)
                    graph.callers[target.qualname].add(info.qualname)
    return graph
