"""Accounting-hygiene rules (REPRO3xx).

PR 3's telemetry crosscheck only closes if every flop charged to the
machine and every word on the wire traces back to one cost sheet —
:mod:`repro.fermions.flops` — and one trace-tag registry —
:data:`repro.telemetry.schema.TRACE_SCHEMA`.  These rules keep both
single-sourced.  REPRO303 is the in-framework home of what used to be
a one-off AST scan in ``tests/test_trace_schema.py`` (PR 3); the test
now calls this rule so there is exactly one implementation.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.analysis.engine import Finding, ModuleContext, Project, Rule, register_rule
from repro.analysis.visitor import attr_chain, int_constants, iter_calls
from repro.telemetry.schema import TRACE_SCHEMA

#: flop/word counts that must be spelled with their named constant from
#: repro.fermions.flops (value -> canonical name, for the fix hint)
MAGIC_FLOP_CONSTANTS: Dict[int, str] = {
    12: "STAGGERED_DIAG_FLOPS (or HALF_SPINOR_WORDS)",
    24: "SPINOR_WORDS",
    48: "DIAG_AXPY_FLOPS",
    66: "MATVEC_SU3",
    96: "DWF_5D_EXTRA_FLOPS",
    264: "the spin project/reconstruct adds of WILSON_DSLASH_FLOPS",
    570: "NAIVE_STAGGERED_DSLASH_FLOPS",
    582: "naive-staggered flops_per_site",
    600: "CLOVER_TERM_FLOPS",
    1146: "ASQTAD_DSLASH_FLOPS",
    1320: "WILSON_DSLASH_FLOPS",
    1368: "wilson flops_per_site",
    1416: "dwf flops_per_site",
}

#: the one module allowed to define these numbers
_COST_SHEET = "repro/fermions/flops.py"


def _name_mentions_flops(target: ast.expr) -> bool:
    if isinstance(target, ast.Name):
        name = target.id
    elif isinstance(target, ast.Attribute):
        name = target.attr
    else:
        return False
    lowered = name.lower()
    return "flops" in lowered or "words_per" in lowered


@register_rule
class NoMagicFlopConstantsRule(Rule):
    """Flop/wire constants appear only as named imports from flops.py.

    Scoped to where they are load-bearing: arguments of ``compute(...)``
    charges and right-hand sides of assignments to ``*flops*`` names.
    A literal ``48`` there silently diverges from
    ``DIAG_AXPY_FLOPS`` the moment the cost sheet changes — the class
    of drift the telemetry crosscheck exists to catch late and this
    rule catches early.
    """

    rule_id = "REPRO301"
    name = "no-magic-flop-constants"
    summary = (
        "flop/word counts in compute() charges and *_flops assignments "
        "must use the named constants of repro.fermions.flops"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            if not module.is_module(_COST_SHEET):
                yield from self._check_module(module)

    def _check_module(self, module: ModuleContext) -> Iterable[Finding]:
        seen: Set[int] = set()  # id()s of already-reported Constant nodes
        for call in module.calls:
            if attr_chain(call.func)[-1] != "compute":
                continue
            for arg in call.args:
                yield from self._scan(module, arg, seen, "compute() charge")
        for node in module.nodes:
            targets: List[ast.expr] = []
            value = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AugAssign):
                targets, value = [node.target], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None or not any(_name_mentions_flops(t) for t in targets):
                continue
            yield from self._scan(module, value, seen, "flops assignment")

    def _scan(
        self,
        module: ModuleContext,
        expr: ast.expr,
        seen: Set[int],
        where: str,
    ) -> Iterable[Finding]:
        for const in int_constants(expr):
            if const.value in MAGIC_FLOP_CONSTANTS and id(const) not in seen:
                seen.add(id(const))
                yield self.finding(
                    module,
                    const,
                    f"magic constant {const.value} in {where}; use "
                    f"{MAGIC_FLOP_CONSTANTS[const.value]} from "
                    "repro.fermions.flops",
                )


def emit_call_sites(
    tree: ast.AST,
) -> Iterable[Tuple[ast.Call, str, FrozenSet[str]]]:
    """Every ``*.emit(<string literal tag>, key=...)`` call in a tree.

    Yields ``(call, tag, field_names)``.  Calls whose tag is not a
    string literal (the :class:`~repro.sim.trace.TraceNamespace`
    forwarder) are skipped — they re-emit somebody else's literal tag.
    """
    for call in iter_calls(tree):
        if not (
            isinstance(call.func, ast.Attribute) and call.func.attr == "emit"
        ):
            continue
        if not call.args:
            continue
        tag_node = call.args[0]
        if not (
            isinstance(tag_node, ast.Constant) and isinstance(tag_node.value, str)
        ):
            continue
        fields = frozenset(kw.arg for kw in call.keywords if kw.arg is not None)
        yield call, tag_node.value, fields


@register_rule
class TraceSchemaRule(Rule):
    """Every ``trace.emit`` tag is registered with exact field names.

    Both directions of the PR 3 contract: an emission whose tag is not
    in :data:`TRACE_SCHEMA` (or whose keyword set drifted from the
    declared fields) is flagged at the call site; registry entries that
    no scanned module emits are flagged as dead — but only when the
    scan actually covers the schema module itself, so fixture scans
    don't false-positive.
    """

    rule_id = "REPRO303"
    name = "trace-schema-registered"
    summary = (
        "every trace.emit tag must be registered in TRACE_SCHEMA with "
        "exactly the declared field names (registry carries no dead entries)"
    )

    _SCHEMA_MODULE = "repro/telemetry/schema.py"

    def check(self, project: Project) -> Iterable[Finding]:
        emitted: Set[str] = set()
        schema_module = None
        for module in project.modules:
            if module.is_module(self._SCHEMA_MODULE):
                schema_module = module
            for call, tag, fields in emit_call_sites(module.tree):
                emitted.add(tag)
                expected = TRACE_SCHEMA.get(tag)
                if expected is None:
                    yield self.finding(
                        module,
                        call,
                        f"unregistered trace tag {tag!r}; add it to "
                        "repro.telemetry.schema.TRACE_SCHEMA",
                    )
                elif fields != expected:
                    missing = sorted(expected - fields)
                    extra = sorted(fields - expected)
                    yield self.finding(
                        module,
                        call,
                        f"trace tag {tag!r} field drift: missing {missing}, "
                        f"extra {extra}",
                    )
        if schema_module is None:
            return  # partial scan: dead-entry audit needs the full tree
        for tag in sorted(set(TRACE_SCHEMA) - emitted):
            yield self.finding(
                schema_module,
                schema_module.tree,
                f"TRACE_SCHEMA entry {tag!r} is never emitted by any "
                "scanned module (dead registry entry)",
            )
