"""Def-use helpers: dead stores, consuming uses, and return-escape taint.

These are the small, deliberately flow-*insensitive* building blocks
the REPRO5xx rules compose.  Everything here operates on one body — a
function's or a module's — at a time.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Iterator, Optional, Set, Tuple

from repro.analysis.visitor import Scope, own_statements


def load_counts(fn: Scope) -> Dict[str, int]:
    """How often each local name is *read* anywhere in ``fn``.

    Loads inside nested lambdas/defs count — a captured name is a use,
    the ``lambda _e, c=done: ...`` default included.
    """
    counts: Dict[str, int] = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            counts[node.id] = counts.get(node.id, 0) + 1
    return counts


def simple_assign_target(stmt: ast.stmt) -> Optional[str]:
    """``x = <expr>`` -> ``"x"``; anything fancier -> None."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
        if isinstance(target, ast.Name):
            return target.id
    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        if isinstance(stmt.target, ast.Name):
            return stmt.target.id
    return None


def assign_value(stmt: ast.stmt) -> Optional[ast.expr]:
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        return stmt.value
    return None


# -- return/escape taint ----------------------------------------------------


def _expr_tainted(
    expr: Optional[ast.expr],
    tainted: Set[str],
    is_source_call: Callable[[ast.Call], bool],
) -> bool:
    """Does evaluating ``expr`` produce (or contain) a source value?

    Containers count: a dict/list/tuple holding a tainted element is
    itself tainted, as is a subscript read of a tainted container —
    ``events[key]`` yields an event when ``events`` holds events.
    """
    if expr is None:
        return False
    if isinstance(expr, ast.Call):
        if is_source_call(expr):
            return True
        return False  # calls launder taint unless themselves sources
    if isinstance(expr, ast.Name):
        return expr.id in tainted
    if isinstance(expr, ast.Await):
        return False  # awaiting consumes the completion
    if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        return any(_expr_tainted(e, tainted, is_source_call) for e in expr.elts)
    if isinstance(expr, ast.Dict):
        return any(_expr_tainted(v, tainted, is_source_call) for v in expr.values)
    if isinstance(expr, ast.Subscript):
        return _expr_tainted(expr.value, tainted, is_source_call)
    if isinstance(expr, ast.IfExp):
        return _expr_tainted(
            expr.body, tainted, is_source_call
        ) or _expr_tainted(expr.orelse, tainted, is_source_call)
    if isinstance(expr, ast.Starred):
        return _expr_tainted(expr.value, tainted, is_source_call)
    if isinstance(expr, ast.ListComp):
        return _expr_tainted(expr.elt, tainted, is_source_call)
    if isinstance(expr, ast.DictComp):
        return _expr_tainted(expr.value, tainted, is_source_call)
    return False


def tainted_locals(
    fn: Scope, is_source_call: Callable[[ast.Call], bool]
) -> Set[str]:
    """Fixpoint of local names holding source values.

    Handles direct assignment, aliasing, container literals, and
    element insertion (``events[k] = source()`` taints ``events``).
    """
    tainted: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for stmt in own_statements(fn):
            if isinstance(stmt, ast.Assign):
                value_tainted = _expr_tainted(stmt.value, tainted, is_source_call)
                for target in stmt.targets:
                    name: Optional[str] = None
                    if isinstance(target, ast.Name) and value_tainted:
                        name = target.id
                    elif (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and value_tainted
                    ):
                        name = target.value.id  # insertion taints container
                    if name is not None and name not in tainted:
                        tainted.add(name)
                        changed = True
            elif isinstance(stmt, ast.AnnAssign):
                if (
                    isinstance(stmt.target, ast.Name)
                    and _expr_tainted(stmt.value, tainted, is_source_call)
                    and stmt.target.id not in tainted
                ):
                    tainted.add(stmt.target.id)
                    changed = True
    return tainted


def returns_source(
    fn: Scope, is_source_call: Callable[[ast.Call], bool]
) -> bool:
    """Does some ``return`` of ``fn`` hand a source value to the caller?"""
    tainted = tainted_locals(fn, is_source_call)
    for stmt in own_statements(fn):
        if isinstance(stmt, ast.Return) and _expr_tainted(
            stmt.value, tainted, is_source_call
        ):
            return True
    return False


# -- drop-site classification ------------------------------------------------


def dropped_calls(
    fn: Scope, matches: Callable[[ast.Call], bool]
) -> Iterator[ast.Call]:
    """Bare-expression statements whose call result is discarded."""
    for stmt in own_statements(fn):
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            if matches(stmt.value):
                yield stmt.value


def dead_stores(
    fn: Scope, matches: Callable[[ast.Call], bool]
) -> Iterator[Tuple[str, ast.Call]]:
    """``x = matching_call(...)`` where ``x`` is never read afterwards.

    Flow-insensitive: any read of ``x`` anywhere in the function (or a
    nested lambda) counts as a use, so this only fires on names that
    are *never* consumed at all.
    """
    loads = load_counts(fn)
    for stmt in own_statements(fn):
        name = simple_assign_target(stmt)
        value = assign_value(stmt)
        if (
            name is not None
            and isinstance(value, ast.Call)
            and matches(value)
            and loads.get(name, 0) == 0
        ):
            yield name, value
