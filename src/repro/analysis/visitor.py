"""AST visitor helpers shared by the reprolint rules.

Rules work on plain :mod:`ast` trees; these helpers give them the small
vocabulary they all need — dotted attribute chains for call targets,
the statements of one body (a module's or a function's) short of the
defs nested in it, and module-level-vs-function-local import
classification.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple, Union

#: a body :func:`own_statements` walks
Scope = Union[ast.Module, ast.FunctionDef, ast.AsyncFunctionDef]


def attr_chain(node: ast.AST) -> List[str]:
    """Dotted-name parts of an attribute/name expression, outermost last.

    ``self.api.start_stored`` -> ``["self", "api", "start_stored"]``;
    ``np.random.default_rng`` -> ``["np", "random", "default_rng"]``.
    Non-name bases (calls, subscripts) contribute a ``"?"`` placeholder
    so chains stay positional: ``nodes[0].scu.send`` ->
    ``["?", "scu", "send"]``.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    else:
        parts.append("?")
    parts.reverse()
    return parts


def dotted_name(node: ast.AST) -> str:
    """``attr_chain`` joined with dots (``"np.random.default_rng"``)."""
    return ".".join(attr_chain(node))


def iter_calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


def module_level_imports(
    tree: ast.Module,
) -> Iterator[Tuple[ast.stmt, str]]:
    """``(stmt, dotted_module)`` for every import at module scope.

    Imports inside function bodies are deliberately *excluded*: a
    function-local import is the sanctioned escape hatch for facade
    upcalls (e.g. ``QCDOCMachine.report`` reaching up into
    ``repro.telemetry``), because it cannot create an import cycle and
    is visibly marked at the call site.
    """
    for stmt in own_statements(tree):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                yield stmt, alias.name
        elif isinstance(stmt, ast.ImportFrom) and stmt.module and stmt.level == 0:
            yield stmt, stmt.module


def own_statements(scope: Scope) -> Iterator[ast.stmt]:
    """Every statement of ``scope``'s body short of the bodies of the defs
    nested in it (the def statements themselves are yielded).  Class
    bodies are included: they run where their class statement does."""
    stack: List[ast.stmt] = list(scope.body)
    while stack:
        stmt = stack.pop()
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # its body is its own scope
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                stack.append(child)
            elif isinstance(child, ast.ExceptHandler):
                stack.extend(child.body)


def int_constants(node: ast.AST) -> Iterator[ast.Constant]:
    """Every integer literal under ``node`` (bools excluded)."""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Constant)
            and isinstance(sub.value, int)
            and not isinstance(sub.value, bool)
        ):
            yield sub


def is_set_expression(node: ast.AST) -> bool:
    """True for expressions that evaluate to an (unordered) set:
    set literals, set comprehensions, and ``set(...)``/``frozenset(...)``
    calls."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        chain = attr_chain(node.func)
        if chain[-1] in ("set", "frozenset") and len(chain) == 1:
            return True
        # Trace.tags() documents itself as returning a set
        if chain[-1] == "tags" and len(chain) >= 2:
            return True
    return False
