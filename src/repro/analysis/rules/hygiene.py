"""API-hygiene rules (REPRO4xx, part 1): mutable defaults, bare except.

Small, classic, and repeatedly rediscovered the hard way: a mutable
default argument aliases state across *every* call (catastrophic in a
library whose objects are reused across simulated ranks), and a bare
``except:`` swallows :class:`KeyboardInterrupt`, simulator
:class:`~repro.util.errors.SimulationError` deadlock reports, and the
sanitizer's race diagnostics alike.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.analysis.engine import Finding, Project, Rule, register_rule
from repro.analysis.visitor import dotted_name

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray", "deque", "defaultdict"})


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        return dotted_name(node.func) in _MUTABLE_CALLS
    return False


@register_rule
class NoMutableDefaultRule(Rule):
    """No mutable default arguments (use ``None`` + in-body default)."""

    rule_id = "REPRO401"
    name = "no-mutable-default"
    summary = (
        "default argument values must be immutable; a shared list/dict "
        "default aliases state across every call"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            for func in module.nodes:
                if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                defaults: List[ast.expr] = list(func.args.defaults)
                defaults += [d for d in func.args.kw_defaults if d is not None]
                for default in defaults:
                    if _is_mutable_default(default):
                        yield self.finding(
                            module,
                            default,
                            f"mutable default argument in {func.name}(); use "
                            "None and construct inside the body",
                        )


@register_rule
class NoBareExceptRule(Rule):
    """No bare ``except:`` clauses (and no silently-passing handlers).

    A bare handler catches ``KeyboardInterrupt``/``SystemExit`` and
    masks simulator deadlock and sanitizer race diagnostics.  Catch the
    narrowest :mod:`repro.util.errors` class that applies.
    """

    rule_id = "REPRO402"
    name = "no-bare-except"
    summary = "except: must name an exception class (narrowest repro error)"

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            for node in module.nodes:
                if not isinstance(node, ast.ExceptHandler):
                    continue
                if node.type is None:
                    yield self.finding(
                        module,
                        node,
                        "bare except: catches KeyboardInterrupt and masks "
                        "simulator diagnostics; name the exception class",
                    )
                elif (
                    isinstance(node.type, ast.Name)
                    and node.type.id in ("Exception", "BaseException")
                    and len(node.body) == 1
                    and isinstance(node.body[0], ast.Pass)
                ):
                    yield self.finding(
                        module,
                        node,
                        f"except {node.type.id}: pass silently swallows every "
                        "error; handle or re-raise",
                    )
