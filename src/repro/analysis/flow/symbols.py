"""Project-wide symbol table: functions, methods and classes per module.

Qualified names are ``relpath::Class.method`` / ``relpath::function`` —
stable across runs (the engine hands modules over in sorted relpath
order) and unique within one scan.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Union

if TYPE_CHECKING:  # the engine imports this module, not the reverse
    from repro.analysis.engine import ModuleContext

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str
    name: str
    node: FunctionNode
    module: ModuleContext
    cls: Optional[str] = None  # owning class name, None for free functions

    @property
    def is_method(self) -> bool:
        return self.cls is not None


@dataclass
class ClassInfo:
    """One class definition and its directly-defined methods."""

    name: str
    node: ast.ClassDef
    module: ModuleContext
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    bases: List[str] = field(default_factory=list)


class SymbolTable:
    """Functions and classes of a scanned tree, keyed by name."""

    def __init__(self) -> None:
        #: bare name -> every definition with that name (project-wide)
        self.functions: Dict[str, List[FunctionInfo]] = {}
        #: class name -> every class with that name
        self.classes: Dict[str, List[ClassInfo]] = {}
        #: qualified name -> unique definition
        self.by_qualname: Dict[str, FunctionInfo] = {}

    def all_functions(self) -> Iterator[FunctionInfo]:
        """Every definition, name by name."""
        for infos in self.functions.values():
            yield from infos

    def add_function(self, info: FunctionInfo) -> None:
        self.functions.setdefault(info.name, []).append(info)
        self.by_qualname[info.qualname] = info

    def add_class(self, info: ClassInfo) -> None:
        self.classes.setdefault(info.name, []).append(info)

    def methods_of(self, cls_name: str, method: str) -> List[FunctionInfo]:
        """Every definition of ``method`` on a class named ``cls_name``."""
        return [
            c.methods[method]
            for c in self.classes.get(cls_name, [])
            if method in c.methods
        ]


def _base_name(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def build_symbols(modules: Sequence[ModuleContext]) -> SymbolTable:
    """Collect every top-level function and class method of ``modules``.

    Functions nested inside other functions are deliberately skipped:
    closures are invisible to name-based call resolution anyway, and
    including them would alias unrelated helpers.
    """
    table = SymbolTable()
    for module in modules:
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                table.add_function(
                    FunctionInfo(
                        qualname=f"{module.relpath}::{node.name}",
                        name=node.name,
                        node=node,
                        module=module,
                    )
                )
            elif isinstance(node, ast.ClassDef):
                cls = ClassInfo(
                    name=node.name,
                    node=node,
                    module=module,
                    bases=[_base_name(b) for b in node.bases],
                )
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        info = FunctionInfo(
                            qualname=f"{module.relpath}::{node.name}.{item.name}",
                            name=item.name,
                            node=item,
                            module=module,
                            cls=node.name,
                        )
                        cls.methods[item.name] = info
                        table.add_function(info)
                table.add_class(cls)
    return table
