"""The reprolint engine: findings, the project, the rule registry and
the lint driver.

:meth:`LintEngine.run` parses every scanned file once into one
:class:`Project`, and every :class:`Rule` sees that project through its
one method, :meth:`Rule.check`.  The project's symbol table and call
graph are built on first use, once per run, so a scan whose rules never
ask for them (``--hygiene``) never builds them.

Rules register themselves with :func:`register_rule`; the registry is
populated by importing :mod:`repro.analysis.rules`.  The engine itself
is policy-free — which findings are suppressed is decided by the
:class:`~repro.analysis.allowlist.Allowlist` handed to it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

from repro.analysis.allowlist import Allowlist
from repro.analysis.flow.callgraph import CallGraph, build_call_graph
from repro.analysis.flow.symbols import SymbolTable, build_symbols


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # posix-style path relative to the scan root
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class ModuleContext:
    """One parsed source module, as seen by every rule.

    Attributes
    ----------
    path:
        Absolute filesystem path.
    relpath:
        Posix-style path relative to the scan root (the stable key used
        by findings and allowlist entries).
    package:
        The ``repro`` subpackage the module belongs to (``"machine"``,
        ``"parallel"``, ...) or ``""`` when the module is outside a
        ``repro`` tree (e.g. a test fixture).
    tree:
        The parsed :class:`ast.Module`.
    nodes, calls:
        Every node of ``tree`` (every call), walked once for all rules.
    """

    def __init__(self, path: Path, relpath: str, source: str):
        self.path = path
        self.relpath = relpath
        self.source = source
        self.tree: ast.Module = ast.parse(source, filename=str(path))
        self.package = self._infer_package(relpath)

    @cached_property
    def nodes(self) -> List[ast.AST]:
        return list(ast.walk(self.tree))

    @cached_property
    def calls(self) -> List[ast.Call]:
        return [node for node in self.nodes if isinstance(node, ast.Call)]

    @staticmethod
    def _infer_package(relpath: str) -> str:
        parts = Path(relpath).parts
        if "repro" in parts:
            idx = parts.index("repro")
            if idx + 1 < len(parts) and not parts[idx + 1].endswith(".py"):
                return parts[idx + 1]
        return ""

    def is_module(self, *suffixes: str) -> bool:
        """True when ``relpath`` ends with any of the given suffixes."""
        return any(self.relpath.endswith(s) for s in suffixes)

    def __repr__(self) -> str:
        return f"ModuleContext({self.relpath!r})"


class Project:
    """Every module of one scan, parsed once.

    :attr:`symbols` (the symbol table) and :attr:`graph` (the call graph
    over it) are built on first use and shared by every rule of the run.
    """

    def __init__(self, modules: Sequence[ModuleContext]):
        self.modules = list(modules)

    @cached_property
    def symbols(self) -> SymbolTable:
        return build_symbols(self.modules)

    @cached_property
    def graph(self) -> CallGraph:
        return build_call_graph(self.symbols)


class Rule:
    """Base class for reprolint rules.

    Subclasses set :attr:`rule_id` (stable, e.g. ``"REPRO101"``),
    :attr:`name` (kebab-case slug) and :attr:`summary`, and implement
    :meth:`check` over the run's :class:`Project`.
    """

    rule_id: str = ""
    name: str = ""
    summary: str = ""

    def check(self, project: Project) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(
        self, module: ModuleContext, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=module.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


#: rule_id -> rule class (populated by @register_rule in repro.analysis.rules)
RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry (id must be unique)."""
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    RULE_REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> List[Type[Rule]]:
    """Every registered rule class, in rule-id order."""
    import repro.analysis.rules  # noqa: F401  (ensure registration ran)

    return [RULE_REGISTRY[k] for k in sorted(RULE_REGISTRY)]


def get_rule(rule_id: str) -> Type[Rule]:
    import repro.analysis.rules  # noqa: F401

    return RULE_REGISTRY[rule_id]


@dataclass
class LintResult:
    """Outcome of one engine run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    parse_errors: List[Finding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings and not self.parse_errors

    def unused_allow_entries(self, allowlist: Allowlist) -> List[str]:
        used = {(f.rule, f.path) for f in self.suppressed}
        return [
            e.format()
            for e in allowlist.entries
            if (e.rule, e.path) not in used
        ]

    def to_dict(self) -> Dict[str, object]:
        return {
            "files_scanned": self.files_scanned,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "parse_errors": [f.to_dict() for f in self.parse_errors],
            "clean": self.clean,
        }


def iter_python_files(paths: Sequence[Path]) -> Iterator[Tuple[Path, str]]:
    """Yield ``(abs_path, relpath)`` for every ``.py`` under ``paths``.

    ``relpath`` is relative to the given root (or the file's parent for
    a single-file argument), posix-style, in sorted order for
    deterministic output.
    """
    for root in paths:
        root = root.resolve()
        if root.is_file():
            yield root, root.name
            continue
        for p in sorted(root.rglob("*.py")):
            yield p, p.relative_to(root).as_posix()


class LintEngine:
    """Drives a set of rule instances over a source tree."""

    def __init__(
        self,
        rules: Optional[Sequence[Type[Rule]]] = None,
        allowlist: Optional[Allowlist] = None,
    ):
        self.rule_classes: List[Type[Rule]] = list(
            rules if rules is not None else all_rules()
        )
        self.allowlist = allowlist if allowlist is not None else Allowlist([])

    def run(self, paths: Sequence[Path]) -> LintResult:
        result = LintResult()
        modules: List[ModuleContext] = []
        for path, relpath in iter_python_files(paths):
            result.files_scanned += 1
            try:
                modules.append(ModuleContext(path, relpath, path.read_text()))
            except SyntaxError as exc:
                result.parse_errors.append(
                    Finding(
                        rule="REPRO000",
                        path=relpath,
                        line=exc.lineno or 1,
                        col=exc.offset or 0,
                        message=f"syntax error: {exc.msg}",
                    )
                )
        project = Project(modules)
        for cls in self.rule_classes:
            for finding in cls().check(project):
                self._file(result, finding)
        result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        result.suppressed.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return result

    def _file(self, result: LintResult, finding: Finding) -> None:
        if self.allowlist.suppresses(finding.rule, finding.path):
            result.suppressed.append(finding)
        else:
            result.findings.append(finding)
