"""The REPRO5xx whole-program rules.

Each rule accumulates every :class:`ModuleContext` during
:meth:`check` and runs its interprocedural analysis in :meth:`finish`,
once the symbol table and call graph cover the full scan.

Ambiguity policy: Python call sites resolve by *name*, so a site can
bind to several definitions.  Every rule here fires only when the
analysis verdict holds for **all** candidates — recall is traded for a
zero false-positive budget, because these rules gate CI.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.engine import Finding, ModuleContext, Rule, register_rule
from repro.analysis.flow import cfg as cfgmod
from repro.analysis.flow.callgraph import CallGraph, build_call_graph, resolve
from repro.analysis.flow.dataflow import (
    dead_stores,
    dropped_calls,
    own_statements,
    returns_source,
    stmt_mentions_load,
)
from repro.analysis.flow.symbols import FunctionInfo, SymbolTable, build_symbols
from repro.analysis.rules.protocol import _SEND_FAMILY_ALWAYS, _SEND_FAMILY_ON
from repro.analysis.visitor import attr_chain


class FlowRule(Rule):
    """Base for REPRO5xx: collect modules, analyse in finish()."""

    whole_program = True

    def __init__(self) -> None:
        self._modules: List[ModuleContext] = []

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        self._modules.append(module)
        return ()

    def finish(self) -> Iterable[Finding]:
        symbols = build_symbols(self._modules)
        graph = build_call_graph(symbols)
        return self.analyse(symbols, graph)

    def analyse(
        self, symbols: SymbolTable, graph: CallGraph
    ) -> Iterable[Finding]:
        raise NotImplementedError

    def finding_at(
        self, info: FunctionInfo, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=info.module.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def _is_base_send_call(call: ast.Call) -> bool:
    """The syntactic send-family matcher REPRO201 already polices."""
    chain = attr_chain(call.func)
    method = chain[-1]
    base = chain[-2] if len(chain) >= 2 else None
    return method in _SEND_FAMILY_ALWAYS or (
        method in _SEND_FAMILY_ON and base in _SEND_FAMILY_ON[method]
    )


@register_rule
class SendCompletionEscapeRule(FlowRule):
    """Completion events must be consumed through *wrappers* too.

    REPRO201 flags a discarded ``api.send(...)`` syntactically.  This
    rule closes the interprocedural hole: a helper that *returns* a
    send-family completion event (directly, through a local, or inside
    a container) is itself event-returning, and dropping its result —
    or assigning it to a name that is never read — loses the only
    handle proving the DMA engine is done with the buffer.
    """

    rule_id = "REPRO501"
    name = "send-completion-escape"
    summary = (
        "a function returning an SCU completion event (directly or via "
        "locals/containers) must have its result consumed at every "
        "call site, like the send-family calls themselves"
    )

    def analyse(
        self, symbols: SymbolTable, graph: CallGraph
    ) -> Iterable[Finding]:
        # Fixpoint: functions whose return value derives from a
        # send-family call or from another derived function.
        derived: Set[str] = set()

        def source_call(call: ast.Call) -> bool:
            if _is_base_send_call(call):
                return True
            candidates = [
                info
                for infos in (symbols.functions.get(_callee(call), ()),)
                for info in infos
            ]
            return bool(candidates) and all(
                c.qualname in derived for c in candidates
            )

        changed = True
        while changed:
            changed = False
            for infos in symbols.functions.values():
                for info in infos:
                    if info.qualname in derived:
                        continue
                    if returns_source(info.node, source_call):
                        derived.add(info.qualname)
                        changed = True

        def event_call(caller: FunctionInfo, call: ast.Call) -> bool:
            """Event-producing call at a site: base family (dead-store
            checks only) or an unambiguously derived wrapper."""
            if _is_base_send_call(call):
                return True
            candidates = resolve(call, caller, symbols)
            return bool(candidates) and all(
                c.qualname in derived for c in candidates
            )

        findings: List[Finding] = []
        for infos in symbols.functions.values():
            for info in infos:
                def matches(call: ast.Call, _info: FunctionInfo = info) -> bool:
                    return event_call(_info, call)

                for call in dropped_calls(info.node, matches):
                    if _is_base_send_call(call):
                        continue  # REPRO201's beat: don't double-report
                    chain = attr_chain(call.func)
                    findings.append(
                        self.finding_at(
                            info,
                            call,
                            f"completion event of {'.'.join(chain)}() is "
                            "discarded; the callee returns an SCU "
                            "completion handle that some path must wait on",
                        )
                    )
                for name, call in dead_stores(info.node, matches):
                    chain = attr_chain(call.func)
                    findings.append(
                        self.finding_at(
                            info,
                            call,
                            f"completion event of {'.'.join(chain)}() is "
                            f"assigned to '{name}' but never consumed on "
                            "any path; wait on it, return it, or register "
                            "a completion callback",
                        )
                    )
        return findings


def _callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


#: sanitizer acquire -> release method-name pairs REPRO502 balances
_CLAIM_PAIRS = {"dma_begin": "dma_end"}


@register_rule
class ClaimReleaseBalanceRule(FlowRule):
    """Sanitizer claims must be handed off on every path.

    A ``claim = san.dma_begin(...)`` opens a DMA window on a halo
    buffer; the window closes through ``dma_end(claim)`` — usually
    deferred via a completion callback.  Any control-flow path (most
    dangerously an ``except LinkDownError`` / ``DegradedMachineError``
    edge, or a ``finally``-less early return) that reaches the function
    exit without *touching* the claim leaks the window: the sanitizer
    then reports phantom races against a transfer that was abandoned.

    "Touching" means any read of the claim variable — a release call,
    a callback capture (``lambda _e, c=claim: san.dma_end(c)``), or an
    escape (returning/storing it, transferring ownership).
    """

    rule_id = "REPRO502"
    name = "claim-release-balance"
    summary = (
        "every path from dma_begin() to function exit (including "
        "exception edges) must release or hand off the claim"
    )

    def analyse(
        self, symbols: SymbolTable, graph: CallGraph
    ) -> Iterable[Finding]:
        findings: List[Finding] = []
        for infos in symbols.functions.values():
            for info in infos:
                findings.extend(self._check_function(info))
        return findings

    def _check_function(self, info: FunctionInfo) -> Iterable[Finding]:
        acquires: List[Tuple[ast.stmt, str]] = []
        for stmt in own_statements(info.node):
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            value = stmt.value
            if (
                isinstance(target, ast.Name)
                and isinstance(value, ast.Call)
                and _callee(value) in _CLAIM_PAIRS
            ):
                acquires.append((stmt, target.id))
        if not acquires:
            return ()
        cfg = cfgmod.build_cfg(info.node)
        findings: List[Finding] = []
        for stmt, name in acquires:
            start = cfg.nid_of(stmt)
            if start is None:  # unreachable fixture code
                continue
            touching = {
                nid
                for nid, node in cfg.stmts.items()
                if node is not None
                and node is not stmt
                and stmt_mentions_load(node, name)
            }
            if cfg.reaches_exit_avoiding(start, touching):
                findings.append(
                    self.finding_at(
                        info,
                        stmt,
                        f"sanitizer claim '{name}' from "
                        f"{_callee(stmt.value)}() can reach the exit of "
                        f"{info.qualname.split('::')[-1]}() without being "
                        "released or handed off (check exception edges: "
                        "LinkDownError/DegradedMachineError handlers and "
                        "early returns must route through dma_end or a "
                        "completion callback)",
                    )
                )
        return findings


#: flop-bearing kernels: each call performs O(volume) complex
#: arithmetic the machine must charge.  The inner products (``vdot``,
#: ``site_inner``) stand for a solver's whole vector algebra: the Krylov
#: core is shared with the serial path and charges nothing, so the
#: machine-side dot charges the iteration's axpys with its own flops.
_NUMPY_KERNELS_NP = frozenset({"einsum", "matmul", "tensordot", "vdot"})
_NUMPY_KERNELS_FREE = frozenset(
    {"cmatvec", "spin_project", "spin_reconstruct", "apply_spin_matrix", "site_inner"}
)


def _is_numpy_kernel(call: ast.Call) -> bool:
    chain = attr_chain(call.func)
    name = chain[-1]
    base = chain[-2] if len(chain) >= 2 else None
    if name in _NUMPY_KERNELS_NP and base in ("np", "numpy"):
        return True
    return name in _NUMPY_KERNELS_FREE


def _is_charge_call(call: ast.Call) -> bool:
    return _callee(call) == "compute" and any(
        kw.arg == "kernel" for kw in call.keywords
    )


@register_rule
class FlopChargeCoverageRule(FlowRule):
    """Numpy operator kernels in the parallel layer must be charged.

    The measured-vs-model crosscheck is only as good as the charging
    discipline: every function in ``repro.parallel`` that runs an
    operator kernel (``np.einsum``, ``cmatvec``, spin projection /
    reconstruction) must either charge ``compute(..., kernel=...)``
    itself or be reachable *only* through callers that do.  A helper
    reachable from an uncharging entry point computes real flops the
    telemetry books never see.

    This replaces the per-file REPRO302 heuristic with call-graph
    coverage: helpers like face projection stay charge-free because
    every caller charges for them.
    """

    rule_id = "REPRO503"
    name = "flop-charge-coverage"
    summary = (
        "numpy operator kernels reachable from an uncharged repro."
        "parallel entry path must charge compute(kernel=...) somewhere "
        "on every call chain"
    )

    #: the package this rule audits (fixtures use any 'parallel' dir)
    package = "parallel"

    def analyse(
        self, symbols: SymbolTable, graph: CallGraph
    ) -> Iterable[Finding]:
        in_pkg: Dict[str, FunctionInfo] = {
            info.qualname: info
            for infos in symbols.functions.values()
            for info in infos
            if info.module.package == self.package
        }
        if not in_pkg:
            return ()

        def charges(qualname: str) -> bool:
            info = in_pkg[qualname]
            return any(
                _is_charge_call(node)
                for node in ast.walk(info.node)
                if isinstance(node, ast.Call)
            )

        pkg_callers: Dict[str, Set[str]] = {
            q: {c for c in graph.callers_of(q) if c in in_pkg} for q in in_pkg
        }
        roots = [q for q, callers in pkg_callers.items() if not callers]

        # Propagate "reachable without passing a charge" from the roots.
        unprotected: Set[str] = set()
        work = [q for q in roots if not charges(q)]
        unprotected.update(work)
        while work:
            q = work.pop()
            for callee in graph.callees_of(q):
                if (
                    callee in in_pkg
                    and callee not in unprotected
                    and not charges(callee)
                ):
                    unprotected.add(callee)
                    work.append(callee)

        findings: List[Finding] = []
        for qualname in sorted(unprotected):
            info = in_pkg[qualname]
            kernel_calls = [
                node
                for node in ast.walk(info.node)
                if isinstance(node, ast.Call) and _is_numpy_kernel(node)
            ]
            if not kernel_calls:
                continue
            first = min(kernel_calls, key=lambda c: (c.lineno, c.col_offset))
            chain = attr_chain(first.func)
            findings.append(
                self.finding_at(
                    info,
                    first,
                    f"operator kernel {'.'.join(chain)}() runs in "
                    f"{qualname.split('::')[-1]}() but no call chain "
                    "reaching it charges compute(..., kernel=...); the "
                    "flop books will not see this work",
                )
            )
        return findings


def _class_str_tuple(cls: ast.ClassDef, attr: str) -> Optional[Set[str]]:
    """The string elements of a class-level ``attr = ("a", "b", ...)``,
    sums of such tuples and of the class's other tuples by name included
    (``_SNAPSHOT_ATTRS = _RESET_KEPT + _REGISTERS``)."""
    for stmt in cls.body:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)) or stmt.value is None:
            continue
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        if any(isinstance(t, ast.Name) and t.id == attr for t in targets):
            found: Set[str] = set()
            for node in ast.walk(stmt.value):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    found.add(node.value)
                elif isinstance(node, ast.Name) and node.id != attr:
                    found |= _class_str_tuple(cls, node.id) or set()
            return found
    return None


def _self_attr_of(node: ast.AST) -> Optional[str]:
    """``attr`` when ``node`` is the expression ``self.attr``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _self_attr_stores(fn: ast.AST) -> Dict[str, ast.stmt]:
    """attr name -> first statement assigning ``self.attr`` in ``fn``
    (tuple-unpack targets, ``a, self.x = ...``, included)."""
    stores: Dict[str, ast.stmt] = {}
    for node in ast.walk(fn):
        targets: Sequence[ast.expr] = ()
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            unpacked = isinstance(target, (ast.Tuple, ast.List))
            for elt in target.elts if unpacked else [target]:
                attr = _self_attr_of(elt)
                if attr is not None:
                    stores.setdefault(attr, node)
    return stores


#: container methods that change the object they are called on
_MUTATORS = frozenset(
    "add append clear discard extend insert pop popitem remove setdefault "
    "update".split()
)


def _self_attr_mutations(fn: ast.AST) -> Dict[str, ast.AST]:
    """attr name -> first node in ``fn`` that changes ``self.attr``: a
    store, an item store or delete (``self.attr[k] = v``), or a mutating
    container call (``self.attr.append(x)``)."""
    found: Dict[str, ast.AST] = dict(_self_attr_stores(fn))
    for node in ast.walk(fn):
        attr = None
        if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            attr = _self_attr_of(node.value)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS
        ):
            attr = _self_attr_of(node.func.value)
        if attr is not None:
            found.setdefault(attr, node)
    return found


def _self_attr_loads(fn: ast.AST) -> Set[str]:
    return {
        node.attr
        for node in ast.walk(fn)
        if _self_attr_of(node) is not None and isinstance(node.ctx, ast.Load)
    }


@register_rule
class SnapshotCompletenessRule(FlowRule):
    """Fork-snapshot classes must account for every mutable attribute.

    The fork executor ships shard state home through
    ``snapshot_state``/``restore_state``.  An attribute the class
    mutates after ``__init__`` but never snapshots is state the parent
    silently loses on gather — the bug class is *invisible* until a
    counter or protocol register reads back stale.

    Every such attribute must appear in ``_SNAPSHOT_ATTRS``, be read
    inside ``snapshot_state`` itself, or be declared in
    ``_SNAPSHOT_TRANSIENT`` — the audited opt-out for live-heap-only
    state (events, processes, in-flight buffers) that is meaningless
    across the pickle boundary because snapshots only run on quiesced
    shards.

    Methods inherited from a base class in the scanned tree count as the
    class's own (``snapshot_state`` included): what a shared base mutates
    on ``self`` is audited against each subclass's declarations.

    The same audit covers the return to boot state: a class with a
    ``boot_reset`` method (``PartitionRun.finalize`` hands every node
    through them) accounts for every attribute it changes after
    ``__init__`` — rebinding, item stores, mutating container calls.
    ``boot_reset`` names it (in its body, in a method of the class it
    calls, through a declared tuple its loop runs over) or ``_RESET_KEPT``
    lists it as kept on purpose; anything else leaks into the next job.
    """

    rule_id = "REPRO504"
    name = "snapshot-completeness"
    summary = (
        "attributes mutated outside __init__ must be snapshotted or "
        "declared _SNAPSHOT_TRANSIENT on a snapshot_state class, and "
        "reset or declared _RESET_KEPT on a boot_reset class"
    )

    _EXEMPT_METHODS = {"__init__", "snapshot_state", "restore_state", "boot_reset"}

    def analyse(
        self, symbols: SymbolTable, graph: CallGraph
    ) -> Iterable[Finding]:
        findings: List[Finding] = []
        for infos in symbols.classes.values():
            for cls_info in infos:
                methods = self._methods(symbols, cls_info, set())
                snap = methods.get("snapshot_state")
                if snap is not None:
                    findings.extend(self._check_class(cls_info, snap, methods))
                if "boot_reset" in methods:
                    findings.extend(self._check_reset(cls_info, methods))
        return findings

    def _methods(self, symbols: SymbolTable, cls_info, seen: Set[int]) -> Dict:
        """``cls_info``'s methods by name, inherited ones included (a
        definition nearer the class wins, as in the MRO)."""
        seen.add(id(cls_info))
        methods: Dict = {}
        for base in reversed(cls_info.bases):
            for base_info in symbols.classes.get(base, []):
                if id(base_info) not in seen:
                    methods.update(self._methods(symbols, base_info, seen))
        methods.update(cls_info.methods)
        return methods

    def _unaccounted(self, methods, covered: Set[str], changes, message: str):
        """One finding per attribute outside ``covered`` that a method
        (the exempt ones apart) changes, at the first such place by line;
        ``changes`` maps a function to ``{attr: node}``."""
        first: Dict[str, Tuple[ast.AST, FunctionInfo]] = {}
        for name, method in sorted(methods.items()):
            if name in self._EXEMPT_METHODS:
                continue
            for attr, node in changes(method.node).items():
                prev = first.get(attr)
                if attr not in covered and (
                    prev is None or node.lineno < prev[0].lineno
                ):
                    first[attr] = (node, method)
        return [
            self.finding_at(first[attr][1], first[attr][0], message.format(attr=attr))
            for attr in sorted(first)
        ]

    def _check_class(self, cls_info, snap, methods) -> Iterable[Finding]:
        cls = cls_info.node
        attrs = _class_str_tuple(cls, "_SNAPSHOT_ATTRS") or set()
        transient = _class_str_tuple(cls, "_SNAPSHOT_TRANSIENT") or set()
        findings = self._unaccounted(
            methods,
            attrs | transient | _self_attr_loads(snap.node),
            _self_attr_stores,
            f"{cls.name}.{{attr}} is mutated outside __init__ but missing "
            "from snapshot_state; add it to _SNAPSHOT_ATTRS (or declare it "
            "in _SNAPSHOT_TRANSIENT if it is live-heap-only state a "
            "quiesced-shard snapshot never carries)",
        )

        # Restore symmetry: a hand-written restore_state must write back
        # every _SNAPSHOT_ATTRS entry (a generic setattr loop covers all).
        restore = methods.get("restore_state")
        if restore is not None and not any(
            isinstance(node, ast.Call) and _callee(node) == "setattr"
            for node in ast.walk(restore.node)
        ):
            for attr in sorted(attrs - set(_self_attr_stores(restore.node))):
                findings.append(
                    self.finding_at(
                        restore,
                        restore.node,
                        f"{cls.name}.restore_state never restores '{attr}' "
                        "from _SNAPSHOT_ATTRS; the fork gather would drop it",
                    )
                )
        return findings

    def _check_reset(self, cls_info, methods) -> Iterable[Finding]:
        """``boot_reset`` completeness (class docstring)."""
        cls = cls_info.node
        named = _class_str_tuple(cls, "_RESET_KEPT") or set()
        todo = ["boot_reset"]
        while todo:  # every ``self.name`` boot_reset reaches
            name = todo.pop()
            if name in named:
                continue
            named.add(name)
            if name in methods:  # a method of the class: what it names
                todo += filter(None, map(_self_attr_of, ast.walk(methods[name].node)))
            else:  # a declared tuple (the generic loop's): its elements
                todo += _class_str_tuple(cls, name) or ()
        return self._unaccounted(
            methods,
            named,
            _self_attr_mutations,
            f"{cls.name}.{{attr}} is mutated outside __init__ but boot_reset "
            "neither resets it nor keeps it on purpose: a finalized node "
            "would carry it into the next job; reset it in boot_reset or "
            "declare it in _RESET_KEPT",
        )
