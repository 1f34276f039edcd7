"""The REPRO5xx rules: the ones that read the project's symbol table
and call graph (:attr:`repro.analysis.engine.Project.symbols`,
:attr:`~repro.analysis.engine.Project.graph`).

Ambiguity policy: Python call sites resolve by *name*, so a site can
bind to several definitions.  Every rule here fires only when the
analysis verdict holds for **all** candidates — recall is traded for a
zero false-positive budget, because these rules gate CI.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, Optional, Sequence, Set, Tuple

from repro.analysis.engine import Finding, Project, Rule, register_rule
from repro.analysis.flow.callgraph import resolve
from repro.analysis.flow.dataflow import dead_stores, dropped_calls, returns_source
from repro.analysis.flow.symbols import FunctionInfo
from repro.analysis.visitor import attr_chain, dotted_name, iter_calls

#: methods that start SCU traffic and return a completion event,
#: regardless of the receiver expression
_SEND_FAMILY_ALWAYS = frozenset(
    {
        "send_buffer",
        "recv_buffer",
        "start_stored",
        "start_stored_events",
        "send_supervisor",
    }
)

#: ambiguous method names that count only on comms-ish receivers
#: (`api.send(...)`, `scu.recv(...)` — not `_ControlPort.send`, which is
#: the link-level fire-and-forget control path, or arbitrary queues)
_SEND_FAMILY_ON = {
    "send": {"api", "scu"},
    "recv": {"api", "scu"},
    "global_sum": {"api", "globals"},
    "barrier": {"api"},
}


def _is_send_call(call: ast.Call) -> bool:
    """A send-family call: it starts SCU traffic and returns the event
    that says when the transfer is done."""
    chain = attr_chain(call.func)
    method, base = chain[-1], (chain[-2] if len(chain) >= 2 else None)
    return method in _SEND_FAMILY_ALWAYS or base in _SEND_FAMILY_ON.get(method, ())


def _scopes(
    node: ast.AST, cls: Optional[str] = None
) -> Iterator[Tuple[ast.AST, Optional[str]]]:
    """Every def under ``node`` — methods and defs nested in functions
    alike — with the class its ``self`` names (a nested def shares its
    method's)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child, cls
        yield from _scopes(child, child.name if isinstance(child, ast.ClassDef) else cls)


@register_rule
class SendCompletionRule(Rule):
    """Every SCU completion event must be consumed, through wrappers too.

    A send-family call (``api.send``, ``scu.recv``, ``start_stored``,
    ``send_supervisor``, ``api.global_sum``, ...) returns the only handle
    proving the DMA engine is done with the buffer.  So does a function
    that *returns* such an event (directly, through a local, or inside a
    container) or another such function's result.  Dropping either — a
    bare expression statement, or a store to a name that is never read —
    leaves the transfer without a completion wait.  ``yield``, ``return``,
    a read of the stored name, or handing it to ``wait``/``wait_any``/
    ``all_of`` consume it.  Module-level code and defs nested in functions
    are checked like every other body, each statement once.
    """

    rule_id = "REPRO501"
    name = "send-completion-consumed"
    summary = (
        "SCU send/recv/start_stored/supervisor calls, and functions "
        "returning their completion events, must have the event consumed "
        "at every call site, never discarded"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        symbols = project.symbols
        derived: Set[str] = set()  # qualnames of event-returning functions

        def event_call(cls: Optional[str], call: ast.Call) -> bool:
            """A send-family call, or one every candidate of which is
            derived."""
            if _is_send_call(call):
                return True
            candidates = resolve(call, cls, symbols)
            return bool(candidates) and all(c.qualname in derived for c in candidates)

        changed = True
        while changed:
            changed = False
            for info in symbols.all_functions():
                if info.qualname not in derived and returns_source(
                    info.node, lambda call, cls=info.cls: event_call(cls, call)
                ):
                    derived.add(info.qualname)
                    changed = True

        for module in project.modules:
            for scope, cls in [(module.tree, None), *_scopes(module.tree)]:

                def matches(call: ast.Call, cls: Optional[str] = cls) -> bool:
                    return event_call(cls, call)

                for call in dropped_calls(scope, matches):
                    yield self.finding(
                        module,
                        call,
                        f"completion event of {dotted_name(call.func)}() is "
                        "discarded; yield it (or hand it to wait/wait_any) so "
                        "the transfer has a completion wait on every path",
                    )
                for name, call in dead_stores(scope, matches):
                    yield self.finding(
                        module,
                        call,
                        f"completion event of {dotted_name(call.func)}() is "
                        f"assigned to '{name}' but never consumed on any "
                        "path; wait on it, return it, or register a "
                        "completion callback",
                    )


#: flop-bearing kernels: each call performs O(volume) complex
#: arithmetic the machine must charge.  The inner products (``vdot``,
#: ``site_inner``) stand for a solver's whole vector algebra: the Krylov
#: core is shared with the serial path and charges nothing, so the
#: machine-side dot charges the iteration's axpys with its own flops.
_NUMPY_KERNELS_NP = frozenset({"einsum", "matmul", "tensordot", "vdot"})
_NUMPY_KERNELS_FREE = frozenset(
    {
        "cmatvec_site_fastest",
        "spin_project",
        "reconstruct_lower",
        "apply_spin_matrix",
        "apply_spin_matrix_site_fastest",
        "site_inner",
    }
)


def _is_numpy_kernel(call: ast.Call) -> bool:
    chain = attr_chain(call.func)
    name = chain[-1]
    base = chain[-2] if len(chain) >= 2 else None
    if name in _NUMPY_KERNELS_NP and base in ("np", "numpy"):
        return True
    return name in _NUMPY_KERNELS_FREE


def _names_kernel(call: ast.Call) -> bool:
    return any(kw.arg == "kernel" for kw in call.keywords)


@register_rule
class FlopChargeCoverageRule(Rule):
    """Flops in the parallel layer are charged, and charged by kernel.

    The measured-vs-model crosscheck is only as good as the charging
    discipline.  Two audits of ``repro.parallel``:

    * every ``api.compute(...)`` charge passes ``kernel=`` — an untagged
      charge lands in the anonymous bucket of
      :attr:`repro.machine.node.Node.kernel_flops`, and the per-kernel
      ledger (and the Chrome-trace lanes) lie by omission;
    * every function that runs an operator kernel (``np.einsum``,
      ``cmatvec_site_fastest``, spin projection / reconstruction, spin
      matrices, the machine-side
      inner products) either charges ``compute(..., kernel=...)`` itself
      (or through a package function it calls that does) or is
      reachable *only* through callers that do.  A helper reachable
      from an uncharging entry point computes real flops the telemetry
      books never see; helpers like face projection stay charge-free
      because every caller charges for them.
    """

    rule_id = "REPRO503"
    name = "flop-charge-coverage"
    summary = (
        "api.compute(...) in repro.parallel must pass kernel=, and numpy "
        "operator kernels there must be charged somewhere on every call "
        "chain that reaches them"
    )

    #: the package this rule audits (fixtures use any 'parallel' dir)
    package = "parallel"

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            if module.package != self.package:
                continue
            for call in module.calls:
                chain = attr_chain(call.func)
                if chain[-1] == "compute" and chain[-2:-1] in ([], ["api"]):
                    if not _names_kernel(call):
                        yield self.finding(
                            module,
                            call,
                            "compute() charge without kernel= tag; untagged "
                            "flops break per-kernel attribution in telemetry",
                        )
        yield from self._coverage(project)

    def _coverage(self, project: Project) -> Iterable[Finding]:
        in_pkg: Dict[str, FunctionInfo] = {
            info.qualname: info
            for info in project.symbols.all_functions()
            if info.module.package == self.package
        }
        graph = project.graph

        def charges(qualname: str, via_callee: bool = True) -> bool:
            """Calls ``compute(..., kernel=)`` itself, or through a package
            function it calls that does (a machine dot's ``ctx.charge``)."""
            if any(
                attr_chain(node.func)[-1] == "compute" and _names_kernel(node)
                for node in iter_calls(in_pkg[qualname].node)
            ):
                return True
            return via_callee and any(
                charges(c, False) for c in graph.callees_of(qualname) if c in in_pkg
            )

        roots = [
            q for q in in_pkg if not any(c in in_pkg for c in graph.callers_of(q))
        ]

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

        for qualname in sorted(unprotected):
            info = in_pkg[qualname]
            kernel_calls = [c for c in iter_calls(info.node) if _is_numpy_kernel(c)]
            if not kernel_calls:
                continue
            first = min(kernel_calls, key=lambda c: (c.lineno, c.col_offset))
            yield self.finding(
                info.module,
                first,
                f"operator kernel {dotted_name(first.func)}() runs in "
                f"{qualname.split('::')[-1]}() but no call chain "
                "reaching it charges compute(..., kernel=...); the "
                "flop books will not see this work",
            )


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
class SnapshotCompletenessRule(Rule):
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

    def check(self, project: Project) -> Iterable[Finding]:
        symbols = project.symbols
        for infos in symbols.classes.values():
            for cls_info in infos:
                methods = self._methods(symbols, cls_info, set())
                snap = methods.get("snapshot_state")
                if snap is not None:
                    yield from self._check_class(cls_info, snap, methods)
                if "boot_reset" in methods:
                    yield from self._check_reset(cls_info, methods)

    def _methods(self, symbols, cls_info, seen: Set[int]) -> Dict:
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
            self.finding(
                first[attr][1].module, first[attr][0], message.format(attr=attr)
            )
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
            attr_chain(call.func)[-1] == "setattr"
            for call in iter_calls(restore.node)
        ):
            for attr in sorted(attrs - set(_self_attr_stores(restore.node))):
                findings.append(
                    self.finding(
                        restore.module,
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
