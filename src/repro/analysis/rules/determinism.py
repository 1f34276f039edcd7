"""Determinism rules (REPRO1xx).

The QCDOC acceptance story is *bit-exact repeatability*: a five-day
128-node evolution re-run had to produce identical results in all bits
(paper section 4).  The software twin inherits that bar, so anything
that injects wall-clock time, ambient environment, global RNG state, or
hash/set iteration order into simulated or distributed code is a bug by
construction — these rules make it a lint failure instead of a
Hypothesis counterexample three PRs later.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.engine import Finding, Project, Rule, register_rule
from repro.analysis.visitor import dotted_name, is_set_expression, iter_calls

#: call targets that read the wall clock or the ambient environment
_WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "datetime.now",
        "datetime.utcnow",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "date.today",
        "os.getenv",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)


@register_rule
class NoWallclockRule(Rule):
    """No wall-clock, environment, or entropy reads in simulator code.

    Simulated time is :attr:`repro.sim.core.Simulator.now`; anything a
    node program or machine unit does must be a pure function of the
    event heap and the seeded RNG streams.
    """

    rule_id = "REPRO101"
    name = "no-wallclock"
    summary = (
        "sim/distributed code must not read wall-clock time, os.environ, "
        "or entropy sources (determinism)"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            for call in module.calls:
                target = dotted_name(call.func)
                if target in _WALLCLOCK_CALLS:
                    yield self.finding(
                        module,
                        call,
                        f"call to {target}() breaks bit-exact repeatability; "
                        "use sim.now / seeded rng_stream instead",
                    )
            for node in module.nodes:
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr == "environ"
                    and dotted_name(node) == "os.environ"
                ):
                    yield self.finding(
                        module,
                        node,
                        "os.environ read in simulator code: configuration must "
                        "arrive through explicit parameters",
                    )


@register_rule
class SeededRngOnlyRule(Rule):
    """All randomness flows through ``repro.util.rng`` named streams.

    Global-state RNG (``random.*``, ``np.random.<sampler>``,
    ``np.random.default_rng()`` / ``np.random.seed``) depends on call
    order and process history; :func:`repro.util.rng.rng_stream`
    derives every stream from ``(seed, name)`` so creation order cannot
    change a single bit.
    """

    rule_id = "REPRO102"
    name = "seeded-rng-only"
    summary = (
        "no random.* or np.random.* entry points outside util/rng.py; "
        "derive streams from rng_stream(seed, name)"
    )

    #: the one module allowed to touch numpy's RNG constructors
    _HOME = "repro/util/rng.py"

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            if module.is_module(self._HOME):
                continue
            for stmt in module.nodes:
                if isinstance(stmt, ast.Import):
                    for alias in stmt.names:
                        if alias.name == "random":
                            yield self.finding(
                                module,
                                stmt,
                                "import of stdlib 'random' (global-state RNG); "
                                "use repro.util.rng streams",
                            )
                elif isinstance(stmt, ast.ImportFrom):
                    if stmt.module == "random":
                        yield self.finding(
                            module,
                            stmt,
                            "from-import of stdlib 'random'; use repro.util.rng",
                        )
            for call in module.calls:
                target = dotted_name(call.func)
                if target.startswith(("np.random.", "numpy.random.")):
                    yield self.finding(
                        module,
                        call,
                        f"direct {target}() call: construct generators only in "
                        "repro.util.rng (order-independent named streams)",
                    )


def _iteration_sites(nodes: Iterable[ast.AST]) -> Iterator[ast.expr]:
    """Expressions whose iteration order becomes program behaviour."""
    for node in nodes:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                yield gen.iter
        elif isinstance(node, ast.Call):
            target = dotted_name(node.func)
            # materialisations that freeze an ordering
            if target in ("list", "tuple", "enumerate") and node.args:
                yield node.args[0]
            elif target.endswith(".join") and node.args:
                yield node.args[0]


@register_rule
class OrderedIterationRule(Rule):
    """No iteration over unordered sets where the order can escape.

    A ``for`` loop (or comprehension / ``list(...)`` / ``"".join(...)``)
    over a set literal, set comprehension, ``set()``/``frozenset()``
    call, or ``Trace.tags()`` result has hash order; on the wire or in a
    trace that is nondeterminism.  Wrap the expression in ``sorted()``.
    """

    rule_id = "REPRO103"
    name = "ordered-iteration"
    summary = (
        "no for-loops/comprehensions/materialisations over set "
        "expressions; wrap in sorted() so order is canonical"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            for iter_expr in _iteration_sites(module.nodes):
                if is_set_expression(iter_expr):
                    yield self.finding(
                        module,
                        iter_expr,
                        "iteration over a set expression has hash order; wrap "
                        "in sorted() before the order can reach the wire or "
                        "the trace",
                    )


#: attribute names (underscore-insensitive) that hold cross-shard message
#: buffers; their drain order *is* cross-shard event order
_CROSS_SHARD_BUFFERS = frozenset(
    {
        "outbox",
        "outboxes",
        "mailbox",
        "mailboxes",
        "pending_posts",
        "cross_posts",
        "coordinator_box",
    }
)


@register_rule
class CrossShardIterationRule(Rule):
    """Cross-shard message buffers drain only through ``sorted()``.

    The sharded event engine's determinism contract pins barrier delivery
    to the ``(time, src_shard, src_seq)`` total order
    (:mod:`repro.sim.sync`).  A bare ``for`` loop (or comprehension /
    ``list()`` / ``enumerate()`` materialisation) over an outbox/mailbox
    attribute replays whatever insertion order this particular executor
    produced — which differs between the serial and forked executors and
    across shard counts.  Wrap the buffer in ``sorted(...)`` keyed on the
    post's canonical order before the contents can act.
    """

    rule_id = "REPRO104"
    name = "cross-shard-order"
    summary = (
        "cross-shard outbox/mailbox buffers must be drained in sorted() "
        "order, never raw insertion order"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            for iter_expr in _iteration_sites(module.nodes):
                if (
                    isinstance(iter_expr, ast.Attribute)
                    and iter_expr.attr.lstrip("_") in _CROSS_SHARD_BUFFERS
                ):
                    yield self.finding(
                        module,
                        iter_expr,
                        f"iteration over cross-shard buffer "
                        f"{iter_expr.attr!r} in raw insertion order; drain "
                        "through sorted(...) on the canonical post order",
                    )


#: numpy entry points that allocate a fresh array buffer.  The hot-path
#: contract (see :mod:`repro.util.hotpath`) bans all of these inside
#: ``@hot_path`` bodies — steady-state dslash/CG must run at a flat
#: memory footprint out of context-owned scratch.
_NP_ALLOCATORS = frozenset(
    {
        "zeros",
        "empty",
        "ones",
        "full",
        "zeros_like",
        "empty_like",
        "ones_like",
        "full_like",
        "array",
        "asarray",
        "ascontiguousarray",
        "asfortranarray",
        "copy",
        "concatenate",
        "stack",
        "vstack",
        "hstack",
        "dstack",
        "column_stack",
        "tile",
        "repeat",
        "arange",
        "linspace",
        "eye",
        "identity",
        "outer",
        "kron",
        "pad",
    }
)


def _is_hot_path_def(node: ast.AST) -> bool:
    """True for a function definition carrying the ``@hot_path`` tag."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if dotted_name(target).split(".")[-1] == "hot_path":
            return True
    return False


@register_rule
class NoAllocationInHotLoopRule(Rule):
    """No numpy allocation calls inside ``@hot_path`` functions.

    The zero-copy contract: every buffer the steady-state dslash/CG
    pipeline touches is preallocated once by the operator context, so a
    solver iterating thousands of times runs allocation-free (the
    software analogue of the SCU's in-place DMA staging).  Any
    ``np.zeros``/``np.empty``/``np.concatenate``/``.copy()``/... call in
    a tagged body defeats that — move the allocation to ``__init__`` and
    use the ``out=`` kernel forms (``a.take(..., out=)``,
    ``np.copyto``, ``np.einsum(..., out=)``).  The same contract is
    enforced at runtime by ``tests/test_hotpath_alloc.py``.

    ``np.take`` is refused too: it allocates nothing, but it reaches the
    gather through numpy's Python wrapper, which on a small tile costs
    more than the gather (3.5 µs against 1.2–1.6 µs for ``a.take`` on a
    16-site half spinor).  The method form is the same C call.
    """

    rule_id = "REPRO105"
    name = "no-allocation-in-hot-loop"
    summary = (
        "@hot_path functions must not call numpy allocators "
        "(np.zeros/np.empty/.copy()/...) or np.take; preallocate in "
        "__init__ and use out= kernel forms, take as a method"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            for node in module.nodes:
                if not _is_hot_path_def(node):
                    continue
                for call in iter_calls(node):
                    target = dotted_name(call.func)
                    parts = target.split(".")
                    if (
                        len(parts) >= 2
                        and parts[0] in ("np", "numpy")
                        and parts[-1] in _NP_ALLOCATORS
                    ):
                        yield self.finding(
                            module,
                            call,
                            f"{target}() allocates inside @hot_path "
                            f"{node.name!r}; preallocate context scratch and "
                            "use the out= form",
                        )
                    elif target in ("np.take", "numpy.take"):
                        yield self.finding(
                            module,
                            call,
                            f"{target}() goes through numpy's Python wrapper "
                            f"inside @hot_path {node.name!r}; call "
                            "a.take(..., out=) on the array",
                        )
                    elif len(parts) >= 2 and parts[-1] == "copy" and parts[0] not in (
                        "copy",
                        "copyreg",
                    ):
                        yield self.finding(
                            module,
                            call,
                            f"{target}() allocates a fresh array inside "
                            f"@hot_path {node.name!r}; use np.copyto into "
                            "context scratch",
                        )
