"""Declarative spec of the SCU resend protocol + AST conformance.

The protocol the paper describes (section 2.3, "three in the air" /
automatic resend) is implemented twice in this repository: once for
real in :mod:`repro.machine.scu`, and once as the bounded model in
:mod:`repro.analysis.protocol.model`.  The glue that stops the two
from drifting is this module: every guard the model relies on is named
by a :class:`SpecToggles` flag, and for every flag there is an AST
matcher that proves the *production* handler still contains that
guard.  Mutating either side — deleting the ack-window check from
``scu.py``, or clearing the toggle in the model — is caught: the
former by :func:`check_conformance`, the latter by the exhaustive
enumeration finding a violation.

The matchers are structural, not textual: they locate the handler
method in the parsed tree and assert the shape of the guard (the
comparison operands and the guarded action), so refactors that keep
the semantics keep the match.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional


@dataclass(frozen=True)
class SpecToggles:
    """One flag per load-bearing guard of the resend protocol.

    The bounded model consults these when enumerating transitions; the
    conformance pass checks each enabled flag has its guard present in
    ``scu.py``.  Clearing a flag is how the verifier's mutation tests
    seed a spec bug.
    """

    #: sender transmits only while ``next - base < window`` ("three in
    #: the air"): dropping it overruns the receiver's idle-hold registers
    ack_window_guard: bool = True
    #: sender's ``on_ack`` advances ``base`` only for ``seq > base``
    ack_monotonic: bool = True
    #: sender's ``on_resend`` rewinds ``next`` to ``max(seq, base)``,
    #: never behind already-acknowledged words
    resend_rewind_floor: bool = True
    #: receiver requests a resend of a corrupt word (automatic resend)
    corrupt_resend: bool = True
    #: receiver re-requests ``expected`` when a gap frame arrives
    gap_resend: bool = True
    #: receiver re-acknowledges duplicates so the window re-opens
    dup_reack: bool = True
    #: ... but NOT during idle receive: held words must not return
    #: window credit (else the sender EOTs an unaccepted transfer)
    idle_dup_silence: bool = True
    #: receiver bounds idle-receive holding at ``idle_hold_words``
    idle_hold_guard: bool = True
    #: receiver discards data frames while a finished transfer's EOT is
    #: still owed (FIFO wire => they are stale resend duplicates); the
    #: enumeration found the hold-the-stale-duplicate bug this fixes
    stale_eot_filter: bool = True
    #: sender emits EOT only after the window drains (``base == n``),
    #: never merely after the last transmit (``next == n``)
    eot_after_drain: bool = True
    #: receiver validates every EOT against the owed-EOT FIFO
    eot_accounting: bool = True


DEFAULT_SPEC = SpecToggles()


#: transition spec, for documentation and the conformance report:
#: (toggle, class, handler, what the guard does)
TRANSITIONS = (
    ("ack_window_guard", "SendUnit", "_pump",
     "transmit only while in_flight < window"),
    ("ack_monotonic", "SendUnit", "on_ack",
     "advance base only for seq > base"),
    ("resend_rewind_floor", "SendUnit", "on_resend",
     "rewind next to max(seq, base)"),
    ("corrupt_resend", "RecvUnit", "on_data",
     "RESEND the seq of a corrupt frame"),
    ("gap_resend", "RecvUnit", "on_data",
     "RESEND expected when a gap frame arrives"),
    ("dup_reack", "RecvUnit", "on_data",
     "re-ACK expected for duplicate frames"),
    ("idle_dup_silence", "RecvUnit", "on_data",
     "drop duplicates without re-ack while unposted"),
    ("idle_hold_guard", "RecvUnit", "on_data",
     "cap idle-receive holding at idle_hold_words"),
    ("stale_eot_filter", "RecvUnit", "on_data",
     "discard stale duplicates while an EOT is owed"),
    ("eot_after_drain", "SendUnit", "_pump",
     "return from the frame branch while base < n; EOT after it"),
    ("eot_accounting", "RecvUnit", "on_eot",
     "check every EOT against the owed-EOT FIFO"),
)


# ---------------------------------------------------------------------------
# AST helpers
# ---------------------------------------------------------------------------


def _find_method(tree: ast.Module, cls: str, method: str) -> Optional[ast.FunctionDef]:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == method:
                    return item
    return None


def _is_self_attr(node: ast.AST, attr: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _is_name(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


def _control_send(call: ast.AST, ptype: str) -> bool:
    """``self.control.send(PacketType.<ptype>, ...)``"""
    if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)):
        return False
    if call.func.attr != "send" or not call.args:
        return False
    first = call.args[0]
    return (
        isinstance(first, ast.Attribute)
        and first.attr == ptype
        and isinstance(first.value, ast.Name)
        and first.value.id == "PacketType"
    )


def _branch_sends(branch: List[ast.stmt], ptype: str) -> bool:
    for stmt in branch:
        for node in ast.walk(stmt):
            if _control_send(node, ptype):
                return True
    return False


# ---------------------------------------------------------------------------
# matchers — one per toggle
# ---------------------------------------------------------------------------


def _match_ack_window_guard(tree: ast.Module) -> bool:
    """``_pump`` guards transmission on ``in_flight < self.window``."""
    fn = _find_method(tree, "SendUnit", "_pump")
    if fn is None:
        return False
    for node in ast.walk(fn):
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            left, op, right = node.left, node.ops[0], node.comparators[0]
            if (
                isinstance(op, ast.Lt)
                and _is_name(left, "in_flight")
                and _is_self_attr(right, "window")
            ):
                return True
    return False


def _match_ack_monotonic(tree: ast.Module) -> bool:
    """``on_ack`` assigns ``base = seq`` only under ``seq > self.base``."""
    fn = _find_method(tree, "SendUnit", "on_ack")
    if fn is None:
        return False
    for node in ast.walk(fn):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        guarded = (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Gt)
            and _is_name(test.left, "seq")
            and _is_self_attr(test.comparators[0], "base")
        )
        if not guarded:
            continue
        for stmt in ast.walk(node):
            if (
                isinstance(stmt, ast.Assign)
                and any(_is_self_attr(t, "base") for t in stmt.targets)
                and _is_name(stmt.value, "seq")
            ):
                return True
    return False


def _match_resend_rewind_floor(tree: ast.Module) -> bool:
    """``on_resend`` sets ``next = max(seq, self.base)``."""
    fn = _find_method(tree, "SendUnit", "on_resend")
    if fn is None:
        return False
    for node in ast.walk(fn):
        if not (
            isinstance(node, ast.Assign)
            and any(_is_self_attr(t, "next") for t in node.targets)
        ):
            continue
        value = node.value
        if (
            isinstance(value, ast.Call)
            and _is_name(value.func, "max")
            and len(value.args) == 2
            and _is_name(value.args[0], "seq")
            and _is_self_attr(value.args[1], "base")
        ):
            return True
    return False


def _corrupt_branch(fn: ast.FunctionDef) -> Optional[List[ast.stmt]]:
    """The ``if frame.is_corrupt():`` body of ``on_data``."""
    for node in ast.walk(fn):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        if (
            isinstance(test, ast.Call)
            and isinstance(test.func, ast.Attribute)
            and test.func.attr == "is_corrupt"
        ):
            return node.body
    return None


def _match_corrupt_resend(tree: ast.Module) -> bool:
    fn = _find_method(tree, "RecvUnit", "on_data")
    if fn is None:
        return False
    branch = _corrupt_branch(fn)
    return branch is not None and _branch_sends(branch, "RESEND")


def _seq_mismatch_if(fn: ast.FunctionDef) -> Optional[ast.If]:
    """The ``if frame.seq != self.expected:`` dispatcher of ``on_data``."""
    for node in ast.walk(fn):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.NotEq)
            and _is_self_attr(test.comparators[0], "expected")
        ):
            return node
    return None


def _match_gap_resend(tree: ast.Module) -> bool:
    fn = _find_method(tree, "RecvUnit", "on_data")
    if fn is None:
        return False
    outer = _seq_mismatch_if(fn)
    if outer is None:
        return False
    for node in ast.walk(outer):
        if (
            isinstance(node, ast.If)
            and isinstance(node.test, ast.Compare)
            and len(node.test.ops) == 1
            and isinstance(node.test.ops[0], ast.Gt)
            and _is_self_attr(node.test.comparators[0], "expected")
        ):
            return _branch_sends(node.body, "RESEND")
    return False


def _match_dup_reack(tree: ast.Module) -> bool:
    fn = _find_method(tree, "RecvUnit", "on_data")
    if fn is None:
        return False
    outer = _seq_mismatch_if(fn)
    if outer is None:
        return False
    for node in ast.walk(outer):
        if (
            isinstance(node, ast.If)
            and isinstance(node.test, ast.Compare)
            and len(node.test.ops) == 1
            and isinstance(node.test.ops[0], ast.Gt)
            and _is_self_attr(node.test.comparators[0], "expected")
        ):
            return _branch_sends(node.orelse, "ACK")
    return False


def _match_idle_dup_silence(tree: ast.Module) -> bool:
    """The duplicate branch returns early when no descriptor is posted."""
    fn = _find_method(tree, "RecvUnit", "on_data")
    if fn is None:
        return False
    outer = _seq_mismatch_if(fn)
    if outer is None:
        return False
    for node in ast.walk(outer):
        if not (
            isinstance(node, ast.If)
            and isinstance(node.test, ast.Compare)
            and len(node.test.ops) == 1
            and isinstance(node.test.ops[0], ast.Gt)
            and _is_self_attr(node.test.comparators[0], "expected")
        ):
            continue
        # inside the duplicate (orelse) branch: an If on the descriptor
        # whose body returns before any ACK is sent
        for sub in node.orelse:
            for inner in ast.walk(sub):
                if not isinstance(inner, ast.If):
                    continue
                tests_descriptor = any(
                    _is_self_attr(piece, "descriptor")
                    for piece in ast.walk(inner.test)
                )
                returns = any(
                    isinstance(piece, ast.Return)
                    for stmt in inner.body
                    for piece in ast.walk(stmt)
                )
                if tests_descriptor and returns:
                    return True
    return False


def _match_idle_hold_guard(tree: ast.Module) -> bool:
    """``on_data`` raises when holding would exceed ``idle_hold_words``."""
    fn = _find_method(tree, "RecvUnit", "on_data")
    if fn is None:
        return False
    for node in ast.walk(fn):
        if not isinstance(node, ast.If):
            continue
        mentions_cap = any(
            isinstance(sub, ast.Attribute) and sub.attr == "idle_hold_words"
            for sub in ast.walk(node.test)
        )
        if not mentions_cap:
            continue
        raises = any(isinstance(sub, ast.Raise) for stmt in node.body
                     for sub in ast.walk(stmt))
        if raises:
            return True
    return False


def _match_stale_eot_filter(tree: ast.Module) -> bool:
    """``on_data`` returns early while ``_eot_due`` is non-empty."""
    fn = _find_method(tree, "RecvUnit", "on_data")
    if fn is None:
        return False
    for node in ast.walk(fn):
        if not isinstance(node, ast.If):
            continue
        guards_fifo = any(
            isinstance(sub, ast.Attribute) and sub.attr == "_eot_due"
            for sub in ast.walk(node.test)
        )
        if not guards_fifo:
            continue
        returns = any(
            isinstance(sub, ast.Return)
            for stmt in node.body
            for sub in ast.walk(stmt)
        )
        if returns:
            return True
    return False


def _match_eot_after_drain(tree: ast.Module) -> bool:
    """``_pump``'s frame branch sits under ``if self.base < n:`` (window
    not drained) and returns; the EOT transmit comes after it."""
    fn = _find_method(tree, "SendUnit", "_pump")
    if fn is None:
        return False
    for i, stmt in enumerate(fn.body):
        if not isinstance(stmt, ast.If):
            continue
        test = stmt.test
        guards_on_base = (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Lt)
            and _is_self_attr(test.left, "base")
        )
        if not guards_on_base or not isinstance(stmt.body[-1], ast.Return):
            continue
        # an EOT transmit must follow the branch
        for later in fn.body[i + 1 :]:
            for node in ast.walk(later):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr == "EOT"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "PacketType"
                ):
                    return True
    return False


def _match_eot_accounting(tree: ast.Module) -> bool:
    """``on_eot`` consults the owed-EOT FIFO and raises on mismatch."""
    fn = _find_method(tree, "RecvUnit", "on_eot")
    if fn is None:
        return False
    touches_fifo = any(
        isinstance(node, ast.Attribute) and node.attr == "_eot_due"
        for node in ast.walk(fn)
    )
    raises = any(isinstance(node, ast.Raise) for node in ast.walk(fn))
    return touches_fifo and raises


_MATCHERS: Dict[str, Callable[[ast.Module], bool]] = {
    "ack_window_guard": _match_ack_window_guard,
    "ack_monotonic": _match_ack_monotonic,
    "resend_rewind_floor": _match_resend_rewind_floor,
    "corrupt_resend": _match_corrupt_resend,
    "gap_resend": _match_gap_resend,
    "dup_reack": _match_dup_reack,
    "idle_dup_silence": _match_idle_dup_silence,
    "idle_hold_guard": _match_idle_hold_guard,
    "stale_eot_filter": _match_stale_eot_filter,
    "eot_after_drain": _match_eot_after_drain,
    "eot_accounting": _match_eot_accounting,
}

assert {name for name, *_ in TRANSITIONS} == set(_MATCHERS)
assert {f.name for f in fields(SpecToggles)} == set(_MATCHERS)


def check_conformance(
    source: str, spec: SpecToggles = DEFAULT_SPEC
) -> List[str]:
    """Check ``scu.py`` source implements every guard the spec enables.

    Returns a list of human-readable failures (empty = conformant).
    A toggle the spec *disables* is skipped: the model then also runs
    without that guard, so model and code stay in step either way.
    """
    tree = ast.parse(source)
    failures = []
    for name, cls, method, what in TRANSITIONS:
        if not getattr(spec, name):
            continue
        if not _MATCHERS[name](tree):
            failures.append(
                f"{name}: {cls}.{method} no longer implements "
                f"'{what}' (spec/code drift)"
            )
    return failures
