"""Bounded enumeration of the production SCU link protocol (DESIGN.md §14).

The paper's link protocol (section 2.2: "three in the air" acks, idle
receive, automatic resend) is checked on the code that runs it: every
case drives the real :class:`~repro.machine.scu.SendUnit` and
:class:`~repro.machine.scu.RecvUnit` of a two-node
:class:`~repro.machine.machine.QCDOCMachine` (compiled replay off), and
nothing here re-implements a transition.  A case fixes

* ``n`` — words per transfer, 1 to 4;
* ``batch`` — the machine's ``word_batch``: one word per frame, or the
  whole transfer as one frame (``"face"``);
* ``window`` — ``ASICConfig.ack_window_words``, 3 or 2 (two differs
  from three only once three single-word frames can be in flight);
* ``post`` — when the receive is posted: ``"before"`` the send, after
  the ``k``-th idle-held frame, or at the window ``"stall"`` (a ``k``
  the run never reaches posts at the stall);
* ``faults`` — up to two payload-frame indices below ``2n + 2`` whose
  frame the data wire corrupts, through the ``Frame.corrupt_bit`` field
  :meth:`~repro.machine.hssl.SerialLink.transmit` sets for bit errors
  (counted over the case's own transfers and its abort: the transfer
  that runs after an abort is fault-free);
* ``watchdog`` — the SCU watchdogs off or on;
* ``transfers`` — one transfer, or a back-to-back pair on the same link
  (the sender starts the second as its first completes, the receiver
  posts it by the same rule once its first receive completed);
* ``abort`` — ``(how, k)``: after the ``k``-th heap entry since the
  first send, for every ``k`` up to the case's own entry count, one end
  is cancelled — the sender by
  :meth:`~repro.machine.scu.SendUnit.cancel` (``"sender"``), or node 0
  or node 1 by :meth:`~repro.machine.scu.SCU.cancel_active_transfers` —
  and the other end by its unit's ``cancel`` once the wires are quiet
  (a receive unit has no drain filter of its own: cancelled while
  frames fly, it would take them for a new transfer).  The heap then
  drains, a draining node is ``boot_reset`` as a partition's finalize
  does, and a next transfer of ``n`` words runs on the same link.
  Aborts that repeat another case's are left out: a pair's before its
  second transfer starts (until then it is the single transfer), and a
  ``"stall"`` case's (fault-free, the stall comes with the last frame
  idle receive can hold, so the run is that post's); so are a faulted
  pair's and a faulted ``"stall"`` case's, to bound the run.  The
  faulted aborts, 99,186 of the 108,982 runs, come last.

Every case must deliver intact data, succeed both completion events,
keep the sender's unacknowledged window within ``window``, raise
nothing (a :class:`~repro.util.errors.ProtocolError` or any other
exception fails the run), pass
:meth:`~repro.machine.machine.QCDOCMachine.audit_checksums` and end
quiescent: no held word, no owed EOT, no descriptor, the sender
inactive, both wires empty and the heap drained.  After an abort the
next transfer is held to the same, audit included (each end sums a word
when it is acknowledged, so a cancelled transfer leaves both ends'
sums at the words the receiver accepted), and must take the simulated
seconds and heap entries it takes on a fresh machine.

The machine is deterministic, so a failing :class:`Case` printed by
``python -m repro.analysis --protocol`` replays with :func:`check`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.machine.asic import ASICConfig, MachineConfig
from repro.machine.machine import QCDOCMachine
from repro.machine.packets import PacketType
from repro.machine.scu import FACE_BATCH, DmaDescriptor

#: two nodes on a ring of two: one data wire each way per neighbour pair
DIMS = (2, 1, 1, 1, 1, 1)
#: simulated seconds a run may take: a correct one needs microseconds, a
#: tripped watchdog about three milliseconds; past this it livelocks
HORIZON = 10e-3
#: what an abort cancels first (see the module docstring)
ABORTS = ("sender", "node0", "node1")

#: a run's simulated seconds and heap entries, first send to quiescence,
#: and the entries before its last transfer started
Figures = Tuple[float, int, int]


class Case(NamedTuple):
    """One point of the bounded space (see the module docstring)."""

    n: int
    batch: object
    window: int
    post: Union[int, str]
    faults: Tuple[int, ...] = ()
    watchdog: bool = False
    transfers: int = 1
    abort: Optional[Tuple[str, int]] = None

    @property
    def next_transfer(self) -> "Case":
        """What runs on the link after this case's abort."""
        return Case(self.n, self.batch, self.window, "before", (), self.watchdog)


def cases() -> Iterator[Case]:
    """Every case of the bounds but the aborts (their ``k`` is a run's
    count), fault-free ones first; the ``k`` of a post run to the frames
    idle receive can hold."""
    for nfaults, n, batch in itertools.product(range(3), range(1, 5), (1, FACE_BATCH)):
        frames = min(n, ASICConfig.idle_hold_words) if batch == 1 else 1
        for window in (3, 2) if frames == 3 else (3,):
            posts = ("before", *range(1, min(frames, window) + 1), "stall")
            faults = itertools.combinations(range(2 * n + 2), nfaults)
            for post, fault, watchdog, transfers in itertools.product(
                posts, faults, (False, True), (1, 2)
            ):
                yield Case(n, batch, window, post, fault, watchdog, transfers)


class _Link:
    """A fresh two-node machine and the one link a case drives."""

    def __init__(self, case: Case):
        asic = replace(ASICConfig(), ack_window_words=case.window)
        m = QCDOCMachine(
            MachineConfig(asic=asic, dims=DIMS),
            word_batch=case.batch,
            watchdog=case.watchdog,
            replay=False,
        )
        m.bring_up()
        self.m, self.out = m, m.topology.direction(0, +1)
        self.back = m.topology.opposite(self.out)
        self.scus = (m.nodes[0].scu, m.nodes[1].scu)
        self.tx = self.scus[0].send_units[self.out]
        self.rx = self.scus[1].recv_units[self.back]
        data = m.network.links[(0, self.out)]
        self.wires = (data, m.network.links[(1, self.back)])
        self.widest = self.last_start = 0
        #: the payload frames the data wire corrupts, set by each exchange
        self.faults = case.faults
        if not case.faults:
            return
        frames, transmit = itertools.count(), data.transmit

        def faulty(frame):
            if frame.ptype is PacketType.NORMAL and next(frames) in self.faults:
                frame.corrupt_bit = 0
            return transmit(frame)

        data.transmit = faulty

    def quiet(self) -> bool:
        return not any(wire.in_transit for wire in self.wires)

    def exchange(self, case: Case, tag: str, stop_after: Optional[int] = None) -> list:
        """Run ``case``'s transfers to quiescence (or for ``stop_after``
        heap entries); their completion events."""
        m, (scu0, scu1), tx, rx = self.m, self.scus, self.tx, self.rx
        n, post, total = case.n, case.post, case.transfers
        self.faults = case.faults
        for i in range(total):
            m.nodes[0].memory.alloc(f"{tag}tx{i}", payload(tag, i, n))
            m.nodes[1].memory.alloc(f"{tag}rx{i}", np.zeros(n, dtype=np.uint64))
        sends, recvs = [], []
        first = m.sim.events_processed

        def step() -> bool:
            if tx.active and tx.next - tx.base > self.widest:
                self.widest = tx.next - tx.base
            if stop_after is not None and m.sim.events_processed - first >= stop_after:
                return True
            if (
                len(recvs) < total
                and (not recvs or recvs[-1].triggered)
                and (
                    post == "before"
                    or len(recvs) < len(sends)
                    and (
                        isinstance(post, int) and len(rx.held) >= post
                        or tx._waiting and self.quiet()
                    )
                )
            ):
                desc = DmaDescriptor(f"{tag}rx{len(recvs)}", n)
                recvs.append(scu1.recv(self.back, desc))
            if len(sends) < total and (not sends or sends[-1].triggered):
                self.last_start = m.sim.events_processed - first
                desc = DmaDescriptor(f"{tag}tx{len(sends)}", n)
                sends.append(scu0.send(self.out, desc))
            # each transfer starts once the one before it completed
            return len(recvs) == total and recvs[-1].triggered and sends[-1].triggered

        m.sim.run(stop=step, max_time=m.sim.now + HORIZON)
        if stop_after is None:
            m.sim.run(max_time=m.sim.now + HORIZON)  # trailing EOTs, stale probes
        return sends + recvs

    def abort(self, how: str) -> None:
        """Cancel ``how``'s end now and the other once the wires are
        quiet, drain, and ``boot_reset`` a node left draining."""
        m, node = self.m, {"sender": None, "node0": 0, "node1": 1}[how]
        if node is None:
            self.tx.cancel()
        else:
            self.scus[node].cancel_active_transfers()
        m.sim.run(stop=self.quiet, max_time=m.sim.now + HORIZON)
        if node == 1:
            self.tx.cancel()
        else:
            self.rx.cancel()
        m.sim.run(max_time=m.sim.now + HORIZON)
        if node is not None:
            m.nodes[node].boot_reset()

    def failures(self, case: Case, tag: str, events: list) -> List[str]:
        """What the run of ``case`` (completion ``events``) broke."""
        bad = [
            f"event {i} failed: {ev.exception!r}"
            for i, ev in enumerate(events)
            if not ev.ok
        ]
        for i in range(case.transfers):
            got = self.m.nodes[1].memory.get(f"{tag}rx{i}")
            if not np.array_equal(got, payload(tag, i, case.n)):
                bad.append(f"transfer {i} delivered {got.tolist()}")
        if self.widest > self.tx.window:
            bad.append(f"{self.widest} words unacknowledged, window {self.tx.window}")
        tx, rx = self.tx, self.rx
        residue = {
            "held words": rx.held_words,
            "owed EOTs": len(rx._eot_due),
            "posted descriptor": rx.descriptor is not None,
            "active sender": tx.active,
            "frames on the wires": sum(wire.in_transit for wire in self.wires),
            "pending heap entry": self.m.sim.peek() < math.inf,
        }
        bad += [f"not quiescent: {what} {v}" for what, v in residue.items() if v]
        return bad + self.m.audit_checksums()


def payload(tag: str, i: int, n: int) -> np.ndarray:
    """Transfer ``i``'s words, distinct per transfer and per run ``tag``."""
    return np.arange(1, n + 1, dtype=np.uint64) + 100 * i + (1000 if tag else 0)


def check(case: Case, fresh: Optional[Figures] = None) -> Tuple[List[str], Figures]:
    """Run ``case`` on a fresh machine: what it broke (empty: it passed)
    and its figures.  After an abort the figures are the next
    transfer's, held to ``fresh`` — that transfer's on a fresh machine,
    run here when not given."""
    aborted = case.abort is not None
    if aborted and fresh is None:
        _bad, fresh = check(case.next_transfer)
    link = _Link(case)
    m = link.m
    try:
        if aborted:
            how, k = case.abort
            link.exchange(case, "aborted", stop_after=k)
            link.abort(how)
            case = case.next_transfer
        t0, e0 = m.sim.now, m.sim.events_processed
        events = link.exchange(case, "")
        figures = (m.sim.now - t0, m.sim.events_processed - e0, link.last_start)
    except Exception as exc:  # whatever the units raise fails the run
        return [f"{type(exc).__name__}: {exc}"], (math.nan, 0, 0)
    bad = link.failures(case, "", events)
    if aborted and (
        figures[1] != fresh[1] or not math.isclose(figures[0], fresh[0], rel_tol=1e-9)
    ):
        bad.append(f"next transfer took {figures}, on a fresh machine {fresh}")
    return bad, figures


@dataclass
class ProtocolReport:
    """The enumeration's verdict: cases run, and each failing one."""

    cases: int = 0
    failing: List[Tuple[Case, List[str]]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failing

    def format(self) -> str:
        lines = [f"FAILED {case!r}: {'; '.join(bad)}" for case, bad in self.failing]
        lines.append(
            f"protocol enumeration: {self.cases} cases, {len(self.failing)} failing"
        )
        lines.append(f"protocol verification: {'ok' if self.ok else 'FAILED'}")
        return "\n".join(lines)


def aborts(case: Case, figures: Figures) -> List[Case]:
    """The aborts of a passing ``case`` (``figures`` its run's) that the
    enumeration runs (see the module docstring)."""
    if case.post == "stall" or case.faults and case.transfers > 1:
        return []
    return [
        case._replace(abort=(how, k))
        for how in ABORTS
        for k in range(figures[2] + 1, figures[1] + 1)
    ]


def verify_protocol(first_failure: bool = False) -> ProtocolReport:
    """Run every case of the bounds, then the :func:`aborts` of those
    that passed; with ``first_failure``, stop at the first case that
    fails."""
    report = ProtocolReport()
    fresh: Dict[Case, Figures] = {}

    def record(case: Case) -> Tuple[List[str], Figures]:
        bad, figures = check(case, fresh.get(case.next_transfer))
        report.cases += 1
        if bad:
            report.failing.append((case, bad))
        elif case == case.next_transfer:
            fresh[case] = figures
        return bad, figures

    passed = []
    for case in cases():
        bad, figures = record(case)
        if bad and first_failure:
            return report
        if not bad:
            passed.append((case, figures))
    for case, figures in passed:
        for abort in aborts(case, figures):
            if record(abort)[0] and first_failure:
                return report
    return report
