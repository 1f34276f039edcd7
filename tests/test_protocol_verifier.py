"""The SCU link-protocol enumeration and its mutant catalogue.

1. **The verdict** — :func:`repro.analysis.protocol.verify_protocol`
   passes every case of its bounds on the production ``scu.py``.
2. **Mutants** — each guard of the protocol has one: a snippet edit of
   a ``scu.py`` method (two, where the mutant moves a checksum update),
   exec'd and swapped onto the real class.  A
   *killed* guard's mutant fails the enumeration (its test stops at the
   first failing case); an *unobserved* one passes, for a stated reason.
3. **The catalogue stays true** — each snippet occurs exactly once in
   its method, so an edit that moves a guard fails and names it.
4. **Runtime regressions** — the two ``RecvUnit`` bugs the enumeration
   found stay fixed at the unit level.
"""

import inspect
import textwrap

import numpy as np
import pytest

from repro.analysis import protocol
from repro.analysis.protocol import ABORTS, Case, cases, check, verify_protocol
from repro.machine import scu as scu_module
from repro.machine.asic import MachineConfig
from repro.machine.machine import QCDOCMachine
from repro.machine.packets import Frame, PacketType
from repro.machine.scu import FACE_BATCH, SCU, DmaDescriptor, RecvUnit, SendUnit

pytestmark = pytest.mark.analysis

KILLED = "killed"
#: why an unobserved guard's mutant passes every case
FIFO = "FIFO-excluded: what it handles arrives after the frame that settles it"
LATENCY = "latency-only: the go-back-N rewind recovers, later"
ASSERTION = "assertion: raises ProtocolError, which no correct run reaches"

ACKED = "self.base < seq <= self._clocked"
#: guard -> (verdict, its edits: (class, method, snippet, mutant) each);
#: the three sum guards move one end's checksum update off the
#: acknowledgement (DESIGN.md section 14): to the frame's arrival, to its
#: clock-out, or off an ACK that lands while its SCU drains
GUARDS = {
    "ack_window_guard": (
        KILLED,
        (
            SendUnit, "_pump",
            "if self.next < n and in_flight < self.window:\n"
            "                seq = self.next\n"
            "                batch = min(self._batch, n - seq, self.window - in_flight)",
            "if self.next < n:\n"
            "                seq = self.next\n"
            "                batch = min(self._batch, n - seq)",
        ),
    ),
    "eot_after_drain": (KILLED, (SendUnit, "_pump", "if self.base < n:", "if self.next < n:")),
    "stale_ack_filter": (KILLED, (SendUnit, "on_ack", ACKED, "self.base < seq")),
    # a late ACK of a finished transfer, idle-held words acked at post,
    # would sum the words ``finish`` let go (292 failing runs)
    "ack_monotonic": (KILLED, (SendUnit, "on_ack", ACKED, "seq <= self._clocked")),
    "resend_rewind_floor": (LATENCY, (SendUnit, "on_resend", "max(seq, self.base)", "seq")),
    "corrupt_resend": (
        KILLED,
        (RecvUnit, "on_data", "self.control.send(PacketType.RESEND, frame.seq)", "pass"),
    ),
    "gap_resend": (
        LATENCY,
        (RecvUnit, "on_data", "self.control.send(PacketType.RESEND, self.expected)", "pass"),
    ),
    "dup_reack": (
        FIFO, (RecvUnit, "on_data", "self.control.send(PacketType.ACK, self.expected)", "pass")
    ),
    "idle_dup_silence": (
        KILLED,
        (
            RecvUnit, "on_data",
            "self.idle_dups_discarded += 1\n                    return",
            "self.idle_dups_discarded += 1",
        ),
    ),
    "idle_hold_guard": (
        ASSERTION,
        (
            RecvUnit, "on_data",
            "self.held_words + frame.nwords > self.asic.idle_hold_words", "False",
        ),
    ),
    "stale_eot_filter": (
        KILLED,
        (
            RecvUnit, "on_data",
            "self.stale_frames_discarded += 1\n            return",
            "self.stale_frames_discarded += 1",
        ),
    ),
    "eot_accounting": (ASSERTION, (RecvUnit, "on_eot", "seq != expected", "False")),
    # 692 failing runs of the default enumeration (idle-held words an
    # abort discards were summed)
    "recv_sums_on_accept": (
        KILLED,
        (RecvUnit, "_accept", "self.checksum.update(words)", "pass"),
        (
            RecvUnit, "on_data",
            "self.expected += frame.nwords",
            "self.expected += frame.nwords\n        self.checksum.update(frame.words)",
        ),
    ),
    # 1,240 (words an abort cut off before their ACK were summed)
    "send_sums_on_ack": (
        KILLED,
        (SendUnit, "on_ack", "self.checksum.update(self.words[self.base : seq])", "pass"),
        (
            SendUnit, "_pump",
            "self._clocked = self.next",
            "self.checksum.update(self.words[self._clocked : self.next])\n"
            "                    self._clocked = self.next",
        ),
    ),
    # 492 (words the receive end acknowledged went unsummed at the sender)
    "drained_ack_credits": (
        KILLED,
        (SCU, "on_frame", "ptype in _DRAINED", "ptype in (*_DRAINED, _ACK)"),
    ),
}
CAUGHT = sorted(g for g, (verdict, *_edits) in GUARDS.items() if verdict == KILLED)
UNOBSERVED = sorted(g for g, (verdict, *_edits) in GUARDS.items() if verdict != KILLED)


def short_unwatched(case):
    """The faulted cases whose aborts tier-1 runs, 4,599 runs of the
    99,186 ``make verify-flow`` does: transfers of one or two words,
    watchdog off."""
    return case.n <= 2 and not case.watchdog


def stale_guards(source_of=inspect.getsource):
    """Guards with a snippet that does not occur exactly once in its method."""
    return [
        guard
        for guard, (_verdict, *edits) in GUARDS.items()
        if any(
            source_of(getattr(cls, method)).count(snippet) != 1
            for cls, method, snippet, _mutant in edits
        )
    ]


def mutate(monkeypatch, *guards):
    """Swap the guards' mutants onto their classes (edits to one method
    are applied together)."""
    edited = {}
    for guard in guards:
        _verdict, *edits = GUARDS[guard]
        for cls, method, snippet, mutant in edits:
            source = edited.get((cls, method)) or inspect.getsource(getattr(cls, method))
            assert source.count(snippet) == 1, f"stale mutant: {guard}"
            edited[cls, method] = source.replace(snippet, mutant)
    for (cls, method), source in edited.items():
        namespace = {}
        exec(textwrap.dedent(source), vars(scu_module), namespace)
        monkeypatch.setattr(cls, method, namespace[method])


# -- the verdict -----------------------------------------------------------


class TestVerdict:
    def test_full_default_verification_passes(self, monkeypatch):
        """Every case and fault-free abort, and the faulted aborts of
        :func:`short_unwatched` (``make verify-flow`` runs them all)."""
        every = protocol.aborts
        monkeypatch.setattr(
            protocol,
            "aborts",
            lambda case, figures: every(case, figures)
            if not case.faults or short_unwatched(case)
            else [],
        )
        report = verify_protocol()
        assert report.ok, report.format()
        assert report.cases > sum(1 for _ in cases())  # the aborts ran too

    def test_word_batch_one_cell(self):
        assert check(Case(3, 1, 3, 2, (1, 4), True, 2))[0] == []

    def test_face_batch_cell(self):
        assert check(Case(4, FACE_BATCH, 3, "stall", (0, 1), True, 2))[0] == []

    def test_matrix_covers_required_axes(self):
        space = list(cases())
        assert {c.n for c in space} == {1, 2, 3, 4}
        assert {c.batch for c in space} == {1, FACE_BATCH}
        assert {c.window for c in space} == {3, 2}
        assert {c.post for c in space} == {"before", 1, 2, 3, "stall"}
        assert {len(c.faults) for c in space} == {0, 1, 2}
        assert max(max(c.faults, default=0) - 2 * c.n for c in space) == 1
        assert {(c.watchdog, c.transfers) for c in space} == {
            (False, 1), (False, 2), (True, 1), (True, 2)
        }
        assert ABORTS == ("sender", "node0", "node1")

    def test_exploration_is_deterministic(self):
        for case in (Case(2, 1, 3, "stall", (0, 3), True, 2), Case(3, 1, 2, 1, abort=("node1", 9))):
            assert check(case) == check(case)


# -- mutants ---------------------------------------------------------------


class TestMutations:
    @pytest.mark.parametrize("guard", CAUGHT)
    def test_seeded_spec_bug_is_caught(self, guard, monkeypatch):
        mutate(monkeypatch, guard)
        assert not verify_protocol(first_failure=True).ok, f"dropping {guard} went unnoticed"

    @pytest.fixture(scope="class")
    def unobserved_failures(self):
        """Every unobserved mutant at once, over every case but the aborts
        (fault-free, they reach no duplicate, gap or raise)."""
        with pytest.MonkeyPatch.context() as monkeypatch:
            mutate(monkeypatch, *UNOBSERVED)
            return [(case, bad) for case in cases() for bad in [check(case)[0]] if bad]

    @pytest.mark.parametrize("guard", UNOBSERVED)
    def test_redundant_guard_documented(self, guard, unobserved_failures):
        assert GUARDS[guard][0] in (FIFO, LATENCY, ASSERTION)
        assert unobserved_failures == [], f"{guard} may be observed: {unobserved_failures[0]}"

    def test_window_mutation_names_the_violation(self, monkeypatch):
        mutate(monkeypatch, "ack_window_guard")
        assert check(Case(3, 1, 2, 2))[0] == ["3 words unacknowledged, window 2"]

    def test_stale_eot_mutation_reproduces_the_found_bug(self, monkeypatch):
        # a late RESEND has the sender repeat word 0 after the receive
        # completed: held, it lands in the next transfer's buffer
        case = Case(2, 1, 3, 2, (0, 3), False, 2)
        assert check(case)[0] == []
        mutate(monkeypatch, "stale_eot_filter")
        assert "transfer 1 delivered [1, 102]" in check(case)[0]

    def test_violation_traces_are_replayable(self, monkeypatch):
        # the CLI prints the failing Case; its repr runs it again
        mutate(monkeypatch, "idle_dup_silence")
        (case, bad), = verify_protocol(first_failure=True).failing
        assert check(eval(repr(case), vars(protocol)))[0] == bad


# -- the catalogue stays true to scu.py ------------------------------------


def doctored(text, edit):
    return lambda fn: inspect.getsource(fn).replace(text, edit)


class TestConformance:
    def test_production_source_conforms(self):
        assert stale_guards() == []

    def test_doctored_ack_guard_is_reported(self):
        source_of = doctored("self.base < seq <=", "self.base <= seq <=")
        assert stale_guards(source_of) == ["stale_ack_filter", "ack_monotonic"]

    def test_doctored_rewind_floor_is_reported(self):
        source_of = doctored("max(seq, self.base)", "max(self.base, seq)")
        assert stale_guards(source_of) == ["resend_rewind_floor"]

    def test_doctored_window_guard_is_reported(self):
        source_of = doctored("in_flight < self.window", "self.window > in_flight")
        assert stale_guards(source_of) == ["ack_window_guard"]

    def test_gutted_source_fails_every_guard(self, monkeypatch):
        assert stale_guards(lambda fn: "") == list(GUARDS)
        monkeypatch.setattr(RecvUnit, "on_eot", lambda self, seq: None)
        with pytest.raises(AssertionError, match="stale mutant: eot_accounting"):
            mutate(monkeypatch, "eot_accounting")


# -- runtime regressions for the two RecvUnit bugs the enumeration found ---


def words(*vals):
    return np.array(vals, dtype=np.uint64)


class TestRecvUnitRegressions:
    def _recv_unit(self):
        machine = QCDOCMachine(MachineConfig(dims=protocol.DIMS))
        machine.bring_up()
        node = machine.nodes[0]
        node.memory.alloc("recv", np.zeros(8, dtype=np.uint64))
        return next(iter(node.scu.recv_units.values()))

    def test_stale_frame_discarded_while_eot_owed(self):
        unit = self._recv_unit()
        # a transfer just completed its wire side: EOT still in flight
        unit._eot_due.append(4)
        before = (unit.expected, unit.held_words, unit.acks_sent)
        unit.on_data(Frame(PacketType.NORMAL, words(7), seq=0))
        assert unit.stale_frames_discarded == 1
        # the stale duplicate advanced nothing and was not held
        assert (unit.expected, unit.held_words, unit.acks_sent) == before
        assert unit.held == []

    def test_eot_still_accounted_after_stale_discard(self):
        unit = self._recv_unit()
        unit._eot_due.append(4)
        unit.on_data(Frame(PacketType.NORMAL, words(7), seq=0))
        unit.on_eot(4)  # the owed EOT arrives and pops cleanly
        assert unit._eot_due == []

    def test_idle_duplicate_returns_no_window_credit(self):
        unit = self._recv_unit()
        # idle receive: two words held, none accepted (descriptor unset)
        unit.on_data(Frame(PacketType.NORMAL, words(1), seq=0))
        unit.on_data(Frame(PacketType.NORMAL, words(2), seq=1))
        assert unit.held_words == 2 and unit.descriptor is None
        acks_before = unit.acks_sent
        # a resend-rewind duplicate of word 0 arrives
        unit.on_data(Frame(PacketType.NORMAL, words(1), seq=0))
        assert unit.idle_dups_discarded == 1
        assert unit.acks_sent == acks_before, "held words returned credit"
        assert unit.held_words == 2

    def test_posted_duplicate_still_reacked(self):
        unit = self._recv_unit()
        unit.post(DmaDescriptor(buffer="recv", block_len=4))
        unit.on_data(Frame(PacketType.NORMAL, words(1), seq=0))
        acks_before = unit.acks_sent
        unit.on_data(Frame(PacketType.NORMAL, words(1), seq=0))  # duplicate
        assert unit.acks_sent == acks_before + 1, "posted re-ack regressed"
        assert unit.idle_dups_discarded == 0

    def test_new_counters_snapshot(self):
        unit = self._recv_unit()
        unit.stale_frames_discarded = 5
        unit.idle_dups_discarded = 2
        snap = unit.snapshot_state()
        assert snap["stale_frames_discarded"] == 5
        assert snap["idle_dups_discarded"] == 2
