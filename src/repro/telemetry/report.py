"""Machine-wide counter roll-up and the measured-vs-model crosscheck.

:class:`MachineReport` aggregates the per-unit hardware-style counters of
a :class:`~repro.machine.machine.QCDOCMachine` into the derived metrics
the paper reports — sustained GFlops, per-link utilisation and wire rate,
the comm/compute overlap fraction — and :meth:`MachineReport.crosscheck`
compares the *measured* traffic/flop counters against the *exact*
predictions of :mod:`repro.perfmodel.dirac_perf` within declared
tolerances.  That turns the analytic performance model from a parallel
artifact into a tested invariant: if the wire format, the staging flop
charges, or the model formulas drift apart, the telemetry suite fails.

The ``wire_overhead`` metric (wire words / payload words) is predicted to
be exactly 1.0 on a clean machine; the go-back-N resend protocol makes it
strictly greater under injected link faults, so a crosscheck over a
degraded link **flags** the condition rather than silently absorbing it —
the behaviour the fault-injection telemetry test pins down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.perfmodel.dirac_perf import dirac_flops_per_node, halo_payload_words
from repro.telemetry.counters import CounterBank, bank_for_machine

#: counted quantities (words, flops) are exact by construction; the
#: tolerance only absorbs float accumulation in the flop charges.
EXACT_REL_TOL = 1e-9


@dataclass(frozen=True)
class CrosscheckEntry:
    """One measured-vs-predicted comparison."""

    metric: str
    measured: float
    predicted: float
    rel_tol: float

    @property
    def rel_error(self) -> float:
        scale = max(abs(self.predicted), 1.0)
        return abs(self.measured - self.predicted) / scale

    @property
    def ok(self) -> bool:
        return self.rel_error <= self.rel_tol

    def __str__(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return (
            f"[{status}] {self.metric}: measured {self.measured:g} vs "
            f"predicted {self.predicted:g} (rel err {self.rel_error:.3e}, "
            f"tol {self.rel_tol:.1e})"
        )


@dataclass
class CrosscheckResult:
    """All entries of one crosscheck run."""

    entries: List[CrosscheckEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self) -> List[CrosscheckEntry]:
        return [e for e in self.entries if not e.ok]

    def __str__(self) -> str:
        return "\n".join(str(e) for e in self.entries)


class MachineReport:
    """A snapshot of machine counters plus the paper's derived metrics."""

    def __init__(self, machine, bank: Optional[CounterBank] = None):
        self.machine = machine
        self.bank = bank if bank is not None else bank_for_machine(machine)
        self.counters: Dict[str, float] = self.bank.sample()
        self.elapsed = float(machine.sim.now)

    @classmethod
    def collect(cls, machine) -> "MachineReport":
        return cls(machine)

    # -- totals -------------------------------------------------------------
    def _scu_total(self, name: str) -> float:
        return sum(
            n.scu.transfer_counters()[name] for n in self.machine.nodes.values()
        )

    @property
    def total_flops(self) -> float:
        return sum(n.flops_charged for n in self.machine.nodes.values())

    @property
    def total_payload_words(self) -> float:
        return self._scu_total("payload_words_sent")

    @property
    def total_wire_words(self) -> float:
        return self._scu_total("wire_words_sent")

    @property
    def total_parity_errors(self) -> float:
        return self._scu_total("parity_errors")

    @property
    def total_resends(self) -> float:
        return self._scu_total("resends")

    @property
    def wire_overhead(self) -> float:
        """wire words / payload words (1.0 on a clean machine; > 1 under
        go-back-N retransmission)."""
        payload = self.total_payload_words
        return self.total_wire_words / payload if payload else 1.0

    # -- derived metrics ----------------------------------------------------
    @property
    def sustained_gflops(self) -> float:
        """Machine-wide average floating-point rate over elapsed time."""
        if self.elapsed <= 0:
            return 0.0
        return self.total_flops / self.elapsed / 1e9

    @property
    def peak_fraction(self) -> float:
        """Sustained fraction of aggregate FPU peak."""
        peak = self.machine.n_nodes * self.machine.asic.peak_flops
        if self.elapsed <= 0 or peak <= 0:
            return 0.0
        return self.total_flops / (peak * self.elapsed)

    def link_utilisation(self) -> Dict[str, float]:
        """Wire-busy fraction over links that carried traffic."""
        active = self.machine.network.active_links()
        if not active or self.elapsed <= 0:
            return {"mean": 0.0, "max": 0.0, "links_active": 0}
        fracs = [link.busy_seconds / self.elapsed for _, link in active]
        return {
            "mean": sum(fracs) / len(fracs),
            "max": max(fracs),
            "links_active": len(active),
        }

    def link_rate_mbit_s(self) -> float:
        """Mean achieved wire rate over active links (Mbit/s while busy) —
        the paper's "420 Mbit/s" per-link figure is this quantity."""
        active = self.machine.network.active_links()
        rates = [
            link.bits_sent / link.busy_seconds / 1e6
            for _, link in active
            if link.busy_seconds > 0
        ]
        return sum(rates) / len(rates) if rates else 0.0

    def overlap_fraction(self) -> float:
        """Fraction of communication hidden behind compute, machine-mean.

        Per node: with ``T_cpu`` the charged compute time, ``T_comm`` the
        busiest outgoing link's wire time, and ``T`` the elapsed window,
        ``overlap = (T_cpu + T_comm - T) / min(T_cpu, T_comm)`` clamped to
        [0, 1] — 1.0 when communication is fully hidden (the paper's
        sustained-efficiency assumption), 0.0 when fully serialized.
        """
        if self.elapsed <= 0:
            return 0.0
        per_node = []
        for node_id, node in self.machine.nodes.items():
            busy = [
                link.busy_seconds
                for (src, _), link in self.machine.network.links.items()
                if src == node_id and link.frames_sent > 0
            ]
            t_comm = max(busy) if busy else 0.0
            t_cpu = node.compute_time
            lo = min(t_cpu, t_comm)
            if lo <= 0:
                continue
            per_node.append(max(0.0, min(1.0, (t_cpu + t_comm - self.elapsed) / lo)))
        return sum(per_node) / len(per_node) if per_node else 0.0

    # -- serialisation -------------------------------------------------------
    def to_json(self) -> Dict:
        """A JSON-serialisable telemetry dump (bench ``--report`` output)."""
        return {
            "elapsed_seconds": self.elapsed,
            "n_nodes": self.machine.n_nodes,
            "derived": {
                "sustained_gflops": self.sustained_gflops,
                "peak_fraction": self.peak_fraction,
                "wire_overhead": self.wire_overhead,
                "link_utilisation": self.link_utilisation(),
                "link_rate_mbit_s": self.link_rate_mbit_s(),
                "overlap_fraction": self.overlap_fraction(),
            },
            "totals": {
                "flops": self.total_flops,
                "payload_words_sent": self.total_payload_words,
                "wire_words_sent": self.total_wire_words,
                "parity_errors": self.total_parity_errors,
                "resends": self.total_resends,
            },
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
        }

    # -- the measured-vs-model invariant -------------------------------------
    def crosscheck(
        self,
        op: str,
        local_shape: Sequence[int],
        machine_dims: Sequence[int],
        n_ranks: Optional[int] = None,
        n_applications: int = 1,
        Ls: int = 1,
        compress: bool = True,
        rel_tol: float = EXACT_REL_TOL,
        wire_tol: float = EXACT_REL_TOL,
    ) -> CrosscheckResult:
        """Compare measured counters against the perf-model predictions.

        ``n_applications`` counts distributed ``D`` (or ``D^+``) applies
        per rank in the measured window; ``machine_dims`` is the logical
        partition shape the physics ran on.  Word and flop counts are
        exact predictions (tolerance only absorbs float accumulation);
        ``wire_overhead`` is predicted 1.0 and *fails* under injected
        faults — the report flags a degraded link rather than absorbing
        the retransmission traffic into the payload accounting.
        """
        return self.crosscheck_composite(
            [(op, n_applications)],
            local_shape,
            machine_dims,
            n_ranks=n_ranks,
            Ls=Ls,
            compress=compress,
            rel_tol=rel_tol,
            wire_tol=wire_tol,
        )

    def crosscheck_composite(
        self,
        ops: Sequence[Tuple[str, int]],
        local_shape: Sequence[int],
        machine_dims: Sequence[int],
        n_ranks: Optional[int] = None,
        Ls: int = 1,
        compress: bool = True,
        rel_tol: float = EXACT_REL_TOL,
        wire_tol: float = EXACT_REL_TOL,
    ) -> CrosscheckResult:
        """Crosscheck a window that mixed *several* distributed kernels.

        ``ops`` is a sequence of ``(op, n_applications)`` pairs — e.g. a
        dynamical-HMC force evaluation charges ``("wilson", 2 * iters + 1)``
        operator applies plus ``("wilson-force", 1)`` — and the payload /
        flop predictions are the sums of the per-op exact closed forms.
        The same three counters are compared as for the single-op
        :meth:`crosscheck`.
        """
        n_ranks = self.machine.n_nodes if n_ranks is None else int(n_ranks)
        words_per_rank = 0.0
        flops_per_rank = 0.0
        for op, n_applications in ops:
            words_per_rank += n_applications * halo_payload_words(
                op, local_shape, machine_dims, Ls=Ls, compress=compress
            )
            flops_per_rank += n_applications * dirac_flops_per_node(
                op, local_shape, machine_dims, Ls=Ls
            )
        result = CrosscheckResult()
        result.entries.append(
            CrosscheckEntry(
                metric="payload_words_sent",
                measured=self.total_payload_words,
                predicted=float(n_ranks * words_per_rank),
                rel_tol=rel_tol,
            )
        )
        result.entries.append(
            CrosscheckEntry(
                metric="flops_charged",
                measured=self.total_flops,
                predicted=float(n_ranks * flops_per_rank),
                rel_tol=rel_tol,
            )
        )
        result.entries.append(
            CrosscheckEntry(
                metric="wire_overhead",
                measured=self.wire_overhead,
                predicted=1.0,
                rel_tol=wire_tol,
            )
        )
        return result
