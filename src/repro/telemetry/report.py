"""Machine-wide counter roll-up and the measured-vs-model crosscheck.

:class:`MachineReport` aggregates the per-unit hardware-style counters of
a :class:`~repro.machine.machine.QCDOCMachine` into the derived metrics
the paper reports — sustained GFlops, per-link utilisation and wire rate,
the comm/compute overlap fraction — and :meth:`MachineReport.crosscheck`
compares the *measured* traffic/flop counters and the *seconds* the run
spent computing, in global sums and waiting on the wires against the
predictions of :mod:`repro.perfmodel.dirac_perf` within declared
tolerances.  That turns the analytic performance model from a parallel
artifact into a tested invariant: if the wire format, the staging flop
charges, the compute-time rule or the model formulas drift apart, the
telemetry suite fails.  Every prediction is a closed form of what the
twin does — words, flops, compute and global-sum seconds, and the
seconds the ranks wait on the wires — so every entry is held to float
tolerance.

The ``wire_overhead`` metric (wire words / payload words) is predicted to
be exactly 1.0 on a clean machine; the go-back-N resend protocol makes it
strictly greater under injected link faults, so a crosscheck over a
degraded link **flags** the condition rather than silently absorbing it —
the behaviour the fault-injection telemetry test pins down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.perfmodel.dirac_perf import (
    DiracPerfModel,
    dirac_compute_seconds_per_node,
    dirac_flops_per_node,
    halo_payload_words,
    linalg_charge_per_node,
)
from repro.telemetry.counters import sample
from repro.util.errors import ConfigError

#: counted quantities (words, flops) and the seconds that are a closed
#: form of them are exact by construction; the tolerance only absorbs
#: float accumulation in the charges.
EXACT_REL_TOL = 1e-9


@dataclass(frozen=True)
class CrosscheckEntry:
    """One measured-vs-predicted comparison."""

    metric: str
    measured: float
    predicted: float
    rel_tol: float
    #: the error is taken relative to the prediction, or to this if it is
    #: larger: 1 for counts (an empty window is not a division by zero),
    #: the run's seconds for a share of them that may be predicted zero
    scale: float = 1.0

    @property
    def rel_error(self) -> float:
        scale = max(abs(self.predicted), self.scale)
        error = abs(self.measured - self.predicted)
        return error / scale if scale else error

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
    """One counter sample of a machine plus the paper's derived metrics.

    Every figure is read off what construction took: :attr:`counters`,
    the one :func:`sample` (node totals summed in ``machine.nodes``
    order, link metrics in ``network.links`` order), the clock, the
    machine's run and global-sum books and the frame batches of its
    stored sends.  A report keeps them however the machine runs on.
    """

    def __init__(self, machine):
        self.machine = machine
        self.counters: Dict[str, float] = sample(machine)
        self.elapsed = float(machine.sim.now)
        self.run_seconds = machine.run_seconds
        self.global_sum_seconds = machine.global_sum_seconds
        self.global_sum_words = machine.global_sum_words
        scus = [node.scu for node in machine.nodes.values()]
        self._word_batches = {
            scu.word_batch if batch is None else batch
            for scu in scus
            for (kind, _direction), (_desc, _group, batch) in scu._stored.items()
            if kind == "send"
        } or {scu.word_batch for scu in scus}

    # -- totals -------------------------------------------------------------
    def _node_total(self, suffix: str) -> float:
        return sum(self.counters[f"node{i}.{suffix}"] for i in self.machine.nodes)

    def _active_links(self) -> List[Tuple[int, float, float]]:
        """``(source node, bits sent, busy seconds)`` of each link that
        carried a frame, in ``network.links`` order."""
        rows = []
        for src, direction in self.machine.network.links:
            row = f"link.n{src}.d{direction}."
            if self.counters[row + "frames_sent"] > 0:
                busy = self.counters[row + "busy_seconds"]
                rows.append((src, self.counters[row + "bits_sent"], busy))
        return rows

    @property
    def total_flops(self) -> float:
        return self._node_total("cpu.flops_charged")

    @property
    def total_compute_seconds(self) -> float:
        return self._node_total("cpu.compute_seconds")

    def exposed_comm_seconds(self, n_ranks: int) -> float:
        """Seconds of the runs a rank spent neither computing nor in a
        global sum, rank-mean: waiting on the wires."""
        return (
            self.run_seconds
            - self.total_compute_seconds / n_ranks
            - self.global_sum_seconds
        )

    @property
    def word_batch(self):
        """The frame batch the run's halo sends went out with: their stored
        descriptors' own, else (a descriptor stored without one, or a
        finalized run, which keeps none) the SCUs' — what a context uses
        unless it is given a batch of its own."""
        if len(self._word_batches) > 1:
            raise ConfigError(
                f"the run's sends used several frame batches: {self._word_batches}"
            )
        return next(iter(self._word_batches))

    @property
    def total_payload_words(self) -> float:
        return self._node_total("scu.payload_words_sent")

    @property
    def total_wire_words(self) -> float:
        return self._node_total("scu.wire_words_sent")

    @property
    def total_parity_errors(self) -> float:
        return self._node_total("scu.parity_errors")

    @property
    def total_resends(self) -> float:
        return self._node_total("scu.resends")

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
        active = self._active_links()
        if not active or self.elapsed <= 0:
            return {"mean": 0.0, "max": 0.0, "links_active": 0}
        fracs = [busy / self.elapsed for _src, _bits, busy in active]
        return {
            "mean": sum(fracs) / len(fracs),
            "max": max(fracs),
            "links_active": len(active),
        }

    def link_rate_mbit_s(self) -> float:
        """Mean achieved wire rate over active links (Mbit/s while busy) —
        the paper's "420 Mbit/s" per-link figure is this quantity."""
        rates = [
            bits / busy / 1e6 for _src, bits, busy in self._active_links() if busy > 0
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
        active = self._active_links()
        per_node = []
        for node_id in self.machine.nodes:
            busy = [busy for src, _bits, busy in active if src == node_id]
            t_comm = max(busy) if busy else 0.0
            t_cpu = self.counters[f"node{node_id}.cpu.compute_seconds"]
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
        linalg: Optional[Mapping[Tuple[str, str], int]] = None,
    ) -> CrosscheckResult:
        """Compare measured counters against the perf-model predictions.

        ``n_applications`` counts distributed ``D`` (or ``D^+``) applies
        per rank in the measured window; ``machine_dims`` is the logical
        partition shape the physics ran on.  Word and flop counts are
        exact predictions (tolerance only absorbs float accumulation);
        ``wire_overhead`` is predicted 1.0 and *fails* under injected
        faults — the report flags a degraded link rather than absorbing
        the retransmission traffic into the payload accounting.  The
        seconds entries and ``linalg`` are :meth:`crosscheck_composite`'s.
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
            linalg=linalg,
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
        linalg: Optional[Mapping[Tuple[str, str], int]] = None,
    ) -> CrosscheckResult:
        """Crosscheck a window that mixed *several* distributed kernels.

        ``ops`` is a sequence of ``(op, n_applications)`` pairs — e.g. a
        dynamical-HMC force evaluation charges ``("wilson", 2 * iters + 1)``
        operator applies plus ``("wilson-force", 1)`` — and the payload /
        flop predictions are the sums of the per-op exact closed forms.
        ``linalg`` names a solver's vector-kernel calls per rank,
        ``(kernel, dtype name) -> calls`` on the first op's vectors
        (:func:`repro.perfmodel.dirac_perf.cg_kernel_calls` for a CG
        solve); each ``"dot"`` is also one global sum, of an equal share
        of the words the machine recorded reducing (2 for the complex
        scalar of :func:`repro.parallel.pcg.rank_partial_dot`, a site
        array for :class:`~repro.parallel.pcg.MachineSiteDot`).

        Six entries.  ``payload_words_sent``, ``flops_charged``,
        ``compute_seconds``, ``global_sum_seconds`` and
        ``exposed_comm_seconds`` — the rest of the runs, priced by the
        pipeline's own phase order at the frame batch the run's sends
        used (:attr:`word_batch`) — are closed forms of what the twin does
        and held to ``rel_tol``; ``wire_overhead`` is predicted 1.0 to
        ``wire_tol``.
        """
        machine = self.machine
        asic = machine.asic
        n_ranks = machine.n_nodes if n_ranks is None else int(n_ranks)
        model = DiracPerfModel(asic)
        word_batch = self.word_batch
        words_per_rank = 0.0
        flops_per_rank = 0.0
        compute_per_rank = 0.0
        exposed = 0.0
        for op, n_applications in ops:
            words_per_rank += n_applications * halo_payload_words(
                op, local_shape, machine_dims, Ls=Ls, compress=compress
            )
            flops_per_rank += n_applications * dirac_flops_per_node(
                op, local_shape, machine_dims, Ls=Ls
            )
            compute_per_rank += n_applications * dirac_compute_seconds_per_node(
                op, local_shape, machine_dims, Ls=Ls, asic=asic
            )
            exposed += n_applications * model.exposed_comm_seconds(
                op,
                local_shape,
                machine_dims,
                Ls=Ls,
                word_batch=word_batch,
                compress=compress,
            )
        linalg = linalg or {}
        linalg_flops, linalg_seconds = linalg_charge_per_node(
            ops[0][0], local_shape, linalg, Ls, asic=asic
        )
        flops_per_rank += linalg_flops
        compute_per_rank += linalg_seconds
        dots = sum(calls for (kernel, _), calls in linalg.items() if kernel == "dot")
        gsum = 0.0
        if dots:
            gsum = dots * asic.global_sum_time(
                machine_dims, max(1, self.global_sum_words // dots)
            )

        def exact(
            metric: str, measured: float, predicted: float, scale: float
        ) -> CrosscheckEntry:
            return CrosscheckEntry(metric, measured, float(predicted), rel_tol, scale)

        return CrosscheckResult(
            [
                exact("payload_words_sent", self.total_payload_words,
                      n_ranks * words_per_rank, 1.0),
                exact("flops_charged", self.total_flops, n_ranks * flops_per_rank, 1.0),
                CrosscheckEntry("wire_overhead", self.wire_overhead, 1.0, wire_tol),
                exact("compute_seconds", self.total_compute_seconds,
                      n_ranks * compute_per_rank, 0.0),
                exact("global_sum_seconds", self.global_sum_seconds, gsum, 0.0),
                exact("exposed_comm_seconds", self.exposed_comm_seconds(n_ranks),
                      exposed, self.run_seconds),
            ]
        )
