"""Sustained-efficiency model for CG Dirac solves on one QCDOC node.

Model
-----
A CG iteration on the normal equations costs, per lattice site,

``C_iter = 2 * (F_op/2  +  W_op * cpw_eff  +  c0_eff)  +  C_linalg  +  C_gsum``

cycles, where ``F_op``/``W_op`` are the operator's exact flop and
memory-word counts (:mod:`repro.fermions.flops`), ``C_linalg`` covers the
three axpys and two inner products, ``C_gsum`` the two SCU global sums,
every bracket is one evaluation of the machine's compute-time rule
(:meth:`repro.machine.memory.MemoryModel.compute_cycles` — the twin's
``Node.compute`` charges the same rule, so the two cannot disagree), and

* ``cpw`` — achieved processor cycles per 8-byte memory word streamed
  through the EDRAM path by the hand-tuned assembly, and
* ``c0`` — fixed per-site kernel overhead (loop control, address
  generation, pipeline refill)

are the **only** free parameters.  :func:`calibrate` solves the 2x2 linear
system pinning the model to the paper's measured Wilson 40% and clover
46.5% (section 4: 128 nodes, 4^4 local volume, double precision); every
other number — ASQTAD, domain wall, single precision, the EDRAM/DDR
crossover — is then a *prediction*, compared against the paper in
EXPERIMENTS.md.

Refinements applied on top of the calibrated core:

* **precision**: single precision halves every word count ("performance
  for single precision is slightly higher due to the decreased bandwidth
  to local memory");
* **DDR spill**: when the working set
  (:meth:`~repro.fermions.flops.OperatorCost.working_set_bytes`) exceeds
  the 4 MB EDRAM, the spilled fraction of traffic pays the EDRAM/DDR
  bandwidth ratio — part of the rule itself — the paper's "fall to the
  range of 30% of peak";
* **domain wall**: the gauge field is reused across the ``Ls`` fifth-
  dimension slices (streamed once per blocked pass), and the quarter of
  ``c0`` attributable to 4-dimensional address generation amortises over
  ``Ls`` (:meth:`~repro.fermions.flops.OperatorCost.site_mix`) — the
  basis of the paper's expectation that the domain-wall kernel "will
  surpass the performance of the clover improved Wilson operator";
* **communication overlap** (``comms=`` on :meth:`DiracPerfModel.efficiency`
  / :meth:`DiracPerfModel.dirac_seconds`): the SCU runs all 24 DMA
  transfers concurrently with CPU arithmetic, so the overlapped pipeline
  of :mod:`repro.parallel` pays

  ``T = T_interior + max(T_comm, T_boundary)``

  per application — only communication in *excess* of the boundary-shell
  compute is exposed (``comms="overlap"``, the default; hep-lat/0306023
  and hep-lat/0210034 model efficiency the same way).  ``comms="serial"``
  charges ``T_compute + T_comm`` — the monolithic assembly that waits for
  every halo before touching a single site — and ``comms="none"`` ignores
  communication entirely (single-node kernel efficiency).  At the
  calibration point the overlapped model is compute-bound (the exposed
  comm time is zero), so the published Wilson/clover anchors are
  reproduced exactly; at small local volumes (the paper's 2^4 headline)
  the serialized model falls well below the published 40-50% band while
  the overlapped model stays inside it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.fermions.flops import CG_ITERATION_KERNELS, linalg_mix, operator_cost
from repro.machine.asic import ASICConfig
from repro.machine.memory import FPU_BOUND, Calibration, MemoryModel
from repro.util.errors import ConfigError

#: the paper's measured CG efficiencies used for calibration (section 4)
CALIBRATION_TARGETS = {"wilson": 0.40, "clover": 0.465}
#: the benchmark configuration those numbers were measured on
CALIBRATION_LOCAL_SHAPE = (4, 4, 4, 4)
CALIBRATION_MACHINE_DIMS = (4, 4, 4, 2)  # 128 nodes as a 4D machine


class DiracPerfModel:
    """Calibrated single-node + collective performance model."""

    def __init__(self, asic: Optional[ASICConfig] = None):
        self.asic = asic if asic is not None else ASICConfig()
        #: the machine's memory model: its ``compute_cycles`` is the rule
        #: every cycle count below comes from, priced with the fitted pair
        self.memory = MemoryModel(self.asic)
        self.calibration = calibrate(self.asic)

    # -- per-application costs ----------------------------------------------------
    def dirac_cycles_per_site(
        self,
        op: str,
        local_shape: Sequence[int],
        precision: str = "double",
        Ls: int = 1,
    ) -> float:
        """Cycles per (4-dimensional, or 5-dimensional for dwf) site for one
        operator application."""
        if precision not in ("double", "single"):
            raise ConfigError(f"precision must be double/single, got {precision!r}")
        cost = operator_cost(op)
        flops, words, sites = cost.site_mix(Ls)
        if precision == "single":
            words /= 2.0
        resident = cost.working_set_bytes(int(np.prod(local_shape)), Ls)
        return self.memory.compute_cycles(
            self.calibration, flops, words, sites, resident
        )

    # -- communication -----------------------------------------------------------
    def halo_comm_seconds(
        self,
        op: str,
        local_shape: Sequence[int],
        machine_dims: Sequence[int] = CALIBRATION_MACHINE_DIMS,
        precision: str = "double",
        Ls: int = 1,
    ) -> float:
        """Halo-exchange time of one operator application, all links concurrent.

        Each decomposed axis drives an independent pair of unidirectional
        wires (the SCU's 24 links run simultaneously), so the exchange
        time is the **max** over axes, not the sum: per axis, the face
        payload — ``comm_bytes_per_face_site`` per boundary site per unit
        hop depth (the ASQTAD links ship depth-1 fat plus depth-3 Naik
        data, hence ``sum(hop_depths)``) — serialised at one link's
        bandwidth, plus the fixed memory-to-memory neighbour latency.

        ``comm_bytes_per_face_site`` is the **compressed** wire payload:
        Wilson-type operators ship spin-projected half spinors (12 words
        = 96 bytes per face site, exactly what the functional simulator's
        transfer counters measure for :mod:`repro.parallel`); staggered
        colour vectors have no spin structure and go uncompressed.  The
        generic full-spinor payload lives in
        ``uncompressed_comm_bytes_per_face_site`` and is what the
        commodity-cluster baseline of :mod:`repro.perfmodel.scaling` pays.
        """
        cost = operator_cost(op)
        shape = tuple(int(s) for s in local_shape)
        volume = int(np.prod(shape))
        comm_axes = [
            mu
            for mu in range(len(shape))
            if mu < len(machine_dims) and machine_dims[mu] > 1
        ]
        if not comm_axes:
            return 0.0
        depth_factor = sum(cost.hop_depths)
        slices = cost.slices(Ls)
        per_axis = []
        for mu in comm_axes:
            face_sites = volume // shape[mu]
            nbytes = face_sites * cost.comm_bytes_per_face_site * depth_factor * slices
            if precision == "single":
                nbytes /= 2.0
            per_axis.append(
                nbytes / self.asic.link_bandwidth + self.asic.neighbour_latency
            )
        return max(per_axis)

    def boundary_fraction(
        self,
        op: str,
        local_shape: Sequence[int],
        machine_dims: Sequence[int] = CALIBRATION_MACHINE_DIMS,
    ) -> float:
        """Fraction of local sites in the halo-dependent boundary shell.

        The overlapped pipeline computes interior sites
        (``d <= x_mu < L_mu - d`` on every decomposed axis, ``d`` the
        operator's deepest hop) during communication; only the boundary
        shell's arithmetic can contend with the wires.
        """
        cost = operator_cost(op)
        depth = max(cost.hop_depths)
        shape = tuple(int(s) for s in local_shape)
        interior = 1.0
        for mu in range(len(shape)):
            if mu < len(machine_dims) and machine_dims[mu] > 1:
                interior *= max(0, shape[mu] - 2 * depth) / shape[mu]
        return 1.0 - interior

    def exposed_comm_seconds(
        self,
        op: str,
        local_shape: Sequence[int],
        machine_dims: Sequence[int] = CALIBRATION_MACHINE_DIMS,
        precision: str = "double",
        Ls: int = 1,
        comms: str = "overlap",
    ) -> float:
        """Communication time *not* hidden behind compute, per application.

        ``overlap``: ``max(0, T_comm - T_boundary)`` — the two-phase
        pipeline of :mod:`repro.parallel` exposes only the excess of the
        exchange over the boundary-shell arithmetic.  ``serial``: the
        whole ``T_comm`` (monolithic assembly).  ``none``: zero.
        """
        if comms not in ("overlap", "serial", "none"):
            raise ConfigError(
                f"comms must be overlap/serial/none, got {comms!r}"
            )
        if comms == "none":
            return 0.0
        t_comm = self.halo_comm_seconds(op, local_shape, machine_dims, precision, Ls)
        if comms == "serial":
            return t_comm
        t_compute = self.dirac_seconds(op, local_shape, precision=precision, Ls=Ls)
        t_boundary = t_compute * self.boundary_fraction(op, local_shape, machine_dims)
        return max(0.0, t_comm - t_boundary)

    def cg_cycles_per_site(
        self,
        op: str,
        local_shape: Sequence[int],
        machine_dims: Sequence[int] = CALIBRATION_MACHINE_DIMS,
        precision: str = "double",
        Ls: int = 1,
        comms: str = "overlap",
    ) -> float:
        """Cycles per site for one full CG iteration (2 operator
        applications + exposed halo communication + linear algebra +
        2 global sums)."""
        cost = operator_cost(op)
        slices = cost.slices(Ls)
        local_volume = int(np.prod(local_shape)) * slices
        dirac = self.dirac_cycles_per_site(op, local_shape, precision, Ls)
        exposed = (
            self.exposed_comm_seconds(
                op, local_shape, machine_dims, precision, Ls, comms
            )
            * self.asic.clock_hz
            / local_volume
        )
        lin_flops, lin_words = cost.cg_linalg()
        if precision == "single":
            lin_words /= 2.0
        resident = cost.working_set_bytes(int(np.prod(local_shape)), Ls)
        linalg = self.memory.compute_cycles(
            self.calibration, lin_flops, lin_words, 0.0, resident
        )
        gsum_cycles = (
            2.0 * self.asic.global_sum_time(machine_dims) * self.asic.clock_hz
        ) / local_volume
        return (
            cost.dirac_applications_per_cg_iteration * (dirac + exposed)
            + linalg
            + gsum_cycles
        )

    # -- headline outputs ------------------------------------------------------
    def cg_flops_per_site(self, op: str) -> float:
        cost = operator_cost(op)
        lin_flops, _ = cost.cg_linalg()
        return (
            cost.dirac_applications_per_cg_iteration * cost.flops_per_site
            + lin_flops
        )

    def efficiency(
        self,
        op: str,
        local_shape: Sequence[int] = CALIBRATION_LOCAL_SHAPE,
        machine_dims: Sequence[int] = CALIBRATION_MACHINE_DIMS,
        precision: str = "double",
        Ls: int = 1,
        comms: str = "overlap",
    ) -> float:
        """Sustained fraction of peak for the CG solver.

        ``comms="overlap"`` (default) models the two-phase pipeline —
        zero exposed communication whenever the boundary-shell compute
        covers the exchange, which holds at the calibration point, so the
        published anchors are unchanged.  ``comms="serial"`` models the
        monolithic assembly; ``comms="none"`` the isolated kernel.
        """
        cycles = self.cg_cycles_per_site(
            op, local_shape, machine_dims, precision, Ls, comms
        )
        return self.cg_flops_per_site(op) / (
            self.asic.flops_per_cycle * cycles
        )

    def sustained_flops(self, op: str, n_nodes: int, **kwargs) -> float:
        return self.efficiency(op, **kwargs) * n_nodes * self.asic.peak_flops

    def dirac_seconds(
        self,
        op: str,
        local_shape,
        machine_dims: Optional[Sequence[int]] = None,
        comms: str = "none",
        **kwargs,
    ) -> float:
        """Wall time of one operator application on one node.

        With ``machine_dims`` given, ``comms="overlap"`` adds the exposed
        communication ``max(0, T_comm - T_boundary)`` and
        ``comms="serial"`` the full exchange; the default (``None`` /
        ``"none"``) is the pure compute time of the kernel.
        """
        v = int(np.prod(local_shape)) * operator_cost(op).slices(kwargs.get("Ls", 1))
        seconds = (
            self.dirac_cycles_per_site(op, local_shape, **kwargs)
            * v
            / self.asic.clock_hz
        )
        if machine_dims is not None and comms != "none":
            seconds += self.exposed_comm_seconds(
                op,
                local_shape,
                machine_dims,
                kwargs.get("precision", "double"),
                kwargs.get("Ls", 1),
                comms,
            )
        return seconds


# -- exact protocol predictions (telemetry crosscheck) ------------------------
#
# Unlike the calibrated timing model above, these functions are *exact*
# counts of what the functional simulator's distributed operators do, each
# one formula over the operator's cost sheet
# (:mod:`repro.fermions.flops`) — and, for the seconds, the compute-time
# rule over that sheet.  ``repro.telemetry.report.MachineReport
# .crosscheck`` compares measured hardware-style counters against them, so
# a drift in either the protocol implementation or the sheets fails the
# telemetry test suite.


def _sheet_and_faces(op: str, local_shape, machine_dims):
    """The operator's cost sheet, the tile volume and the total one-deep
    face sites over the decomposed axes."""
    try:
        cost = operator_cost(op)
    except KeyError as exc:
        raise ConfigError(f"no distributed cost sheet: {exc.args[0]}") from None
    shape = tuple(int(s) for s in local_shape)
    volume = int(np.prod(shape))
    face_sites = sum(
        volume // shape[mu]
        for mu in range(len(shape))
        if mu < len(machine_dims) and int(machine_dims[mu]) > 1
    )
    return cost, volume, face_sites


def halo_payload_words(
    op: str,
    local_shape: Sequence[int],
    machine_dims: Sequence[int],
    Ls: int = 1,
    compress: bool = True,
) -> int:
    """Exact SCU payload words **sent per node** per operator application.

    Per decomposed axis a rank ships, per face site, the
    ``max(hop_depths)``-deep low face of the source one way and one block
    of sender-side products per hop layer the other — ``1 + 1`` wire
    sites for the one-hop operators, ``3 + (1 + 3)`` for ASQTAD — each of
    the sheet's wire words (compressed half spinors vs the full-spinor
    wire where the two differ), times ``Ls`` slices for a 5-dimensional
    sheet.
    """
    cost, _volume, face_sites = _sheet_and_faces(op, local_shape, machine_dims)
    wire_sites = (max(cost.hop_depths) + sum(cost.hop_depths)) * face_sites
    return wire_sites * cost.wire_words(compress) * cost.slices(Ls)


def dirac_flops_per_node(
    op: str,
    local_shape: Sequence[int],
    machine_dims: Sequence[int],
    Ls: int = 1,
) -> float:
    """Exact flops charged per node for **one** distributed ``D`` apply.

    The sheet's ``flops_per_site`` on every site plus what the halo
    exchange adds on decomposed axes (:meth:`OperatorCost.halo_flops`:
    one staged ``U^+ (proj) psi`` SU(3) matvec per product site — one per
    face site for the one-hop operators, four for ASQTAD's fat + Naik
    blocks), times ``Ls`` slices for a 5-dimensional sheet.
    """
    cost, volume, face_sites = _sheet_and_faces(op, local_shape, machine_dims)
    per_slice = volume * cost.flops_per_site + cost.halo_flops(face_sites)
    return float(cost.slices(Ls) * per_slice)


def _seconds_per_flop(
    asic: Optional[ASICConfig], cost, volume: int, Ls: int, *mix: float
) -> float:
    """The compute-time rule, at the calibrated pair, over ``mix`` =
    ``(flops, words[, sites])`` on a tile of ``volume`` sites of ``cost``."""
    asic = asic if asic is not None else ASICConfig()
    return MemoryModel(asic).seconds_per_flop(
        calibrate(asic), *mix, working_set_bytes=cost.working_set_bytes(volume, Ls)
    )


def dirac_compute_seconds_per_node(
    op: str,
    local_shape: Sequence[int],
    machine_dims: Sequence[int],
    Ls: int = 1,
    asic: Optional[ASICConfig] = None,
) -> float:
    """Exact CPU seconds charged per node for **one** distributed ``D``
    apply: every flop of :func:`dirac_flops_per_node` at the rate the
    compute-time rule gives the sheet's mix on this tile (the model's
    :meth:`DiracPerfModel.dirac_seconds` plus the staged halo matvecs)."""
    cost, volume, _faces = _sheet_and_faces(op, local_shape, machine_dims)
    rate = _seconds_per_flop(asic, cost, volume, Ls, *cost.site_mix(Ls))
    return dirac_flops_per_node(op, local_shape, machine_dims, Ls) * rate


def linalg_charge_per_node(
    op: str,
    local_shape: Sequence[int],
    linalg: Mapping[Tuple[str, str], int],
    Ls: int = 1,
    asic: Optional[ASICConfig] = None,
) -> Tuple[float, float]:
    """Exact ``(flops, CPU seconds)`` charged per node by a solver's
    vector kernels, ``linalg`` = ``(kernel, dtype name) -> calls`` on the
    vectors of ``op``'s tile: each kernel at the table's mix
    (:func:`~repro.fermions.flops.linalg_mix`), no per-site loop overhead."""
    cost = operator_cost(op)
    volume = int(np.prod(local_shape))
    components = volume * cost.slices(Ls) * cost.site_words
    flops = seconds = 0.0
    for (kernel, dtype), calls in linalg.items():
        if calls:
            mix = linalg_mix({kernel: calls}, components, np.dtype(dtype).itemsize)
            flops += mix[0]
            seconds += mix[0] * _seconds_per_flop(asic, cost, volume, Ls, *mix)
    return flops, seconds


def cg_kernel_calls(iterations: int) -> Dict[Tuple[str, str], int]:
    """A double-precision CG solve's vector-kernel calls per rank
    (:func:`repro.solvers.krylov.cg_iter`): every iteration's, and the
    set-up's two dots — the ``linalg`` of the solve's crosscheck."""
    calls = {k: iterations * n for k, n in CG_ITERATION_KERNELS.items()}
    calls["dot"] += 2
    return {(k, "complex128"): n for k, n in calls.items()}


def calibrate(asic: Optional[ASICConfig] = None) -> Calibration:
    """Solve (cpw, c0) from the paper's Wilson and clover efficiencies.

    The CG cycle count is linear in both constants, so this is an exact
    2x2 linear solve — no fitting freedom beyond the two published
    anchors.  The coefficients are read off the compute-time rule itself
    (:meth:`~repro.machine.memory.MemoryModel.compute_cycles`, evaluated
    at unit constants), which is what makes it the derivation of the pair
    that rule then prices every kernel with.
    """
    return _calibrate(asic if asic is not None else ASICConfig())


@lru_cache(maxsize=None)
def _calibrate(asic: ASICConfig) -> Calibration:
    memory = MemoryModel(asic)
    volume = int(np.prod(CALIBRATION_LOCAL_SHAPE))

    def cg_compute_cycles(op: str, fit: Calibration) -> float:
        """Per site: the iteration's operator applications + its linalg."""
        cost = operator_cost(op)
        resident = cost.working_set_bytes(volume)
        lin_flops, lin_words = cost.cg_linalg()
        return cost.dirac_applications_per_cg_iteration * memory.compute_cycles(
            fit, *cost.site_mix(), resident
        ) + memory.compute_cycles(fit, lin_flops, lin_words, 0.0, resident)

    # global-sum cycles per site on the calibration machine
    gsum = (
        2.0
        * asic.global_sum_time(CALIBRATION_MACHINE_DIMS)
        * asic.clock_hz
        / volume
    )

    a = np.zeros((2, 2))
    b = np.zeros(2)
    for i, (op, target) in enumerate(sorted(CALIBRATION_TARGETS.items())):
        fixed = cg_compute_cycles(op, FPU_BOUND)
        a[i] = [
            cg_compute_cycles(op, Calibration(1.0, 0.0)) - fixed,
            cg_compute_cycles(op, Calibration(0.0, 1.0)) - fixed,
        ]
        # ``fixed`` cycles are the iteration at peak; the published
        # fraction of peak stretches it
        b[i] = fixed / target - fixed - gsum
    cpw, c0 = np.linalg.solve(a, b)
    if cpw <= 0 or c0 <= 0:
        raise ConfigError(
            f"calibration produced non-physical constants cpw={cpw}, c0={c0}"
        )
    return Calibration(float(cpw), float(c0))
