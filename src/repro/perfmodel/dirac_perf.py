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
* **communication overlap** (``overlap=`` on :meth:`DiracPerfModel.efficiency`,
  as on the pipeline): the SCU runs all 24 DMA transfers concurrently with
  CPU arithmetic, and an application waits on the wires only where
  :meth:`repro.parallel.halo.HaloPipeline.exchange`'s own phase order
  makes it wait — staging, then ``max(T_wire, T_interior)``, then each
  halo's terms as it lands (:meth:`DiracPerfModel.exposed_comm_seconds`,
  every wire time from :meth:`~repro.machine.asic.ASICConfig.transfer_times`).
  ``overlap=False`` is the serialised order — the monolithic assembly
  that waits for every halo before touching a single site.  At the
  calibration point the overlapped order waits for nothing, so the
  published Wilson/clover anchors are reproduced exactly; at small local
  volumes (the paper's 2^4 headline) the serialized model falls well
  below the published 40-50% band while the overlapped model stays
  inside it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.fermions.flops import (
    CG_ITERATION_KERNELS,
    MATVEC_SU3,
    linalg_mix,
    operator_cost,
)
from repro.machine.asic import ASICConfig
from repro.machine.memory import FPU_BOUND, Calibration, MemoryModel
from repro.util.errors import ConfigError

#: a cable pair's wire times (:meth:`ASICConfig.transfer_times`), memoised:
#: a sweep asks for the same pairs under every operator and precision
_transfer_times = lru_cache(maxsize=4096)(ASICConfig.transfer_times)

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
    def exposed_comm_seconds(
        self,
        op: str,
        local_shape: Sequence[int],
        machine_dims: Sequence[int] = CALIBRATION_MACHINE_DIMS,
        precision: str = "double",
        Ls: int = 1,
        overlap: bool = True,
        word_batch=1,
        compress: bool = True,
    ) -> float:
        """Seconds of one application a rank waits on the wires.

        The phase order of :meth:`repro.parallel.halo.HaloPipeline.exchange`
        (``overlap``, ``word_batch`` and ``compress`` are its own): per
        decomposed axis the low face leaves at once and the sender-side
        products once staging is charged, each pair on its own cable
        (:meth:`~repro.machine.asic.ASICConfig.transfer_times`).  The rank
        stages, computes the interior phase, then takes the transfers as
        they complete, each forward halo's landing matvecs on the spot;
        the seconds it waits are the exposure.  Serialised, it waits for
        every transfer straight after staging; a sheet with no products
        (the fermion force) ships its faces and waits for them first.
        """
        cost, shape, volume, faces = _sheet_and_faces(op, local_shape, machine_dims)
        if not faces:
            return 0.0
        halve = 2 if precision == "single" else 1  # words in single precision
        flops, streamed, loops = cost.site_mix(Ls)
        rate = _seconds_per_flop(
            self.asic, cost, volume, Ls, flops, streamed / halve, loops
        )
        slices = cost.slices(Ls)
        sites = {mu: cost.wire_sites(face) for mu, face in faces.items()}
        products = sum(bwd for _fwd, bwd in sites.values())
        t_stage = slices * products * MATVEC_SU3 * rate  # one matvec per product
        words = slices * cost.wire_words(compress) // halve
        landing = slices * cost.landing_matvecs * MATVEC_SU3
        pipelined = overlap and products > 0
        events = []  # (time a transfer completes, flops its landing runs)
        for mu, (fwd, bwd) in sites.items():
            start = 0.0 if pipelined else t_stage
            (fwd_in, fwd_out), (bwd_in, bwd_out) = _transfer_times(
                self.asic, ((start, fwd * words), (t_stage, bwd * words)), word_batch
            )
            events += [(fwd_in, landing * faces[mu]), (bwd_in, 0)]
            events += [(fwd_out, 0), (bwd_out, 0)]
        if not pipelined:
            return max(time for time, _flops in events) - t_stage
        # the interior phase: every hop matvec but the landings', the
        # site-local term where the sheet charges it there, and the merge
        # of the sites no halo reaches
        depth = max(cost.hop_depths)
        interior_sites = volume
        for mu in faces:
            interior_sites = interior_sites // shape[mu] * max(0, shape[mu] - 2 * depth)
        ndim = len(shape)
        merge = cost.flops_per_site - cost.local_flops_per_site - 2 * ndim * MATVEC_SU3
        interior = (
            slices * 2 * ndim * volume * MATVEC_SU3
            - landing * sum(faces.values())
            + cost.local_in_interior * slices * volume * cost.local_flops_per_site
            + interior_sites * slices * merge
        )
        t = t_stage + interior * rate
        waited = 0.0
        for time, halo_flops in sorted(events):
            if time > t:
                waited += time - t
                t = time
            t += halo_flops * rate
        return waited

    def cg_cycles_per_site(
        self,
        op: str,
        local_shape: Sequence[int],
        machine_dims: Sequence[int] = CALIBRATION_MACHINE_DIMS,
        precision: str = "double",
        Ls: int = 1,
        overlap: bool = True,
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
                op, local_shape, machine_dims, precision, Ls, overlap
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
        overlap: bool = True,
    ) -> float:
        """Sustained fraction of peak for the CG solver, in the pipeline's
        overlapped order or (``overlap=False``) its serialised one."""
        cycles = self.cg_cycles_per_site(
            op, local_shape, machine_dims, precision, Ls, overlap
        )
        return self.cg_flops_per_site(op) / (
            self.asic.flops_per_cycle * cycles
        )

    def sustained_flops(self, op: str, n_nodes: int, **kwargs) -> float:
        return self.efficiency(op, **kwargs) * n_nodes * self.asic.peak_flops


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
    """The operator's cost sheet, the tile's shape and volume, and the
    one-deep face sites of each decomposed axis; a tile the distributed
    operator refuses (:meth:`OperatorCost.check_tile`) is refused here."""
    try:
        cost = operator_cost(op)
    except KeyError as exc:
        raise ConfigError(f"no distributed cost sheet: {exc.args[0]}") from None
    shape = tuple(int(s) for s in local_shape)
    cost.check_tile(shape, machine_dims)
    volume = int(np.prod(shape))
    faces = {
        mu: volume // shape[mu]
        for mu in range(len(shape))
        if mu < len(machine_dims) and int(machine_dims[mu]) > 1
    }
    return cost, shape, volume, faces


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
    cost, shape, _volume, faces = _sheet_and_faces(op, local_shape, machine_dims)
    wire_sites = sum(
        sum(cost.wire_sites(face)) for mu, face in faces.items()
    )
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
    cost, _shape, volume, faces = _sheet_and_faces(op, local_shape, machine_dims)
    per_slice = volume * cost.flops_per_site + cost.halo_flops(sum(faces.values()))
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
    :meth:`DiracPerfModel.dirac_cycles_per_site` plus the staged halo
    matvecs)."""
    cost, _shape, volume, _faces = _sheet_and_faces(op, local_shape, machine_dims)
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
