"""The one halo pipeline every distributed Dirac operator runs on.

Each rank owns one tile of the lattice.  Applying a hopping term needs,
per decomposed axis ``mu``:

* the **+mu neighbour's low face** of the source field (``depth`` layers,
  ``depth`` the operator's longest hop) — used as "my forward neighbour's
  value" on my high face; and
* the **-mu neighbour's** precomputed ``U^+`` products from *its* high
  face — used as my backward hopping term on my low face.  Shipping the
  product instead of (field + gauge link) halves the traffic and matches
  the zero-copy, sender-side-multiply structure of the real kernels.

All four transfers per axis run through **persistent SCU descriptors**
stored once at context creation: every subsequent operator application
starts them with a *single* ``start_stored`` call per group, which is
precisely the "only a single write (start transfer) is needed to start up
to 24 communications" usage of paper section 3.3.

:class:`HaloPipeline` owns what that mechanism needs and no operator
arithmetic: the ``work`` source buffer and the halo/staging node
buffers, the stored descriptors in their start groups, the
interior/boundary site counts the merge charge is split by, the
hot-epoch bracket, the sanitizer checkpoints, and the one generator
(:meth:`HaloPipeline.exchange`) that sequences an application.  The site kernels compute with the site index
fastest (DESIGN.md §12) while the node buffers keep the layout the
descriptors and the wire read: the pipeline hands the kernels ``source``
(the one transposed copy of ``work`` an application makes), the halo and
stage buffers as site-fastest views, and ``out_t``, the site-fastest
view of the caller-visible result ``out``.  An operator is a subclass
that declares its **spec** (constructor arguments below, plus the
``groups`` it fires) and supplies the site kernels the generator calls
between the steps:

``project()``
    only when the wire is compressed: fill every decomposed axis's
    ``stage_fwd[mu]`` from the low faces of ``source`` (matvec-free,
    uncharged);
``stage() -> sites``
    fill every axis's ``stage_bwd[mu]`` with the sender-side products of
    its high face; returns the site count, charged one SU(3) matvec each;
``interior() -> flops``
    run every matvec that needs no halo data;
``land()``
    patch the face rows from every halo, once per application, after
    the drain (which has charged each halo's landing as it came in);
``merge()``
    accumulate the per-``mu`` terms over the whole tile into
    ``self.out``, once per application, after ``land``; charged
    ``merge_flops_per_site`` per site — what the operator's cost sheet
    leaves once its site-local flops and the ``2 * ndim`` SU(3) matvecs
    charged where their rows are computed are taken out — the interior
    sites' share in step 4 and the boundary sites' in step 6.

Each kernel runs once per application, over every decomposed axis at
once: a buffer family (``halo_fwd*``, ``halo_bwd*``, ``stage_bwd*``,
``stage_fwd*``) is one host array (``halo_fwd_rows``, ...), the faces of
the axes its consecutive rows, and each axis's node buffer is its slice,
so a kernel writes a whole family where the descriptors read it.

The pipeline, step by step
--------------------------
The paper's sustained-efficiency claims (section 4) rest on DMA transfers
running *concurrently* with CPU arithmetic; the steps below are the
order :meth:`repro.perfmodel.dirac_perf.DiracPerfModel.exposed_comm_seconds`
prices, so the seconds a rank waits on the wires are the model's.  One
application is one hot epoch
(the first learns the SCU transfer schedule, the rest replay its compiled
trace, :mod:`repro.machine.replay`) and runs:

1. copy the source into ``work``, transpose it into ``source``
   (:meth:`HaloPipeline.transpose_source`) and start group ``"early"`` —
   *both* receives, plus the raw low-face send when the wire is
   uncompressed, so no link ever idles waiting for a late receive;
2. ``project()`` the low faces of every axis, then start group
   ``"proj"`` (the projected low-face sends: pure sign/permute adds, on
   the wire before any matvec is charged);
3. ``stage()`` the high faces of every axis, charge the staged matvecs,
   start group ``"staged"`` (the product sends);
4. ``interior()``, charged together with the merge flops of the
   interior sites (``depth <= x_mu < L_mu - depth`` on every decomposed
   axis), which need no halo — one charge, all of it while the wires
   are busy;
5. a completion-order drain loop over the events keyed ``(kind, mu,
   sign)``: each turn takes the first transfer, in start order, that has
   already landed — inline, as the CPU reads a finished DMA's status —
   and sleeps on :meth:`CommsAPI.wait_any` over the rest only when none
   has; a failed transfer raises where it is taken, each landed receive
   has its buffer read and its landing charged on the spot (the flops of
   a per-``(mu, sign)`` table built at construction), send completions
   need no compute; then ``land()`` patches every face row the halos
   fill, with no charge of its own;
6. ``merge()`` over the whole tile, computed by the host once, here,
   where every hop term is complete, and charged the boundary sites'
   merge flops.  The interior/boundary split lives in the charges the
   model prices, not in what the host computes: one pass of whole-tile
   numpy calls, no per-site-set gathers.  Likewise the landings: the
   host patches the faces once, after the drain, while the simulated
   CPU is charged for each as its halo lands.

``overlap=False`` is the same pipeline in the *serialised* order the
paper's section 4 claim is measured against: nothing starts before
staging, every group then starts at once and the rank waits for all
transfers before step 4, and no site counts as interior (the whole
merge is charged in step 6).  Kernels, payload and total charged flops
are identical; only the timeline is longer — by the exchange it exposes, so
a tile with no decomposed axis, which has none, runs the one order under
either flag.

The assembled sum is **bit-identical** (``==``, not allclose) in both
orders and on any decomposition: all per-site kernels are
row-independent, and each operator's ``merge`` adds its per-``mu``
terms in one fixed order per element.

The source field always sits in the node-memory buffer ``work`` (so the
descriptors can be persistent), every buffer the steady state touches is
allocated once at construction (DESIGN.md §12), and every numpy
evaluation charges simulated CPU time through the cost sheets of
:mod:`repro.fermions.flops`, at the rate the machine's one compute-time
rule gives the sheet's flops and words on this tile
(:meth:`repro.machine.memory.MemoryModel.seconds_per_flop`, once per
context).
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping, Tuple

import numpy as np

from repro.comms.api import CommsAPI, face_descriptor, full_descriptor
from repro.fermions.flops import MATVEC_SU3, OperatorCost, linalg_mix
from repro.lattice import stencil
from repro.lattice.geometry import LatticeGeometry
from repro.machine.scu import normalise_word_batch
from repro.perfmodel.dirac_perf import calibrate
from repro.util.errors import ConfigError
from repro.util.hotpath import hot_path


class HaloPipeline:
    """Per-rank halo-exchange state shared by the distributed operators.

    Parameters
    ----------
    api:
        The rank's :class:`CommsAPI`.
    local_shape:
        The tile's lattice extents; its rank must equal the partition's
        logical rank.
    tag:
        Hot-epoch tag of one application (``"pdirac.hopping"``, ...).
    kernel:
        Kernel-ledger tag of every flop charge the pipeline makes.
    cost:
        The operator's cost sheet (:mod:`repro.fermions.flops`): its hop
        distances (the halo is ``max(hop_depths)`` deep), the words per
        field site and per wire site, and the flop charges.  Fewer wire
        words than site words means the wire is compressed: it keeps that
        fraction of the site's leading (spin) axis, and the forward halo
        is staged by ``project`` instead of being sent raw from ``work``.
    site_shape:
        Per-site shape of the field.
    buffers:
        Node-memory name stems of (forward halo, backward-product halo,
        backward-product staging).
    lead:
        Extra leading field axes shipped whole in every transfer (DWF's
        ``(Ls,)``).
    overlap:
        ``True`` runs the overlapped order, ``False`` the serialised one
        (module docstring); output and charged flops are identical.
    word_batch:
        DMA framing of the stored sends.  ``None`` inherits the machine's
        configured ``word_batch`` — the one knob propagates consistently
        to every unit; ``"face"`` is the hot-path configuration, ``1``
        the word-at-a-time protocol (mandatory on lossy links, where
        go-back-N must rewind words, not whole faces).
    """

    #: start groups the overlapped order fires, in order
    groups: Tuple[str, ...] = ("early", "staged")

    def __init__(
        self,
        api: CommsAPI,
        local_shape,
        *,
        tag: str,
        kernel: str,
        cost: OperatorCost,
        site_shape: Tuple[int, ...],
        buffers: Tuple[str, str, str] = ("halo_fwd", "halo_bwd", "stage_bwd"),
        lead: Tuple[int, ...] = (),
        overlap: bool = True,
        word_batch=None,
    ):
        self.api = api
        self.tag = tag
        self.kernel = kernel
        self.cost = cost
        hops = cost.hop_depths
        site_words, wire_words = cost.site_words, cost.wire_words()
        self.word_batch = (
            None if word_batch is None else normalise_word_batch(word_batch)
        )
        self.geometry = g = LatticeGeometry(local_shape)
        self.volume = g.volume
        if g.ndim != len(api.dims):
            raise ConfigError(
                f"local_shape {tuple(local_shape)} has rank {g.ndim} but the "
                f"partition's logical mesh {tuple(api.dims)} has rank "
                f"{len(api.dims)}"
            )
        self.overlap = bool(overlap)
        #: transfers and flop charges cover every leading slice
        self._slices = math.prod(lead)
        self.merge_flops_per_site = self._slices * (
            cost.flops_per_site
            - cost.local_flops_per_site
            - 2 * g.ndim * MATVEC_SU3
        )
        # CPU time, by the one compute-time rule: the sheet's mix of flops,
        # streamed words and loop overhead on a tile of this residency,
        # worked out here once and apportioned to every charge by its
        # flops — the phases of one application sum to the closed form.
        self._fit = calibrate(api.node.asic)
        #: seconds per flop of the operator's own arithmetic
        self.rate = self.kernel_rate(cost)
        #: test seam: when set, called as ``hook(self)`` immediately after
        #: the overlapped order fires its "early" group — i.e. while all
        #: receives are in flight.  The race-sanitizer tests use it to
        #: inject a deterministic premature halo read; ``None`` (default)
        #: costs one attribute check per application.
        self.race_injection_hook = None

        #: axes actually decomposed over nodes; an extent-1 logical axis
        #: keeps the whole physics axis on-tile, so its periodic wrap is
        #: local arithmetic and needs no SCU traffic.
        self.comm_axes = [mu for mu in range(g.ndim) if api.dims[mu] > 1]
        depth = max(hops)
        #: per hop distance, the halo plans of the decomposed axes
        self.hop_plans = {
            h: {mu: stencil.halo_plan(g.shape, mu, h) for mu in self.comm_axes}
            for h in hops
        }
        #: the nearest-neighbour plans (every operator has a 1-hop term)
        self.plans = self.hop_plans[1]
        #: how many sites the merge charge prices during the exchange and
        #: after it: interior sites touch no halo and are fully computable
        #: during communication; boundary sites wait on per-axis halo
        #: arrival.  The host merges the whole tile once, after the drain.
        self.interior_count, self.boundary_count = (
            len(sites)
            for sites in stencil.site_partition(g.shape, tuple(self.comm_axes), depth)
        )
        if not self.overlap and self.comm_axes:
            # serialised: every site waits, all of the merge after the
            # drain (with no decomposed axis there is no exchange to wait
            # for, and the two orders are one: the same charges, the same
            # clock)
            self.interior_count, self.boundary_count = 0, g.volume

        self.compress = wire_words < site_words
        wire_shape = (site_shape[0] * wire_words // site_words,) + site_shape[1:]
        fwd_name, bwd_name, stage_name = buffers
        mem = api.memory

        self.work = mem.zeros("work", lead + (g.volume,) + site_shape)
        self._work_t = np.moveaxis(self.work, len(lead), -1)
        #: the source, site index fastest: the one transposed copy an
        #: application makes (:meth:`transpose_source`)
        self.source = np.empty(lead + site_shape + (g.volume,), dtype=self.work.dtype)
        #: the caller-visible result, in the caller's layout; the merges
        #: scatter their accumulators into its site-fastest view ``out_t``
        self.out = np.empty_like(self.work)
        self.out_t = np.moveaxis(self.out, len(lead), -1)

        # Per buffer family, every decomposed axis's faces are consecutive
        # rows of one host array, the site index first (so each axis's
        # slice is contiguous whatever ``lead`` is), ascending ``mu``: the
        # forward halo and its staging are the depth-deep low faces, the
        # backward ones one packed block of products per hop distance,
        # nearest first.  Each slice is an axis's node buffer, under the
        # name its descriptors and the sanitizer use.
        n_fwd = {mu: len(self.hop_plans[depth][mu].send_low) for mu in self.comm_axes}
        n_bwd = {
            mu: sum(len(self.hop_plans[h][mu].send_high) for h in hops)
            for mu in self.comm_axes
        }

        def family(counts):
            faces = sum(counts.values())
            rows = np.zeros((faces,) + lead + wire_shape, self.work.dtype)
            ends = list(itertools.accumulate(counts.values(), initial=0))
            return rows, {mu: rows[a:b] for mu, a, b in zip(counts, ends, ends[1:])}

        #: the host arrays of the four families, ``(faces,) + lead + wire
        #: site``; ``stage_fwd_rows`` only on the compressed wire
        self.halo_fwd_rows, fwd_rows = family(n_fwd)
        self.halo_bwd_rows, bwd_rows = family(n_bwd)
        self.stage_bwd_rows, stage_rows = family(n_bwd)
        self.stage_fwd_rows, proj_rows = family(n_fwd) if self.compress else (None, {})

        def node_buffer(name: str, rows: np.ndarray) -> np.ndarray:
            """``rows`` registered as a node buffer, viewed site-fastest."""
            return np.moveaxis(mem.alloc(name, rows), 0, -1)

        # per decomposed axis: the two receive halos and the two send
        # stages, each the site-fastest view of its node buffer (the
        # buffer itself keeps the descriptors' layout)
        self.halo_fwd, self.halo_bwd, self.stage_fwd, self.stage_bwd = {}, {}, {}, {}
        #: per receive key ``("recv", mu, sign)`` of the drain: the buffer
        #: it lands in and the flops charged as it lands — the sheet's
        #: landing matvecs on every forward-halo site
        self._landing = {}
        landing_flops = self._slices * cost.landing_matvecs * MATVEC_SU3
        batch = self.word_batch

        def whole(stem: str, mu: int):
            return full_descriptor(api.node, f"{stem}{mu}")

        for mu in self.comm_axes:
            self.halo_fwd[mu] = node_buffer(f"{fwd_name}{mu}", fwd_rows[mu])
            self.halo_bwd[mu] = node_buffer(f"{bwd_name}{mu}", bwd_rows[mu])
            self.stage_bwd[mu] = node_buffer(f"{stage_name}{mu}", stage_rows[mu])
            self._landing["recv", mu, +1] = (
                f"{fwd_name}{mu}",
                landing_flops * len(self.plans[mu].fill_from_fwd),
            )
            self._landing["recv", mu, -1] = (f"{bwd_name}{mu}", 0)
            # Persistent descriptors (stored once, restarted every apply).
            if self.compress:
                # The forward halo is projected *before* the send, so its
                # descriptor reads the staged buffer, in its own start
                # group: on the wire before any staging matvec is charged.
                self.stage_fwd[mu] = node_buffer(f"stage_fwd{mu}", proj_rows[mu])
                low_face, group = whole("stage_fwd", mu), "proj"
            else:
                low_face, group = face_descriptor(
                    "work", local_shape, mu, -1, site_words, depth=depth
                ), "early"
            #  my (projected) low face -> the -mu neighbour,
            api.store_send(mu, -1, low_face, group=group, word_batch=batch)
            #  sender-side products from my high face -> +mu neighbour,
            api.store_send(
                mu, +1, whole(stage_name, mu), group="staged", word_batch=batch
            )
            #  the +mu neighbour's low face,
            api.store_recv(mu, +1, whole(fwd_name, mu), group="early")
            #  products arriving from the -mu neighbour.
            api.store_recv(mu, -1, whole(bwd_name, mu), group="early")
        #: the sanitizer names of the buffers ``project`` and ``stage`` write
        self._projected = [f"stage_fwd{mu}" for mu in self.stage_fwd]
        self._staged = [f"{stage_name}{mu}" for mu in self.comm_axes]

    def kernel_rate(self, cost: OperatorCost) -> float:
        """Seconds per flop of ``cost``'s kernel on this tile — the
        operator's own sheet, or another kernel run over the same sites
        (the fermion force)."""
        return self.api.memory.model.seconds_per_flop(
            self._fit,
            *cost.site_mix(self._slices),
            cost.working_set_bytes(self.volume, self._slices),
        )

    def charge(self, kernels: Mapping[str, int], v: np.ndarray):
        """The solver's vector ``kernels`` (name -> calls) on operands like
        ``v`` as one charge (generator): the table's mix, the words from
        ``v``'s dtype, no per-site loop overhead on this tile."""
        flops, words = linalg_mix(kernels, 2 * v.size, v.itemsize)
        resident = self.cost.working_set_bytes(self.volume, self._slices)
        model = self.api.memory.model
        rate = model.seconds_per_flop(self._fit, flops, words, 0.0, resident)
        yield self.api.compute(flops, kernel="linalg", rate=rate)

    @hot_path
    def transpose_source(self) -> None:
        """Copy ``work`` into ``source`` with the site index fastest.

        The node buffers keep the layout the descriptors and the wire
        read; every site kernel computes in this one (DESIGN.md §12), so
        an application transposes its source once, here, and its result
        once, as the merges scatter into ``out``.
        """
        np.copyto(self.source, self._work_t)

    @hot_path
    def exchange(self, src: np.ndarray):
        """One application of the pipeline (generator yielding machine
        events); returns the context-owned ``self.out``, valid until the
        next application.

        Steady-state allocation-free: the site kernels land every numpy
        result in context scratch (``out=`` kernels, ``a.take(...,
        out=)`` gathers).
        """
        api, kernel, rate, overlap = self.api, self.kernel, self.rate, self.overlap
        api.begin_hot_epoch(self.tag)
        try:
            api.cpu_write("work")
            np.copyto(self.work, src)
            self.transpose_source()

            pending = {}  # steps 1-3 of the module docstring
            if overlap:
                pending.update(api.start_stored_events(group="early"))
                if self.race_injection_hook is not None:
                    self.race_injection_hook(self)
            if self.compress:
                for name in self._projected:
                    api.cpu_write(name)
                self.project()
            if overlap and "proj" in self.groups:
                pending.update(api.start_stored_events(group="proj"))
            for name in self._staged:
                api.cpu_write(name)
            staged = self.stage()
            if staged:
                yield api.compute(staged * MATVEC_SU3, kernel=kernel, rate=rate)
            if overlap:
                pending.update(api.start_stored_events(group="staged"))
            else:
                # serialised: one write starts everything, then wait
                pending.update(api.start_stored_events())
                yield api.wait(pending.values())

            # ---- interior phase: every matvec that needs no halo data, and
            # the interior sites' share of the merge ----------------------
            flops = self.interior() + self.interior_count * self.merge_flops_per_site
            yield api.compute(flops, kernel=kernel, rate=rate)

            # ---- boundary phase: drain transfers in completion order ----
            landing = self._landing
            while pending:
                # take a landed transfer inline (the first in start order,
                # the one wait_any would resolve to); sleep only if none has
                key = next((k for k, e in pending.items() if e.triggered), None)
                if key is None:
                    fired = yield api.wait_any(pending.values())
                    key = next(k for k, e in pending.items() if e is fired)
                elif not pending[key].ok:
                    raise pending[key].exception
                del pending[key]
                if key not in landing:
                    continue  # send completions need no compute
                # the landed halo is read here, and its patch charged here
                buffer, flops = landing[key]
                api.cpu_read(buffer)
                if flops:
                    yield api.compute(flops, kernel=kernel, rate=rate)
            self.land()

            # ---- the merge, over the whole tile; the boundary sites' share
            # is charged here -----------------------------------------------
            self.merge()
            if self.boundary_count:
                yield api.compute(
                    self.boundary_count * self.merge_flops_per_site,
                    kernel=kernel,
                    rate=rate,
                )
        finally:
            api.end_hot_epoch(self.tag)
        return self.out

    def normal(self, src: np.ndarray):
        """``D^+ D src`` — one CG iteration's operator work."""
        d_src = yield from self.apply(src)
        out = yield from self.apply_dagger(d_src)
        return out
