"""The distributed ASQTAD operator: 1-hop *and* 3-hop halo exchange.

Paper section 1: improved discretisations "may require second or third
nearest-neighbor communications in the physics problem grid.  In either
case, the communications requirements are easily met by a computer with a
regular Cartesian grid network".  This module is that claim, functional:
the ASQTAD Naik term needs the neighbour's three boundary layers, which
travel over the same nearest-neighbour SCU links as the one-hop fat-link
halo — one DMA message per link per application, using the depth-3
block-strided face descriptors.

Per axis ``mu`` and application, each rank exchanges:

* toward ``-mu``: its **depth-3 low face** of the source field (raw
  colour vectors) — the ``+mu`` neighbour uses layer 0 for the fat-link
  forward hop and layers 0-2 for the Naik forward hop;
* toward ``+mu``: a packed staging buffer of sender-side products —
  ``V^+ chi`` on the depth-1 high face followed by ``W^+ chi`` on the
  depth-3 high face — the ``-mu`` neighbour's backward hops.

Like :mod:`repro.parallel.pdirac`, ``hopping`` defaults to the two-phase
**overlapped** pipeline: the depth-3 raw-face DMA (descriptor group
``"early"``) starts before the staging products are computed; the local
backward matvecs and the full assembly of interior sites (``3 <= x_mu <
L_mu - 3`` on communicated axes — the Naik term makes the boundary shell
three sites deep) run while the wires are busy; and a per-axis drain loop
patches face rows as halos land (all staggered halo patches are pure row
copies — the forward matvecs happen in the merge).  Output is
bit-identical to the monolithic path (``overlap=False``) and charged
flops are identical; only the timeline changes.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.comms.api import CommsAPI, face_descriptor, full_descriptor
from repro.fermions.flops import (
    MATVEC_SU3,
    STAGGERED_DIAG_FLOPS,
    STAGGERED_WORDS,
    operator_cost,
)
from repro.fermions.staggered import staggered_phases
from repro.lattice import stencil
from repro.lattice.gauge import cmatvec
from repro.lattice.geometry import LatticeGeometry
from repro.lattice.halos import halo_exchange_plan, interior_boundary_sites
from repro.lattice.su3 import dagger
from repro.machine.scu import normalise_word_batch
from repro.util.errors import ConfigError
from repro.util.hotpath import hot_path

#: 64-bit words per staggered site (3 complex doubles).  A colour vector
#: has no rank-2 spin structure, so — unlike Wilson/DWF — there is no
#: half-spinor compression: the staggered wire format is already minimal.
#: Single source of truth in :mod:`repro.fermions.flops`.
WORDS_PER_SITE = STAGGERED_WORDS


class DistributedStaggeredContext:
    """Per-rank state for the distributed ASQTAD operator.

    Parameters
    ----------
    fat, long:
        ``(ndim, v, 3, 3)`` local fat links and Naik 3-link transporters
        (built globally by :func:`repro.fermions.staggered.fat_links` /
        ``long_links`` and scattered — smearing needs neighbour links, so
        it runs on the gauge field before distribution, exactly as
        production codes precompute smeared links).
    """

    def __init__(
        self,
        api: CommsAPI,
        local_shape,
        fat: np.ndarray,
        long: np.ndarray,
        mass: float,
        c_naik: float = -1.0 / 24.0,
        overlap: bool = True,
        word_batch=None,
    ):
        self.api = api
        #: DMA framing of the stored halo exchanges (``None`` = inherit
        #: the machine's ``word_batch``; ``"face"`` = the hot path)
        self.word_batch = (
            None if word_batch is None else normalise_word_batch(word_batch)
        )
        self.geometry = LatticeGeometry(local_shape)
        g = self.geometry
        v, ndim = g.volume, g.ndim
        if fat.shape != (ndim, v, 3, 3) or long.shape != (ndim, v, 3, 3):
            raise ConfigError("bad local link shapes for staggered context")
        self.fat = fat
        self.long = long
        self.mass = float(mass)
        self.c_naik = float(c_naik)
        self.phases = staggered_phases(g)
        self.cost = operator_cost("asqtad")
        self.overlap = bool(overlap)
        self.comm_axes = [mu for mu in range(ndim) if api.dims[mu] > 1]
        for mu in self.comm_axes:
            if local_shape[mu] < 3:
                raise ConfigError(
                    f"axis {mu}: local extent {local_shape[mu]} < 3; the Naik "
                    "halo would span two tiles (enlarge the local volume)"
                )
            if local_shape[mu] % 2:
                raise ConfigError(
                    f"axis {mu}: odd local extent {local_shape[mu]} on a decomposed "
                    "axis; the Kawamoto-Smit phases come from local coordinates, "
                    "so their sign would flip on odd-coordinate ranks"
                )
        self.fat_dagger_bwd = np.stack(
            [dagger(fat[mu][g.neighbour_bwd(mu)]) for mu in range(ndim)]
        )
        self.long_dagger_bwd3 = np.stack(
            [dagger(long[mu][g.hop(mu, -3)]) for mu in range(ndim)]
        )
        # plans only for decomposed axes: undecomposed axes wrap locally,
        # whatever their extent.
        self.plan1 = {mu: halo_exchange_plan(g, mu, 1) for mu in self.comm_axes}
        self.plan3 = {mu: halo_exchange_plan(g, mu, 3) for mu in self.comm_axes}
        #: the Naik term reaches 3 sites, so the boundary shell is 3 deep
        self.interior_sites, self.boundary_sites = interior_boundary_sites(
            g, tuple(self.comm_axes), depth=3
        )
        #: per-site merge flops summed over axes (forward fat/long matvecs
        #: plus the combine/phase arithmetic); the 2*ndim backward matvecs
        #: are charged where their rows are computed.
        self.merge_flops_per_site = (
            self.cost.flops_per_site - STAGGERED_DIAG_FLOPS - 2 * ndim * MATVEC_SU3
        )

        mem = api.memory
        self.work = mem.zeros("work", (v, 3))
        self.raw_halo: Dict[int, np.ndarray] = {}
        self.prod_halo: Dict[int, np.ndarray] = {}
        self.stage: Dict[int, np.ndarray] = {}
        #: rows of the depth-3 raw halo that form the neighbour's x==0
        #: layer (used for the 1-hop forward fill)
        self.raw_layer0: Dict[int, np.ndarray] = {}
        for mu in self.comm_axes:
            n1 = len(self.plan1[mu].send_low)
            n3 = len(self.plan3[mu].send_low)
            self.raw_halo[mu] = mem.zeros(f"raw_halo{mu}", (n3, 3))
            # packed products: [fat products (n1) ; naik products (n3)]
            self.prod_halo[mu] = mem.zeros(f"prod_halo{mu}", (n1 + n3, 3))
            self.stage[mu] = mem.zeros(f"stage{mu}", (n1 + n3, 3))
            # which depth-3 low-face rows have face coordinate x_mu == 0:
            # memoised process-wide (same table on every rank of a run).
            self.raw_layer0[mu] = stencil.face_layer_rows(
                g.shape, mu, -1, 3, 0
            )
            api.store_send(
                mu,
                -1,
                face_descriptor("work", local_shape, mu, -1, WORDS_PER_SITE, depth=3),
                group="early",
                word_batch=self.word_batch,
            )
            api.store_send(
                mu,
                +1,
                full_descriptor(api.node, f"stage{mu}"),
                group="staged",
                word_batch=self.word_batch,
            )
            api.store_recv(
                mu, +1, full_descriptor(api.node, f"raw_halo{mu}"), group="early"
            )
            api.store_recv(
                mu, -1, full_descriptor(api.node, f"prod_halo{mu}"), group="early"
            )

        # ---- zero-copy hot-path scratch (see DESIGN.md §12) -----------
        # Preallocated once; reused every application.  Gauge-gather
        # constants on the staging faces are hoisted (links immutable).
        dt = self.work.dtype
        self._fwd1 = [np.empty((v, 3), dtype=dt) for _ in range(ndim)]
        self._fwd3 = [np.empty((v, 3), dtype=dt) for _ in range(ndim)]
        self._bwd1 = [np.empty((v, 3), dtype=dt) for _ in range(ndim)]
        self._bwd3 = [np.empty((v, 3), dtype=dt) for _ in range(ndim)]
        self._gather = np.empty((v, 3), dtype=dt)
        self._hop_out = np.empty((v, 3), dtype=dt)
        self._apply_out = np.empty((v, 3), dtype=dt)
        self._dagger_out = np.empty((v, 3), dtype=dt)
        self._m_acc = np.empty((v, 3), dtype=dt)
        self._m_term = np.empty((v, 3), dtype=dt)
        self._m_tmp = np.empty((v, 3), dtype=dt)
        self._m_vec = np.empty((v, 3), dtype=dt)
        self._m_gauge = np.empty((v, 3, 3), dtype=dt)
        self._m_ph = np.empty((v,), dtype=self.phases.dtype)
        self._fat_dagger_high = {}
        self._long_dagger_high3 = {}
        self._stage_v1 = {}
        self._stage_v3 = {}
        self._raw_l0 = {}
        for mu in self.comm_axes:
            high1 = self.plan1[mu].send_high
            high3 = self.plan3[mu].send_high
            self._fat_dagger_high[mu] = dagger(self.fat[mu][high1])
            self._long_dagger_high3[mu] = dagger(self.long[mu][high3])
            self._stage_v1[mu] = np.empty((len(high1), 3), dtype=dt)
            self._stage_v3[mu] = np.empty((len(high3), 3), dtype=dt)
            self._raw_l0[mu] = np.empty((len(high1), 3), dtype=dt)

    @property
    def volume(self) -> int:
        return self.geometry.volume

    def hopping(self, src: np.ndarray):
        """Distributed ASQTAD dslash (generator).

        Dispatches to the overlapped two-phase pipeline or the serialized
        monolithic assembly according to ``self.overlap``; both are
        bit-identical in output and total charged flops.  Each application
        is one hot epoch: the first learns the SCU transfer schedule, the
        rest replay its compiled trace (:mod:`repro.machine.replay`).
        """
        self.api.begin_hot_epoch("pstaggered.hopping")
        try:
            if self.overlap:
                out = yield from self._hopping_overlapped(src)
            else:
                out = yield from self._hopping_monolithic(src)
        finally:
            self.api.end_hot_epoch("pstaggered.hopping")
        return out

    @hot_path
    def _stage_products(self) -> int:
        """Sender-side backward products for every neighbour."""
        staged = 0
        for mu in self.comm_axes:
            high1 = self.plan1[mu].send_high
            high3 = self.plan3[mu].send_high
            n1 = len(high1)
            buf = self.stage[mu]
            self.api.cpu_write(f"stage{mu}")
            np.take(self.work, high1, axis=0, out=self._stage_v1[mu])
            cmatvec(self._fat_dagger_high[mu], self._stage_v1[mu], out=buf[:n1])
            np.take(self.work, high3, axis=0, out=self._stage_v3[mu])
            cmatvec(self._long_dagger_high3[mu], self._stage_v3[mu], out=buf[n1:])
            staged += n1 + len(high3)
        return staged

    def _hopping_monolithic(self, src: np.ndarray):
        """Serialized reference path: all comms complete, then all compute."""
        g = self.geometry
        self.api.cpu_write("work")
        np.copyto(self.work, src)

        staged = self._stage_products()
        yield self.api.compute(staged * MATVEC_SU3, kernel="asqtad")

        yield self.api.start_stored()

        out = np.zeros_like(self.work)
        for mu in range(g.ndim):
            fwd1 = self.work[g.hop(mu, +1)]
            fwd3 = self.work[g.hop(mu, +3)]
            bwd1 = cmatvec(self.fat_dagger_bwd[mu], self.work[g.hop(mu, -1)])
            bwd3 = cmatvec(self.long_dagger_bwd3[mu], self.work[g.hop(mu, -3)])
            if mu in self.raw_halo:
                self.api.cpu_read(f"raw_halo{mu}")
                raw = self.raw_halo[mu]
                fwd1[self.plan1[mu].fill_from_fwd] = raw[self.raw_layer0[mu]]
                fwd3[self.plan3[mu].fill_from_fwd] = raw
                self.api.cpu_read(f"prod_halo{mu}")
                prod = self.prod_halo[mu]
                n1 = len(self.plan1[mu].send_low)
                bwd1[self.plan1[mu].fill_from_bwd] = prod[:n1]
                bwd3[self.plan3[mu].fill_from_bwd] = prod[n1:]
            term = cmatvec(self.fat[mu], fwd1) - bwd1
            term += self.c_naik * (cmatvec(self.long[mu], fwd3) - bwd3)
            out += self.phases[mu][:, None] * term
        yield self.api.compute(
            self.volume * (self.cost.flops_per_site - STAGGERED_DIAG_FLOPS),
            kernel="asqtad",
        )
        return out

    @hot_path
    def _merge(self, out, fwd1_arr, fwd3_arr, bwd1_arr, bwd3_arr, sites) -> None:
        """Forward matvecs + combine/phase accumulate on ``sites``.

        Row-for-row the same statement sequence (mu ascending) as the
        monolithic assembly, so merged rows are bit-identical: site rows
        are gathered once into context scratch, accumulated in the
        monolithic order, and scattered back.
        """
        n = len(sites)
        acc = self._m_acc[:n]
        term = self._m_term[:n]
        tmp = self._m_tmp[:n]
        vec = self._m_vec[:n]
        gauge = self._m_gauge[:n]
        ph = self._m_ph[:n]
        np.take(out, sites, axis=0, out=acc)
        for mu in range(self.geometry.ndim):
            np.take(self.fat[mu], sites, axis=0, out=gauge)
            np.take(fwd1_arr[mu], sites, axis=0, out=vec)
            cmatvec(gauge, vec, out=term)
            np.take(bwd1_arr[mu], sites, axis=0, out=vec)
            term -= vec
            np.take(self.long[mu], sites, axis=0, out=gauge)
            np.take(fwd3_arr[mu], sites, axis=0, out=vec)
            cmatvec(gauge, vec, out=tmp)
            np.take(bwd3_arr[mu], sites, axis=0, out=vec)
            np.subtract(tmp, vec, out=tmp)
            np.multiply(tmp, self.c_naik, out=tmp)
            term += tmp
            np.take(self.phases[mu], sites, axis=0, out=ph)
            np.multiply(term, ph[:, None], out=tmp)
            acc += tmp
        out[sites] = acc

    @hot_path
    def _hopping_overlapped(self, src: np.ndarray):
        """Two-phase pipeline: interior assembly while DMA flies, per-axis
        boundary row patches (pure copies) as each axis's halo lands.
        Steady state is allocation-free: every gather and merge lands in
        context-owned scratch preallocated by ``__init__``."""
        g = self.geometry
        v = self.volume
        api = self.api
        api.cpu_write("work")
        np.copyto(self.work, src)

        pending = dict(api.start_stored_events(group="early"))
        staged = self._stage_products()
        if staged:
            yield api.compute(staged * MATVEC_SU3, kernel="asqtad")
        pending.update(api.start_stored_events(group="staged"))

        # ---- interior phase: raw forward gathers + local backward matvecs
        local_flops = 0.0
        fwd1_arr = self._fwd1
        fwd3_arr = self._fwd3
        bwd1_arr = self._bwd1
        bwd3_arr = self._bwd3
        for mu in range(g.ndim):
            np.take(self.work, g.hop(mu, +1), axis=0, out=fwd1_arr[mu])
            np.take(self.work, g.hop(mu, +3), axis=0, out=fwd3_arr[mu])
            np.take(self.work, g.hop(mu, -1), axis=0, out=self._gather)
            cmatvec(self.fat_dagger_bwd[mu], self._gather, out=bwd1_arr[mu])
            np.take(self.work, g.hop(mu, -3), axis=0, out=self._gather)
            cmatvec(self.long_dagger_bwd3[mu], self._gather, out=bwd3_arr[mu])
            local_flops += 2 * v * MATVEC_SU3

        out = self._hop_out
        out.fill(0)
        interior = self.interior_sites
        if len(interior):
            self._merge(out, fwd1_arr, fwd3_arr, bwd1_arr, bwd3_arr, interior)
            local_flops += len(interior) * self.merge_flops_per_site
        yield api.compute(local_flops, kernel="asqtad")

        # ---- boundary phase: drain transfers in completion order --------
        # (every staggered halo patch is a pure row copy; the forward
        # matvecs are merge work, so arrival handlers charge no flops)
        while pending:
            fired = yield api.wait_any(pending.values())
            key = next(k for k, e in pending.items() if e is fired)
            del pending[key]
            kind, mu, sign = key
            if kind != "recv":
                continue
            if sign == +1:
                api.cpu_read(f"raw_halo{mu}")
                raw = self.raw_halo[mu]
                np.take(raw, self.raw_layer0[mu], axis=0, out=self._raw_l0[mu])
                fwd1_arr[mu][self.plan1[mu].fill_from_fwd] = self._raw_l0[mu]
                fwd3_arr[mu][self.plan3[mu].fill_from_fwd] = raw
            else:
                api.cpu_read(f"prod_halo{mu}")
                prod = self.prod_halo[mu]
                n1 = len(self.plan1[mu].send_low)
                bwd1_arr[mu][self.plan1[mu].fill_from_bwd] = prod[:n1]
                bwd3_arr[mu][self.plan3[mu].fill_from_bwd] = prod[n1:]

        boundary = self.boundary_sites
        if len(boundary):
            self._merge(out, fwd1_arr, fwd3_arr, bwd1_arr, bwd3_arr, boundary)
            yield api.compute(
                len(boundary) * self.merge_flops_per_site, kernel="asqtad"
            )
        return out

    @hot_path
    def apply(self, src: np.ndarray):
        """Returns a context-owned buffer, valid until the next application."""
        hop = yield from self.hopping(src)
        out = self._apply_out
        np.multiply(src, self.mass, out=out)
        np.multiply(hop, 0.5, out=hop)
        np.add(out, hop, out=out)
        yield self.api.compute(STAGGERED_DIAG_FLOPS * self.volume, kernel="diag")
        return out

    @hot_path
    def apply_dagger(self, src: np.ndarray):
        """``D^+ = m - (1/2) hopping`` (anti-hermitian hopping).

        Returns a context-owned buffer, valid until the next application.
        """
        hop = yield from self.hopping(src)
        out = self._dagger_out
        np.multiply(src, self.mass, out=out)
        np.multiply(hop, 0.5, out=hop)
        np.subtract(out, hop, out=out)
        yield self.api.compute(STAGGERED_DIAG_FLOPS * self.volume, kernel="diag")
        return out

    def normal(self, src: np.ndarray):
        d_src = yield from self.apply(src)
        out = yield from self.apply_dagger(d_src)
        return out
