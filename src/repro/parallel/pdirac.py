"""The distributed Wilson/clover operator: a node program building block.

The exchange itself — persistent descriptors, start groups, the
overlapped and serialised orders — is :mod:`repro.parallel.halo`; this
module is the Wilson **spec**: the wire format, the hopping site kernels
(shared with the domain-wall operator, whose 4D term is the same dslash),
and the site-local ``apply`` arithmetic.

Half-spinor compression (``compress=True``, the default)
-------------------------------------------------------
The Wilson hopping projector ``(1 -+ gamma_mu)`` has rank 2, so only two
of the four spin rows are independent (:func:`repro.fermions.gamma.
spin_project`).  QCDOC's SCU therefore never puts a full spinor on the
wire: the sender projects *before* posting the send, and the receiver
reconstructs after the SU(3) multiply.  Both directions ship
``HALF_SPINOR_WORDS`` = 12 words per face site instead of 24:

* **forward halo**: the sender spin-projects its low face with
  ``(1 - gamma_mu)`` into ``stage_fwd`` and ships the half spinor; the
  receiver multiplies by its own ``U_mu`` and reconstructs.
* **backward halo**: the sender fuses the projection into the staged
  product — ``U^+ (1 + gamma_mu) psi`` on its high face is a **half
  product** (2 spin rows), shipped as-is and row-copied by the receiver.

Because projection commutes with the colour multiply and is row-
independent, the assembled physics is *bit-identical* to the full-spinor
exchange and to the serial operator.  ``compress=False`` keeps the
original full-spinor wire format for comparison benchmarks.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import replace
from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.comms.api import CommsAPI
from repro.fermions.flops import MATVEC_SU3, operator_cost
from repro.fermions.gamma import (
    GAMMA,
    HALF_SPINOR,
    apply_spin_matrix_site_fastest,
    gamma5_sandwich,
)
from repro.lattice import stencil
from repro.lattice.gauge import (
    cmatvec_directions,
    cmatvec_site_fastest,
    site_fastest_pair,
)
from repro.parallel.halo import HaloPipeline
from repro.util.errors import ConfigError
from repro.util.hotpath import hot_path


@functools.cache
def half_spinor_tables(ndim: int, lead: Tuple[int, ...]):
    """Index and coefficient tables of every ``(mu, sign)`` half spinor
    of a ``lead + (4, 3, v)`` field, from :data:`HALF_SPINOR`: what
    ``(1 -+ gamma_mu)`` does to each row becomes one ``take`` over a
    flattened array and one broadcast multiply, so all directions project
    (and reconstruct) together, with the per-element arithmetic of
    :func:`spin_project` and :func:`~repro.fermions.gamma.reconstruct_lower`.
    Built once per ``(ndim, lead)``, read-only, shared by every context.

    Returns ``(proj_rows, proj_coeff, lower_rows, lower_coeff)``: the
    partner row of each upper row of ``(1 - sign gamma_mu) psi`` in the
    field viewed as ``(slices * 4, 3, v)`` and its coefficient, then per
    lower row ``2 + j`` of term ``(mu, sign)`` the half-spinor row it is
    scaled from, in the hop terms viewed as ``(ndim * 2 * slices * 2, 3,
    v)``, and its coefficient.
    """
    slices = math.prod(lead)
    bcast = (ndim, 2) + (1,) * len(lead)
    # HALF_SPINOR's fields per (mu, sign), its row slices as row indices
    rows = np.arange(4)
    entries = [HALF_SPINOR[mu, sign] for mu in range(ndim) for sign in (+1, -1)]
    partner, upper_coeff, half_row, scale = (
        np.array([e[k] if k % 2 else rows[e[k]] for e in entries]).reshape(ndim, 2, 2)
        for k in range(4)
    )
    proj_rows = partner.reshape(bcast + (2,)) + 4 * np.arange(slices).reshape(
        lead + (1,)
    )
    proj_coeff = upper_coeff.reshape(bcast + (2, 1, 1))
    terms = 2 * np.arange(ndim * 2 * slices).reshape((ndim, 2) + lead)
    lower_rows = tuple(terms + half_row[..., j].reshape(bcast) for j in range(2))
    lower_coeff = tuple(scale[..., j].reshape(bcast + (1, 1)) for j in range(2))
    for array in (proj_rows, proj_coeff) + lower_rows + lower_coeff:
        array.setflags(write=False)
    return proj_rows, proj_coeff, lower_rows, lower_coeff


class FaceTables(NamedTuple):
    """The index and coefficient tables of a tile's decomposed faces, in
    the order a buffer family concatenates them: ascending ``mu``, each
    face in site order (:func:`face_tables`)."""

    #: ``(n,)``: the decomposed axis of each face row
    axis: np.ndarray
    #: ``(n,)``: the low-face sites, which the backward halos fill
    low: np.ndarray
    #: ``(n,)``: the high-face sites, which the forward halos fill
    high: np.ndarray
    #: ``(4, 3, n)`` flat indices into a ``(4, 3, v)`` spinor's ``(12 v,)``
    #: view, on the low faces: rows 0-1 the upper rows of ``(1 -
    #: gamma_mu) psi``, rows 2-3 their partner rows
    low_rows: np.ndarray
    #: the same on the high faces, for ``(1 + gamma_mu) psi``
    high_rows: np.ndarray
    #: ``(2, 1, n)``: each partner row's coefficient, low faces
    low_coeff: np.ndarray
    #: the same on the high faces
    high_coeff: np.ndarray


@functools.cache
def face_tables(shape: Tuple[int, ...], comm_axes: Tuple[int, ...]) -> FaceTables:
    """The :class:`FaceTables` of a ``shape`` tile cut along ``comm_axes``:
    every decomposed face projected (and every face row patched) with one
    ``take`` and one broadcast multiply, with the per-element arithmetic
    of :func:`~repro.fermions.gamma.spin_project`.  Built once per
    ``(shape, comm_axes)``, read-only, shared by every context."""
    v = math.prod(shape)
    plans = [stencil.halo_plan(shape, mu) for mu in comm_axes]
    ends = list(itertools.accumulate((len(plan.send_low) for plan in plans), initial=0))
    faces = [slice(a, b) for a, b in zip(ends, ends[1:])]
    axis = np.empty(ends[-1], dtype=np.intp)
    low, high = np.empty_like(axis), np.empty_like(axis)
    for mu, plan, face in zip(comm_axes, plans, faces):
        axis[face], low[face], high[face] = mu, plan.send_low, plan.send_high

    def spin_rows(sites, sign):
        """The flat rows of ``(1 - sign gamma_mu) psi`` on ``sites`` and
        the partner rows' coefficients."""
        rows = np.empty((4, len(sites)), dtype=np.intp)
        rows[:2] = np.arange(2)[:, None]
        coeff = np.empty((2, 1, len(sites)), dtype=np.complex128)
        for mu, face in zip(comm_axes, faces):
            partner, scale, _, _ = HALF_SPINOR[mu, sign]
            rows[2:, face] = np.arange(4)[partner][:, None]
            coeff[:, 0, face] = scale[:, None]
        return (rows[:, None, :] * 3 + np.arange(3)[:, None]) * v + sites, coeff

    low_rows, low_coeff = spin_rows(low, +1)
    high_rows, high_coeff = spin_rows(high, -1)
    tables = FaceTables(axis, low, high, low_rows, high_rows, low_coeff, high_coeff)
    for array in tables:
        array.setflags(write=False)
    return tables


class WilsonHops(HaloPipeline):
    """The 4D Wilson hopping site kernels, written once over a site axis.

    The Wilson/clover field is ``(v, 4, 3)``; the domain-wall field is
    ``lead + (v, 4, 3)`` with ``lead = (Ls,)`` — every ``s`` slice sees
    the same gauge field, so the same projection, staging, matvecs and
    halo patch run slice-batched.  Every array the kernels touch has the
    site index fastest, ``lead + (spin, 3, v)`` (the layout of the
    serial operators, DESIGN.md §12): ``source``, the hop terms, the
    merge scratch, and the node buffers' site-fastest views.  The hop
    terms of every direction live in one array and are computed
    together: one spin projection, one SU(3) contraction per sign; so
    are the faces of every decomposed axis, projected, staged and patched
    once per application (:func:`face_tables`).  Subclasses add
    ``interior``/``merge`` (whose accumulation order is what the
    bit-identity contracts pin) and name their cost sheet.
    """

    groups = ("early", "proj", "staged")

    def __init__(
        self,
        api: CommsAPI,
        local_shape,
        links: np.ndarray,
        *,
        lead=(),
        **spec,
    ):
        super().__init__(api, local_shape, site_shape=(4, 3), lead=lead, **spec)
        compress = self.compress
        g = self.geometry
        v, ndim = g.volume, g.ndim
        if links.shape != (ndim, v, 3, 3):
            raise ConfigError(f"bad local link shape {links.shape}")
        #: the caller's ``(ndim, v, 3, 3)`` links (the fermion force reads them)
        self.links = links
        #: ``(U, U^dagger)``, each ``(ndim, 3, 3, v)``: a backward hop
        #: multiplies by ``U^dagger`` at the source site and gathers the
        #: product, so no shifted copy of the links exists
        self._u, self._u_dagger = site_fastest_pair(links)
        #: R of ``D^+ = (Gamma_5 R) D (R Gamma_5)``: reflects the leading
        #: (5th-dimension) axes; the identity for the 4D operator
        self._reflect = (slice(None, None, -1),) * len(lead)
        #: per direction, the forward and backward nearest-neighbour tables
        self._tables = [(g.hop(mu, +1), g.hop(mu, -1)) for mu in range(ndim)]
        #: the hop matvecs charged in the interior phase: every one but the
        #: forward face rows, charged as their halos land (the drain of
        #: :meth:`~repro.parallel.halo.HaloPipeline.exchange`)
        nface = sum(len(plan.fill_from_fwd) for plan in self.plans.values())
        self._hop_flops = float(self._slices * (2 * ndim * v - nface) * MATVEC_SU3)

        # ---- zero-copy hot-path scratch -------------------------------
        # Every buffer the steady-state pipeline touches is allocated
        # exactly once here and reused across applications (DESIGN.md §12
        # buffer-ownership contract): arrays returned by hopping/apply are
        # owned by the context and valid until its next application.
        dt = self.work.dtype
        #: spin rows per wire site: 2 (half spinor) when compressed, 4 raw
        rows = 2 if compress else 4
        faces = self._faces = face_tables(g.shape, tuple(self.comm_axes))
        n = len(faces.axis)
        #: every hop term, ``(ndim, 2) + lead + (rows, 3, v)``: sign 0 the
        #: forward hop ``U_mu(x) psi(x + mu)``, sign 1 the backward hop
        #: ``U_mu(x - mu)^+ psi(x - mu)`` (half spinors when compressed)
        self._hops = np.empty((ndim, 2) + lead + (rows, 3, v), dtype=dt)
        # one scratch for the face kernels and the hop matvecs, which never
        # run at once: ``_gathered``, ``(ndim,) + lead + (rows, 3, v)``, the
        # gathered operands and the products to gather of ``hop_matvecs``,
        # then the merge's scratch (the hop terms are complete before a
        # merge starts) — on the uncompressed wire, its accumulator too;
        # and ``_face_spinors``, ``lead + (4, 3, faces)``, every face's
        # gathered spinor rows (compressed: the upper rows, then their
        # partners) and then the forward halos' products
        hop_shape = (ndim,) + lead + (rows, 3, v)
        face_shape = lead + (4, 3, n)
        size = math.prod(hop_shape), math.prod(face_shape)
        scratch = np.empty(max(size), dtype=dt)
        self._gathered = scratch[: size[0]].reshape(hop_shape)
        spinors = self._face_spinors = scratch[: size[1]].reshape(face_shape)
        self._face_upper = spinors[..., :2, :, :]
        self._face_partner = spinors[..., 2:, :, :]
        self._merge_acc = (
            np.empty(lead + (4, 3, v), dtype=dt) if compress else self._gathered[2]
        )
        self._rot_in = np.empty_like(self.out)
        self._rot_out = np.empty_like(self.out)
        #: the source as ``lead + (12 v,)``, which the face tables index
        self._source_plane = self.source.reshape(lead + (-1,))
        # the families' host arrays seen site-fastest, ``lead + (rows, 3,
        # faces)``: what the face kernels write and read
        self._stage_bwd_t, self._halo_fwd_t = (
            np.moveaxis(family, 0, -1)
            for family in (self.stage_bwd_rows, self.halo_fwd_rows)
        )
        #: the forward halos' products, face index first: what ``land``
        #: writes into the forward hop terms
        patch = spinors[..., :rows, :, :]
        self._patch, self._patch_rows = patch, np.moveaxis(patch, -1, 0)
        #: the face rows of the hop terms, forward then backward
        self._fwd_face_rows = (faces.axis, 0, Ellipsis, faces.high)
        self._bwd_face_rows = (faces.axis, 1, Ellipsis, faces.low)
        if compress:
            self._stage_fwd_t = np.moveaxis(self.stage_fwd_rows, 0, -1)
            (
                self._proj_rows,
                self._proj_coeff,
                self._lower_rows,
                self._lower_coeff,
            ) = half_spinor_tables(ndim, lead)
        else:
            #: the source seen once per direction (a view): the operand of
            #: every uncompressed hop
            self._source_per_direction = np.broadcast_to(
                self.source, self._gathered.shape
            )
        # constant gauge-face gathers, ``(3, 3, faces)`` (links are
        # immutable for the context's lifetime, so they are gathered here
        # once): ``U^+`` on the high faces the products are staged from,
        # ``U`` on the face rows the forward halos patch
        self._staging_links, self._landing_links = (
            np.ascontiguousarray(np.moveaxis(u[faces.axis, :, :, faces.high], 0, -1))
            for u in (self._u_dagger, self._u)
        )

    @hot_path
    def project(self) -> None:
        """Spin-project every forward (low-face) halo into its
        ``stage_fwd`` — ``(1 - gamma_mu) psi``, a half spinor per site,
        every decomposed axis at once.

        Pure sign/permute additions (no SU(3) arithmetic), uncharged
        here: the projection's adds are part of the merge accounting,
        exactly as the seed charged its raw-face sends.
        """
        faces, partner = self._faces, self._face_partner
        # mode="clip": the memoised tables are in range by construction,
        # and numpy buffers ``out`` under the default "raise"
        self._source_plane.take(
            faces.low_rows, axis=-1, out=self._face_spinors, mode="clip"
        )
        np.multiply(partner, faces.low_coeff, out=partner)
        np.subtract(self._face_upper, partner, out=self._stage_fwd_t)

    @hot_path
    def stage(self) -> int:
        """Sender-side ``U^+ psi`` products on every high face, with one
        contraction; returns the sites staged.

        Compressed, the product fuses the ``(1 + gamma_mu)`` projection
        *before* the SU(3) multiply — half the colour arithmetic, half
        the wire.  The ``U^+`` face gathers are hoisted to context
        creation (``_staging_links``).
        """
        faces, spinors = self._faces, self._face_spinors
        if self.compress:
            partner = self._face_partner
            self._source_plane.take(faces.high_rows, axis=-1, out=spinors, mode="clip")
            np.multiply(partner, faces.high_coeff, out=partner)
            spinors = np.subtract(self._face_upper, partner, out=partner)
        else:
            self.source.take(faces.high, axis=-1, out=spinors, mode="clip")
        cmatvec_site_fastest(self._staging_links, spinors, out=self._stage_bwd_t)
        return self._slices * len(faces.high)

    @hot_path
    def hop_matvecs(self) -> float:
        """Every full-volume hop matvec, all directions together; returns
        the flops to charge.

        Forward hop: for decomposed axes the face rows are placeholders
        until ``land`` patches them (their matvec is charged as their halo
        lands instead).  Backward hop: the local matvec is always computed in
        full — face rows are later *replaced* by the received products.
        Compressed, every ``(mu, sign)`` projection of the source is made
        first, into the hop terms themselves, and the gathers move half
        spinors: the same per-site arithmetic as the serial kernel, half
        the rows moved.
        """
        hops, gathered, src = self._hops, self._gathered, self.source
        if self.compress:
            # (1 -+ gamma_mu) psi for every (mu, sign): psi[:2] - c psi[p]
            rows = src.reshape((-1,) + src.shape[-2:])
            rows.take(self._proj_rows, axis=0, out=hops, mode="clip")
            np.multiply(hops, self._proj_coeff, out=hops)
            np.subtract(src[..., :2, :, :], hops, out=hops)
            fwd, bwd = hops[:, 0], hops[:, 1]
        else:
            fwd = bwd = self._source_per_direction
        # forward: U_mu(x) psi(x + mu).  mode="clip": the memoised tables
        # are in range by construction, and numpy buffers ``out`` under
        # the default "raise"
        for mu, (ahead, _) in enumerate(self._tables):
            fwd[mu].take(ahead, axis=-1, out=gathered[mu], mode="clip")
        cmatvec_directions(self._u, gathered, out=hops[:, 0])
        # backward: U_mu(x - mu)^+ psi(x - mu), multiplied where the link
        # lives and the product gathered
        cmatvec_directions(self._u_dagger, bwd, out=gathered)
        for mu, (_, behind) in enumerate(self._tables):
            gathered[mu].take(behind, axis=-1, out=hops[mu, 1], mode="clip")
        return self._hop_flops

    @hot_path
    def lower_row(self, j: int) -> np.ndarray:
        """Row ``2 + j`` of every compressed hop term's full spinor,
        ``(ndim, 2) + lead + (3, v)`` in the merge scratch: the scaled
        partner rows :func:`~repro.fermions.gamma.reconstruct_lower`
        forms, for all ``(mu, sign)`` at once."""
        hops = self._hops
        terms = self._gathered.reshape(hops.shape[:-3] + hops.shape[-2:])
        rows = hops.reshape((-1,) + hops.shape[-2:])
        rows.take(self._lower_rows[j], axis=0, out=terms, mode="clip")
        return np.multiply(terms, self._lower_coeff[j], out=terms)

    @hot_path
    def land(self) -> None:
        """Patch every face row from the halos that landed: one contraction
        multiplies every forward halo (half) spinor by the receiver's own
        ``U_mu`` (gathered once at context creation), and one indexed
        assignment per sign writes the forward products and the backward
        ones, which arrive as products, into the hop terms."""
        cmatvec_site_fastest(self._landing_links, self._halo_fwd_t, out=self._patch)
        self._hops[self._fwd_face_rows] = self._patch_rows
        self._hops[self._bwd_face_rows] = self.halo_bwd_rows

    @hot_path
    def apply_dagger(self, src: np.ndarray):
        """``D^+ src = Gamma_5 R D R Gamma_5 src`` (distributed); returns a
        context-owned buffer, valid until the next application."""
        rotated = gamma5_sandwich(src[self._reflect], out=self._rot_in)
        applied = yield from self.apply(rotated)
        return gamma5_sandwich(applied[self._reflect], out=self._rot_out)


class DistributedWilsonContext(WilsonHops):
    """Per-rank state for the distributed Wilson (or clover) operator.

    Parameters (``api``, ``local_shape``, ``overlap`` and ``word_batch``
    are :class:`~repro.parallel.halo.HaloPipeline`'s)
    ----------
    links:
        ``(ndim, v, 3, 3)`` local gauge links from
        :meth:`repro.parallel.decomp.PhysicsMapping.scatter_gauge`.
    clover_tensor:
        Optional local ``(v, 4, 3, 4, 3)`` clover term (site-local, so
        distribution is a plain scatter).
    compress:
        When ``True`` (the default) the halo exchange ships
        spin-projected **half spinors** (12 words per face site);
        ``False`` keeps the full-spinor wire format (24 words), the
        baseline the compression is measured against.
    """

    def __init__(
        self,
        api: CommsAPI,
        local_shape,
        links: np.ndarray,
        mass: float,
        clover_tensor: Optional[np.ndarray] = None,
        overlap: bool = True,
        compress: bool = True,
        word_batch=None,
    ):
        self.mass = float(mass)
        cost = operator_cost("wilson" if clover_tensor is None else "clover")
        if not compress:
            # the same operator on the generic full-spinor wire
            cost = replace(
                cost,
                comm_bytes_per_face_site=cost.uncompressed_comm_bytes_per_face_site,
            )
        super().__init__(
            api,
            local_shape,
            links,
            cost=cost,
            tag="pdirac.hopping",
            kernel="dslash",
            overlap=overlap,
            word_batch=word_batch,
        )
        self.clover_tensor = clover_tensor
        self._apply_out = np.empty_like(self.out)
        if clover_tensor is not None:
            self._clover_scratch = np.empty_like(self.out)

    def hopping(self, src: np.ndarray):
        """Distributed dslash of ``src`` (generator: yields comm/compute
        events); returns the context-owned hopping sum."""
        return self.exchange(src)

    @hot_path
    def interior(self) -> float:
        return self.hop_matvecs()

    @hot_path
    def merge(self) -> None:
        """The hop terms summed over ``(mu, sign)``, into ``out``.

        Element for element the serial operator's ``mu``-ascending,
        forward-then-backward accumulation from ``+0``, so the result is
        bit-identical: compressed, one ``np.add.reduce`` from ``+0`` over
        the ``(mu, sign)`` axes per row pair — the upper rows from the
        half spinors as they are, each lower row from :meth:`lower_row`
        — which numpy adds in that order, term by term, with the site
        loop innermost.
        """
        acc, hops = self._merge_acc, self._hops
        if self.compress:
            np.add.reduce(hops, axis=(0, 1), out=acc[..., :2, :, :], initial=0)
            for j in range(2):
                np.add.reduce(
                    self.lower_row(j), axis=(0, 1), out=acc[..., 2 + j, :, :], initial=0
                )
        else:
            # (f + b) - gamma_mu (f - b): the sum and the difference in
            # ``t``, the difference's spin product in ``d`` (``acc`` is
            # the third of these scratch fields)
            t, d = self._gathered[0], self._gathered[1]
            acc.fill(0)
            for mu, (f, b) in enumerate(hops):
                np.add(f, b, out=t)
                acc += t
                np.subtract(f, b, out=t)
                acc -= apply_spin_matrix_site_fastest(GAMMA[mu], t, out=d)
        np.copyto(self.out_t, acc)

    @hot_path
    def apply(self, src: np.ndarray):
        """Distributed ``D src`` (Wilson or clover).

        Returns the context-owned ``_apply_out`` buffer (valid until the
        next application); the arithmetic — ``diag*src - 0.5*hop`` plus
        the clover einsum — is elementwise identical to the seed's
        allocating expression.
        """
        hop = yield from self.hopping(src)
        out = self._apply_out
        # the sheet's site-local flops: the diagonal axpy (+ clover term)
        flops = self.cost.local_flops_per_site * self.volume
        kernel = "diag"
        if self.clover_tensor is not None:
            # site-local term evaluated before ``out`` is written, so a
            # caller passing the context's previous output still reads
            # the pre-overwrite source
            np.einsum(
                "xsatb,xtb->xsa",
                self.clover_tensor,
                src,
                out=self._clover_scratch,
            )
            kernel = "clover_term"
        np.multiply(src, self.mass + self.geometry.ndim, out=out)
        np.multiply(hop, 0.5, out=hop)
        np.subtract(out, hop, out=out)
        if self.clover_tensor is not None:
            np.add(out, self._clover_scratch, out=out)
        yield self.api.compute(flops, kernel=kernel, rate=self.rate)
        return out
