"""The distributed domain-wall operator: 5-dimensional physics on the mesh.

"This discretization is naturally five-dimensional" (paper section 4) and
was the prime production target for QCDOC.  The standard decomposition
keeps the fifth dimension local (the gauge field is the same on every
``s`` slice, so splitting space-time maximises gauge reuse) and ships
**all ``Ls`` slices of a face in one DMA message** per direction — the
5-dimensional field is stored slice-major, so the multi-slice face is
*still* a uniform block-strided pattern and a single SCU descriptor moves
it (``Ls x head`` blocks at the intra-slice pitch).

The 4D hopping term of the domain-wall kernel is exactly the ``r = 1``
Wilson dslash, so this spec reuses the Wilson hopping kernels of
:mod:`repro.parallel.pdirac` slice-batched, and its wire is always the
half-spinor one — the rank-2 ``(1 -+ gamma_mu)`` compression is exact by
construction: 12 words per (face site, s slice) instead of 24.  The
5th-dimension chiral hops are site-local in space-time and need no
communication at all, so they ride in the pipeline's ``merge``, diagonal
included (the interior sites' share is charged while the wires are
busy).
"""

from __future__ import annotations

import numpy as np

from repro.comms.api import CommsAPI
from repro.fermions.flops import operator_cost
from repro.fermions.gamma import P_MINUS, P_PLUS, apply_spin_matrix_site_fastest
from repro.parallel.pdirac import WilsonHops
from repro.util.errors import ConfigError
from repro.util.hotpath import hot_path


class DistributedDWFContext(WilsonHops):
    """Per-rank state for the distributed Shamir domain-wall operator."""

    def __init__(
        self,
        api: CommsAPI,
        local_shape,
        links: np.ndarray,
        Ls: int,
        M5: float = 1.8,
        mf: float = 0.1,
        overlap: bool = True,
        word_batch=None,
    ):
        if len(local_shape) != 4:
            raise ConfigError("domain-wall decomposition needs a 4D tile")
        if Ls < 1:
            raise ConfigError(f"Ls must be >= 1, got {Ls}")
        self.Ls = int(Ls)
        self.M5 = float(M5)
        self.mf = float(mf)
        super().__init__(
            api,
            local_shape,
            links,
            cost=operator_cost("dwf"),
            lead=(self.Ls,),
            tag="pdwf.apply",
            kernel="dwf",
            overlap=overlap,
            word_batch=word_batch,
        )
        # 5th-dimension wall terms (-mf * edge slice) and the chiral hop
        # product, one 4D slice each, site index fastest
        self._wall_up, self._wall_dn, self._m5_rec = (
            np.empty_like(self.source[0]) for _ in range(3)
        )

    def apply(self, src: np.ndarray):
        """Distributed ``D_dwf src`` (generator yielding machine events);
        returns a context-owned buffer, valid until the next application."""
        return self.exchange(src)

    @hot_path
    def interior(self) -> float:
        # Wall terms and 5th-dim hop sources are read from ``self.source``
        # (identical to ``src``, and never mutated during an application)
        # so that passing the context's own output buffer back in as
        # ``src`` stays well-defined.
        np.multiply(self.source[0], -self.mf, out=self._wall_up)
        np.multiply(self.source[self.Ls - 1], -self.mf, out=self._wall_dn)
        # the sheet's site-local part (the diagonal axpy) is charged here,
        # full-volume, and computed by the merge as it starts;
        # the chiral 5th-dimension hops ride in the merge too
        diag = self.cost.local_flops_per_site * self._slices * self.volume
        return diag + self.hop_matvecs()

    @hot_path
    def merge(self) -> None:
        """Assemble the 4D Wilson kernel ``D_w(-M5) + 1`` and the 5th-dim
        chiral hops over the whole tile, into ``out``.

        One fixed statement sequence per element (the diagonal, then
        ``mu`` ascending forward-then-backward, then the s loop), so the
        result is bit-identical on any decomposition: the source is
        scaled by the diagonal, each half-scaled hop term subtracted in
        that order — the lower rows from :meth:`lower_row`, built before
        the half spinors are scaled in place — then the 5th-dimension
        hops.  The wall terms ``-mf * src[edge]`` are precomputed per
        application in ``_wall_up``/``_wall_dn``.
        """
        src, acc, hops = self.source, self._merge_acc, self._hops
        np.multiply(src, (-self.M5 + 4.0) + 1.0, out=acc)
        # acc -= 0.5 * (each reconstructed half product), row by row
        for j in range(2):
            lower = self.lower_row(j)
            np.multiply(lower, 0.5, out=lower)
            for term in lower.reshape((-1,) + lower.shape[2:]):
                acc[..., 2 + j, :, :] -= term
        np.multiply(hops, 0.5, out=hops)
        upper_rows = acc[..., :2, :, :]
        for term in hops.reshape((-1,) + hops.shape[2:]):
            upper_rows -= term
        rec4 = self._m5_rec
        for s in range(self.Ls):
            up = src[s + 1] if s + 1 < self.Ls else self._wall_up
            dn = src[s - 1] if s - 1 >= 0 else self._wall_dn
            acc[s] -= apply_spin_matrix_site_fastest(P_MINUS, up, out=rec4)
            acc[s] -= apply_spin_matrix_site_fastest(P_PLUS, dn, out=rec4)
        np.copyto(self.out_t, acc)
