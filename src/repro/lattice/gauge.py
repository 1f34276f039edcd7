"""Gauge fields: storage, starts, transport, plaquettes, staples.

A :class:`GaugeField` holds one SU(3) matrix per (direction, site):
``U[mu][x]`` transports colour from ``x`` to ``x + mu``.  All operations are
batched over sites.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.lattice.geometry import LatticeGeometry
from repro.lattice.su3 import dagger, is_su3, project_su3, random_algebra, random_su3, expm_su3
from repro.util.errors import ConfigError


def cmatvec_site_fastest(u: np.ndarray, psi: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Apply per-site colour matrices to a field, the site index *fastest*.

    ``u`` is ``(3, 3, V)``; ``psi`` and ``out`` are ``(..., 3, V)`` (any
    spin or fifth-dimension axes in front).  Each output element is
    ``sum_b u[a, b] psi[b]``, accumulated ``b = 0, 1, 2`` from ``+0``, and
    einsum's innermost loop runs over the ``V`` sites (DESIGN.md §12).
    This is the one contraction string of the package, with its
    all-directions form :func:`cmatvec_directions`: the serial and the
    distributed hopping kernels all call one of them, so their
    applications are arithmetically identical, and the link products of
    :func:`cmatmul_site_fastest` go through it too.  ``out`` may be a
    strided view (a node-memory buffer read site-fastest) but must not
    alias ``psi``.
    """
    return np.einsum("abx,...bx->...ax", u, psi, out=out)


def cmatvec_directions(u: np.ndarray, psi: np.ndarray, out: np.ndarray) -> np.ndarray:
    """:func:`cmatvec_site_fastest` for every direction in one call.

    ``u`` is ``(ndim, 3, 3, V)``, ``psi`` and ``out`` ``(ndim, ..., 3,
    V)``: direction ``mu`` of ``out`` is ``u[mu]`` applied to
    ``psi[mu]``.  The products and their ``b = 0, 1, 2`` order from
    ``+0`` are those of ``ndim`` calls of :func:`cmatvec_site_fastest`,
    so the bytes are too.  ``psi`` and ``out`` may be strided views (one
    sign of a hop-term array, a broadcast source) but must not alias.
    """
    return np.einsum("mabx,m...bx->m...ax", u, psi, out=out)


def cmatmul_site_fastest(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-site colour-matrix products ``out = a b``, each ``(3, 3, V)``.

    :func:`cmatvec_site_fastest` with ``b``'s columns as the leading
    axis, so each element is ``sum_k a[i, k] b[k, j]`` accumulated
    ``k = 0, 1, 2`` from ``+0`` with the site loop innermost.  No BLAS
    call is made: the bytes depend on the operands alone, not on which
    matrix kernel the host's BLAS picks.  ``out`` must alias neither
    operand.
    """
    cmatvec_site_fastest(a, b.swapaxes(0, 1), out=out.swapaxes(0, 1))
    return out


def site_fastest_pair(links: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(U, U^dagger)`` of ``(ndim, V, 3, 3)`` links, each ``(ndim, 3, 3, V)``."""
    return (
        np.ascontiguousarray(links.transpose(0, 2, 3, 1)),
        np.ascontiguousarray(dagger(links).transpose(0, 2, 3, 1)),
    )


def to_site_fastest(field: np.ndarray) -> np.ndarray:
    """A contiguous copy of ``(V, ...)`` ``field`` with the site axis last."""
    return np.ascontiguousarray(np.moveaxis(field, 0, -1))


def to_site_slowest(field: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_site_fastest`: a contiguous ``(V, ...)`` copy."""
    return np.ascontiguousarray(np.moveaxis(field, -1, 0))


class GaugeField:
    """SU(3) link variables on a :class:`LatticeGeometry`.

    Parameters
    ----------
    geometry:
        The (4-dimensional for QCD) lattice.
    links:
        Optional ``(ndim, V, 3, 3)`` complex array; defaults to the unit
        (free-field) configuration.  The field takes ownership of a
        writeable array; a read-only one (another field's ``links``) is
        copied.

    ``links`` reads as a **read-only** view.  The field changes by
    assignment (``gauge.links = new``) or through :meth:`set_links`; both
    drop the site-fastest resident pair the Dirac kernels read, so an
    operator built earlier applies the new field, and a write that goes
    round them raises numpy's read-only error instead of leaving a stale
    ``U^dagger`` behind.
    """

    def __init__(self, geometry: LatticeGeometry, links: Optional[np.ndarray] = None):
        self.geometry = geometry
        expected = (geometry.ndim, geometry.volume, 3, 3)
        if links is None:
            links = np.broadcast_to(
                np.eye(3, dtype=np.complex128), expected
            ).copy()
        self.links = links

    # -- the links and their resident kernel layout ---------------------------
    @property
    def links(self) -> np.ndarray:
        """The ``(ndim, V, 3, 3)`` link matrices (read-only view)."""
        view = self._links.view()
        view.setflags(write=False)
        return view

    @links.setter
    def links(self, links: np.ndarray) -> None:
        links = np.asarray(links, dtype=np.complex128)
        expected = (self.geometry.ndim, self.geometry.volume, 3, 3)
        if links.shape != expected:
            raise ConfigError(
                f"links shape {links.shape} does not match geometry {expected}"
            )
        if not links.flags.writeable:
            links = links.copy()
        self._links = links
        self._resident = None

    def set_links(self, mu: int, sites, values: np.ndarray) -> None:
        """``U_mu(sites) = values`` in place — the one in-place writer."""
        self._links[mu][sites] = values
        self._resident = None

    @property
    def resident_pair(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(U, U^dagger)``, each ``(ndim, 3, 3, V)``: the layout the
        hopping kernels read.  Built on first use, dropped whenever the
        links change."""
        if self._resident is None:
            self._resident = site_fastest_pair(self._links)
        return self._resident

    # -- constructors ---------------------------------------------------------
    @classmethod
    def unit(cls, geometry: LatticeGeometry) -> "GaugeField":
        """Free field: every link is the identity."""
        return cls(geometry)

    @classmethod
    def hot(cls, geometry: LatticeGeometry, rng: np.random.Generator) -> "GaugeField":
        """Disordered start: every link independently Haar-random."""
        n = geometry.ndim * geometry.volume
        u = random_su3(rng, n).reshape(geometry.ndim, geometry.volume, 3, 3)
        return cls(geometry, u)

    @classmethod
    def weak(
        cls,
        geometry: LatticeGeometry,
        rng: np.random.Generator,
        eps: float = 0.1,
    ) -> "GaugeField":
        """Links near the identity: ``U = exp(eps * random algebra)``.

        Useful for perturbative checks (observables must approach their
        free-field values as ``eps -> 0``).
        """
        n = geometry.ndim * geometry.volume
        a = random_algebra(rng, n, scale=eps)
        u = expm_su3(a).reshape(geometry.ndim, geometry.volume, 3, 3)
        return cls(geometry, u)

    def copy(self) -> "GaugeField":
        return GaugeField(self.geometry, self.links.copy())

    # -- basic properties -------------------------------------------------------
    def __getitem__(self, mu: int) -> np.ndarray:
        """The ``(V, 3, 3)`` link matrices in direction ``mu``."""
        return self.links[mu]

    @property
    def nbytes(self) -> int:
        return self.links.nbytes

    def is_unitary(self, tol: float = 1e-10) -> bool:
        return is_su3(self.links, tol)

    def reunitarise(self) -> None:
        """Project every link back onto SU(3) (drift control)."""
        self.links = project_su3(self.links)

    # -- transport ---------------------------------------------------------
    def transport_fwd(self, mu: int, field: np.ndarray) -> np.ndarray:
        """``U_mu(x) field(x + mu)`` — pull the forward neighbour back to x."""
        fwd = self.geometry.neighbour_fwd(mu)
        gathered = to_site_fastest(field[fwd])
        u = self.resident_pair[0][mu]
        product = cmatvec_site_fastest(u, gathered, np.empty_like(gathered))
        return to_site_slowest(product)

    def transport_bwd(self, mu: int, field: np.ndarray) -> np.ndarray:
        """``U_mu(x - mu)^dagger field(x - mu)``."""
        # multiplied where the link lives, then the product is gathered:
        # no shifted copy of the links exists
        bwd = self.geometry.neighbour_bwd(mu)
        source = to_site_fastest(field)
        u_dagger = self.resident_pair[1][mu]
        product = cmatvec_site_fastest(u_dagger, source, np.empty_like(source))
        return to_site_slowest(np.take(product, bwd, axis=-1))

    # -- observables ---------------------------------------------------------
    def plaquette_field(self, mu: int, nu: int) -> np.ndarray:
        """``(V, 3, 3)`` plaquette matrices ``P_{mu nu}(x)``.

        ``P = U_mu(x) U_nu(x+mu) U_mu(x+nu)^+ U_nu(x)^+``.
        """
        g = self.geometry
        fmu, fnu = g.neighbour_fwd(mu), g.neighbour_fwd(nu)
        u = self.links
        return (
            u[mu]
            @ u[nu][fmu]
            @ dagger(u[mu][fnu])
            @ dagger(u[nu])
        )

    def plaquette(self) -> float:
        """Average ``Re tr P / 3`` over all sites and ``mu < nu`` planes.

        Equals 1 on the unit configuration; ~0 deep in the disordered phase.
        This is the standard first observable of any lattice code and the
        cheapest cross-check between serial and machine-distributed runs.
        """
        g = self.geometry
        total = 0.0
        nplanes = 0
        for mu in range(g.ndim):
            for nu in range(mu + 1, g.ndim):
                p = self.plaquette_field(mu, nu)
                total += float(np.einsum("xaa->", p).real)
                nplanes += 1
        return total / (3.0 * g.volume * nplanes)

    def staple(self, mu: int) -> np.ndarray:
        """``(V, 3, 3)`` sum of the 2(d-1) staples around link ``(x, mu)``.

        The Wilson gauge action and its HMC force are
        ``S = -(beta/3) sum Re tr[U_mu(x) V_mu(x)^+]`` with ``V`` this staple
        sum (up staple + down staple per transverse direction).
        """
        g = self.geometry
        u = self.links
        fmu = g.neighbour_fwd(mu)
        out = np.zeros((g.volume, 3, 3), dtype=np.complex128)
        for nu in range(g.ndim):
            if nu == mu:
                continue
            fnu = g.neighbour_fwd(nu)
            bnu = g.neighbour_bwd(nu)
            # up: U_nu(x+mu) U_mu(x+nu)^+ U_nu(x)^+  (dagger applied at end,
            # so accumulate V with the convention S = U_nu(x) U_mu(x+nu) U_nu(x+mu)^+ ...)
            out += u[nu][fmu] @ dagger(u[mu][fnu]) @ dagger(u[nu])
            # down: U_nu(x+mu-nu)^+ U_mu(x-nu)^+ U_nu(x-nu)
            out += dagger(u[nu][bnu][fmu]) @ dagger(u[mu][bnu]) @ u[nu][bnu]
        return out

    def clover_leaves(self, mu: int, nu: int) -> np.ndarray:
        """``(V, 3, 3)`` sum of the four plaquette leaves in the
        ``(mu, nu)`` plane around each site — the "clover".

        The clover-improved Wilson operator (paper section 4 benchmarks it at
        46.5% of peak) builds the field strength from
        ``F_{mu nu} = (Q_{mu nu} - Q_{mu nu}^+) / 8`` with ``Q`` this sum.
        """
        g = self.geometry
        u = self.links
        fmu, fnu = g.neighbour_fwd(mu), g.neighbour_fwd(nu)
        bmu, bnu = g.neighbour_bwd(mu), g.neighbour_bwd(nu)
        # Leaf 1: x -> +mu -> +nu -> -mu -> -nu
        q = u[mu] @ u[nu][fmu] @ dagger(u[mu][fnu]) @ dagger(u[nu])
        # Leaf 2: x -> +nu -> -mu -> -nu -> +mu
        q = q + u[nu] @ dagger(u[mu][bmu][fnu]) @ dagger(u[nu][bmu]) @ u[mu][bmu]
        # Leaf 3: x -> -mu -> -nu -> +mu -> +nu
        q = q + dagger(u[mu][bmu]) @ dagger(u[nu][bmu][bnu]) @ u[mu][bmu][bnu] @ u[nu][bnu]
        # Leaf 4: x -> -nu -> +mu -> +nu -> -mu
        q = q + dagger(u[nu][bnu]) @ u[mu][bnu] @ u[nu][bnu][fmu] @ dagger(u[mu])
        return q

    def field_strength(self, mu: int, nu: int) -> np.ndarray:
        """Clover-discretised ``F_{mu nu}``: anti-hermitian, traceless part
        of the leaf sum divided by 8 (lattice units, coupling absorbed)."""
        q = self.clover_leaves(mu, nu)
        f = (q - dagger(q)) / 8.0
        tr = np.einsum("xaa->x", f) / 3.0
        f[:, 0, 0] -= tr
        f[:, 1, 1] -= tr
        f[:, 2, 2] -= tr
        return f

    def __repr__(self) -> str:
        return f"GaugeField(shape={self.geometry.shape})"
