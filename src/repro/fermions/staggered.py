"""Staggered fermions: naive one-link and ASQTAD-improved operators.

The ASQTAD action (the second operator benchmarked in paper section 4, at
38% of peak) replaces the thin one-link transporter with a sum over smeared
paths — 3-, 5-, 7-link staples plus the Lepage term — and adds the 3-hop
**Naik** term that kills the O(a^2) error of the naive derivative.  The Naik
term is why the paper notes that improved discretisations "may require
second or third nearest-neighbor communications" (section 1): on QCDOC the
3-hop halo travels over the same nearest-neighbour SCU mesh in three stages.

Path coefficients are the standard tree-level ASQTAD set; on the unit gauge
configuration the smeared link sums to 9/8 and together with
``c_naik = -1/24`` gives the improved free dispersion
``(9/8) sin p - (1/24) sin 3p = p + O(p^5)``.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.lattice.gauge import GaugeField, cmatvec_site_fastest, site_fastest_pair
from repro.lattice.geometry import LatticeGeometry
from repro.lattice.su3 import dagger
from repro.util.errors import ConfigError
from repro.util.hotpath import hot_path

#: Tree-level ASQTAD path coefficients.  Keys: path family -> coefficient
#: applied to *each* path in the family.
ASQTAD_COEFFS: Dict[str, float] = {
    "one_link": 5.0 / 8.0,
    "staple3": 1.0 / 16.0,
    "staple5": 1.0 / 64.0,
    "staple7": 1.0 / 384.0,
    "lepage": -1.0 / 16.0,
    "naik": -1.0 / 24.0,
}


def staggered_phases(geometry: LatticeGeometry) -> np.ndarray:
    """Kawamoto-Smit phases ``eta_mu(x) = (-1)^(x_0 + ... + x_{mu-1})``.

    Shape ``(ndim, V)`` of +/-1 floats.
    """
    coords = geometry.coords
    phases = np.empty((geometry.ndim, geometry.volume))
    partial = np.zeros(geometry.volume, dtype=np.int64)
    for mu in range(geometry.ndim):
        phases[mu] = 1.0 - 2.0 * (partial % 2)
        partial = partial + coords[:, mu]
    return phases


def link_path(gauge: GaugeField, steps: Sequence[int]) -> np.ndarray:
    """Ordered product of links along a signed path, per starting site.

    ``steps`` is a sequence of signed axes encoded ``+(mu+1)`` for a hop in
    ``+mu`` and ``-(mu+1)`` for ``-mu`` (1-based so direction 0 is signable).
    Returns ``(V, 3, 3)``: the transporter from ``x`` to the path endpoint.
    """
    g = gauge.geometry
    idx = np.arange(g.volume)
    prod = None
    for s in steps:
        if s == 0 or abs(s) > g.ndim:
            raise ConfigError(f"bad path step {s} for {g.ndim}-dim lattice")
        mu = abs(s) - 1
        if s > 0:
            factor = gauge.links[mu][idx]
            idx = g.neighbour_fwd(mu)[idx]
        else:
            idx = g.neighbour_bwd(mu)[idx]
            factor = dagger(gauge.links[mu][idx])
        prod = factor if prod is None else prod @ factor
    if prod is None:
        raise ConfigError("empty path")
    return prod


def _staple_paths(mu: int, ndim: int) -> Dict[str, list]:
    """Enumerate the ASQTAD path families for direction ``mu`` (1-based codes)."""
    m = mu + 1
    others = [n for n in range(ndim) if n != mu]
    fams: Dict[str, list] = {"staple3": [], "staple5": [], "staple7": [], "lepage": []}
    for nu in others:
        for s in (+1, -1):
            a = s * (nu + 1)
            fams["staple3"].append((a, m, -a))
            fams["lepage"].append((a, a, m, -a, -a))
    for nu in others:
        for rho in others:
            if rho == nu:
                continue
            for s1 in (+1, -1):
                for s2 in (+1, -1):
                    a, b = s1 * (nu + 1), s2 * (rho + 1)
                    fams["staple5"].append((a, b, m, -b, -a))
    for nu in others:
        for rho in others:
            for lam in others:
                if len({nu, rho, lam}) != 3:
                    continue
                for s1 in (+1, -1):
                    for s2 in (+1, -1):
                        for s3 in (+1, -1):
                            a, b, c = s1 * (nu + 1), s2 * (rho + 1), s3 * (lam + 1)
                            fams["staple7"].append((a, b, c, m, -c, -b, -a))
    return fams


def fat_links(
    gauge: GaugeField, coeffs: Dict[str, float] = ASQTAD_COEFFS
) -> np.ndarray:
    """ASQTAD smeared ("fat") links, shape ``(ndim, V, 3, 3)``.

    ``fat_mu(x) = c1 U_mu(x) + sum over staple families coeff * path``.
    Fat links are *not* SU(3) (they are sums of group elements); on the unit
    configuration every entry equals ``(9/8) * identity``.
    """
    g = gauge.geometry
    out = np.empty((g.ndim, g.volume, 3, 3), dtype=np.complex128)
    for mu in range(g.ndim):
        acc = coeffs["one_link"] * gauge.links[mu].copy()
        fams = _staple_paths(mu, g.ndim)
        for fam, paths in fams.items():
            c = coeffs[fam]
            if c == 0.0:
                continue
            for path in paths:
                acc += c * link_path(gauge, path)
        out[mu] = acc
    return out


def long_links(gauge: GaugeField) -> np.ndarray:
    """Naik 3-link transporters ``U_mu(x) U_mu(x+mu) U_mu(x+2mu)``."""
    g = gauge.geometry
    out = np.empty((g.ndim, g.volume, 3, 3), dtype=np.complex128)
    for mu in range(g.ndim):
        m = mu + 1
        out[mu] = link_path(gauge, (m, m, m))
    return out


def _site_slowest_view(u: np.ndarray) -> np.ndarray:
    """``(ndim, 3, 3, V)`` links seen as ``(ndim, V, 3, 3)``, read-only (a
    write would leave the ``U^dagger`` beside them stale)."""
    view = u.transpose(0, 3, 1, 2)
    view.setflags(write=False)
    return view


class NaiveStaggeredDirac:
    """One-link (Kogut-Susskind) staggered operator on ``(V, 3)`` fields.

    ``D chi(x) = m chi(x) + (1/2) sum_mu eta_mu(x)
                 [U_mu(x) chi(x+mu) - U_mu(x-mu)^+ chi(x-mu)]``

    The hopping part is anti-hermitian, so ``D^+ D = m^2 - Dslash^2`` is
    hermitian positive and block-diagonal in site parity.
    """

    spin_dof = (3,)

    def __init__(self, gauge: GaugeField, mass: float):
        self.gauge = gauge
        self.geometry = gauge.geometry
        self.mass = float(mass)
        self.phases = staggered_phases(self.geometry)
        # the hopping kernel's scratch, site index fastest (DESIGN.md §12):
        # transposed input, accumulator, one direction's term, gather, product
        self._src, self._acc, self._term, self._gathered, self._prod = np.empty(
            (5, 3, self.geometry.volume), dtype=np.complex128
        )

    def _check(self, chi: np.ndarray) -> None:
        expected = (self.geometry.volume,) + self.spin_dof
        if chi.shape != expected:
            raise ConfigError(f"field shape {chi.shape}, expected {expected}")
        if chi.dtype != np.complex128:
            # a complex64 field would otherwise be accumulated in double
            # by the kernel scratch and handed back in single
            raise ConfigError(f"field dtype {chi.dtype}, expected complex128")

    def _one_link(self):
        """``(U, U^dagger)`` of the one-link term, each ``(ndim, 3, 3, V)``."""
        return self.gauge.resident_pair

    def hopping(self, chi: np.ndarray) -> np.ndarray:
        """``sum_mu eta_mu (U chi_fwd - U^+ chi_bwd)`` (caller adds the
        1/2); a fresh array the caller owns."""
        self._check(chi)
        out = np.empty_like(chi)  # caller-owned: never the kernel's scratch
        self._hop(chi, out)
        return out

    @hot_path
    def _hop(self, chi: np.ndarray, out: np.ndarray) -> None:
        """The hopping sum of ``chi`` into ``out``, both ``(V, 3)``; every
        array in between has the site index fastest."""
        acc, term = self._acc, self._term
        np.copyto(self._src, chi.T)
        acc.fill(0)
        for mu in range(self.geometry.ndim):
            self._direction(mu)
            np.multiply(self.phases[mu], term, out=term)
            acc += term
        np.copyto(out.T, acc)

    @hot_path
    def _direction(self, mu: int) -> None:
        """Direction ``mu``'s transported difference into ``_term``,
        before its phase."""
        links = self._one_link()
        self._transport(links, mu, +1, self._term)
        self._transport(links, mu, -1, self._prod)
        self._term -= self._prod

    @hot_path
    def _transport(self, links, mu: int, steps: int, out: np.ndarray) -> None:
        """``U chi(x + steps mu)`` forward; backward ``U^+ chi`` multiplied
        where the link lives and the product gathered, so no shifted copy
        of the links exists."""
        src, gathered = self._src, self._gathered
        table = self.geometry.hop(mu, steps)
        # mode="clip": the memoised tables are in range by construction,
        # and numpy buffers ``out`` under the default "raise"
        if steps > 0:
            np.take(src, table, axis=-1, out=gathered, mode="clip")
            cmatvec_site_fastest(links[0][mu], gathered, out=out)
        else:
            cmatvec_site_fastest(links[1][mu], src, out=gathered)
            np.take(gathered, table, axis=-1, out=out, mode="clip")

    def apply(self, chi: np.ndarray) -> np.ndarray:
        return self.mass * chi + 0.5 * self.hopping(chi)

    def apply_dagger(self, chi: np.ndarray) -> np.ndarray:
        """``D^+ = m - (1/2) hopping`` (anti-hermitian hopping)."""
        return self.mass * chi - 0.5 * self.hopping(chi)

    def normal(self, chi: np.ndarray) -> np.ndarray:
        return self.apply_dagger(self.apply(chi))

    def __repr__(self) -> str:
        return f"NaiveStaggeredDirac(shape={self.geometry.shape}, m={self.mass})"


class AsqtadDirac(NaiveStaggeredDirac):
    """ASQTAD-improved staggered operator.

    ``D chi(x) = m chi(x) + (1/2) sum_mu eta_mu(x) [
        V_mu(x) chi(x+mu)  - V_mu(x-mu)^+  chi(x-mu)
      + c_naik ( W_mu(x) chi(x+3mu) - W_mu(x-3mu)^+ chi(x-3mu) ) ]``

    with ``V`` the fat links and ``W`` the 3-link Naik transporters.
    """

    def __init__(
        self,
        gauge: GaugeField,
        mass: float,
        coeffs: Dict[str, float] = ASQTAD_COEFFS,
    ):
        super().__init__(gauge, mass)
        self.coeffs = dict(coeffs)
        # smeared once, held once: in the kernel's layout, with ``fat`` and
        # ``long`` the ``(ndim, V, 3, 3)`` read-only views of it
        self._fat = site_fastest_pair(fat_links(gauge, self.coeffs))
        self._long = site_fastest_pair(long_links(gauge))
        self.fat = _site_slowest_view(self._fat[0])
        self.long = _site_slowest_view(self._long[0])

    def _one_link(self):
        return self._fat

    @hot_path
    def _direction(self, mu: int) -> None:
        super()._direction(mu)
        term, prod = self._term, self._prod
        c_naik = self.coeffs["naik"]
        self._transport(self._long, mu, +3, prod)
        np.multiply(c_naik, prod, out=prod)
        term += prod
        self._transport(self._long, mu, -3, prod)
        np.multiply(c_naik, prod, out=prod)
        term -= prod

    def __repr__(self) -> str:
        return f"AsqtadDirac(shape={self.geometry.shape}, m={self.mass})"
