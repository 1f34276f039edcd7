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

The paths are summed as nested staples (DESIGN.md §12).  With ``F_a`` the
link of a signed step ``a``, ``staple(a, X)(x) = F_a(x) X(x+a) F_a(x+mu)^+``
maps a transporter ``x -> x+mu`` to another, and the families of
:func:`_staple_paths` are

* 3-link: ``sum_a staple(a, U_mu)``;
* Lepage: ``sum_a staple(a, staple(a, U_mu))``;
* 5-link: ``sum_a staple(a, sum_{b perp a} staple(b, U_mu))``;
* 7-link: ``sum_a staple(a, sum_{b perp a} staple(b, sum_{c perp a,b} staple(c, U_mu)))``,

"perp" meaning an axis other than ``mu`` and those already used.  Every
link product is :func:`~repro.lattice.gauge.cmatmul_site_fastest` on
``(3, 3, V)`` arrays, the site index fastest: no BLAS, so the smeared
links are a function of the gauge field alone, whatever matrix kernel
the host's BLAS would pick.  :func:`link_path` multiplies one path at a
time, the definition the nested sums are tested against.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.lattice.gauge import (
    GaugeField,
    cmatmul_site_fastest,
    cmatvec_site_fastest,
    site_fastest_pair,
    to_site_slowest,
)
from repro.lattice.geometry import LatticeGeometry
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
    Returns ``(V, 3, 3)``: the transporter from ``x`` to the path endpoint,
    multiplied left to right.  This is the smearing's definition, one
    path at a time: :func:`fat_links` sums the same paths as nested staples.
    """
    g = gauge.geometry
    u, u_dag = gauge.resident_pair
    idx = np.arange(g.volume)
    prod = None
    for s in steps:
        if s == 0 or abs(s) > g.ndim:
            raise ConfigError(f"bad path step {s} for {g.ndim}-dim lattice")
        mu = abs(s) - 1
        if s > 0:
            factor = np.take(u[mu], idx, axis=-1)
            idx = g.neighbour_fwd(mu)[idx]
        else:
            idx = g.neighbour_bwd(mu)[idx]
            factor = np.take(u_dag[mu], idx, axis=-1)
        prod = factor if prod is None else _times(prod, factor)
    if prod is None:
        raise ConfigError("empty path")
    return to_site_slowest(prod)


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A fresh ``(3, 3, V)`` array of the per-site products ``a b``."""
    return cmatmul_site_fastest(a, b, np.empty_like(a))


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


def _stapler(gauge: GaugeField, mu: int):
    """``staple(step, inner)`` around direction ``mu``, site-fastest.

    For ``step = (nu, +1)`` it is ``U_nu(x) inner(x+nu) U_nu(x+mu)^+``;
    for ``(nu, -1)`` the mirror ``U_nu(x-nu)^+ inner(x-nu) U_nu(x-nu+mu)``,
    multiplied where the links live and the product gathered, as the
    backward hops are.  ``inner`` is a ``(3, 3, V)`` transporter from
    ``x`` to ``x + mu``, and so is the staple.
    """
    g = gauge.geometry
    u, u_dag = gauge.resident_pair
    up = g.hop(mu, +1)
    # every staple closes at x + mu: the transverse links seen from there
    closing = {
        nu: (np.take(u[nu], up, axis=-1), np.take(u_dag[nu], up, axis=-1))
        for nu in range(g.ndim)
        if nu != mu
    }

    def staple(step: Tuple[int, int], inner: np.ndarray) -> np.ndarray:
        nu, sign = step
        if sign > 0:
            ahead = np.take(inner, g.hop(nu, +1), axis=-1)
            return _times(_times(u[nu], ahead), closing[nu][1])
        below = _times(_times(u_dag[nu], inner), closing[nu][0])
        return np.take(below, g.hop(nu, -1), axis=-1)

    return staple


def _fat_direction(gauge: GaugeField, mu: int, coeffs: Dict[str, float]) -> np.ndarray:
    """``fat_mu`` as ``(3, 3, V)``: the families of :func:`_staple_paths`
    as nested staples (module docstring).

    A staple is linear in its inner transporter, so each first step ``a``
    takes one outer staple of the Lepage, 5- and 7-link inner sums
    together; the 7-link inner sum depends on ``a``'s axis only.
    """
    u = gauge.resident_pair[0]
    staple = _stapler(gauge, mu)
    axes = [nu for nu in range(gauge.geometry.ndim) if nu != mu]
    steps = [(nu, sign) for nu in axes for sign in (+1, -1)]

    def off(*used: int) -> list:
        """The steps along none of the axes ``used``."""
        return [b for b in steps if b[0] not in used]

    three = {a: staple(a, u[mu]) for a in steps}

    def threes_off(*used: int):
        """The 3-link staples of the steps off ``used`` summed (0 if none)."""
        return sum(three[c] for c in off(*used))

    seven = {
        nu: sum(staple(b, threes_off(nu, b[0])) for b in off(nu) if off(nu, b[0]))
        for nu in axes
    }
    fat = coeffs["one_link"] * u[mu]
    for a in steps:
        inner = (
            coeffs["lepage"] * three[a]
            + coeffs["staple5"] * threes_off(a[0])
            + coeffs["staple7"] * seven[a[0]]
        )
        fat += coeffs["staple3"] * three[a] + staple(a, inner)
    return fat


def fat_links(
    gauge: GaugeField, coeffs: Dict[str, float] = ASQTAD_COEFFS
) -> np.ndarray:
    """ASQTAD smeared ("fat") links, shape ``(ndim, V, 3, 3)``.

    ``fat_mu(x) = c1 U_mu(x) + sum over staple families coeff * path``,
    the paths summed as nested staples in the kernels' layout.  Fat links
    are *not* SU(3) (they are sums of group elements); on the unit
    configuration every entry equals ``(9/8) * identity``.
    """
    g = gauge.geometry
    out = np.empty((g.ndim, g.volume, 3, 3), dtype=np.complex128)
    for mu in range(g.ndim):
        out[mu] = to_site_slowest(_fat_direction(gauge, mu, coeffs))
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
            src.take(table, axis=-1, out=gathered, mode="clip")
            cmatvec_site_fastest(links[0][mu], gathered, out=out)
        else:
            cmatvec_site_fastest(links[1][mu], src, out=gathered)
            gathered.take(table, axis=-1, out=out, mode="clip")

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
