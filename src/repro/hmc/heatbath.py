"""Quenched SU(3) heatbath: Cabibbo-Marinari + overrelaxation.

The second workhorse for evolving "a QCD system through the phase space of
the Feynman path integral" (paper section 4) alongside HMC: each link is
updated in place by sweeping its three SU(2) subgroups, drawing the new
subgroup element from the exact local Boltzmann weight
(Kennedy-Pendleton sampling), interleaved with microcanonical
overrelaxation sweeps that move through phase space at constant action.

Sweeps run in the checkerboard order (parity x direction) required for
detailed balance: all links updated within one half-sweep have disjoint
staples.  All randomness flows through named streams, so evolutions are
bit-reproducible like everything else in this package.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.hmc.actions import WilsonGaugeAction
from repro.lattice.gauge import GaugeField
from repro.lattice.su3 import dagger
from repro.util.errors import ConfigError
from repro.util.rng import rng_stream

#: the three SU(2) subgroups of SU(3): (row/col index pairs)
SU2_SUBGROUPS: Tuple[Tuple[int, int], ...] = ((0, 1), (0, 2), (1, 2))


def _su2_project(m: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Project batched 2x2 complex matrices onto ``k * SU(2)``.

    Any 2x2 ``M`` has a unique decomposition with
    ``V = [[a, b], [-b*, a*]] / k``; returns ``(k, V)`` with ``k >= 0``.
    """
    a = (m[..., 0, 0] + np.conj(m[..., 1, 1])) / 2.0
    b = (m[..., 0, 1] - np.conj(m[..., 1, 0])) / 2.0
    k = np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2)
    safe = np.where(k > 0, k, 1.0)
    v = np.empty(m.shape[:-2] + (2, 2), dtype=np.complex128)
    v[..., 0, 0] = a / safe
    v[..., 0, 1] = b / safe
    v[..., 1, 0] = -np.conj(b) / safe
    v[..., 1, 1] = np.conj(a) / safe
    eye = np.zeros_like(v)
    eye[..., 0, 0] = eye[..., 1, 1] = 1.0
    v = np.where((k > 0)[..., None, None], v, eye)
    return k, v


def _kennedy_pendleton(alpha: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sample ``x0 in [-1, 1]`` with density ``sqrt(1-x0^2) exp(alpha x0)``.

    Vectorised rejection sampling (Kennedy-Pendleton 1985); ``alpha > 0``.
    """
    n = alpha.shape[0]
    x0 = np.empty(n)
    todo = np.arange(n)
    while todo.size:
        a = alpha[todo]
        r1 = rng.random(todo.size)
        r2 = rng.random(todo.size)
        r3 = rng.random(todo.size)
        r4 = rng.random(todo.size)
        # avoid log(0)
        r1 = np.clip(r1, 1e-300, 1.0)
        r3 = np.clip(r3, 1e-300, 1.0)
        x = -(np.log(r1) + np.cos(2 * np.pi * r2) ** 2 * np.log(r3)) / a
        accept = r4**2 <= 1.0 - x / 2.0
        sel = todo[accept]
        x0[sel] = 1.0 - x[accept]
        todo = todo[~accept]
    return x0


def _random_su2_from_x0(x0: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Batched SU(2) matrices with given ``x0`` and isotropic (x1,x2,x3)."""
    n = x0.shape[0]
    r = np.sqrt(np.maximum(0.0, 1.0 - x0**2))
    cos_t = 2.0 * rng.random(n) - 1.0
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - cos_t**2))
    phi = 2 * np.pi * rng.random(n)
    x1 = r * sin_t * np.cos(phi)
    x2 = r * sin_t * np.sin(phi)
    x3 = r * cos_t
    out = np.empty((n, 2, 2), dtype=np.complex128)
    out[:, 0, 0] = x0 + 1j * x3
    out[:, 0, 1] = x2 + 1j * x1
    out[:, 1, 0] = -x2 + 1j * x1
    out[:, 1, 1] = x0 - 1j * x3
    return out


def _embed_su2(g2: np.ndarray, sub: Tuple[int, int]) -> np.ndarray:
    """Embed batched SU(2) matrices into SU(3) at the given subgroup."""
    n = g2.shape[0]
    g3 = np.broadcast_to(np.eye(3, dtype=np.complex128), (n, 3, 3)).copy()
    i, j = sub
    g3[:, i, i] = g2[:, 0, 0]
    g3[:, i, j] = g2[:, 0, 1]
    g3[:, j, i] = g2[:, 1, 0]
    g3[:, j, j] = g2[:, 1, 1]
    return g3


class Heatbath:
    """Quenched gauge-field updater.

    Parameters
    ----------
    beta:
        Wilson gauge coupling.
    seed:
        Root seed; each (sweep, parity, direction, subgroup) consumes from
        one deterministic stream.
    """

    def __init__(self, gauge: GaugeField, beta: float, seed: int = 0):
        if beta <= 0:
            raise ConfigError(f"beta must be positive, got {beta}")
        self.gauge = gauge
        self.beta = float(beta)
        self.seed = int(seed)
        self.sweep_index = 0
        self.action = WilsonGaugeAction(beta)
        self.plaquette_history: List[float] = []

    # -- one checkerboard half-update ---------------------------------------
    def _update_links(self, mu: int, sites: np.ndarray, rng, overrelax: bool):
        g = self.gauge
        u = g.links[mu][sites]
        staple = g.staple(mu)[sites]
        w = u @ staple  # Re tr(w) is the local action contribution
        for sub in SU2_SUBGROUPS:
            i, j = sub
            m2 = np.empty((len(sites), 2, 2), dtype=np.complex128)
            m2[:, 0, 0] = w[:, i, i]
            m2[:, 0, 1] = w[:, i, j]
            m2[:, 1, 0] = w[:, j, i]
            m2[:, 1, 1] = w[:, j, j]
            k, v = _su2_project(m2)
            if overrelax:
                # microcanonical reflection: new subgroup element V+ V+
                # keeps Re tr unchanged while moving the link.
                g2 = dagger(v) @ dagger(v)
            else:
                # heatbath: X ~ exp((beta/3) k Re tr X), new element X V+.
                alpha = np.maximum(2.0 * self.beta * k / 3.0, 1e-12)
                x0 = _kennedy_pendleton(alpha, rng)
                x = _random_su2_from_x0(x0, rng)
                g2 = x @ dagger(v)
            rot = _embed_su2(g2, sub)
            u = rot @ u
            w = rot @ w
        g.set_links(mu, sites, u)

    def sweep(self, overrelax: bool = False) -> float:
        """One full sweep (both parities, all directions); returns the
        plaquette afterwards."""
        g = self.gauge
        geom = g.geometry
        kind = "or" if overrelax else "hb"
        rng = rng_stream(self.seed, f"{kind}/{self.sweep_index}")
        for parity_sites in (geom.even_sites, geom.odd_sites):
            for mu in range(geom.ndim):
                self._update_links(mu, parity_sites, rng, overrelax)
        self.sweep_index += 1
        p = g.plaquette()
        self.plaquette_history.append(p)
        return p

    def run(
        self,
        n_sweeps: int,
        or_per_hb: int = 0,
        reunitarise_every: int = 10,
    ) -> List[float]:
        """``n_sweeps`` heatbath sweeps, each followed by ``or_per_hb``
        overrelaxation sweeps."""
        out = []
        for k in range(n_sweeps):
            out.append(self.sweep(overrelax=False))
            for _ in range(or_per_hb):
                out.append(self.sweep(overrelax=True))
            if reunitarise_every and (k + 1) % reunitarise_every == 0:
                self.gauge.reunitarise()
        return out

    def fingerprint(self) -> bytes:
        return self.gauge.links.tobytes()
