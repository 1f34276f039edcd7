"""Memoised gather-index tables: the one place stencil indices are built.

Every Dirac operator and halo plan in the stack gathers neighbour sites
through index tables keyed only by a lattice *shape* (plus axis / sign /
hop depth).  Before this module each
:class:`~repro.lattice.geometry.LatticeGeometry` instance rebuilt its own
``np.roll`` tables and every halo plan recomputed its face masks — per
rank, per context, per call.  The hardware this codebase twins does the
opposite: QCDOC's hand-tuned dslash precomputes its block-strided DMA
descriptors and gather offsets **once** and replays them on every
application (paper sections 2.2 and 3.3).

This module is that precomputation, functional: a process-wide memo cache
of

* site coordinate arrays and parity colourings,
* per-``(mu, sign)`` nearest-neighbour index tables and per-``(mu,
  steps)`` multi-hop tables (the ASQTAD Naik term needs 3-link hops),
* per-``(axis, side, depth)`` boundary-face site lists and the
  :class:`HaloPlan` send/fill index sets built from them,
* per-``(comm_axes, depth)`` interior masks and the disjoint
  interior/boundary site partitions of the overlapped pipeline.

All entries are keyed by the plain shape tuple, so the per-rank local
geometries of a distributed run (every tile has the same local shape)
share one set of tables.  Returned arrays are **read-only** views of the
cached entries; callers gather through them (producing fresh writable
arrays) but can never corrupt the shared state.

``cache_info()`` exposes hit/miss counters so tests can assert the hot
path performs *zero* per-call index recomputation.

Layering: this module imports only numpy and the error types;
:class:`~repro.lattice.geometry.LatticeGeometry` and the halo pipeline of
:mod:`repro.parallel.halo` call it (not the other way around).
"""

from __future__ import annotations

from typing import Dict, Iterable, NamedTuple, Tuple, Union

import numpy as np

from repro.util.errors import ConfigError

Shape = Tuple[int, ...]
ShapeLike = Union[Shape, Iterable[int], "object"]


class HaloPlan(NamedTuple):
    """Index plan for one (axis, hop-distance) halo exchange."""

    axis: int
    depth: int
    #: local sites sent toward the -mu neighbour (our low face)
    send_low: np.ndarray
    #: local sites sent toward the +mu neighbour (our high face)
    send_high: np.ndarray
    #: rows of a ``field[hop(mu, +depth)]`` gather to overwrite with the
    #: halo received from the +mu neighbour (our high face)
    fill_from_fwd: np.ndarray
    #: rows of a ``field[hop(mu, -depth)]`` gather to overwrite with the
    #: halo received from the -mu neighbour (our low face)
    fill_from_bwd: np.ndarray


#: the process-wide memo store: ``(shape, kind, *args) -> table``
_CACHE: Dict[tuple, object] = {}
_HITS = 0
_MISSES = 0


def shape_key(shape: ShapeLike) -> Shape:
    """Normalise a shape-like (tuple, list, or object with ``.shape``)."""
    inner = getattr(shape, "shape", shape)
    key = tuple(int(s) for s in inner)
    if not key:
        raise ConfigError("lattice needs at least one axis")
    if any(s < 1 for s in key):
        raise ConfigError(f"axis extents must be >= 1, got {key}")
    return key


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _get(key: tuple, builder):
    global _HITS, _MISSES
    try:
        value = _CACHE[key]
    except KeyError:
        _MISSES += 1
        value = builder()
        _CACHE[key] = value
        return value
    _HITS += 1
    return value


def cache_info() -> Dict[str, int]:
    """Memo-cache statistics: ``{"hits", "misses", "entries"}``.

    ``hits`` counts table lookups served without building anything;
    ``misses`` counts one-time table constructions.  A warmed-up solver
    loop must drive ``hits`` without ever growing ``misses`` — the
    "zero per-call index-table recomputation" contract.
    """
    return {"hits": _HITS, "misses": _MISSES, "entries": len(_CACHE)}


def cache_clear() -> None:
    """Drop every memoised table and reset the counters (tests/benches)."""
    global _HITS, _MISSES
    _CACHE.clear()
    _HITS = 0
    _MISSES = 0


# -- coordinate / parity tables ---------------------------------------------

def coords(shape: ShapeLike) -> np.ndarray:
    """``(V, ndim)`` coordinate vectors, C order (last axis fastest)."""
    key = shape_key(shape)

    def build():
        ndim = len(key)
        volume = int(np.prod(key))
        grid = np.indices(key).reshape(ndim, volume)
        return _freeze(np.ascontiguousarray(grid.T))

    return _get((key, "coords"), build)


def parity(shape: ShapeLike) -> np.ndarray:
    """``(V,)`` int8 even/odd (red/black) colouring."""
    key = shape_key(shape)
    return _get(
        (key, "parity"),
        lambda: _freeze((coords(key).sum(axis=1) % 2).astype(np.int8)),
    )


def parity_sites(shape: ShapeLike, p: int) -> np.ndarray:
    """Sorted site indices of parity ``p`` (0 = even, 1 = odd)."""
    key = shape_key(shape)
    if p not in (0, 1):
        raise ConfigError(f"parity must be 0 or 1, got {p}")
    return _get(
        (key, "parity_sites", p),
        lambda: _freeze(np.nonzero(parity(key) == p)[0]),
    )


# -- neighbour / hop tables --------------------------------------------------

def _index_grid(key: Shape) -> np.ndarray:
    return _get(
        (key, "grid"),
        lambda: _freeze(np.arange(int(np.prod(key))).reshape(key)),
    )


def neighbour(shape: ShapeLike, mu: int, sign: int) -> np.ndarray:
    """``(V,)`` index table of the site at ``x + sign * e_mu`` (periodic)."""
    key = shape_key(shape)
    if not 0 <= mu < len(key):
        raise ConfigError(f"axis {mu} out of range for shape {key}")
    if sign not in (+1, -1):
        raise ConfigError(f"sign must be +-1, got {sign}")
    return _get(
        (key, "nbr", mu, sign),
        lambda: _freeze(np.roll(_index_grid(key), -sign, axis=mu).ravel()),
    )


def hop(shape: ShapeLike, mu: int, steps: int) -> np.ndarray:
    """Index table for ``x + steps * e_mu`` (negative steps go backward)."""
    key = shape_key(shape)
    if not 0 <= mu < len(key):
        raise ConfigError(f"axis {mu} out of range for shape {key}")

    def build():
        if steps == 0:
            return _freeze(np.arange(int(np.prod(key))))
        base = neighbour(key, mu, +1 if steps > 0 else -1)
        table = base
        for _ in range(abs(steps) - 1):
            table = base[table]
        return _freeze(np.ascontiguousarray(table))

    return _get((key, "hop", mu, steps), build)


# -- faces and halo plans -----------------------------------------------------

def face_sites(shape: ShapeLike, axis: int, side: int, depth: int = 1) -> np.ndarray:
    """Sites within ``depth`` of one boundary face, in ascending site order.

    ``side=-1`` selects ``x_axis < depth`` (the low face); ``side=+1``
    selects ``x_axis >= L - depth``.
    """
    key = shape_key(shape)
    if not 0 <= axis < len(key):
        raise ConfigError(f"axis {axis} out of range for shape {key}")
    L = key[axis]
    if depth < 1 or depth > L:
        raise ConfigError(f"face depth {depth} invalid for axis extent {L}")
    side = -1 if side < 0 else +1

    def build():
        x = coords(key)[:, axis]
        mask = (x < depth) if side < 0 else (x >= L - depth)
        return _freeze(np.nonzero(mask)[0])

    return _get((key, "face", axis, side, depth), build)


def halo_plan(shape: ShapeLike, axis: int, depth: int = 1) -> HaloPlan:
    """The memoised :class:`HaloPlan` for one axis at one hop distance.

    ``depth=1`` is the nearest-neighbour plan every Wilson-type operator
    uses; ASQTAD also needs ``depth=3`` for its Naik hops.  The wire
    convention (:mod:`repro.parallel.halo`):

    * a tile sends its **low** face (``x_mu < depth``) toward its ``-mu``
      neighbour, which needs it as "my forward neighbour's value";
    * rows of ``field[hop(mu, +depth)]`` on the **high** face wrapped
      around the local torus and are overwritten with the halo received
      from the ``+mu`` neighbour (and symmetrically backward).

    Every tile has the same local shape and faces are listed in site
    order, so element ``k`` of the sender's low face and element ``k`` of
    the receiver's high face share transverse coordinates: no permutation
    on the wire.  That is what lets the SCU DMA engines move a face with
    plain block-strided descriptors (paper section 2.2) and keeps the
    distributed arithmetic bitwise identical to the serial one.
    """
    key = shape_key(shape)

    def build():
        low = face_sites(key, axis, -1, depth)
        high = face_sites(key, axis, +1, depth)
        return HaloPlan(
            axis=axis,
            depth=depth,
            send_low=low,
            send_high=high,
            fill_from_fwd=high,
            fill_from_bwd=low,
        )

    return _get((key, "plan", axis, depth), build)


# -- interior / boundary partitions ------------------------------------------

def interior_mask(
    shape: ShapeLike, comm_axes: Tuple[int, ...], depth: int = 1
) -> np.ndarray:
    """Boolean mask of sites whose ``depth``-deep stencil touches no halo.

    A site is *interior* iff ``depth <= x_mu < L_mu - depth`` for every
    communicated axis ``mu``; non-communicated axes impose no constraint
    (their periodic wrap is local memory).
    """
    key = shape_key(shape)
    axes = tuple(sorted(set(int(a) for a in comm_axes)))
    for mu in axes:
        if not 0 <= mu < len(key):
            raise ConfigError(f"axis {mu} out of range for shape {key}")

    def build():
        mask = np.ones(int(np.prod(key)), dtype=bool)
        c = coords(key)
        for mu in axes:
            x = c[:, mu]
            L = key[mu]
            mask = mask & (x >= depth) & (x < L - depth)
        return _freeze(mask)

    return _get((key, "interior", axes, depth), build)


def site_partition(
    shape: ShapeLike, comm_axes: Tuple[int, ...], depth: int = 1
) -> Tuple[np.ndarray, np.ndarray]:
    """Disjoint sorted (interior, boundary) cover of every local site."""
    key = shape_key(shape)
    axes = tuple(sorted(set(int(a) for a in comm_axes)))

    def build():
        mask = interior_mask(key, axes, depth)
        return (
            _freeze(np.nonzero(mask)[0]),
            _freeze(np.nonzero(~mask)[0]),
        )

    return _get((key, "partition", axes, depth), build)


def face_layer_rows(
    shape: ShapeLike, axis: int, side: int, depth: int, layer: int
) -> np.ndarray:
    """Rows of a depth-``depth`` face whose face-normal coordinate equals
    ``layer`` — e.g. the ``x_mu == 0`` layer inside a depth-3 low face
    (the staggered 1-hop fill within the packed Naik halo)."""
    key = shape_key(shape)
    face = face_sites(key, axis, side, depth)

    def build():
        x = coords(key)[face][:, axis]
        return _freeze(np.nonzero(x == layer)[0])

    return _get((key, "layer", axis, -1 if side < 0 else +1, depth, layer), build)
