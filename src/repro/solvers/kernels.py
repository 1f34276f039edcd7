"""Fused, allocation-free vector kernels for the Krylov inner loops.

The paper's solver benchmarks run the CG linear algebra out of hand-tuned
assembly that streams each operand exactly once and never allocates.  In
numpy terms that means ``out=``-parameter ufuncs into caller-owned
workspaces: one temporary per *solver*, not one per *expression*.

Every kernel here is **bitwise identical** to the naive expression it
replaces (e.g. ``np.multiply(x, a, out=ws); np.add(y, ws, out=y)``
performs the exact elementwise operations of ``y += a * x``), so swapping
them into a solver changes no convergence history, only the allocation
count.  The inner products stay behind the backend's ``dot`` (a generator,
see :mod:`repro.solvers.krylov`) so distributed solves can route
reductions through the simulated SCU global-sum tree, and the kernels
price nothing: the core charges them through the backend's ``charge``.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

import numpy as np

#: a backend inner product: a generator that may yield simulator events
#: (the SCU global sum) before returning the global ``<u, v>``
GenDot = Callable[[np.ndarray, np.ndarray], Generator[Any, Any, complex]]


def axpy(alpha, x: np.ndarray, y: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """``y += alpha * x`` through the workspace ``ws`` (no allocation).

    Bitwise identical to the naive expression: numpy evaluates
    ``y += alpha * x`` as a scalar-multiply temporary followed by an
    in-place add — exactly the two ufunc calls issued here.
    """
    np.multiply(x, alpha, out=ws)
    np.add(y, ws, out=y)
    return y


def xpay(x: np.ndarray, beta, y: np.ndarray) -> np.ndarray:
    """``y <- x + beta * y`` in place on ``y`` — workspace-free.

    The scale happens directly in ``y`` (safe: ``beta * y`` reads each
    element exactly once before overwriting it), then the add keeps ``x``
    as the first operand, matching ``x + beta * y`` bit for bit.  This is
    the CG search-direction update ``p <- r + beta p``.
    """
    np.multiply(y, beta, out=y)
    np.add(x, y, out=y)
    return y


def axpy_norm2(
    alpha, x: np.ndarray, y: np.ndarray, ws: np.ndarray, dot: GenDot
) -> Generator[Any, Any, float]:
    """Fused ``y += alpha * x`` then ``dot(y, y).real`` — the CG residual
    update and its norm in one call (one fewer pass in a real kernel).
    A generator, like the ``dot`` it is handed: the reduction is the
    backend's, so distributed solves hit the global-sum tree."""
    axpy(alpha, x, y, ws)
    return (yield from dot(y, y)).real


def scale_axpy(
    gamma, x: np.ndarray, beta, y: np.ndarray, ws: np.ndarray
) -> np.ndarray:
    """``y <- gamma * x + beta * y`` through ``ws`` (no allocation).

    Operand order matches ``gamma * x + beta * y`` exactly (the scaled
    ``x`` is the first add operand) — the multishift search-direction
    recurrence ``p_s <- zeta_s r + beta_s p_s``.
    """
    np.multiply(y, beta, out=y)
    np.multiply(x, gamma, out=ws)
    np.add(ws, y, out=y)
    return y
