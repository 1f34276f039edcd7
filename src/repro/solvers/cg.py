"""Conjugate gradients, exactly as run on QCDOC: the serial entry points.

Each function lifts plain callables into the ``(apply, dot)`` backend of
:mod:`repro.solvers.krylov`, runs that generator to completion and adds
the audit ``true_residual``.  ``dot`` is how a solve is made
decomposition-independent (:func:`repro.solvers.sitedot.canonical_dot`)
and so bitwise comparable with the same generator run on the machine.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from repro.solvers.krylov import IterationHook, SolveResult, cg_iter, lift
from repro.solvers.krylov import mixed_cg_iter, run_serial
from repro.solvers.sitedot import canonical_dot

Apply = Callable[[np.ndarray], np.ndarray]
Dot = Callable[[np.ndarray, np.ndarray], complex]


def _default_dot(a: np.ndarray, b: np.ndarray) -> complex:
    return complex(np.vdot(a, b))


def _hook(callback: Optional[Callable[[int, float], None]]) -> Optional[IterationHook]:
    """``callback(iteration, relative_residual)`` as the core's hook."""
    if callback is None:
        return None

    def on_iteration(state: dict, converged: bool) -> None:
        if state["it"]:  # the entry state is not an iteration
            callback(state["it"], state["residuals"][-1])

    return on_iteration


def _audit(result: SolveResult, apply_a: Apply, b: np.ndarray, dot: Dot) -> SolveResult:
    """Fill ``true_residual = |b - A x| / |b|``, recomputed from scratch.

    Serial only: the audit reads the finished solution and feeds nothing,
    so rank programs skip it rather than pay simulated time for it.
    """
    bb = dot(b, b).real
    if bb > 0:
        resid = b - apply_a(result.x)
        result.true_residual = float(np.sqrt(dot(resid, resid).real / bb))
    return result


def cg(
    apply_a: Apply,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-8,
    maxiter: int = 2000,
    dot: Dot = _default_dot,
    callback: Optional[Callable[[int, float], None]] = None,
) -> SolveResult:
    """Solve ``A x = b`` for hermitian positive-definite ``A``.

    Parameters
    ----------
    apply_a:
        The matrix-vector product (e.g. ``operator.normal``).
    dot:
        Inner product; must return the *global* sum when the field is
        distributed.  Defaults to ``numpy.vdot``.
    callback:
        Called as ``callback(iteration, relative_residual)`` per iteration.
    """
    result = run_serial(
        cg_iter(lift(apply_a), lift(dot), b, tol, maxiter, _hook(callback), x0=x0)
    )
    return _audit(result, apply_a, b, dot)


def mixed_precision_cg(
    apply_a: Apply,
    b: np.ndarray,
    tol: float = 1e-8,
    maxiter: int = 2000,
    delta: float = 1e-2,
    max_inner: int = 100,
    dot: Optional[Dot] = None,
    callback: Optional[Callable[[int, float], None]] = None,
) -> SolveResult:
    """CG with single-precision inner accumulation and reliable updates.

    QCDOC's kernels ran the bandwidth-bound inner arithmetic in single
    precision wherever the physics allowed; this is the standard
    reliable-update formulation that recovers full double-precision
    accuracy anyway (:func:`repro.solvers.krylov.mixed_cg_iter`).
    ``dot`` defaults to the decomposition-independent
    :func:`repro.solvers.sitedot.canonical_dot`.  The residual history
    holds the double-precision relative residual at entry 0 and after
    every reliable update, which is also when ``callback`` fires.
    """
    if dot is None:
        dot = canonical_dot
    result = run_serial(
        mixed_cg_iter(
            lift(apply_a), lift(dot), b, tol, maxiter, delta, max_inner,
            _hook(callback),
        )
    )
    return _audit(result, apply_a, b, dot)


def cgne(
    apply_d: Apply,
    apply_d_dagger: Apply,
    b: np.ndarray,
    **kwargs: Any,
) -> SolveResult:
    """Solve the non-hermitian ``D x = b`` via the normal equations.

    CG is run on ``(D^+ D) x = D^+ b`` — the standard production path for
    Wilson-type operators on QCDOC (gamma5-hermiticity guarantees
    ``D^+ D`` is hermitian positive-definite for nonzero mass).
    The returned ``true_residual`` is measured against the *original*
    system ``D x = b``.
    """
    result = cg(lambda v: apply_d_dagger(apply_d(v)), apply_d_dagger(b), **kwargs)
    return _audit(result, apply_d, b, kwargs.get("dot", _default_dot))
