"""Multi-shift conjugate gradients (CG-M).

Solves ``(A + sigma_i) x_i = b`` for a whole family of shifts
``sigma_i >= 0`` in a *single* Krylov space — the same operator
applications as one CG solve.  Shifted solvers are the engine of rational
HMC and of multi-mass analyses (many quark masses from one gauge field):
for Wilson-type operators ``A = D^+ D`` and ``sigma`` absorbs a mass
shift, so one solve prices out a full mass sweep — precisely the kind of
production economics a $1/Mflops machine was built for.

Algorithm: B. Jegerlehner, hep-lat/9612014 (the standard formulation).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.solvers.cg import Apply, Dot, _default_dot
from repro.solvers.krylov import MultiShiftResult, lift, multishift_iter, run_serial

__all__ = ["MultiShiftResult", "multishift_cg"]


def multishift_cg(
    apply_a: Apply,
    b: np.ndarray,
    shifts: Sequence[float],
    tol: float = 1e-8,
    maxiter: int = 2000,
    dot: Dot = _default_dot,
) -> MultiShiftResult:
    """Solve ``(A + sigma) x = b`` for every ``sigma`` in ``shifts``.

    ``A`` must be hermitian positive-definite; all shifts must be
    non-negative (the smallest shift controls convergence).  The returned
    residual history is that of the base system (``sigma = 0``); the
    shifted residuals are proportional via the ``zeta`` factors and
    converge at least as fast.

    Converged shifts are **frozen** (their vector updates stop) while the
    shared Krylov recursion runs on for the shifts still live — see
    :func:`repro.solvers.krylov.multishift_iter`, which this runs to
    completion; for shift sets *without* ``sigma = 0`` the iteration can
    therefore end before the base system itself converges.

    Zero right-hand side returns the exact solution ``x = 0`` with
    ``residuals == [0.0]`` — the same sentinel history as
    :func:`repro.solvers.cg.cg` (a relative residual is undefined at
    ``||b|| = 0``; the main path's history always starts at ``1.0``).
    """
    return run_serial(
        multishift_iter(lift(apply_a), lift(dot), b, shifts, tol, maxiter)
    )
