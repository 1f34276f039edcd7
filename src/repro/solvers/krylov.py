"""The Krylov recurrences, each written once, as generators over a backend.

A *backend* is three generator callables — ``apply(v)`` (the operator),
``dot(u, v)`` (the global inner product) and ``charge(kernels, v)`` (the
price of the vector kernels just run on operands like ``v``) — that may
``yield`` simulator events before returning their value.  A rank program
hands in ``ctx.normal``, a dot through the SCU global-sum tree and
``ctx.charge``, and drives a solver with ``yield from``; the serial entry
points of :mod:`repro.solvers.cg` and :mod:`repro.solvers.multishift`
:func:`lift` plain callables and :func:`run_serial` the very same
generator to completion, charging nothing.  Serial and distributed solves
therefore share every arithmetic statement and can differ only in the
``dot`` they were given — which is what makes them bitwise comparable
under one decomposition-independent dot (:mod:`repro.solvers.sitedot`).

``on_iteration(state, converged)`` is the single hook: ``state`` is a
dict that always carries ``"it"`` and ``"residuals"``.  For
:func:`cg_iter` it is the complete resumable state
(:data:`repro.solvers.checkpoint.CG_STATE_KEYS`), reported once for the
fresh entry state (``it == 0``) and after every iteration; handing one
back as ``resume_state`` continues the solve bit for bit.  Tracing,
checkpointing and user callbacks all live behind the hook, never here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Mapping, Optional
from typing import Sequence, Tuple, TypeVar

import numpy as np

from repro.fermions.flops import CG_UPDATE_KERNELS
from repro.solvers.kernels import GenDot, axpy, axpy_norm2, scale_axpy, xpay
from repro.util.errors import ConfigError

T = TypeVar("T")
#: a computation that may yield simulator events before returning ``T``
Steps = Generator[Any, Any, T]
GenApply = Callable[[np.ndarray], Steps[np.ndarray]]
GenCharge = Callable[[Mapping[str, int], np.ndarray], Steps[None]]
IterationHook = Callable[[Dict[str, Any], bool], None]


@dataclass
class SolveResult:
    """Outcome of a Krylov solve."""

    x: np.ndarray
    converged: bool
    iterations: int
    #: relative residual history, one entry per iteration (including entry 0)
    residuals: List[float] = field(default_factory=list)
    #: ``|b - A x| / |b|`` recomputed from scratch at the end (audit value;
    #: catches drift in the recursively-updated residual).  Filled by the
    #: serial entry points only: the machine never pays simulated time
    #: for an audit that feeds nothing.
    true_residual: float = 0.0

    def __repr__(self) -> str:
        status = "converged" if self.converged else "NOT converged"
        return (
            f"SolveResult({status} in {self.iterations} iterations, "
            f"true residual {self.true_residual:.3e})"
        )


@dataclass
class MultiShiftResult:
    """Solutions for every shift, plus shared iteration statistics."""

    shifts: List[float]
    x: Dict[float, np.ndarray]
    converged: bool
    iterations: int
    residuals: List[float] = field(default_factory=list)

    def __getitem__(self, shift: float) -> np.ndarray:
        return self.x[shift]


def lift(fn: Callable[..., T]) -> Callable[..., Steps[T]]:
    """A plain callable as a backend callable that never yields."""

    def lifted(*args: Any) -> Steps[T]:
        return fn(*args)
        yield  # unreachable: makes ``lifted`` a generator function

    return lifted


#: the serial backend's ``charge``: no machine, no price
NO_CHARGE: GenCharge = lift(lambda kernels, v: None)


def run_serial(steps: Steps[T]) -> T:
    """Run a solver generator to completion with no simulator under it."""
    try:
        event = next(steps)
    except StopIteration as done:
        return done.value
    raise ConfigError(
        f"serial solve: the backend yielded {event!r}, but there is no "
        "simulator to wait on it (drive the solver from a rank program)"
    )


def _cg_step(
    apply: GenApply,
    dot: GenDot,
    x: Optional[np.ndarray],
    r: np.ndarray,
    p: np.ndarray,
    rr: float,
    ws: np.ndarray,
) -> Steps[Tuple[float, float, float]]:
    """One step of the CG recurrence, in place on ``(x, r, p)``.

    One operator application, two global inner products, three axpy-type
    vector updates — the mix the performance model (E1) costs out; the
    updates stream through one workspace (:mod:`repro.solvers.kernels`,
    elementwise and so invisible to tiling) and the caller charges them,
    with its own, as one step.  ``x`` is ``None`` for multishift, which
    keeps no unshifted solution.  Returns ``(alpha, beta, <r, r>)``.
    """
    ap = yield from apply(p)
    alpha = rr / (yield from dot(p, ap)).real
    if x is not None:
        axpy(alpha, p, x, ws)  # x += alpha p
    rr_new = yield from axpy_norm2(-alpha, ap, r, ws, dot)  # r -= alpha ap
    beta = rr_new / rr
    xpay(r, beta, p)  # p <- r + beta p, in place
    return alpha, beta, rr_new


def _check_tol(tol: float) -> None:
    if tol <= 0:
        raise ConfigError(f"tolerance must be positive, got {tol}")


def cg_iter(
    apply: GenApply,
    dot: GenDot,
    b: np.ndarray,
    tol: float,
    maxiter: int,
    on_iteration: Optional[IterationHook] = None,
    resume_state: Optional[Dict[str, Any]] = None,
    x0: Optional[np.ndarray] = None,
    charge: GenCharge = NO_CHARGE,
) -> Steps[SolveResult]:
    """Conjugate gradients on hermitian positive-definite ``A x = b``."""
    _check_tol(tol)
    if resume_state is not None:
        x, r, p = (resume_state[k].copy() for k in ("x", "resid", "p"))
        rr, bb, it = resume_state["rr"], resume_state["bb"], resume_state["it"]
        residuals = list(resume_state["residuals"])
    else:
        x = np.zeros_like(b) if x0 is None else x0.copy()
        r = b.copy() if x0 is None else b - (yield from apply(x))
        p = r.copy()
        rr = (yield from dot(r, r)).real
        bb = (yield from dot(b, b)).real
        if bb == 0.0:
            return SolveResult(np.zeros_like(b), True, 0, [0.0])
        it = 0
        residuals = [float(np.sqrt(rr / bb))]
    target = tol * tol * bb
    converged = rr <= target
    ws = np.empty_like(b)

    def report() -> None:
        if on_iteration is not None:
            state = {"it": it, "x": x, "resid": r, "p": p, "rr": rr, "bb": bb,
                     "residuals": residuals}
            on_iteration(state, bool(converged))

    if resume_state is None:  # a resumed solve already reported this state
        report()
    while not converged and it < maxiter:
        _alpha, _beta, rr = yield from _cg_step(apply, dot, x, r, p, rr, ws)
        yield from charge(CG_UPDATE_KERNELS, r)
        it += 1
        residuals.append(float(np.sqrt(rr / bb)))
        converged = rr <= target
        report()
    return SolveResult(x, bool(converged), it, residuals)


def mixed_cg_iter(
    apply: GenApply,
    dot: GenDot,
    b: np.ndarray,
    tol: float,
    maxiter: int,
    delta: float = 1e-2,
    max_inner: int = 100,
    on_iteration: Optional[IterationHook] = None,
    charge: GenCharge = NO_CHARGE,
) -> Steps[SolveResult]:
    """CG with single-precision inner accumulation and reliable updates.

    Each **cycle** runs plain CG on the defect system ``A e = r``
    entirely in ``complex64`` (vectors, axpys and inner products — on the
    machine the site dots cross the global-sum tree in single precision
    too), driving the single-precision residual down by ``delta``; the
    correction is promoted and accumulated into ``x`` in double, and the
    residual is **replaced** — recomputed as ``r = b - A x`` in double —
    before the next cycle, so rounding in the inner loop can delay but
    never corrupt convergence.  The operator stays the shared
    double-precision kernel (inner vectors are promoted per application).
    ``iterations`` counts inner iterations across all cycles; the hook
    fires and the residual history grows once per reliable update.
    """
    _check_tol(tol)
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"cycle reduction delta must be in (0, 1), got {delta}")
    x = np.zeros_like(b)
    bb = (yield from dot(b, b)).real
    if bb == 0.0:
        return SolveResult(x, True, 0, [0.0])
    target = tol * tol * bb
    r = b.copy()
    rr = bb
    residuals = [float(np.sqrt(rr / bb))]
    converged = rr <= target
    it = 0
    ws32 = np.empty(b.shape, dtype=np.complex64)

    def apply32(v: np.ndarray) -> Steps[np.ndarray]:
        """The shared double-precision operator on a promoted vector."""
        return (yield from apply(v.astype(np.complex128))).astype(np.complex64)

    while not converged and it < maxiter:
        # -- inner cycle: CG on A e = r, entirely in single precision --
        r32 = r.astype(np.complex64)
        e = np.zeros_like(r32)
        p = r32.copy()
        rr32 = (yield from dot(r32, r32)).real
        if rr32 == 0.0:
            break  # r underflows single precision: no representable defect
        inner_target = (delta * delta) * rr32
        inner = 0
        while rr32 > inner_target and inner < max_inner and it + inner < maxiter:
            _alpha, _beta, rr32 = yield from _cg_step(
                apply32, dot, e, r32, p, rr32, ws32
            )
            yield from charge(CG_UPDATE_KERNELS, r32)
            inner += 1
        it += inner
        # -- reliable update: promote, accumulate, replace the residual --
        x += e.astype(np.complex128)
        r = b - (yield from apply(x))
        rr = (yield from dot(r, r)).real
        residuals.append(float(np.sqrt(rr / bb)))
        converged = rr <= target
        if on_iteration is not None:
            on_iteration({"it": it, "residuals": residuals}, bool(converged))
    return SolveResult(x, bool(converged), it, residuals)


def multishift_iter(
    apply: GenApply,
    dot: GenDot,
    b: np.ndarray,
    shifts: Sequence[float],
    tol: float,
    maxiter: int,
    on_iteration: Optional[IterationHook] = None,
    charge: GenCharge = NO_CHARGE,
) -> Steps[MultiShiftResult]:
    """Multi-shift CG (B. Jegerlehner, hep-lat/9612014) with freezing.

    The zeta recursion runs on globally-summed scalars; the per-shift
    vector updates are fused kernels on whatever tile the backend holds.
    A shift ``s`` is **frozen** the moment its own residual bound
    ``|zeta_s| ||r|| <= tol ||b||`` is met: its ``x_s``/``p_s`` updates
    (two fused vector kernels per iteration) stop while the shared
    recursion keeps running for the shifts still live — large shifts
    converge far earlier than the base system, so freezing removes most
    of the per-shift work of a mass sweep, and of its charge — and the
    iteration ends when
    every shift is frozen.  For ``sigma = 0`` the zeta factors are
    identically ``1.0``, so its freeze criterion is bit for bit the plain
    CG stopping rule.  The hook's state carries ``"active"``, the shifts
    still live after the iteration.
    """
    shifts = [float(s) for s in shifts]
    if not shifts:
        raise ConfigError("need at least one shift")
    if any(s < 0 for s in shifts):
        raise ConfigError(f"shifts must be non-negative: {shifts}")
    _check_tol(tol)

    bb = (yield from dot(b, b)).real
    if bb == 0.0:
        zero = {s: np.zeros_like(b) for s in shifts}
        return MultiShiftResult(shifts, zero, True, 0, [0.0])
    target = tol * tol * bb

    # base (sigma = 0) CG state
    r = b.copy()
    p = b.copy()
    rr = bb
    alpha_old = 1.0  # alpha_{n-1}
    beta_old = 0.0  # beta_{n-1}

    # per-shift state
    x = {s: np.zeros_like(b) for s in shifts}
    ps = {s: b.copy() for s in shifts}
    zeta = {s: 1.0 for s in shifts}  # zeta^n
    zeta_prev = {s: 1.0 for s in shifts}  # zeta^{n-1}

    residuals = [float(np.sqrt(rr / bb))]
    it = 0
    # Shifted residual bound: ||r_s|| = |zeta_s| ||r||, so shift s is done
    # once zeta_s^2 rr <= target.  zeta = 1 initially, so a converged-at-
    # entry rhs freezes everything immediately (it = 0).
    active = [s for s in shifts if zeta[s] * zeta[s] * rr > target]
    ws = np.empty_like(b)
    while active and it < maxiter:
        # base-system step (alpha positive); r and p are now at n + 1
        alpha, beta, rr_new = yield from _cg_step(apply, dot, None, r, p, rr, ws)
        step = {"axpy": 1 + len(active), "xpay": 1}  # r, p and every live x_s
        for s in active:
            denom = (
                alpha * beta_old * (zeta_prev[s] - zeta[s])
                + zeta_prev[s] * alpha_old * (1.0 + s * alpha)
            )
            zeta_new = (zeta[s] * zeta_prev[s] * alpha_old) / denom
            alpha_s = alpha * zeta_new / zeta[s]
            axpy(alpha_s, ps[s], x[s], ws)  # x_s += alpha_s p_s
            zeta_prev[s], zeta[s] = zeta[s], zeta_new
        active = [s for s in active if zeta[s] * zeta[s] * rr_new > target]
        for s in active:
            beta_s = beta * (zeta[s] / zeta_prev[s]) ** 2
            scale_axpy(zeta[s], r, beta_s, ps[s], ws)  # p_s <- zeta_s r + beta_s p_s
        step["scale_axpy"] = len(active)
        yield from charge(step, r)
        alpha_old, beta_old = alpha, beta
        rr = rr_new
        it += 1
        residuals.append(float(np.sqrt(rr / bb)))
        if on_iteration is not None:
            on_iteration(
                {"it": it, "residuals": residuals, "active": list(active)},
                not active,
            )

    return MultiShiftResult(shifts, x, not active, it, residuals)
