"""Hot-path tagging for the zero-allocation contract.

The steady-state dslash/CG pipeline must not allocate numpy arrays: every
work buffer is owned by the operator context and preallocated once, so a
solver iterating thousands of times runs at a flat memory footprint (the
software analogue of the SCU's zero-copy DMA story — data is staged in
place, never copied through freshly-allocated temporaries).

``@hot_path`` marks a function as living on that steady-state path.  The
tag is enforced twice:

* statically, by reprolint rule REPRO105 (no numpy allocation calls —
  ``np.zeros``/``np.empty``/``np.concatenate``/... — anywhere in a
  ``@hot_path`` body, and no ``np.take``, whose Python wrapper costs
  more than a small gather: ``a.take`` is the same C call);
* at runtime, by the allocation-counting fixture in
  ``tests/test_hotpath_alloc.py``, which patches the allocator entry
  points and fails if a tagged path triggers one mid-iteration.

The contract covers *Python-level allocation calls*.  C-level expression
temporaries (e.g. ``a + b`` materialising a result array) are outside its
scope — the approved allocation-free idioms are ``a.take(..., out=)``,
``np.copyto``, ``np.einsum(..., out=)`` and the ``out=`` forms of the
spin/colour kernels (see DESIGN.md §12).
"""

from __future__ import annotations

from typing import Callable, TypeVar

F = TypeVar("F", bound=Callable)


def hot_path(fn: F) -> F:
    """Mark ``fn`` as steady-state hot-path code (zero-allocation contract).

    The decorator is metadata only — it returns ``fn`` unchanged (no
    wrapper frame on the call path) and sets ``__hot_path__`` so tooling
    and tests can discover tagged functions.
    """
    fn.__hot_path__ = True
    return fn


def is_hot_path(fn: Callable) -> bool:
    """True when ``fn`` (or the function under a bound method) is tagged."""
    return bool(getattr(fn, "__hot_path__", False))
