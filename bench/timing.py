"""Host time of a timed region, steady on a shared host.

The VM this runs on shares its host: neighbours slow it down in bursts of
milliseconds to minutes, by up to a factor of two, and only ever *slow* it.
A median over a handful of multi-second repeats inherits all of that (a
quartile range of 20-40 % of the median between runs of the same code).
What repeats is the *undisturbed* time, and it can be read off when the
region is cut finely enough that every piece is caught undisturbed in at
least one repeat:

* :class:`Stopwatch` times a region and, while it runs, samples a
  **progress counter** — a public, deterministic count of work done
  (``sim.events_processed``, stencil-table lookups) — every
  ``period`` seconds from a ``SIGALRM`` handler.  Nothing in the program
  is wrapped or edited; a sample costs about 2 us.
* :func:`undisturbed_seconds` lines the repeats' (progress, time) curves
  up in progress, cuts them into bins of equal progress about ``BIN_S``
  long, takes each bin's fastest time over the repeats and sums the bins.

Every repeat does the same work in the same order (the program is
deterministic), so a bin is the same piece of work in every repeat.
"""

import contextlib
import signal
import time
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence

import numpy as np

#: progress is sampled this often inside a timed region
PERIOD_S = 0.002
#: target host time of one progress bin
BIN_S = 0.025


class Curve(NamedTuple):
    """One repeat's timed region: cumulative seconds against cumulative
    progress, from (0, 0) to (region seconds, total progress)."""

    seconds: List[float]
    progress: List[float]


class Stopwatch:
    """Times the regions of one repeat; ``take`` hands the curve over.

    A repeat may time several regions (counter snapshots sit between
    ``dslash-hot``'s operators): seconds and progress accumulate over
    them.  With ``period=None`` only the regions' end points are kept —
    set-up warm-ups and the traced pass, which need no curve.
    """

    def __init__(self, period: Optional[float] = None) -> None:
        self.period = period
        self._seconds = [0.0]
        self._progress = [0.0]

    @property
    def elapsed(self) -> float:
        """Timed seconds of this repeat so far."""
        return self._seconds[-1]

    @contextlib.contextmanager
    def region(self, progress: Callable[[], float]) -> Iterator[None]:
        clock = time.perf_counter
        seconds, counts = self._seconds, self._progress
        t_off, p_off = seconds[-1], counts[-1]
        p0 = progress()

        def tick(signum=None, frame=None) -> None:
            seconds.append(t_off + clock() - t0)
            counts.append(p_off + progress() - p0)

        if self.period:
            previous = signal.signal(signal.SIGALRM, tick)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        t0 = clock()
        try:
            yield
        finally:
            tick()  # the region's end point
            if self.period:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)

    def take(self) -> Curve:
        curve = Curve(self._seconds, self._progress)
        self._seconds, self._progress = [0.0], [0.0]
        return curve


def _seconds_at(curve: Curve, grid: np.ndarray) -> np.ndarray:
    """Seconds at which ``curve`` has made each share of its progress in
    ``grid`` (0..1), linear between samples.  Time that passes while the
    counter stands still (host-side numpy work, a quiesce) belongs to the
    bin that ends there — the same bin in every repeat."""
    t = np.asarray(curve.seconds)
    x = np.asarray(curve.progress, dtype=float) / curve.progress[-1]
    i = np.clip(np.searchsorted(x, grid, side="right"), 1, len(x) - 1)
    x0, x1 = x[i - 1], x[i]
    with np.errstate(divide="ignore", invalid="ignore"):
        share = np.where(x1 > x0, (grid - x0) / (x1 - x0), 1.0)
    at = t[i - 1] + np.clip(share, 0.0, 1.0) * (t[i] - t[i - 1])
    at[0], at[-1] = 0.0, t[-1]
    return at


def undisturbed_seconds(curves: Sequence[Curve], bin_s: float = BIN_S) -> float:
    """Sum over progress bins of each bin's fastest time over the repeats.

    With one repeat, or no progress recorded, this is the fastest repeat.
    """
    fastest = min(c.seconds[-1] for c in curves)
    bins = int(fastest / bin_s)
    if bins < 2 or any(c.progress[-1] <= 0 for c in curves):
        return fastest
    grid = np.linspace(0.0, 1.0, bins + 1)
    per_bin = np.diff([_seconds_at(c, grid) for c in curves], axis=1)
    return float(per_bin.min(axis=0).sum())
