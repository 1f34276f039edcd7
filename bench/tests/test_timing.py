"""The stopwatch's curve and the undisturbed-time arithmetic."""

import time

import pytest

from timing import Curve, Stopwatch, undisturbed_seconds


def steady(total_s: float, steps: int = 1000) -> Curve:
    """Progress at a constant rate."""
    return Curve([total_s * i / steps for i in range(steps + 1)], list(range(steps + 1)))


def slowed(total_s: float, lo: float, hi: float, extra_s: float, steps: int = 1000) -> Curve:
    """Constant rate, except that ``extra_s`` is lost evenly between the
    shares ``lo`` and ``hi`` of the progress."""
    seconds = []
    for i in range(steps + 1):
        x = i / steps
        lost = extra_s * min(max((x - lo) / (hi - lo), 0.0), 1.0)
        seconds.append(total_s * x + lost)
    return Curve(seconds, list(range(steps + 1)))


def test_disturbances_in_different_places_cancel():
    a = slowed(1.0, 0.1, 0.3, extra_s=0.4)
    b = slowed(1.0, 0.6, 0.9, extra_s=0.7)
    assert a.seconds[-1] == pytest.approx(1.4) and b.seconds[-1] == pytest.approx(1.7)
    assert undisturbed_seconds([a, b]) == pytest.approx(1.0, rel=1e-6)


def test_a_disturbance_every_repeat_shares_is_kept():
    a = slowed(1.0, 0.2, 0.4, extra_s=0.3)
    b = slowed(1.0, 0.2, 0.4, extra_s=0.5)
    assert undisturbed_seconds([a, b]) == pytest.approx(1.3, rel=1e-6)


def test_never_above_the_fastest_repeat_and_one_repeat_is_itself():
    a, b = slowed(1.0, 0.0, 0.5, 0.2), slowed(1.0, 0.5, 1.0, 0.1)
    assert undisturbed_seconds([a, b]) <= min(a.seconds[-1], b.seconds[-1])
    assert undisturbed_seconds([a]) == a.seconds[-1]


def test_time_at_a_standing_counter_stays_in_its_bin():
    # 0.5 s of work, 0.2 s with the counter standing at the half, 0.5 s of
    # work; the second repeat stalls 0.3 s there: the shorter stall counts
    def stalled(stall_s):
        return Curve([0.0, 0.5, 0.5 + stall_s, 1.0 + stall_s], [0, 500, 500, 1000])

    assert undisturbed_seconds([stalled(0.2), stalled(0.3)]) == pytest.approx(1.2)
    # ... and a stall at the very end (a quiesce) is not lost
    tail = Curve([0.0, 1.0, 1.25], [0, 1000, 1000])
    assert undisturbed_seconds([tail, tail]) == pytest.approx(1.25)


def test_without_progress_it_is_the_fastest_repeat():
    a, b = Curve([0.0, 1.3], [0, 0]), Curve([0.0, 1.1], [0, 0])
    assert undisturbed_seconds([a, b]) == 1.1
    short = [steady(0.03), steady(0.04)]  # under two bins long
    assert undisturbed_seconds(short) == 0.03


def test_repeats_of_unequal_total_progress_line_up_by_share():
    assert undisturbed_seconds([steady(1.0, 1000), steady(1.0, 1010)]) == pytest.approx(1.0)


def spin(counter, seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        counter[0] += 1


def test_stopwatch_samples_progress_and_accumulates_regions():
    counter = [0]
    watch = Stopwatch(period=0.002)
    with watch.region(lambda: counter[0]):
        spin(counter, 0.05)
    first = watch.elapsed
    counter[0] += 12345  # between regions: not this repeat's progress
    with watch.region(lambda: counter[0]):
        spin(counter, 0.05)
    curve = watch.take()
    assert 0.05 <= first <= curve.seconds[-1] - 0.05
    assert len(curve.seconds) == len(curve.progress) > 20  # ~50 samples + end points
    assert curve.seconds == sorted(curve.seconds) and curve.progress == sorted(curve.progress)
    assert (curve.seconds[0], curve.progress[0]) == (0.0, 0.0)
    assert curve.progress[-1] == counter[0] - 12345
    assert watch.take() == Curve([0.0], [0.0])  # handed over: the next repeat starts clean


def test_stopwatch_without_a_period_keeps_end_points_only():
    import signal

    watch = Stopwatch()
    before = signal.getsignal(signal.SIGALRM)
    with watch.region(lambda: 7):
        time.sleep(0.01)
    assert signal.getsignal(signal.SIGALRM) is before
    curve = watch.take()
    assert len(curve.seconds) == 2 and curve.seconds[-1] >= 0.01


def test_stopwatch_restores_the_alarm_handler_when_the_region_raises():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    watch = Stopwatch(period=0.002)
    with pytest.raises(ZeroDivisionError):
        with watch.region(lambda: 0):
            1 / 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
