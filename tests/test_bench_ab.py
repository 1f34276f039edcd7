"""The claim rule ``benchmarks/ab.py`` prints beside each metric's pairs."""

import importlib.util
import sys
from pathlib import Path

AB = Path(__file__).resolve().parent.parent / "benchmarks" / "ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", AB)
ab = importlib.util.module_from_spec(_spec)
_path = list(sys.path)
_spec.loader.exec_module(ab)  # puts bench/ on sys.path for its own imports
sys.path[:] = _path


def test_claim_holds_on_nine_wins_and_a_gap_wider_than_the_base_iqr():
    was = [93.0, 92.7, 93.1, 92.9, 93.0, 92.8, 93.2, 92.9, 93.0, 92.6]
    now = [80.4, 79.4, 80.1, 80.0, 80.2, 80.3, 79.9, 80.0, 80.1, 93.5]
    verdict = ab.claim_verdict(was, now, wins=9)
    assert verdict.startswith("holds: lower in 9/10 (needs 9)")


def test_claim_fails_on_eight_wins():
    was = [2.0] * 10
    now = [1.0] * 8 + [3.0] * 2
    assert ab.claim_verdict(was, now, wins=8).startswith("does not hold")


def test_claim_fails_when_the_gap_is_inside_the_base_iqr():
    # the shape of a noisy wall-clock campaign: every pair won, the
    # medians 0.22 s apart, the base's quartiles 0.32 s apart
    was = [1.576, 1.576, 1.554, 1.437, 1.402, 1.228, 1.309, 1.221, 1.273, 1.248]
    now = [1.324, 1.269, 1.316, 1.243, 1.183, 1.042, 1.090, 1.047, 1.035, 1.024]
    verdict = ab.claim_verdict(was, now, wins=10)
    assert verdict.startswith("does not hold: lower in 10/10")
    assert "base IQR 0.316" in verdict
