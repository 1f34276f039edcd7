"""E2 — Local-volume sweep: EDRAM residency vs DDR spill (paper section 4).

Paper: "for most of the fermion formulations, a 6^4 local volume still fits
in our 4 Megabytes of imbedded memory.  For still larger volumes, when we
must put part of the problem in external DDR DRAM, the performance figures
fall to the range of 30% of peak."

Beside the model's sweep, the same CG **measured on the functional twin**
(2 nodes) at 2^4 ... 8^4 per node: the twin's CPU clock prices its words
by the residency of the tile's working set, so the fall to 30% appears on
the machine when the tile outgrows the 4 MB.
"""

import pytest

from conftest import emit, twin_cg
from repro.fermions.flops import operator_cost
from repro.perfmodel import DiracPerfModel


@pytest.fixture(scope="module")
def model():
    return DiracPerfModel()


def test_e02_local_volume_sweep(benchmark, model, report):
    sizes = (2, 4, 6, 8, 10, 12)

    def run():
        rows = []
        for L in sizes:
            shape = (L, L, L, L)
            ws = operator_cost("wilson").working_set_bytes(L**4)
            rows.append(
                (
                    L,
                    ws,
                    model.efficiency("wilson", local_shape=shape),
                    model.efficiency("wilson", local_shape=shape, overlap=False),
                )
            )
        return rows

    rows = benchmark(run)

    t = report(
        "E2: Wilson CG efficiency vs local volume (EDRAM = 4 MB)",
        [
            "local volume",
            "working set",
            "residency",
            "overlap eff",
            "serialized eff",
            "paper",
        ],
    )
    notes = {
        2: "overlap hides the comm wall",
        4: "40% (benchmark point)",
        6: "still EDRAM-resident",
        8: "~30% once spilled",
    }
    for L, ws, eff, ser in rows:
        t.add_row(
            [
                f"{L}^4",
                f"{ws/1e6:.2f} MB",
                "EDRAM" if ws <= 4e6 else "spills to DDR",
                f"{100*eff:.1f}%",
                f"{100*ser:.1f}%",
                notes.get(L, ""),
            ]
        )
    emit(t)

    by_L = {L: (ws, eff, ser) for L, ws, eff, ser in rows}
    assert by_L[6][0] < 4e6  # 6^4 fits
    assert by_L[8][0] > 4e6  # 8^4 spills
    assert by_L[4][1] == pytest.approx(0.40, abs=0.005)
    assert by_L[6][1] == pytest.approx(0.40, abs=0.01)
    assert 0.27 <= by_L[8][1] <= 0.33  # "the range of 30%"
    assert by_L[12][1] < by_L[8][1]  # deeper spill, lower efficiency
    # small-volume scalability is pure overlap: at the paper's headline
    # 2^4 tile the overlapped model holds near the published band while
    # the serialized model falls toward the comm wall — below overlapped
    # at every volume, by a gap that is widest at 2^4 and shrinks as the
    # surface-to-volume ratio does.  (The gaps are the half-spinor wire's,
    # 12 words per face site: 0.074 / 0.041 / 0.028 at 2^4 / 4^4 / 6^4.)
    assert by_L[2][1] >= 0.38
    gaps = [by_L[L][1] - by_L[L][2] for L in sizes]
    assert all(gap > 0 for gap in gaps) and gaps == sorted(gaps, reverse=True), (
        f"serialized-to-overlapped gaps {[round(g, 4) for g in gaps]} at "
        f"L = {sizes} are not positive and shrinking with volume "
        "(half-spinor wire, 12 words per face site)"
    )
    assert gaps[0] > 0.07, (
        f"2^4 gap {gaps[0]:.4f}: the serialized model no longer falls "
        "toward the comm wall (half-spinor wire, 12 words per face site)"
    )


def test_e02_measured_on_the_twin(model, report):
    dims = (2, 1, 1, 1, 1, 1)
    t = report(
        "E2: the same sweep measured on the twin, 2 nodes "
        "(per rank, 3 iterations + set-up)",
        [
            "local volume",
            "residency",
            "compute",
            "exposed comm",
            "global sums",
            "twin",
            "model (same machine)",
        ],
    )
    measured = {}
    for L in (2, 4, 6, 8):
        local = (L, L, L, L)
        twin = twin_cg("wilson", dims, local, iterations=3)
        same = model.efficiency("wilson", local, twin["machine_dims"])
        ws = operator_cost("wilson").working_set_bytes(L**4)
        measured[L] = twin["fraction"]
        t.add_row(
            [
                f"{L}^4",
                "EDRAM" if ws <= 4e6 else "spills to DDR",
                f"{1e3*twin['compute_s']:.3f} ms",
                f"{round(1e6*twin['exposed_comm_s'], 2) + 0.0:.2f} us",
                f"{1e6*twin['global_sum_s']:.2f} us",
                f"{100*twin['fraction']:.1f}%",
                f"{100*same:.1f}%",
            ]
        )
        # what the model leaves out (X1's named residuals) weighs most on
        # the smallest tile
        assert twin["fraction"] == pytest.approx(same, abs=0.01 if L == 2 else 0.003)
    emit(t)
    assert measured[4] == pytest.approx(0.40, abs=0.005)
    assert measured[6] == pytest.approx(0.40, abs=0.005)  # still resident
    assert 0.27 <= measured[8] <= 0.33  # "the range of 30%", on the machine
