"""E1 — Sustained CG efficiency per discretisation (paper section 4).

Paper: "On a 4^4 local volume, we sustain 40%, 38% and 46.5% of peak speed"
for naive Wilson, ASQTAD staggered and clover Wilson respectively, double
precision, 128 nodes; "performance for single precision is slightly
higher"; domain wall "we expect will surpass the performance of the clover
improved Wilson operator".
"""

import pytest

from conftest import emit
from repro.perfmodel import DiracPerfModel

PAPER = {"wilson": 0.40, "asqtad": 0.38, "clover": 0.465}


@pytest.fixture(scope="module")
def model():
    return DiracPerfModel()


def test_e01_cg_efficiency_table(benchmark, model, report):
    def run():
        rows = {}
        for op in ("wilson", "asqtad", "clover"):
            rows[op] = (
                model.efficiency(op),
                model.efficiency(op, precision="single"),
                model.efficiency(op, comms="serial"),
            )
        rows["dwf (Ls=8)"] = (
            model.efficiency("dwf", Ls=8),
            model.efficiency("dwf", Ls=8, precision="single"),
            model.efficiency("dwf", Ls=8, comms="serial"),
        )
        return rows

    rows = benchmark(run)

    t = report(
        "E1: sustained CG efficiency, 4^4 local volume, 128 nodes",
        ["operator", "model dp (overlap)", "model sp", "serialized dp", "paper dp"],
    )
    for op, (dp, sp, ser) in rows.items():
        paper = PAPER.get(op.split(" ")[0])
        t.add_row(
            [
                op,
                f"{100*dp:.1f}%",
                f"{100*sp:.1f}%",
                f"{100*ser:.1f}%",
                f"{100*paper:.1f}%" if paper else "surpass clover (expected)",
            ]
        )
    emit(t)

    # shape assertions: ranking, calibration anchors, sp uplift, dwf claim
    assert rows["clover"][0] > rows["wilson"][0] > rows["asqtad"][0]
    assert rows["wilson"][0] == pytest.approx(0.40, abs=1e-6)
    assert rows["clover"][0] == pytest.approx(0.465, abs=1e-6)
    assert abs(rows["asqtad"][0] - PAPER["asqtad"]) < 0.025
    for op in ("wilson", "asqtad", "clover"):
        assert rows[op][1] > rows[op][0]
    assert rows["dwf (Ls=8)"][0] > rows["clover"][0]
    # the serialized (no-overlap) model cannot reach the published numbers:
    # the paper's efficiencies are only reproducible with comm/compute
    # overlap, which is the point of the two-phase SCU pipeline.
    # (The figures are the half-spinor wire's, 12 words per face site.)
    for op, (dp, _sp, ser) in rows.items():
        assert ser < dp, (
            f"{op}: serialized {ser:.4f} not below overlapped {dp:.4f} "
            "(half-spinor wire, 12 words per face site)"
        )
    for op, paper in PAPER.items():
        assert rows[op][2] < paper - 0.03, (
            f"{op}: serialized {rows[op][2]:.4f} within 3 points of the "
            f"published {paper} (half-spinor wire, 12 words per face site)"
        )
