"""E1 — Sustained CG efficiency per discretisation (paper section 4).

Paper: "On a 4^4 local volume, we sustain 40%, 38% and 46.5% of peak speed"
for naive Wilson, ASQTAD staggered and clover Wilson respectively, double
precision, 128 nodes; "performance for single precision is slightly
higher"; domain wall "we expect will surpass the performance of the clover
improved Wilson operator".

Beside the model's figures, the same CG **measured on the functional
twin** (16 nodes for the 4D operators, 4 for the domain wall's ``Ls = 8``
slices): its CPU clock charges the model's own compute-time rule over the
model's own cost sheets, so the twin sustains the model's fraction of
peak — the paper's 40% / 38% / 46.5% seen on a machine that moves every
halo word and sums every inner product.
"""

import pytest

from conftest import emit, twin_cg
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
                model.efficiency(op, overlap=False),
            )
        rows["dwf (Ls=8)"] = (
            model.efficiency("dwf", Ls=8),
            model.efficiency("dwf", Ls=8, precision="single"),
            model.efficiency("dwf", Ls=8, overlap=False),
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


#: operator -> machine the twin runs it on (the domain wall's 8 slices
#: on a quarter of the nodes: the tile is what the figure depends on)
TWIN_DIMS = {
    "wilson": (2, 2, 2, 2, 1, 1),
    "asqtad": (2, 2, 2, 2, 1, 1),
    "clover": (2, 2, 2, 2, 1, 1),
    "dwf": (2, 2, 1, 1, 1, 1),
}


def test_e01_measured_on_the_twin(model, report):
    local = (4, 4, 4, 4)
    t = report(
        "E1: the same CG measured on the twin, 4^4 local volume "
        "(per rank, 4 iterations + set-up)",
        [
            "operator",
            "nodes",
            "compute",
            "exposed comm",
            "global sums",
            "twin",
            "model (same machine)",
            "model (128 nodes)",
        ],
    )
    for op, dims in TWIN_DIMS.items():
        twin = twin_cg(op, dims, local)
        same = model.efficiency(op, local, twin["machine_dims"], Ls=8)
        t.add_row(
            [
                "dwf (Ls=8)" if op == "dwf" else op,
                twin["nodes"],
                f"{1e3*twin['compute_s']:.3f} ms",
                f"{round(1e6*twin['exposed_comm_s'], 2) + 0.0:.2f} us",
                f"{1e6*twin['global_sum_s']:.2f} us",
                f"{100*twin['fraction']:.1f}%",
                f"{100*same:.1f}%",
                f"{100*model.efficiency(op, Ls=8):.1f}%",
            ]
        )
        # the twin sustains the model's figure over its iterations (the
        # set-up taken out): what is left is a few hundredths of a point
        assert twin["fraction"] == pytest.approx(same, abs=0.002)
        # at this volume the boundary arithmetic hides the whole exchange
        assert abs(twin["exposed_comm_s"]) <= 1e-9 * twin["run_s"]
        if op in PAPER:
            assert abs(twin["fraction"] - PAPER[op]) < 0.025
    emit(t)
