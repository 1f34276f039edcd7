"""The analytic model vs every quantitative claim in the paper."""

import re

import numpy as np
import pytest

from repro.fermions.flops import operator_cost
from repro.machine.asic import ASICConfig
from repro.machine.memory import FPU_BOUND, MemoryModel
from repro.perfmodel import (
    CLUSTER_2004,
    QCDSP,
    QCDOC_4096_BOM,
    DiracPerfModel,
    HardScalingModel,
    PackagingModel,
    calibrate,
    global_sum_time,
    message_time_table,
    price_performance,
)
from repro.perfmodel.cost import (
    QCDOC_4096_TOTAL_WITH_RND,
    price_performance_table,
    sustained_megaflops,
    volume_scaled_bom,
)
from repro.perfmodel.collectives import ethernet_allreduce_time
from repro.perfmodel.latency import cluster_message_time, qcdoc_message_time
from repro.perfmodel.scaling import decompose_shape
from repro.util.errors import ConfigError
from repro.util.units import MHZ, NS, US


@pytest.fixture(scope="module")
def model():
    return DiracPerfModel()


class TestCalibration:
    def test_constants_physical(self):
        cal = calibrate()
        # under 2 cycles per 8-byte word (peak EDRAM is 0.5 cyc/word)
        assert 0.3 < cal.cycles_per_word < 3.0
        # hundreds of overhead cycles per site for a ~1700-cycle kernel
        assert 100 < cal.overhead_cycles_per_site < 1500

    def test_anchors_reproduced_exactly(self, model):
        # E1 anchors: Wilson 40%, clover 46.5% (paper section 4).
        assert model.efficiency("wilson") == pytest.approx(0.40, abs=1e-6)
        assert model.efficiency("clover") == pytest.approx(0.465, abs=1e-6)


    def test_the_rule_prices_with_the_calibrated_pair(self):
        """``calibrate()`` is the derivation of the two constants the
        machine's compute-time rule uses: solved from the rule itself, so
        the model built on it lands on the anchors at any clock."""
        for asic in (ASICConfig(), ASICConfig().at_clock(360 * MHZ)):
            rule = MemoryModel(asic)
            cal = calibrate(asic)
            cost = operator_cost("wilson")
            cycles = rule.compute_cycles(
                cal, *cost.site_mix(), cost.working_set_bytes(4**4)
            )
            assert cycles == pytest.approx(
                cost.flops_per_site / asic.flops_per_cycle
                + cost.words_per_site * cal.cycles_per_word
                + cal.overhead_cycles_per_site
            )
            model = DiracPerfModel(asic)
            assert model.calibration == cal
            assert model.dirac_cycles_per_site("wilson", (4,) * 4) == cycles
            assert model.efficiency("wilson") == pytest.approx(0.40, abs=1e-6)
            assert model.efficiency("clover") == pytest.approx(0.465, abs=1e-6)
        # a kernel that streams no memory runs at the FPU's peak
        assert MemoryModel(ASICConfig()).compute_cycles(FPU_BOUND, 1000.0) == 500.0


class TestE1Efficiencies:
    def test_asqtad_prediction_near_paper(self, model):
        # Paper: 38%.  Prediction from the calibrated model: must land in
        # the right band and keep the ordering clover > wilson > asqtad.
        eff = model.efficiency("asqtad")
        assert 0.33 <= eff <= 0.41
        assert model.efficiency("clover") > model.efficiency("wilson") > eff

    def test_single_precision_slightly_higher(self, model):
        # "performance for single precision is slightly higher due to the
        # decreased bandwidth to local memory"
        for op in ("wilson", "clover", "asqtad"):
            dp = model.efficiency(op)
            sp = model.efficiency(op, precision="single")
            assert dp < sp < dp + 0.12

    def test_dwf_expected_to_surpass_clover(self, model):
        # Paper: "we expect [the domain wall operator] will surpass the
        # performance of the clover improved Wilson operator".
        assert model.efficiency("dwf", Ls=8) > model.efficiency("clover")

    def test_bad_precision_rejected(self, model):
        with pytest.raises(ConfigError):
            model.efficiency("wilson", precision="half")


class TestE2LocalVolume:
    def test_6to4_still_fits_edram(self, model):
        # "a 6^4 local volume still fits in our 4 Megabytes"
        assert operator_cost("wilson").working_set_bytes(6**4) < 4e6
        assert model.efficiency("wilson", local_shape=(6, 6, 6, 6)) == pytest.approx(
            0.40, abs=0.01
        )

    def test_spill_drops_to_thirty_percent(self, model):
        # "For still larger volumes ... fall to the range of 30% of peak."
        assert operator_cost("wilson").working_set_bytes(8**4) > 4e6
        eff = model.efficiency("wilson", local_shape=(8, 8, 8, 8))
        assert 0.27 <= eff <= 0.33

    def test_efficiency_monotone_under_spill(self, model):
        effs = [
            model.efficiency("wilson", local_shape=(L,) * 4) for L in (4, 6, 8, 10)
        ]
        assert effs[0] == pytest.approx(effs[1], abs=0.01)  # both resident
        assert effs[1] > effs[2] > effs[3]  # deepening spill


class TestE3Latency:
    def test_qcdoc_24_word_message(self):
        t = qcdoc_message_time(24)
        assert t == pytest.approx(600 * NS + 23 * 144 * NS, rel=1e-6)

    def test_ethernet_has_not_even_started(self):
        # The paper's comparison: Ethernet pays 5-10 us before the first
        # byte moves; QCDOC has finished a 24-word halo by then.
        assert qcdoc_message_time(24) < cluster_message_time(0) + 7.5 * US
        assert qcdoc_message_time(24) < cluster_message_time(1)

    def test_advantage_shrinks_with_message_size(self):
        rows = message_time_table()
        advantages = [r[3] for r in rows]
        assert advantages[0] > 10  # tiny messages: order of magnitude win
        assert advantages[-1] < advantages[0]

    def test_zero_length_messages_free(self):
        assert qcdoc_message_time(0) == 0.0
        assert cluster_message_time(0) == 0.0


class TestE5GlobalSums:
    def test_time_scales_with_hops(self):
        t1 = global_sum_time((8, 8, 8, 16), doubled=False)
        t2 = global_sum_time((8, 8, 8, 16), doubled=True)
        assert t2 < t1
        asic = ASICConfig()
        # single mode: (8-1)*3 + 15 = 36 hops; doubled: 4*3 + 8 = 20.
        assert t1 - t2 == pytest.approx(16 * asic.passthrough_latency)

    def test_qcdoc_sum_beats_ethernet_tree(self):
        # 8192-node machine: SCU global sum vs an Ethernet allreduce.
        t_scu = global_sum_time((8, 8, 8, 16))
        t_eth = ethernet_allreduce_time(8192)
        assert t_scu < t_eth / 20


class TestE6Cost:
    def test_component_lines_match_paper(self):
        by_item = {l.item: l for l in QCDOC_4096_BOM.lines}
        assert by_item["daughterboards (2 nodes each)"].total_dollars == 1_105_692.67
        assert by_item["motherboards"].total_dollars == 180_404.88
        assert by_item["water-cooled cabinets"].total_dollars == 187_296.00
        assert by_item["mesh network cables"].total_dollars == 71_040.00

    def test_paper_totals_and_internal_discrepancy(self):
        audit = QCDOC_4096_BOM.audit()
        assert audit["paper_total"] == 1_610_442.00
        assert audit["with_rnd"] == 1_709_601.00
        # the paper's own lines under-sum its printed total by ~$1.7k:
        assert audit["discrepancy"] == pytest.approx(1708.45, abs=0.01)

    def test_quantities(self):
        q = {l.item: l.quantity for l in QCDOC_4096_BOM.lines}
        assert q["daughterboards (2 nodes each)"] == 2048  # 4096 nodes
        assert q["motherboards"] == 64
        assert q["mesh network cables"] == 768


class TestE7PricePerformance:
    @pytest.mark.parametrize(
        "clock_mhz,expected",
        [(360, 1.29), (420, 1.10), (450, 1.03)],
    )
    def test_paper_price_performance(self, clock_mhz, expected):
        got = price_performance(clock_mhz * MHZ)
        assert got == pytest.approx(expected, abs=0.005)

    def test_sustained_megaflops_formula(self):
        # 4096 nodes x 2 flops x 450 MHz x 45% = 1.659 TF sustained
        assert sustained_megaflops(4096, 450 * MHZ) == pytest.approx(
            1_658_880, rel=1e-6
        )

    def test_table_ordering(self):
        table = price_performance_table()
        prices = [p for _c, p in table]
        assert prices == sorted(prices, reverse=True)  # faster clock, cheaper

    def test_12288_machine_near_dollar_per_megaflops(self):
        # "This should put us very close to our targeted $1 per sustained
        # Megaflops."
        bom = volume_scaled_bom(12288)
        price = price_performance(
            450 * MHZ, n_nodes=12288, total_dollars=bom.total_with_rnd
        )
        assert 0.9 < price < 1.1

    def test_qcdsp_is_ten_x_worse(self):
        # QCDSP achieved $10/sustained-Mflops (paper section 1).
        qcdsp_price = QCDSP.dollars_per_node / (QCDSP.node_sustained() / 1e6)
        assert qcdsp_price == pytest.approx(10.0, rel=0.01)
        assert qcdsp_price / price_performance(450 * MHZ) > 8


class TestE8HardScaling:
    @pytest.fixture(scope="class")
    def sweep(self):
        hs = HardScalingModel()
        return hs, hs.sweep()

    def test_decompose_shape(self):
        dims, local = decompose_shape((32, 32, 32, 64), 8192)
        assert int(np.prod(dims)) == 8192
        assert local == (4, 4, 4, 4)  # the paper's 4^4 local volume
        with pytest.raises(ConfigError):
            decompose_shape((32, 32, 32, 64), 12000)

    def test_qcdoc_scales_to_10k_nodes(self, sweep):
        hs, points = sweep
        q = {p.n_nodes: p for p in points if p.machine == "qcdoc"}
        # near-linear: 16k nodes give > 0.8 of ideal 256x speedup over 64
        speedup = q[16384].sustained_flops / q[64].sustained_flops
        assert speedup > 0.75 * 256

    def test_cluster_saturates(self, sweep):
        hs, points = sweep
        c = {p.n_nodes: p for p in points if p.machine == "cluster-2004"}
        speedup = c[16384].sustained_flops / c[64].sustained_flops
        assert speedup < 0.35 * 256  # communication has eaten the scaling
        assert c[16384].comm_fraction > 0.5

    def test_crossover_exists(self, sweep):
        hs, _points = sweep
        n = hs.crossover_nodes()
        assert 64 < n <= 8192

    def test_qcdoc_8192_matches_paper_efficiency(self, sweep):
        # 8192 nodes = 4^4 local volume: the calibrated 40% must persist
        # (comm fully hidden by the 24 concurrent DMA links).
        hs, points = sweep
        q8k = next(p for p in points if p.machine == "qcdoc" and p.n_nodes == 8192)
        assert q8k.efficiency == pytest.approx(0.40, abs=0.01)
        assert q8k.local_volume == 256

    def test_qcdsp_order_of_magnitude(self, sweep):
        # QCDSP at its production scale sustained ~0.2 Tflops of its 1 TF
        # peak — an order of magnitude below QCDOC at equal node counts.
        hs, points = sweep
        s16k = next(p for p in points if p.machine == "QCDSP" and p.n_nodes == 16384)
        assert 0.1e12 < s16k.sustained_flops < 0.3e12


    #: an 8x slower serial link: communication no longer hides
    SLOW_LINK = ASICConfig(frame_header_bits=8 + 7 * 72)

    @pytest.mark.parametrize("op", ["wilson", "asqtad"])
    @pytest.mark.parametrize("asic", [None, SLOW_LINK], ids=["qcdoc", "slow-link"])
    def test_qcdoc_point_is_the_dirac_perf_model(self, op, asic):
        # The sweep has no communication model of its own: each point is
        # DiracPerfModel at that node count's tile.  (A second model used
        # to ignore ASQTAD's hop depths and, once communication was
        # exposed, charge it on top of cg_cycles_per_site's own term.)
        hs = HardScalingModel(op, asic=asic)
        model = hs.qcdoc
        exposed_somewhere = False
        refused = []
        for n in (64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384):
            dims, local = decompose_shape(hs.global_shape, n)
            try:
                hs.cost.check_tile(local, dims)
            except ConfigError as refusal:
                # a tile the twin cannot run: the sweep refuses it too
                with pytest.raises(ConfigError, match=re.escape(str(refusal))):
                    hs.qcdoc_point(n)
                refused.append(n)
                continue
            point = hs.qcdoc_point(n)
            cycles = model.cg_cycles_per_site(op, local, dims)
            seconds = cycles * point.local_volume / model.asic.clock_hz
            assert point.seconds_per_iteration == seconds
            assert point.efficiency == pytest.approx(
                model.efficiency(op, local, dims), rel=1e-12
            )
            exposed = model.exposed_comm_seconds(op, local, dims)
            assert point.comm_fraction == 2 * exposed / seconds
            exposed_somewhere |= exposed > 0
        assert exposed_somewhere == (asic is not None)
        # ASQTAD's 16,384-node tile has local extent 2 < its Naik hop
        assert refused == ([16384] if op == "asqtad" else [])

    def test_wilson_sweep_is_pinned_to_the_bit(self):
        # seconds per CG iteration of the E8 sweep, as printed before the
        # sweep was re-expressed through DiracPerfModel
        pinned = {
            64: 0.3991555171324155,
            128: 0.19504859670561672,
            256: 0.09299516249221734,
            512: 0.041968523385517674,
            1024: 0.01645525583216783,
            2048: 0.007860136,
            4096: 0.0039311120000000005,
            8192: 0.001966756,
            16384: 0.0009846820000000002,
        }
        hs = HardScalingModel()
        got = {n: hs.qcdoc_point(n).seconds_per_iteration for n in pinned}
        assert got == pinned


class TestE9PowerPackaging:
    @pytest.fixture
    def pack(self):
        return PackagingModel()

    def test_rack_under_10kw(self, pack):
        # "this water-cooled rack gives a peak speed of 1.0 Teraflops and
        # consumes less than 10,000 watts"
        assert pack.rack_power_watts() < 10_000
        assert pack.rack_peak_flops() == pytest.approx(1.024e12, rel=0.03)

    def test_breakdown_counts(self, pack):
        b = pack.breakdown(1024)
        assert b == {
            "nodes": 1024,
            "daughterboards": 512,
            "motherboards": 16,
            "crates": 2,
            "racks": 1,
            "stacks": 1,
        }

    def test_10k_nodes_60_square_feet(self, pack):
        # "allowing 10,000 nodes to have a footprint of about 60 sq feet"
        assert pack.footprint_sqft(10_240) == pytest.approx(60, abs=12)

    def test_12288_machine_totals(self, pack):
        b = pack.breakdown(12288)
        assert b["racks"] == 12
        assert pack.power_watts(12288) < 130_000

    def test_efficiency_metric(self, pack):
        # ~4.5 sustained Mflops/W — an order of magnitude ahead of 2004
        # clusters (a 2004 PC drew ~200 W for ~1 GF sustained ~ 5 MF/W
        # at the *node*, before any switch/chassis overhead).
        assert pack.megaflops_per_watt(1024) > 3.0

    def test_bad_node_count(self, pack):
        with pytest.raises(ConfigError):
            pack.breakdown(0)
