"""Memory system: EDRAM prefetch streams, DDR, residency, node buffers."""

import numpy as np
import pytest

from repro.machine.asic import ASICConfig
from repro.machine.memory import FPU_BOUND, Calibration, MemoryModel
from repro.machine.node import Node, NodeMemory
from repro.sim.core import Simulator
from repro.util.errors import ConfigError, MachineError
from repro.util.units import GB, MB


@pytest.fixture
def model():
    return MemoryModel(ASICConfig())


class TestMemoryModel:
    def test_edram_peak_for_two_streams(self, model):
        # "the EDRAM controller maintains two prefetching streams"
        assert model.bandwidth("edram", 1) == pytest.approx(8 * GB)
        assert model.bandwidth("edram", 2) == pytest.approx(8 * GB)

    def test_edram_degrades_beyond_two_streams(self, model):
        assert model.bandwidth("edram", 3) < model.bandwidth("edram", 2)
        assert model.bandwidth("edram", 4) < model.bandwidth("edram", 3)

    def test_ddr_bandwidth(self, model):
        assert model.bandwidth("ddr") == pytest.approx(2.6 * GB)

    def test_access_time_includes_latency(self, model):
        t = model.access_time(8_000_000, "edram", 2)
        assert t == pytest.approx(model.latency("edram") + 1e-3)

    def test_zero_bytes_is_free(self, model):
        assert model.access_time(0, "edram") == 0.0

    def test_bad_inputs(self, model):
        with pytest.raises(ConfigError):
            model.bandwidth("edram", 0)
        with pytest.raises(ConfigError):
            model.bandwidth("l3")
        with pytest.raises(ConfigError):
            model.access_time(-1, "edram")

    def test_residency_threshold_is_4mb(self, model):
        # 6^4 Wilson working set fits; larger spills (paper section 4).
        assert model.residency(int(3.9 * MB)) == "edram"
        assert model.residency(int(4.1 * MB)) == "ddr"

    def test_spill_fraction(self, model):
        assert model.spill_fraction(int(2 * MB)) == 0.0
        assert model.spill_fraction(int(8 * MB)) == pytest.approx(0.5)


class TestNodeMemory:
    @pytest.fixture
    def mem(self):
        return NodeMemory(ASICConfig())

    def test_alloc_and_word_view(self, mem):
        a = mem.alloc("psi", np.arange(4, dtype=np.float64))
        w = mem.words("psi")
        assert w.dtype == np.uint64
        assert len(w) == 4
        # the view aliases the buffer (zero-copy DMA):
        a[0] = 7.0
        assert mem.words("psi")[0] == np.array(7.0).view(np.uint64)

    def test_complex_buffers_are_two_words_each(self, mem):
        mem.zeros("field", (10, 3), dtype=np.complex128)
        assert mem.word_count("field") == 60

    def test_auto_placement_spills_to_ddr(self, mem):
        mem.alloc("big", np.zeros(3 * 1000 * 1000 // 8, dtype=np.float64))
        assert mem.region("big") == "edram"
        mem.alloc("big2", np.zeros(2 * 1000 * 1000 // 8, dtype=np.float64))
        assert mem.region("big2") == "ddr"  # EDRAM (4 MB) exhausted

    def test_explicit_region(self, mem):
        mem.alloc("d", np.zeros(8), region="ddr")
        assert mem.region("d") == "ddr"
        assert mem.ddr_used == 64

    def test_double_alloc_rejected(self, mem):
        mem.alloc("x", np.zeros(4))
        with pytest.raises(MachineError):
            mem.alloc("x", np.zeros(4))

    def test_unknown_buffer_rejected(self, mem):
        with pytest.raises(MachineError):
            mem.get("nope")

    def test_non_word_dtype_rejected(self, mem):
        with pytest.raises(ConfigError):
            mem.alloc("f32", np.zeros(4, dtype=np.float32))

    def test_read_write_words(self, mem):
        mem.alloc("b", np.zeros(10, dtype=np.uint64))
        mem.write_words("b", np.array([1, 3]), np.array([11, 33], dtype=np.uint64))
        assert np.array_equal(
            mem.read_words("b", np.array([1, 2, 3])), [11, 0, 33]
        )

    def test_free(self, mem):
        mem.alloc("t", np.zeros(4))
        mem.free("t")
        assert "t" not in mem


class TestNodeCompute:
    def test_compute_charges_time_at_peak(self):
        sim = Simulator()
        node = Node(sim, ASICConfig(), 0)

        def prog(sim):
            yield node.compute(1e6)  # 1 Mflop at 1 Gflops = 1 ms

        sim.run(until=sim.process(prog(sim)))
        assert sim.now == pytest.approx(1e-3)
        assert node.flops_charged == 1e6
        assert node.sustained_flops == pytest.approx(1e9)

    def test_efficiency_scales_duration(self):
        """The one compute-time rule: the same flops take longer once they
        stream words, and longer again once the working set those words
        live in has outgrown the 4 MB EDRAM."""
        sim = Simulator()
        asic = ASICConfig()
        node = Node(sim, asic, 0)
        rule = node.memory.model
        fit = Calibration(cycles_per_word=1.0, overhead_cycles_per_site=500.0)
        flops, words = 1e6, 3e5
        at_peak = rule.seconds_per_flop(FPU_BOUND, flops, words)
        resident = rule.seconds_per_flop(fit, flops, words, working_set_bytes=int(1 * MB))
        spilled = rule.seconds_per_flop(fit, flops, words, working_set_bytes=int(16 * MB))
        assert at_peak == node.peak_rate == pytest.approx(1e-9)
        assert at_peak < resident < spilled
        # the charge is the rule's cycle count at the clock: the FPU's
        # half cycle per flop plus the fitted cycles of every word, the
        # spilled 3/4 of them at the EDRAM/DDR bandwidth ratio
        slowdown = 0.25 + 0.75 * asic.edram_bandwidth / asic.ddr_bandwidth
        cycles = flops / 2 + words * fit.cycles_per_word * slowdown
        assert rule.compute_cycles(
            fit, flops, words, working_set_bytes=int(16 * MB)
        ) == pytest.approx(cycles, rel=1e-12)
        # ... and every site of loop overhead its fitted cycles
        assert rule.compute_cycles(fit, flops, words, 10.0) == (
            flops / 2 + words * 1.0 + 10.0 * 500.0
        )

        def prog(sim):
            yield node.compute(flops, rate=spilled)

        sim.run(until=sim.process(prog(sim)))
        assert sim.now == pytest.approx(cycles / asic.clock_hz, rel=1e-12)
        assert node.compute_time == sim.now
        assert node.flops_charged == flops

    def test_negative_flops_rejected(self):
        node = Node(Simulator(), ASICConfig(), 0)
        with pytest.raises(ConfigError):
            node.compute(-5)
