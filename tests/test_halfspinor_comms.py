"""Half-spinor compressed halo exchange: wire counters, model agreement,
memoised gather tables, and the compress gate.

The tentpole contract of the compressed SCU exchange:

* Wilson and DWF halos put exactly ``HALF_SPINOR_WORDS`` = 12 words per
  face site (per s slice) on the wire — half the full-spinor payload —
  and the functional simulator's transfer counters must show precisely
  that, matching the performance model's ``comm_bytes_per_face_site``;
* staggered colour vectors have no spin structure: wire format unchanged;
* compression is exact (bit-identical assembly) and gated on ``r == 1``;
* gather/halo index tables are memoised process-wide: repeated operator
  applications hit the cache and never rebuild a table.
"""

import numpy as np
import pytest

from repro.fermions import WilsonDirac
from repro.fermions.flops import (
    HALF_SPINOR_WORDS,
    SPINOR_WORDS,
    STAGGERED_WORDS,
    WORD_BYTES,
    operator_cost,
)
from repro.lattice import LatticeGeometry
from repro.lattice import stencil
from repro.parallel import pdirac, pdwf
from tests.harness import applied, booted, scattered, system, transfer_counters

DIMS_1D = (2, 1, 1, 1, 1, 1)


def wilson_system(shape=(4, 2, 2, 2), seed=17):
    gauge, psi = system((seed, "halfspinor"), shape)
    return gauge.geometry, gauge, psi


def run_wilson(gauge, psi, word_batch=4096, **ctx):
    """One application on a fresh 2-node machine; ``ctx`` reaches the
    context (``overlap``, ``compress``)."""
    machine, partition = booted(DIMS_1D, word_batch=word_batch)
    out = applied(machine, partition, "wilson", gauge, psi, mass=0.3, **ctx)
    return out, transfer_counters(machine, partition), machine


class TestWilsonWireFormat:
    def test_payload_is_12_words_per_face_site(self):
        geom, gauge, psi = wilson_system()
        _out, counters, _m = run_wilson(gauge, psi)  # compressed by default
        local = LatticeGeometry((2, 2, 2, 2))
        nface = local.volume // local.shape[0]  # one decomposed axis
        for c in counters:
            # two sends per application: projected low face + U^+ half
            # products from the high face, 12 words per face site each
            assert c["payload_words_sent"] == 2 * nface * HALF_SPINOR_WORDS
            assert c["payload_words_received"] == 2 * nface * HALF_SPINOR_WORDS
            # descriptors are exact: no padding words on the wire
            assert c["wire_words_sent"] == c["payload_words_sent"]

    def test_compressed_is_exactly_half_of_uncompressed(self):
        geom, gauge, psi = wilson_system()
        _o1, compressed, _m1 = run_wilson(gauge, psi, compress=True)
        _o2, uncompressed, _m2 = run_wilson(gauge, psi, compress=False)
        for c, u in zip(compressed, uncompressed):
            assert 2 * c["payload_words_sent"] == u["payload_words_sent"]
            assert 2 * c["payload_words_received"] == u["payload_words_received"]

    def test_simulator_matches_perf_model_bytes(self):
        """The model's comm_bytes_per_face_site is what the simulator moves."""
        geom, gauge, psi = wilson_system()
        cost = operator_cost("wilson")
        local = LatticeGeometry((2, 2, 2, 2))
        nface = local.volume // local.shape[0]
        _o, counters, _m = run_wilson(gauge, psi, compress=True)
        for c in counters:
            sent_bytes_per_direction = c["payload_words_sent"] * WORD_BYTES / 2
            assert sent_bytes_per_direction / nface == cost.comm_bytes_per_face_site
        _o, counters, _m = run_wilson(gauge, psi, compress=False)
        for c in counters:
            sent_bytes_per_direction = c["payload_words_sent"] * WORD_BYTES / 2
            assert (
                sent_bytes_per_direction / nface
                == cost.uncompressed_comm_bytes_per_face_site
            )

    def test_wire_constants_single_source(self):
        # every words-per-site count a context uses is its flops.py cost
        # sheet's, not a copy: read them back through each rank's ``cost``
        def costs(op, shape, **params):
            machine, partition = booted(DIMS_1D, word_batch=4096)
            gauge, _src = system((17, "halfspinor"), shape, op)
            context = scattered(partition, op, gauge, **params)

            def program(api):
                return context(api).cost
                yield  # make it a generator

            return machine.run_partition(partition, program)

        for cost in costs("wilson", (4, 2, 2, 2), mass=0.3):
            assert cost is operator_cost("wilson")
            assert cost.site_words == SPINOR_WORDS
            assert cost.wire_words() == HALF_SPINOR_WORDS
        for cost in costs("wilson", (4, 2, 2, 2), mass=0.3, compress=False):
            assert cost.wire_words() == cost.site_words == SPINOR_WORDS
        # DWF declares no wire of its own: it ships through the Wilson spec
        assert issubclass(pdwf.DistributedDWFContext, pdirac.WilsonHops)
        for cost in costs("dwf", (4, 2, 2, 2), Ls=2):
            assert cost is operator_cost("dwf")
            assert cost.wire_words() == HALF_SPINOR_WORDS
        for cost in costs("asqtad", (8, 2, 2, 2), mass=0.1):
            assert cost is operator_cost("asqtad")
            assert cost.site_words == cost.wire_words() == STAGGERED_WORDS
        assert SPINOR_WORDS == 24 and HALF_SPINOR_WORDS == 12
        assert STAGGERED_WORDS == 6

    def test_compressed_matches_serial_bitwise(self):
        geom, gauge, psi = wilson_system()
        serial = WilsonDirac(gauge, mass=0.3).apply(psi)
        for overlap in (False, True):
            out, _c, _m = run_wilson(gauge, psi, overlap=overlap, compress=True)
            assert np.array_equal(out, serial)

    def test_uncompressed_path_still_correct(self):
        # the seed full-spinor path is preserved (benchmark baseline):
        # bit-identical between its own overlap modes, allclose to serial
        # (the serial kernel now uses the projected statement sequence).
        geom, gauge, psi = wilson_system()
        serial = WilsonDirac(gauge, mass=0.3).apply(psi)
        mono, _c, _m = run_wilson(gauge, psi, overlap=False, compress=False)
        over, _c, _m = run_wilson(gauge, psi, overlap=True, compress=False)
        assert np.array_equal(mono, over)
        assert np.allclose(mono, serial, atol=1e-12)

    def test_compress_is_the_default(self):
        geom, gauge, psi = wilson_system()
        machine, partition = booted(DIMS_1D, word_batch=4096)
        context = scattered(partition, "wilson", gauge, mass=0.3)

        def program(api):
            return context(api).compress
            yield  # make it a generator

        res = machine.run_partition(partition, program)
        assert res and set(res) == {True}


class TestDWFWireFormat:
    def test_payload_is_12_words_per_face_site_per_slice(self):
        Ls = 2
        gauge, psi5 = system(
            (23, "halfspinor-dwf"), (4, 2, 2, 2), "dwf", Ls=Ls, imag=False
        )
        machine, partition = booted(DIMS_1D, word_batch=4096)
        applied(machine, partition, "dwf", gauge, psi5, Ls=Ls, mf=0.1)
        counters = transfer_counters(machine, partition)
        local = LatticeGeometry((2, 2, 2, 2))
        nface = local.volume // local.shape[0]
        for c in counters:
            assert (
                c["payload_words_sent"] == 2 * Ls * nface * HALF_SPINOR_WORDS
            )
            assert c["wire_words_sent"] == c["payload_words_sent"]


class TestStaggeredWireFormat:
    def test_wire_format_unchanged(self):
        """A colour vector has nothing to compress: 6 words per site, and
        the packed depth-3 + product exchange is exactly the seed's."""
        # local (4,2,2,2) on the 1D decomposition
        gauge, chi = system(
            (29, "halfspinor-stag"), (8, 2, 2, 2), "asqtad", imag=False
        )
        machine, partition = booted(DIMS_1D, word_batch=4096)
        applied(machine, partition, "asqtad", gauge, chi, mass=0.2)
        counters = transfer_counters(machine, partition)
        local = LatticeGeometry((4, 2, 2, 2))
        n1 = local.volume // local.shape[0]  # depth-1 face
        n3 = 3 * n1  # depth-3 face
        for c in counters:
            expected = (n3 + (n1 + n3)) * STAGGERED_WORDS
            assert c["payload_words_sent"] == expected
            assert c["payload_words_received"] == expected


class TestMemoisedStencilTables:
    def test_zero_recomputation_across_applications(self):
        """After the first operator application, further applications must
        be pure cache hits — no index table is ever rebuilt."""
        geom, gauge, psi = wilson_system(shape=(4, 4, 2, 2), seed=31)
        d = WilsonDirac(gauge, mass=0.3)
        d.apply(psi)  # builds + memoises every table this geometry needs
        before = stencil.cache_info()
        for _ in range(3):
            d.apply(psi)
        after = stencil.cache_info()
        assert after["misses"] == before["misses"], "index table was rebuilt"
        assert after["entries"] == before["entries"]
        assert after["hits"] > before["hits"]

    def test_distributed_ranks_share_tables(self):
        """Every rank has the same local geometry, so the whole run builds
        one set of tables; a second full run adds zero cache entries."""
        geom, gauge, psi = wilson_system()
        run_wilson(gauge, psi)
        before = stencil.cache_info()
        run_wilson(gauge, psi)
        after = stencil.cache_info()
        assert after["misses"] == before["misses"]
        assert after["entries"] == before["entries"]

    def test_tables_are_read_only(self):
        t = stencil.neighbour((4, 4, 4, 4), 0, +1)
        with pytest.raises(ValueError):
            t[0] = 0


class TestCompressionTiming:
    def test_compressed_beats_uncompressed_on_comm_heavy_tile(self):
        """Halving the wire words must show up on the simulated clock when
        communication dominates (tiny word batches = long serialisation)."""
        geom, gauge, psi = wilson_system()
        _o, _c, m_comp = run_wilson(
            gauge, psi, overlap=False, compress=True, word_batch=8
        )
        _o, _c, m_full = run_wilson(
            gauge, psi, overlap=False, compress=False, word_batch=8
        )
        assert m_comp.sim.now < m_full.sim.now
