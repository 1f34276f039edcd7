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
from repro.fermions.staggered import fat_links, long_links
from repro.lattice import GaugeField, LatticeGeometry
from repro.lattice import stencil
from repro.machine.asic import MachineConfig
from repro.machine.machine import QCDOCMachine
from repro.parallel import (
    DistributedDWFContext,
    DistributedStaggeredContext,
    PhysicsMapping,
)
from repro.parallel import pdirac, pdwf, pstaggered
from repro.parallel.pdirac import DistributedWilsonContext
from repro.util import rng_stream
from repro.util.errors import ConfigError

GROUPS = [(0,), (1,), (2,), (3,)]
DIMS_1D = (2, 1, 1, 1, 1, 1)


def make_machine(dims=DIMS_1D, word_batch=4096):
    m = QCDOCMachine(MachineConfig(dims=dims), word_batch=word_batch)
    m.bring_up()
    return m, m.partition(groups=GROUPS)


def wilson_system(shape=(4, 2, 2, 2), seed=17):
    rng = rng_stream(seed, "halfspinor")
    geom = LatticeGeometry(shape)
    gauge = GaugeField.hot(geom, rng)
    psi = rng.standard_normal((geom.volume, 4, 3)) + 1j * rng.standard_normal(
        (geom.volume, 4, 3)
    )
    return geom, gauge, psi


def run_wilson(gauge, psi, mass=0.3, overlap=True, compress=None, word_batch=4096):
    machine, partition = make_machine(word_batch=word_batch)
    mapping = PhysicsMapping(gauge.geometry, partition)
    links = mapping.scatter_gauge(gauge)
    lpsi = mapping.scatter_field(psi)

    def program(api):
        ctx = DistributedWilsonContext(
            api,
            mapping.local_shape,
            links[api.rank],
            mass=mass,
            overlap=overlap,
            compress=compress,
        )
        out = yield from ctx.apply(lpsi[api.rank])
        return out, api.transfer_counters()

    results = machine.run_partition(partition, program)
    outs = [r[0] for r in results]
    counters = [r[1] for r in results]
    return mapping.gather_field(np.stack(outs)), counters, machine


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
        # every words-per-site constant is the flops.py value, not a copy
        assert pdirac.WORDS_PER_SITE is SPINOR_WORDS
        assert pdirac.HALF_WORDS_PER_SITE is HALF_SPINOR_WORDS
        # DWF declares no wire of its own: it ships through the Wilson spec
        assert issubclass(pdwf.DistributedDWFContext, pdirac.WilsonHops)
        assert pstaggered.WORDS_PER_SITE is STAGGERED_WORDS
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

    def test_compress_requires_unit_r(self):
        machine, partition = make_machine()
        geom, gauge, psi = wilson_system()
        mapping = PhysicsMapping(geom, partition)
        links = mapping.scatter_gauge(gauge)

        def prog_explicit(api):
            with pytest.raises(ConfigError, match="r == 1"):
                DistributedWilsonContext(
                    api, mapping.local_shape, links[api.rank], mass=0.3,
                    r=0.9, compress=True,
                )
            return None
            yield  # make it a generator

        machine.run_partition(partition, prog_explicit)

        # default gate: r != 1 silently falls back to full spinors
        machine2, partition2 = make_machine()

        def prog_default(api):
            ctx = DistributedWilsonContext(
                api, mapping.local_shape, links[api.rank], mass=0.3, r=0.9
            )
            return ctx.compress
            yield

        res = machine2.run_partition(partition2, prog_default)
        assert res and set(res) == {False}

        machine3, partition3 = make_machine()

        def prog_unit_r(api):
            ctx = DistributedWilsonContext(
                api, mapping.local_shape, links[api.rank], mass=0.3
            )
            return ctx.compress
            yield

        res = machine3.run_partition(partition3, prog_unit_r)
        assert res and set(res) == {True}


class TestDWFWireFormat:
    def test_payload_is_12_words_per_face_site_per_slice(self):
        Ls = 2
        rng = rng_stream(23, "halfspinor-dwf")
        geom = LatticeGeometry((4, 2, 2, 2))
        gauge = GaugeField.hot(geom, rng)
        psi5 = rng.standard_normal((Ls, geom.volume, 4, 3)) + 0j
        machine, partition = make_machine()
        mapping = PhysicsMapping(geom, partition)
        links = mapping.scatter_gauge(gauge)
        lpsi = np.stack(
            [mapping.scatter_field(psi5[s]) for s in range(Ls)], axis=1
        )

        def program(api):
            ctx = DistributedDWFContext(
                api, mapping.local_shape, links[api.rank], Ls=Ls, mf=0.1
            )
            out = yield from ctx.apply(lpsi[api.rank])
            _ = out
            return api.transfer_counters()

        counters = machine.run_partition(partition, program)
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
        rng = rng_stream(29, "halfspinor-stag")
        geom = LatticeGeometry((8, 2, 2, 2))  # local (4,2,2,2) on 1D decomp
        gauge = GaugeField.hot(geom, rng)
        chi = rng.standard_normal((geom.volume, 3)) + 0j
        machine, partition = make_machine()
        mapping = PhysicsMapping(geom, partition)
        fat = fat_links(gauge)
        lng = long_links(gauge)
        v = mapping.tiling.local_volume
        lf = np.empty((mapping.n_ranks, 4, v, 3, 3), dtype=complex)
        ll = np.empty_like(lf)
        for mu in range(4):
            lf[:, mu] = mapping.tiling.scatter(fat[mu])
            ll[:, mu] = mapping.tiling.scatter(lng[mu])
        lchi = mapping.scatter_field(chi)

        def program(api):
            ctx = DistributedStaggeredContext(
                api, mapping.local_shape, lf[api.rank], ll[api.rank], mass=0.2
            )
            out = yield from ctx.apply(lchi[api.rank])
            _ = out
            return api.transfer_counters()

        counters = machine.run_partition(partition, program)
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
