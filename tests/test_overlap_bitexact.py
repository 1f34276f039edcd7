"""Bit-exactness of the overlapped two-phase Dirac pipeline.

The paper's repeatability claim (section 3.3: deterministic SCU global
sums, bit-exact reruns) must survive the comm/compute overlap
optimisation: splitting each hopping application into an interior phase
and per-axis boundary phases *reorders work on the timeline* but must not
change a single bit of physics.  These Hypothesis-driven properties pin
that down across random lattices, masses, and 0D/1D/2D/4D decompositions
for all three operator families:

* overlapped output ``==`` serialised (``overlap=False``, the same
  pipeline in the pre-overlap order) output — not ``allclose``: identical
  bits;
* overlapped output ``==`` the serial Wilson operator (whose statement
  sequence the distributed assembly mirrors exactly);
* DWF and ASQTAD match their serial references to ``allclose`` (the
  serial implementations use a different — equally valid — accumulation
  order, exactly as before this optimisation) while overlapped and
  serialised remain ``==``-identical to each other — and, as the bit
  oracle that does not go through the same code path twice, DWF and
  ASQTAD output is ``==``-identical across 0D/1D/2D/4D decompositions of
  one global lattice (0D exchanges no halo at all);
* run-to-run: the overlapped pipeline is deterministic (two fresh
  machines, identical bits).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fermions import AsqtadDirac, DomainWallDirac, WilsonDirac
from repro.fermions.staggered import fat_links, long_links
from repro.lattice import GaugeField, LatticeGeometry
from repro.machine.asic import MachineConfig
from repro.machine.machine import QCDOCMachine
from repro.parallel import (
    DistributedDWFContext,
    DistributedStaggeredContext,
    PhysicsMapping,
)
from repro.parallel.pdirac import DistributedWilsonContext
from repro.util import rng_stream

GROUPS = [(0,), (1,), (2,), (3,)]

#: (machine dims, logical decomposition) — 0D (single node), 1D, 2D, 4D
DECOMPS = {
    "0d": (1, 1, 1, 1, 1, 1),
    "1d": (2, 1, 1, 1, 1, 1),
    "2d": (2, 2, 1, 1, 1, 1),
    "4d": (2, 2, 2, 2, 1, 1),
}


def make_machine(dims):
    m = QCDOCMachine(MachineConfig(dims=dims), word_batch=4096)
    m.bring_up()
    return m, m.partition(groups=GROUPS)


def logical_dims(dims):
    return tuple(dims[:4])


def run_wilson(dims, gauge, psi, mass, overlap):
    machine, partition = make_machine(dims)
    mapping = PhysicsMapping(gauge.geometry, partition)
    links = mapping.scatter_gauge(gauge)
    lpsi = mapping.scatter_field(psi)

    def program(api):
        ctx = DistributedWilsonContext(
            api, mapping.local_shape, links[api.rank], mass=mass, overlap=overlap
        )
        out = yield from ctx.apply(lpsi[api.rank])
        return out

    results = machine.run_partition(partition, program)
    return mapping.gather_field(np.stack(results)), machine


def run_dwf(dims, gauge, psi5, Ls, mass, overlap):
    machine, partition = make_machine(dims)
    mapping = PhysicsMapping(gauge.geometry, partition)
    links = mapping.scatter_gauge(gauge)
    lpsi = np.stack([mapping.scatter_field(psi5[s]) for s in range(Ls)], axis=1)

    def program(api):
        ctx = DistributedDWFContext(
            api, mapping.local_shape, links[api.rank], Ls=Ls, mf=mass,
            overlap=overlap,
        )
        out = yield from ctx.apply(lpsi[api.rank])
        return out

    results = machine.run_partition(partition, program)
    stacked = np.stack(results)
    return (
        np.stack([mapping.gather_field(stacked[:, s]) for s in range(Ls)]),
        machine,
    )


def run_staggered(dims, gauge, chi, mass, overlap, smeared=None):
    machine, partition = make_machine(dims)
    mapping = PhysicsMapping(gauge.geometry, partition)
    fat, lng = smeared or (fat_links(gauge), long_links(gauge))
    v = mapping.tiling.local_volume
    lf = np.empty((mapping.n_ranks, 4, v, 3, 3), dtype=complex)
    ll = np.empty_like(lf)
    for mu in range(4):
        lf[:, mu] = mapping.tiling.scatter(fat[mu])
        ll[:, mu] = mapping.tiling.scatter(lng[mu])
    lchi = mapping.scatter_field(chi)

    def program(api):
        ctx = DistributedStaggeredContext(
            api, mapping.local_shape, lf[api.rank], ll[api.rank], mass=mass,
            overlap=overlap,
        )
        out = yield from ctx.apply(lchi[api.rank])
        return out

    results = machine.run_partition(partition, program)
    return mapping.gather_field(np.stack(results)), machine


class TestWilsonBitExact:
    @settings(max_examples=8, deadline=None)
    @given(
        decomp=st.sampled_from(sorted(DECOMPS)),
        local=st.sampled_from([(2, 2, 2, 2), (4, 2, 2, 2), (2, 4, 2, 4)]),
        mass=st.floats(0.05, 1.5),
        seed=st.integers(0, 2**16),
    )
    def test_overlapped_equals_monolithic_and_serial(
        self, decomp, local, mass, seed
    ):
        dims = DECOMPS[decomp]
        shape = tuple(l * d for l, d in zip(local, logical_dims(dims)))
        rng = rng_stream(seed, "overlap-bitexact-wilson")
        geom = LatticeGeometry(shape)
        gauge = GaugeField.hot(geom, rng)
        psi = rng.standard_normal((geom.volume, 4, 3)) + 1j * rng.standard_normal(
            (geom.volume, 4, 3)
        )
        overlapped, m_o = run_wilson(dims, gauge, psi, mass, overlap=True)
        monolithic, m_m = run_wilson(dims, gauge, psi, mass, overlap=False)
        serial = WilsonDirac(gauge, mass=mass).apply(psi)
        # identical bits, not merely close:
        assert np.array_equal(overlapped, monolithic)
        assert np.array_equal(overlapped, serial)
        # on a fault-free run the overlapped timeline never loses:
        assert m_o.sim.now <= m_m.sim.now

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**16), mass=st.floats(0.05, 1.0))
    def test_run_to_run_repeatability(self, seed, mass):
        dims = DECOMPS["2d"]
        rng = rng_stream(seed, "overlap-repeat")
        geom = LatticeGeometry((4, 4, 2, 2))
        gauge = GaugeField.hot(geom, rng)
        psi = rng.standard_normal((geom.volume, 4, 3)) + 0j
        first, _ = run_wilson(dims, gauge, psi, mass, overlap=True)
        second, _ = run_wilson(dims, gauge, psi, mass, overlap=True)
        assert np.array_equal(first, second)


class TestDWFBitExact:
    @settings(max_examples=6, deadline=None)
    @given(
        decomp=st.sampled_from(["0d", "1d", "2d", "4d"]),
        Ls=st.sampled_from([2, 4]),
        mass=st.floats(0.01, 0.5),
        seed=st.integers(0, 2**16),
    )
    def test_overlapped_equals_monolithic(self, decomp, Ls, mass, seed):
        dims = DECOMPS[decomp]
        local = (2, 2, 2, 2)
        shape = tuple(l * d for l, d in zip(local, logical_dims(dims)))
        rng = rng_stream(seed, "overlap-bitexact-dwf")
        geom = LatticeGeometry(shape)
        gauge = GaugeField.hot(geom, rng)
        psi5 = rng.standard_normal((Ls, geom.volume, 4, 3)) + 1j * rng.standard_normal(
            (Ls, geom.volume, 4, 3)
        )
        overlapped, m_o = run_dwf(dims, gauge, psi5, Ls, mass, overlap=True)
        monolithic, m_m = run_dwf(dims, gauge, psi5, Ls, mass, overlap=False)
        assert np.array_equal(overlapped, monolithic)
        assert m_o.sim.now <= m_m.sim.now
        serial = DomainWallDirac(gauge, Ls=Ls, mf=mass).apply(psi5)
        assert np.allclose(overlapped, serial, atol=1e-12)


class TestStaggeredBitExact:
    @settings(max_examples=6, deadline=None)
    @given(
        decomp=st.sampled_from(["0d", "1d", "2d"]),
        mass=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_overlapped_equals_monolithic(self, decomp, mass, seed):
        dims = DECOMPS[decomp]
        # local extent >= 3 on decomposed axes (Naik halo), modest volume
        local = (4, 4, 2, 2)
        shape = tuple(l * d for l, d in zip(local, logical_dims(dims)))
        rng = rng_stream(seed, "overlap-bitexact-stag")
        geom = LatticeGeometry(shape)
        gauge = GaugeField.hot(geom, rng)
        chi = rng.standard_normal((geom.volume, 3)) + 1j * rng.standard_normal(
            (geom.volume, 3)
        )
        overlapped, m_o = run_staggered(dims, gauge, chi, mass, overlap=True)
        monolithic, m_m = run_staggered(dims, gauge, chi, mass, overlap=False)
        assert np.array_equal(overlapped, monolithic)
        assert m_o.sim.now <= m_m.sim.now
        serial = AsqtadDirac(gauge, mass=mass).apply(chi)
        assert np.allclose(overlapped, serial, atol=1e-12)


class TestDecompositionInvariance:
    """The independent bit oracle for the operators whose serial
    references are only ``allclose``: the same global problem on a single
    node (no halo, every hop a local wrap) and cut along 1, 2 and 4 axes
    must agree to the bit — per-site kernels are row-independent and each
    ``merge`` accumulates in one fixed order, whatever the site cover."""

    @pytest.mark.parametrize("overlap", [True, False])
    def test_dwf(self, overlap):
        rng = rng_stream(31, "decomp-invariance-dwf")
        geom = LatticeGeometry((8, 8, 4, 4))
        gauge = GaugeField.hot(geom, rng)
        Ls = 4
        psi5 = rng.standard_normal((Ls, geom.volume, 4, 3)) + 1j * rng.standard_normal(
            (Ls, geom.volume, 4, 3)
        )
        outs = {
            name: run_dwf(dims, gauge, psi5, Ls, 0.1, overlap)[0]
            for name, dims in DECOMPS.items()
        }
        for name, out in outs.items():
            assert np.array_equal(out, outs["0d"]), name

    @pytest.mark.parametrize("overlap", [True, False])
    def test_asqtad(self, overlap):
        rng = rng_stream(32, "decomp-invariance-asqtad")
        # 8^4: the 4D cut still leaves the Naik halo its even extent >= 4
        geom = LatticeGeometry((8, 8, 8, 8))
        gauge = GaugeField.hot(geom, rng)
        chi = rng.standard_normal((geom.volume, 3)) + 1j * rng.standard_normal(
            (geom.volume, 3)
        )
        smeared = fat_links(gauge), long_links(gauge)
        outs = {
            name: run_staggered(dims, gauge, chi, 0.2, overlap, smeared)[0]
            for name, dims in DECOMPS.items()
        }
        for name, out in outs.items():
            assert np.array_equal(out, outs["0d"]), name


class TestPayloadInvariance:
    def test_identical_words_moved_either_path(self):
        """Overlap changes *when* transfers fly, never *what* they carry."""
        rng = rng_stream(11, "payload")
        geom = LatticeGeometry((4, 4, 2, 2))
        gauge = GaugeField.hot(geom, rng)
        psi = rng.standard_normal((geom.volume, 4, 3)) + 0j
        counters = {}
        for overlap in (True, False):
            machine, partition = make_machine(DECOMPS["2d"])
            mapping = PhysicsMapping(geom, partition)
            links = mapping.scatter_gauge(gauge)
            lpsi = mapping.scatter_field(psi)

            def program(api):
                ctx = DistributedWilsonContext(
                    api,
                    mapping.local_shape,
                    links[api.rank],
                    mass=0.2,
                    overlap=overlap,
                )
                out = yield from ctx.apply(lpsi[api.rank])
                _ = out
                return api.transfer_counters()

            results = machine.run_partition(partition, program)
            counters[overlap] = results
        assert counters[True] == counters[False]
        # and the counters are self-consistent: every payload word sent on a
        # fault-free machine is received exactly once.
        total_sent = sum(c["payload_words_sent"] for c in counters[True])
        total_recv = sum(c["payload_words_received"] for c in counters[True])
        assert total_sent == total_recv > 0
        wire = sum(c["wire_words_sent"] for c in counters[True])
        assert wire == total_sent  # no resends without faults
