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
  machines, identical bits);
* the word-at-a-time protocol with replay off, on the ``dslash-wire``
  benchmark's 16-node machine and hot ``4^4`` field of each of seeds
  1..10: serial Wilson bytes and clean link checksums.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fermions import AsqtadDirac, CloverDirac, DomainWallDirac, WilsonDirac
from tests.harness import applied, booted, system, transfer_counters

#: (machine dims, logical decomposition) — 0D (single node), 1D, 2D, 4D
DECOMPS = {
    "0d": (1, 1, 1, 1, 1, 1),
    "1d": (2, 1, 1, 1, 1, 1),
    "2d": (2, 2, 1, 1, 1, 1),
    "4d": (2, 2, 2, 2, 1, 1),
}


def logical_dims(dims):
    return tuple(dims[:4])


def run(dims, op, gauge, src, overlap, **params):
    """One application on a fresh machine; ``(gathered output, machine)``."""
    machine, partition = booted(dims, word_batch=4096)
    out = applied(machine, partition, op, gauge, src, overlap=overlap, **params)
    return out, machine


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
        gauge, psi = system((seed, "overlap-bitexact-wilson"), shape)
        overlapped, m_o = run(dims, "wilson", gauge, psi, True, mass=mass)
        monolithic, m_m = run(dims, "wilson", gauge, psi, False, mass=mass)
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
        gauge, psi = system((seed, "overlap-repeat"), (4, 4, 2, 2), imag=False)
        first, _ = run(dims, "wilson", gauge, psi, True, mass=mass)
        second, _ = run(dims, "wilson", gauge, psi, True, mass=mass)
        assert np.array_equal(first, second)

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_word_protocol_equals_serial(self, seed):
        """The ``dslash-wire`` benchmark's system and machine — its hot
        field of each seed on a ``4^4`` lattice, 16 nodes, the word-at-a-
        time protocol with replay off — gives the serial operator's bytes
        and clean link checksums."""
        gauge, psi = system((seed, "bench-dslash-wire"), (4, 4, 4, 4))
        machine, partition = booted(DECOMPS["4d"], word_batch=1, replay=False)
        out = applied(machine, partition, "wilson", gauge, psi, mass=0.3)
        assert out.tobytes() == WilsonDirac(gauge, mass=0.3).apply(psi).tobytes()
        assert machine.audit_checksums() == []


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
        gauge, psi5 = system((seed, "overlap-bitexact-dwf"), shape, "dwf", Ls=Ls)
        overlapped, m_o = run(dims, "dwf", gauge, psi5, True, Ls=Ls, mf=mass)
        monolithic, m_m = run(dims, "dwf", gauge, psi5, False, Ls=Ls, mf=mass)
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
        gauge, chi = system((seed, "overlap-bitexact-stag"), shape, "asqtad")
        overlapped, m_o = run(dims, "asqtad", gauge, chi, True, mass=mass)
        monolithic, m_m = run(dims, "asqtad", gauge, chi, False, mass=mass)
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
        gauge, psi5 = system(
            (31, "decomp-invariance-dwf"), (8, 8, 4, 4), "dwf", Ls=4
        )
        outs = {
            name: run(dims, "dwf", gauge, psi5, overlap, Ls=4, mf=0.1)[0]
            for name, dims in DECOMPS.items()
        }
        for name, out in outs.items():
            assert np.array_equal(out, outs["0d"]), name

    @pytest.mark.parametrize("overlap", [True, False])
    def test_asqtad(self, overlap):
        # 8^4: the 4D cut still leaves the Naik halo its even extent >= 4
        gauge, chi = system(
            (32, "decomp-invariance-asqtad"), (8, 8, 8, 8), "asqtad"
        )
        outs = {
            name: run(dims, "asqtad", gauge, chi, overlap, mass=0.2)[0]
            for name, dims in DECOMPS.items()
        }
        for name, out in outs.items():
            assert np.array_equal(out, outs["0d"]), name


#: the Wilson-type operators held to the serial ones' bytes
WILSON_AND_CLOVER = pytest.mark.parametrize(
    "params, serial",
    [
        ({"mass": 0.3}, lambda gauge: WilsonDirac(gauge, mass=0.3)),
        ({"mass": 0.3, "c_sw": 1.0}, lambda gauge: CloverDirac(gauge, mass=0.3)),
    ],
    ids=["wilson", "clover"],
)


class TestAllBoundaryTile:
    """Sixteen ranks of one 16-site tile, all four axes cut: every site is
    a boundary site, both hop terms of every direction have face rows
    patched from a wire, and the merge has no interior share at all.  On
    a point source whose empty sites carry zeros of both signs, Wilson
    and clover are byte-equal to the serial operators in either order.
    The serial domain-wall operator adds its diagonal in another order
    (``(d psi - hop/2) + psi``), so DWF is held to the bytes of the same
    operator on one node, where no site waits for a halo, and to the
    serial one's values.

    The faces of every cut axis are consecutive rows of one array, so
    two more tiles check each axis's offset in it: two of four axes cut
    (the ``(2, 2, 2, 2)`` tile of ``service-mix`` and ``hmc-chaos``),
    and three axes whose faces hold 4, 8 and 8 sites."""

    DIMS = DECOMPS["4d"]
    SHAPE = (4, 4, 4, 4)
    #: tile -> (machine dims, global lattice)
    PARTIAL = {
        "two-axes": (DECOMPS["2d"], (4, 4, 2, 2)),
        "uneven": ((2, 2, 2, 1, 1, 1), (8, 4, 4, 2)),
    }

    @staticmethod
    def point(src, lead=()):
        point = np.zeros_like(src)
        point.reshape(-1)[1::2] = -0.0
        site = (0,) * len(lead) + (7,)
        point[site] = src[site]
        return point

    def wilson_and_clover(self, dims, shape, params, serial, dagger, overlap):
        gauge, src = system((41, "all-boundary-wilson"), shape)
        point = self.point(src)
        dirac = serial(gauge)
        want = (dirac.apply_dagger if dagger else dirac.apply)(point)
        machine, partition = booted(dims, word_batch="face")
        got = applied(
            machine, partition, "wilson", gauge, point,
            dagger=dagger, overlap=overlap, **params,
        )
        assert got.tobytes() == want.tobytes()

    def dwf(self, dims, shape, overlap):
        gauge, src = system((41, "all-boundary-dwf"), shape, "dwf", Ls=2)
        point = self.point(src, lead=(2,))
        outs = {}
        for name, machine_dims in (("0d", DECOMPS["0d"]), ("cut", dims)):
            machine, partition = booted(machine_dims, word_batch="face")
            outs[name] = applied(
                machine, partition, "dwf", gauge, point, overlap=overlap, Ls=2
            )
        assert outs["cut"].tobytes() == outs["0d"].tobytes()
        serial = DomainWallDirac(gauge, Ls=2).apply(point)
        assert np.allclose(outs["cut"], serial, atol=1e-14)

    @pytest.mark.parametrize("overlap", [True, False])
    @pytest.mark.parametrize("dagger", [False, True])
    @WILSON_AND_CLOVER
    def test_wilson_and_clover_equal_serial(self, params, serial, dagger, overlap):
        self.wilson_and_clover(self.DIMS, self.SHAPE, params, serial, dagger, overlap)

    @pytest.mark.parametrize("overlap", [True, False])
    def test_dwf_equals_one_node(self, overlap):
        self.dwf(self.DIMS, self.SHAPE, overlap)

    @pytest.mark.parametrize("overlap", [True, False])
    @pytest.mark.parametrize("dagger", [False, True])
    @WILSON_AND_CLOVER
    @pytest.mark.parametrize("tile", sorted(PARTIAL))
    def test_partial_cut_wilson_and_clover_equal_serial(
        self, tile, params, serial, dagger, overlap
    ):
        self.wilson_and_clover(*self.PARTIAL[tile], params, serial, dagger, overlap)

    @pytest.mark.parametrize("overlap", [True, False])
    @pytest.mark.parametrize("tile", sorted(PARTIAL))
    def test_partial_cut_dwf_equals_one_node(self, tile, overlap):
        self.dwf(*self.PARTIAL[tile], overlap)


class TestPayloadInvariance:
    def test_identical_words_moved_either_path(self):
        """Overlap changes *when* transfers fly, never *what* they carry."""
        gauge, psi = system((11, "payload"), (4, 4, 2, 2), imag=False)
        counters = {}
        for overlap in (True, False):
            machine, partition = booted(DECOMPS["2d"], word_batch=4096)
            applied(
                machine, partition, "wilson", gauge, psi, mass=0.2, overlap=overlap
            )
            counters[overlap] = transfer_counters(machine, partition)
        assert counters[True] == counters[False]
        # and the counters are self-consistent: every payload word sent on a
        # fault-free machine is received exactly once.
        total_sent = sum(c["payload_words_sent"] for c in counters[True])
        total_recv = sum(c["payload_words_received"] for c in counters[True])
        assert total_sent == total_recv > 0
        wire = sum(c["wire_words_sent"] for c in counters[True])
        assert wire == total_sent  # no resends without faults
