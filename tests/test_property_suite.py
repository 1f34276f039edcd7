"""Cross-cutting property-based tests (hypothesis) on core structures."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.comms.api import face_descriptor
from repro.lattice import LatticeGeometry
from repro.lattice.stencil import face_sites
from repro.machine.packets import LinkChecksum
from repro.machine.scu import DmaDescriptor
from repro.machine.topology import snake_cycle, snake_is_cyclic
from repro.util import rng_stream

shapes = st.lists(st.integers(min_value=2, max_value=5), min_size=2, max_size=4)


class TestDmaDescriptorProperties:
    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=32),
        st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=50, deadline=None)
    def test_indices_unique_sorted_and_counted(self, block, nblocks, stride_extra, offset):
        stride = block + stride_extra
        d = DmaDescriptor("b", block_len=block, nblocks=nblocks, stride=stride, offset=offset)
        idx = d.indices()
        assert len(idx) == d.total_words == block * nblocks
        assert np.all(np.diff(idx) > 0)  # strictly increasing: no overlap
        assert idx[0] == offset

    @given(st.integers(min_value=1, max_value=50))
    @settings(max_examples=20, deadline=None)
    def test_contiguous_special_case(self, n):
        d = DmaDescriptor("b", block_len=n)
        assert np.array_equal(d.indices(), np.arange(n))

    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=5000),
    )
    @settings(max_examples=60, deadline=None)
    def test_indices_formula_read_only_and_shared(self, block, nblocks, stride_extra, offset):
        stride = block + stride_extra
        d = DmaDescriptor("b", block_len=block, nblocks=nblocks, stride=stride, offset=offset)
        idx = d.indices()
        expected = [offset + b * stride + i for b in range(nblocks) for i in range(block)]
        assert idx.tolist() == expected and idx.dtype == np.int64
        assert not idx.flags.writeable
        with pytest.raises(ValueError):
            idx[0] = 0
        # a contiguous descriptor (one block, or blocks that abut) views
        # the one shared range, so an equal one reads the same memory; a
        # strided one owns its array
        twin = DmaDescriptor("c", block_len=block, nblocks=nblocks, stride=stride, offset=offset)
        contiguous = nblocks == 1 or stride_extra == 0
        assert np.shares_memory(idx, twin.indices()) == contiguous


class TestSnakeProperties:
    @given(shapes)
    @settings(max_examples=40, deadline=None)
    def test_hamiltonian_walk(self, shape):
        walk = snake_cycle(shape)
        # visits every cell exactly once
        assert len({tuple(c) for c in walk}) == int(np.prod(shape))
        # unit steps throughout
        assert np.all(np.abs(np.diff(walk, axis=0)).sum(axis=1) == 1)

    @given(shapes)
    @settings(max_examples=40, deadline=None)
    def test_cycle_closure_iff_even_leading_axis(self, shape):
        walk = snake_cycle(shape)
        delta = np.abs(walk[0] - walk[-1])
        wrap = np.minimum(delta, np.array(shape) - delta)
        if snake_is_cyclic(shape):
            assert wrap.sum() == 1
        else:
            assert shape[0] % 2 == 1


class TestFaceDescriptorProperties:
    @given(shapes, st.integers(min_value=0, max_value=3), st.sampled_from([-1, 1]),
           st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_matches_face_indices_for_any_geometry(self, shape, axis, side, depth, wps):
        assume(axis < len(shape))
        assume(depth <= shape[axis])
        desc = face_descriptor("b", shape, axis, side, wps, depth=depth)
        sites = face_sites(shape, axis, side, depth)
        expected = (sites[:, None] * wps + np.arange(wps)[None, :]).reshape(-1)
        assert np.array_equal(desc.indices(), expected)


class TestChecksumProperties:
    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_chunking_invariance(self, words):
        w = np.array(words, dtype=np.uint64)
        whole, split = LinkChecksum(), LinkChecksum()
        whole.update(w)
        half = len(w) // 2
        split.update(w[:half])
        split.update(w[half:])
        assert whole.matches(split)

    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=2, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_word_sum_is_order_blind(self, words):
        # A documented limitation shared with the real hardware's additive
        # checksum: reordered words are NOT detected (ordering is protected
        # by the per-word sequence/ack protocol instead).
        w = np.array(words, dtype=np.uint64)
        a, b = LinkChecksum(), LinkChecksum()
        a.update(w)
        b.update(w[::-1].copy())
        assert a.matches(b)


class TestGeometryProperties:
    @given(shapes, st.integers(min_value=0, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_translation_invariance_of_plaquette(self, shape, axis):
        assume(len(shape) >= 2 and axis < len(shape))
        from repro.lattice import GaugeField

        geom = LatticeGeometry(shape)
        rng = rng_stream(5, f"transl-{shape}")
        u = GaugeField.hot(geom, rng)
        p0 = u.plaquette()
        # translate the whole field one site along `axis`
        fwd = geom.neighbour_fwd(axis)
        v = GaugeField(geom, u.links[:, fwd])
        assert v.plaquette() == pytest.approx(p0, rel=1e-12)
