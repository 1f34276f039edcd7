"""Halo plans: boundary faces and their fill orderings."""

import numpy as np
import pytest

from repro.lattice import LatticeGeometry
from repro.lattice.stencil import face_sites, halo_plan
from repro.util.errors import ConfigError


class TestFaceIndices:
    def test_low_and_high_faces(self):
        g = LatticeGeometry((4, 4))
        low = face_sites(g.shape, 0, -1)
        high = face_sites(g.shape, 0, +1)
        assert np.all(g.coords[low][:, 0] == 0)
        assert np.all(g.coords[high][:, 0] == 3)
        assert len(low) == len(high) == 4

    def test_depth_selects_layers(self):
        g = LatticeGeometry((8, 2))
        low3 = face_sites(g.shape, 0, -1, depth=3)
        assert sorted(set(g.coords[low3][:, 0])) == [0, 1, 2]
        assert len(low3) == 6

    def test_bad_axis_and_depth_rejected(self):
        g = LatticeGeometry((4, 4))
        with pytest.raises(ConfigError):
            face_sites(g.shape, 5, 1)
        with pytest.raises(ConfigError):
            face_sites(g.shape, 0, 1, depth=0)
        with pytest.raises(ConfigError):
            face_sites(g.shape, 0, 1, depth=5)

    def test_faces_have_matching_transverse_order(self):
        # The core wire-format property: element k of the low face and
        # element k of the high face share transverse coordinates.
        g = LatticeGeometry((4, 3, 5))
        for axis in range(3):
            low = face_sites(g.shape, axis, -1)
            high = face_sites(g.shape, axis, +1)
            other = [a for a in range(3) if a != axis]
            assert np.array_equal(
                g.coords[low][:, other], g.coords[high][:, other]
            )


class TestHaloPlan:
    def test_fill_rows_receive_neighbour_face(self):
        # Simulate two tiles of a 8x4 lattice split along axis 0 into 2.
        g = LatticeGeometry((8, 4))
        t = g.tile((2, 1))
        lg = t.local_geometry
        plan = halo_plan(lg.shape, 0)

        field = np.arange(g.volume, dtype=float)
        local = t.scatter(field)  # (2, 16)

        # Tile 0 computes field[x + e0]; rows on its high face must be
        # overwritten by tile 1's low face.
        gathered = local[0][lg.hop(0, +1)]
        gathered[plan.fill_from_fwd] = local[1][plan.send_low]
        # Compare with the global truth restricted to tile 0.
        truth = field[g.hop(0, +1)][t.global_of[0]]
        assert np.array_equal(gathered, truth)

    def test_bwd_fill_symmetric(self):
        g = LatticeGeometry((8, 4))
        t = g.tile((2, 1))
        lg = t.local_geometry
        plan = halo_plan(lg.shape, 0)
        field = np.arange(g.volume, dtype=float)
        local = t.scatter(field)

        gathered = local[1][lg.hop(0, -1)]
        gathered[plan.fill_from_bwd] = local[0][plan.send_high]
        truth = field[g.hop(0, -1)][t.global_of[1]]
        assert np.array_equal(gathered, truth)

    def test_depth3_plan_covers_naik_hops(self):
        g = LatticeGeometry((16, 4))
        t = g.tile((2, 1))
        lg = t.local_geometry
        plan = halo_plan(lg.shape, 0, depth=3)
        field = np.arange(g.volume, dtype=float)
        local = t.scatter(field)

        gathered = local[0][lg.hop(0, +3)]
        gathered[plan.fill_from_fwd] = local[1][plan.send_low]
        truth = field[g.hop(0, +3)][t.global_of[0]]
        assert np.array_equal(gathered, truth)
