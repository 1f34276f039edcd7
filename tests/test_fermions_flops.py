"""Flop/byte accounting: derived counts and cross-operator orderings."""

import pytest

from repro.fermions import OPERATOR_COSTS, operator_cost
from repro.fermions.flops import (
    ASQTAD_DSLASH_FLOPS,
    CG_ITERATION_KERNELS,
    CLOVER_TERM_FLOPS,
    MATVEC_SU3,
    WILSON_DSLASH_FLOPS,
    linalg_mix,
)


class TestPrimitiveCounts:
    def test_su3_matvec(self):
        # 9 complex multiplies (6 flops) + 6 complex adds (2 flops)
        assert MATVEC_SU3 == 66

    def test_wilson_dslash_canonical_1320(self):
        assert WILSON_DSLASH_FLOPS == 1320

    def test_asqtad_dslash(self):
        # 16 SU(3) matvecs + 15 colour-vector accumulations
        assert ASQTAD_DSLASH_FLOPS == 1146

    def test_clover_term(self):
        assert CLOVER_TERM_FLOPS == 600


class TestCostSheets:
    def test_registry_contains_paper_operators(self):
        for name in ("wilson", "clover", "asqtad", "dwf", "naive-staggered"):
            assert name in OPERATOR_COSTS

    def test_unknown_operator_raises(self):
        with pytest.raises(KeyError, match="unknown operator"):
            operator_cost("overlap")

    def test_wilson_numbers(self):
        c = operator_cost("wilson")
        assert c.flops_per_site == 1368
        assert c.words_per_site == 384
        # half spinor on the wire: 12 words x 8 bytes
        assert c.comm_bytes_per_face_site == 96
        # a generic full-spinor exchange ships twice that
        assert c.uncompressed_comm_bytes_per_face_site == 192
        assert c.hop_depths == (1,)

    def test_asqtad_has_naik_depth(self):
        assert operator_cost("asqtad").hop_depths == (1, 3)

    def test_arithmetic_intensity_ordering(self):
        # Clover adds local flops on nearly the same traffic -> highest
        # intensity; ASQTAD doubles the gauge traffic for fewer flops ->
        # lowest.  This ordering is what drives the paper's
        # 46.5% > 40% > 38% efficiency ranking (E1).
        ai = {n: OPERATOR_COSTS[n].arithmetic_intensity for n in OPERATOR_COSTS}
        assert ai["clover"] > ai["wilson"] > ai["asqtad"]

    def test_staggered_comm_payload_smaller_than_wilson(self):
        # A colour vector (3 complex = 6 words) vs a half spinor
        # (6 complex = 12 words) vs a full spinor (12 complex = 24 words).
        asqtad = operator_cost("asqtad")
        wilson = operator_cost("wilson")
        assert asqtad.comm_bytes_per_face_site == wilson.comm_bytes_per_face_site / 2
        assert (
            asqtad.comm_bytes_per_face_site
            == wilson.uncompressed_comm_bytes_per_face_site / 4
        )
        # no spin structure to compress: staggered wire format is unchanged
        assert (
            asqtad.comm_bytes_per_face_site
            == asqtad.uncompressed_comm_bytes_per_face_site
        )

    def test_what_the_compute_time_rule_reads(self):
        """The sheet's mix, linear algebra and working set (moved here
        from ``perfmodel.dirac_perf`` so the twin's CPU reads them too)."""
        wilson, dwf = operator_cost("wilson"), operator_cost("dwf")
        assert wilson.site_mix() == (1368.0, 384.0, 1.0)
        # 5D: gauge streamed once per Ls slices, a quarter of the loop
        # overhead amortised over them; a 4D sheet ignores Ls
        assert dwf.site_mix(8) == (1416.0, 384 - 144 * 7 / 8, 0.75 + 0.25 / 8)
        assert wilson.site_mix(8) == wilson.site_mix()
        # three axpys + two dots on 24-word vectors, read off the table
        # of vector kernels the twin charges from
        assert wilson.cg_linalg() == (336.0, 312.0)
        assert wilson.cg_linalg() == (
            24.0 * (2 * 2 + 2 + 2 * 4), 24.0 * (2 * 3 + 3 + 2 * 2)
        )
        assert linalg_mix(CG_ITERATION_KERNELS, 24) == wilson.cg_linalg()
        assert operator_cost("asqtad").cg_linalg() == (84.0, 78.0)
        # single precision streams half the words for the same flops
        assert linalg_mix({"dot": 1}, 24, itemsize=8) == (96.0, 24.0)
        # gauge (+ clover) field and five solver vectors, 8 bytes a word
        assert wilson.working_set_bytes(4**4) == 4**4 * (144 + 5 * 24) * 8
        assert operator_cost("clover").working_set_bytes(1) == (144 + 72 + 120) * 8
        assert dwf.working_set_bytes(1, Ls=8) == (144 + 8 * 120) * 8

    def test_costs_are_frozen(self):
        c = operator_cost("wilson")
        with pytest.raises(Exception):
            c.flops_per_site = 0
