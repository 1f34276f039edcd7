"""Exact per-site work accounting for every Dirac discretisation.

These counts feed the performance model (:mod:`repro.perfmodel`) that
regenerates the paper's sustained-efficiency numbers (experiment E1).  They
are *derived*, not tuned: complex multiply = 6 flops, complex add = 2, an
SU(3) matrix-vector product = 9 cmul + 6 cadd = 66 flops, and the totals
below follow from the operator definitions in this package.

Memory traffic is counted in 8-byte words per site per operator
application, assuming the streaming access pattern of the hand-tuned
assembly the paper describes (every operand read once, output written
once; no speculative reuse beyond registers).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Mapping, Tuple

from repro.util.errors import ConfigError

CMUL = 6  #: flops in one complex multiply
CADD = 2  #: flops in one complex add
MATVEC_SU3 = 9 * CMUL + 6 * CADD  #: = 66, one SU(3) matrix x colour vector

# -- wire-format constants (single source of truth) --------------------------
# Every words-per-site number used by the parallel operators, the SCU
# descriptors, and the performance model imports from here; the
# functional simulator's transfer counters are cross-checked against
# these in tests (no silently divergent copies).
WORD_BYTES = 8  #: one 64-bit machine word
SPINOR_WORDS = 24  #: Wilson spinor, 12 complex doubles per site
HALF_SPINOR_WORDS = SPINOR_WORDS // 2  #: = 12, spin-projected two rows
STAGGERED_WORDS = 6  #: one colour vector, 3 complex doubles per site

#: solver vectors resident during a CG solve: x, r, p, Ap, b
CG_VECTORS = 5

#: the Krylov solvers' vector kernels, ``(flops, words)`` per real component
#: with real scalars: ``axpy`` / ``xpay`` multiply and add (read two vectors,
#: write one), ``scale_axpy`` multiplies twice, ``dot`` is 8 flops per
#: complex pair (read two vectors); a word holds one double-precision real
LINALG_KERNELS = {"axpy": (2, 3), "xpay": (2, 3), "scale_axpy": (3, 3), "dot": (4, 2)}

#: one CG iteration's vector kernels: the x, r and p updates, two dots
CG_UPDATE_KERNELS = {"axpy": 2, "xpay": 1}
CG_ITERATION_KERNELS = dict(CG_UPDATE_KERNELS, dot=2)


def linalg_mix(
    kernels: Mapping[str, int], components: float, itemsize: int = 16
) -> Tuple[float, float]:
    """``(flops, words)`` of ``kernels`` (name -> calls) on operands of
    ``components`` real components stored ``itemsize`` bytes per complex
    element: single precision streams half the words."""
    flops = sum(calls * LINALG_KERNELS[k][0] for k, calls in kernels.items())
    words = sum(calls * LINALG_KERNELS[k][1] for k, calls in kernels.items())
    return float(components * flops), components * words * itemsize / 16


#: canonical community count for the Wilson hopping term (8 directions,
#: two half-spinor SU(3) matvecs each, plus spin project/reconstruct adds)
WILSON_DSLASH_FLOPS = 8 * (2 * MATVEC_SU3) + 264  # = 1320

#: axpy of the diagonal (m + 4r) psi over 24 real components
DIAG_AXPY_FLOPS = 48

#: clover term: two hermitian 6x6 blocks applied to the upper/lower
#: chirality halves (36 cmul + 30 cadd each) plus accumulation
CLOVER_TERM_FLOPS = 2 * (36 * CMUL + 30 * CADD) + 24 * CADD  # = 600
#: the packed clover field: two hermitian 6x6 = 2 x (6 diag + 15 complex)
CLOVER_WORDS = 2 * (6 + 2 * 15)  # = 72

#: staggered: one SU(3) matvec per direction per hop family; ASQTAD has
#: fat (1-hop) + long (3-hop) = 16 matvecs and 15 colour-vector adds
ASQTAD_DSLASH_FLOPS = 16 * MATVEC_SU3 + 15 * 3 * CADD  # = 1146
NAIVE_STAGGERED_DSLASH_FLOPS = 8 * MATVEC_SU3 + 7 * 3 * CADD  # = 570
STAGGERED_DIAG_FLOPS = 12  # m * chi over 6 real components

#: domain wall, per 5-dimensional site: the Wilson kernel plus the
#: diagonal and the two chiral-projector hops in the 5th dimension
DWF_5D_EXTRA_FLOPS = DIAG_AXPY_FLOPS + 2 * (12 * CADD)  # = 96

# -- two-flavor Wilson fermion force (dynamical HMC) -------------------------
# F_mu(x) = (1/2) TA[U_mu(x) B1(x) - D2(x) U_mu(x)^+] with B1/D2 colour
# outer products of X and the (1 -+ gamma_mu)-projected Y (derivation in
# repro.hmc.pseudofermion.TwoFlavorWilsonHMC.fermion_force).

#: one (1 -+ gamma_mu) projection of a spinor site: gamma_mu is a signed
#: spin permutation (12 complex adds against psi); the charge still counts
#: the 24-real-component scaling of psi by a general Wilson r, which at
#: r = 1 the kernel does not perform
WILSON_FORCE_PROJ_FLOPS = SPINOR_WORDS + 12 * CADD  # = 48

#: the two 3x3 colour outer products (B1 and D2): 9 entries each, spin
#: contraction of length 4 = 4 cmul + 3 cadd per entry
WILSON_FORCE_OUTER_FLOPS = 2 * 9 * (4 * CMUL + 3 * CADD)  # = 540

#: U B1 and D2 U^+ — two 3x3 complex matrix products
WILSON_FORCE_MATMUL_FLOPS = 2 * (27 * CMUL + 18 * CADD)  # = 396

#: grad = U B1 - D2 U^+ (9 cadds), then TA(grad): the anti-hermitian
#: part (9 cadds + 18 real halvings), trace removal (2 cadds + 3
#: diagonal subtractions = 6 flops + the /3) and the final 0.5 scaling
#: over 18 real components
WILSON_FORCE_TA_FLOPS = 9 * CADD + (9 * CADD + 18) + (2 * CADD + 8) + 18  # = 84

#: per site, per direction mu — both projections of Y, the outer
#: products, the link sandwiches and the TA projection
WILSON_FORCE_FLOPS_PER_DIRECTION = (
    2 * WILSON_FORCE_PROJ_FLOPS
    + WILSON_FORCE_OUTER_FLOPS
    + WILSON_FORCE_MATMUL_FLOPS
    + WILSON_FORCE_TA_FLOPS
)  # = 1116

#: per received forward-face site on a decomposed axis the receiver
#: recomputes (r + gamma_mu) Y locally on the halo rows (projection
#: commutes with the transfer, keeping the wire at raw spinors)
WILSON_FORCE_HALO_PROJ_FLOPS = WILSON_FORCE_PROJ_FLOPS


@dataclass(frozen=True)
class OperatorCost:
    """Per-site cost sheet for one Dirac operator application.

    The one place an operator's counts live: the halo pipeline sizes its
    buffers and charges its flops from it (:mod:`repro.parallel`), and the
    timing model, the exact counter predictions and the hard-scaling sweep
    (:mod:`repro.perfmodel`) read the same fields.

    Attributes
    ----------
    flops_per_site:
        Floating-point operations per (4-dimensional) site.
    words_per_site:
        8-byte memory words moved per site in double precision
        (halve for single precision).
    gauge_words_per_site:
        The subset of ``words_per_site`` that is gauge-field traffic
        (re-usable across the 5th dimension for domain-wall fermions).
    comm_bytes_per_face_site:
        Bytes sent per boundary site per direction in double precision
        (halve for single) by the hand-tuned kernels: Wilson-type
        operators put spin-projected **half spinors** on the wire
        (``HALF_SPINOR_WORDS`` = 12 words = 96 bytes), exactly what the
        compressed SCU exchange of :mod:`repro.parallel` moves.
    uncompressed_comm_bytes_per_face_site:
        What a generic (full-spinor) exchange would ship per boundary
        site — the seed pipeline before half-spinor compression and the
        payload a 2004 commodity-cluster MPI code moves.  Equal to
        ``comm_bytes_per_face_site`` for staggered operators (a colour
        vector has no rank-2 spin structure to exploit).
    site_words:
        64-bit words per site of one solver vector: a Wilson-type spinor
        is 12 complex = 24 words, a staggered colour vector 3 complex = 6.
    local_flops_per_site:
        The part of ``flops_per_site`` that is site-local (the diagonal
        axpy, the clover term): the distributed operators charge it where
        that arithmetic runs, apart from the hop matvecs and the merge.
    local_words_per_site:
        Words per site of a site-local operator field resident beside the
        gauge field (the packed clover term).
    hop_depths:
        Hop distances needing halo exchange (ASQTAD needs 1 and 3).
    landing_matvecs:
        SU(3) matvecs a distributed application charges per forward-halo
        site as that halo lands (:mod:`repro.parallel.halo`): a Wilson-type
        kernel multiplies the received spinor by its own link there, the
        staggered merge multiplies every forward hop itself.
    local_in_interior:
        The site-local term is charged with the interior phase, before the
        halos are waited for (the domain wall's merge starts each row with
        the diagonal), not after the exchange.
    five_dimensional:
        The sheet is stated per 5-dimensional site, so ``Ls`` slices of
        it run per 4-dimensional site (:meth:`slices`).
    dirac_applications_per_cg_iteration:
        CG on the normal equations applies D and D^+ once each.
    """

    name: str
    flops_per_site: int
    words_per_site: int
    gauge_words_per_site: int
    comm_bytes_per_face_site: int
    uncompressed_comm_bytes_per_face_site: int
    site_words: int
    local_flops_per_site: int
    local_words_per_site: int = 0
    hop_depths: Tuple[int, ...] = (1,)
    landing_matvecs: int = 1
    local_in_interior: bool = False
    five_dimensional: bool = False
    dirac_applications_per_cg_iteration: int = 2

    @property
    def arithmetic_intensity(self) -> float:
        """flops per byte of memory traffic (double precision)."""
        return self.flops_per_site / (8.0 * self.words_per_site)

    def wire_words(self, compress: bool = True) -> int:
        """64-bit words per face site on the wire."""
        nbytes = (
            self.comm_bytes_per_face_site
            if compress
            else self.uncompressed_comm_bytes_per_face_site
        )
        return nbytes // WORD_BYTES

    def check_tile(self, local_shape, machine_dims) -> None:
        """Refuse, with a ``ConfigError``, a tile whose decomposed axis is
        shallower than the sheet's longest hop: that hop's halo would span
        two tiles.  The distributed operator and the performance model
        both ask here; only ASQTAD's Naik hop is deeper than one site."""
        depth = max(self.hop_depths)
        for mu, (extent, nodes) in enumerate(zip(local_shape, machine_dims)):
            if int(nodes) > 1 and int(extent) < depth:
                raise ConfigError(
                    f"axis {mu}: local extent {extent} < {depth}; the Naik "
                    "halo would span two tiles (enlarge the local volume)"
                )

    def wire_sites(self, face_sites: int) -> Tuple[int, int]:
        """Sites of one slice a decomposed axis ships each way,
        ``face_sites`` its one-deep face: the low face as deep as the
        deepest hop one way, one block of sender-side products per hop
        layer the other (:meth:`check_tile` keeps every layer within the
        neighbour's tile)."""
        return max(self.hop_depths) * face_sites, sum(self.hop_depths) * face_sites

    def slices(self, Ls: int = 1) -> int:
        """Applications of the sheet per 4-dimensional site."""
        return int(Ls) if self.five_dimensional else 1

    def halo_flops(self, face_sites: int) -> int:
        """Flops the halo exchange adds, beyond ``flops_per_site`` on every
        site, on decomposed axes whose one-deep faces hold ``face_sites``:
        one sender-side ``U^+ psi`` SU(3) matvec per product site shipped
        (one block of products per hop layer)."""
        return sum(self.hop_depths) * face_sites * MATVEC_SU3

    def site_mix(self, Ls: int = 1) -> Tuple[float, float, float]:
        """``(flops, words, loop overheads)`` of one application per site,
        as a blocked kernel streams it: the arguments the compute-time
        rule (:meth:`repro.machine.memory.MemoryModel.compute_cycles`)
        prices.  A 5-dimensional sheet streams the gauge field once per
        ``Ls`` slices, and the quarter of the per-site overhead that is
        4-dimensional address generation amortises over them too."""
        slices = self.slices(Ls)
        words = self.words_per_site - self.gauge_words_per_site * (
            1.0 - 1.0 / slices
        )
        return float(self.flops_per_site), words, 0.75 + 0.25 / slices

    def cg_linalg(self) -> Tuple[float, float]:
        """CG linear-algebra ``(flops, words)`` per site per iteration in
        double precision: :data:`CG_ITERATION_KERNELS` on vectors of
        ``site_words`` real components."""
        return linalg_mix(CG_ITERATION_KERNELS, self.site_words)

    def working_set_bytes(self, local_volume: int, Ls: int = 1) -> int:
        """Solve-time resident bytes of a tile: the gauge (+ clover)
        field and the CG vectors.  What decides EDRAM or DDR residency
        (:meth:`repro.machine.memory.MemoryModel.spill_fraction`)."""
        field_words = self.gauge_words_per_site + self.local_words_per_site
        vec_words = CG_VECTORS * self.site_words * self.slices(Ls)
        return local_volume * (field_words + vec_words) * WORD_BYTES


_WILSON = OperatorCost(
    name="wilson",
    flops_per_site=WILSON_DSLASH_FLOPS + DIAG_AXPY_FLOPS,  # 1368
    # gauge 8 x 18 + neighbour spinors 8 x 24 + site spinor 24 + store 24
    words_per_site=144 + 192 + 24 + 24,  # 384
    gauge_words_per_site=144,
    # half spinor on the wire: 12 words = 96 bytes per face site
    comm_bytes_per_face_site=HALF_SPINOR_WORDS * WORD_BYTES,
    uncompressed_comm_bytes_per_face_site=SPINOR_WORDS * WORD_BYTES,
    site_words=SPINOR_WORDS,
    local_flops_per_site=DIAG_AXPY_FLOPS,
)

_CLOVER = replace(
    _WILSON,
    name="clover",
    flops_per_site=_WILSON.flops_per_site + CLOVER_TERM_FLOPS,  # 1968
    words_per_site=_WILSON.words_per_site + CLOVER_WORDS,  # 456
    local_flops_per_site=DIAG_AXPY_FLOPS + CLOVER_TERM_FLOPS,
    local_words_per_site=CLOVER_WORDS,
)

_ASQTAD = OperatorCost(
    name="asqtad",
    flops_per_site=ASQTAD_DSLASH_FLOPS + STAGGERED_DIAG_FLOPS,  # 1158
    # fat links 8 x 18 + long links 8 x 18 + 16 neighbour vectors x 6
    # + site vector 6 + store 6
    words_per_site=144 + 144 + 96 + 6 + 6,  # 396
    gauge_words_per_site=288,
    # one colour vector (no spin structure to compress)
    comm_bytes_per_face_site=STAGGERED_WORDS * WORD_BYTES,
    uncompressed_comm_bytes_per_face_site=STAGGERED_WORDS * WORD_BYTES,
    site_words=STAGGERED_WORDS,
    local_flops_per_site=STAGGERED_DIAG_FLOPS,
    hop_depths=(1, 3),
    landing_matvecs=0,
)

_NAIVE_STAGGERED = replace(
    _ASQTAD,
    name="naive-staggered",
    flops_per_site=NAIVE_STAGGERED_DSLASH_FLOPS + STAGGERED_DIAG_FLOPS,  # 582
    words_per_site=144 + 48 + 6 + 6,  # 204
    gauge_words_per_site=144,
    hop_depths=(1,),
)

#: Domain wall, stated per 5-dimensional site.  The gauge field is shared
#: by all ``Ls`` slices; a blocked kernel streams it once per ``Ls``
#: slices, which is why the paper expects the domain-wall assembly to
#: *surpass* clover efficiency (section 4).  The amortisation itself is
#: applied by the performance model, which is why
#: ``gauge_words_per_site`` is reported separately.  Of the per-5D-site
#: extra, the diagonal axpy is the site-local part; the two chiral
#: 5th-dimension hops ride in the merge.
_DWF = replace(
    _WILSON,
    name="dwf",
    flops_per_site=WILSON_DSLASH_FLOPS + DWF_5D_EXTRA_FLOPS,  # 1416
    local_in_interior=True,
    five_dimensional=True,
)


class _WilsonForceCost(OperatorCost):
    """The fermion force fits the sheet except in its exchange: one
    transfer per axis and no sender-side matvec, but the receiver's
    ``(r + gamma_mu) Y`` reprojection of every forward-face site it was
    sent."""

    def halo_flops(self, face_sites: int) -> int:
        return face_sites * WILSON_FORCE_HALO_PROJ_FLOPS

    def wire_sites(self, face_sites: int) -> Tuple[int, int]:
        """Both fields' low faces in one transfer; nothing comes back."""
        return 2 * face_sites, 0


#: One evaluation of the two-flavor fermion-force kernel, all four
#: directions.  Per decomposed axis it ships the raw low faces of both
#: solver fields ``X`` and ``Y = D X`` in one packed transfer — two full
#: spinors per face site one way, the word count of a one-hop operator's
#: face plus products — and projects on the receiver, so the wire has no
#: compressed form.
_WILSON_FORCE = _WilsonForceCost(
    name="wilson-force",
    flops_per_site=4 * WILSON_FORCE_FLOPS_PER_DIRECTION,  # 4464
    # links 4 x 18 + X, Y at the site and 4 forward neighbours
    # (2 x 5 x 24) + store 4 x 18
    words_per_site=72 + 240 + 72,  # 384
    gauge_words_per_site=72,
    comm_bytes_per_face_site=SPINOR_WORDS * WORD_BYTES,
    uncompressed_comm_bytes_per_face_site=SPINOR_WORDS * WORD_BYTES,
    site_words=SPINOR_WORDS,
    local_flops_per_site=0,
    landing_matvecs=0,
)

OPERATOR_COSTS: Dict[str, OperatorCost] = {
    c.name: c
    for c in (_WILSON, _CLOVER, _ASQTAD, _NAIVE_STAGGERED, _DWF, _WILSON_FORCE)
}


def operator_cost(name: str) -> OperatorCost:
    """Look up the cost sheet for an operator by name."""
    try:
        return OPERATOR_COSTS[name]
    except KeyError:
        raise KeyError(
            f"unknown operator {name!r}; known: {sorted(OPERATOR_COSTS)}"
        ) from None
