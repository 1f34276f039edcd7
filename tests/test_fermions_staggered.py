"""Staggered operators: phases, fat links, Naik term, improved dispersion."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.fermions import AsqtadDirac, NaiveStaggeredDirac, fat_links, long_links
from repro.fermions.staggered import (
    ASQTAD_COEFFS,
    _staple_paths,
    link_path,
    staggered_phases,
)
from repro.lattice import GaugeField, LatticeGeometry
from repro.util import rng_stream
from repro.util.errors import ConfigError


@pytest.fixture
def geom():
    return LatticeGeometry((4, 4, 4, 4))


@pytest.fixture
def rng():
    return rng_stream(31, "staggered-tests")


def random_vec(rng, geom):
    shape = (geom.volume, 3)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestPhases:
    def test_values_pm_one(self, geom):
        eta = staggered_phases(geom)
        assert set(np.unique(eta)) == {-1.0, 1.0}

    def test_first_direction_trivial(self, geom):
        eta = staggered_phases(geom)
        assert np.all(eta[0] == 1.0)

    def test_phase_formula(self, geom):
        eta = staggered_phases(geom)
        c = geom.coords
        assert np.allclose(eta[2], (-1.0) ** (c[:, 0] + c[:, 1]))
        assert np.allclose(eta[3], (-1.0) ** (c[:, 0] + c[:, 1] + c[:, 2]))


class TestLinkPath:
    def test_single_step_is_link(self, geom, rng):
        u = GaugeField.hot(geom, rng)
        assert np.allclose(link_path(u, (1,)), u.links[0])

    def test_forward_backward_cancels(self, geom, rng):
        u = GaugeField.hot(geom, rng)
        p = link_path(u, (2, -2))
        assert np.allclose(p, np.eye(3), atol=1e-12)

    def test_plaquette_path(self, geom, rng):
        u = GaugeField.hot(geom, rng)
        p = link_path(u, (1, 2, -1, -2))
        assert np.allclose(p, u.plaquette_field(0, 1), atol=1e-12)

    def test_bad_step_rejected(self, geom, rng):
        u = GaugeField.unit(geom)
        with pytest.raises(ConfigError):
            link_path(u, (0,))
        with pytest.raises(ConfigError):
            link_path(u, (5,))
        with pytest.raises(ConfigError):
            link_path(u, ())


class TestFatLinks:
    def test_unit_gauge_gives_nine_eighths(self, geom):
        # 5/8 + 6/16 + 24/64 + 48/384 - 6/16 = 9/8: the Naik-canonical sum.
        fat = fat_links(GaugeField.unit(geom))
        assert np.allclose(fat, (9.0 / 8.0) * np.eye(3), atol=1e-12)

    def test_long_links_are_three_hop_products(self, geom, rng):
        u = GaugeField.hot(geom, rng)
        w = long_links(u)
        g = geom
        f1 = g.neighbour_fwd(1)
        f2 = f1[f1]
        manual = u.links[1] @ u.links[1][f1] @ u.links[1][f2]
        assert np.allclose(w[1], manual, atol=1e-12)

    def test_fat_links_not_unitary_on_rough_field(self, geom, rng):
        from repro.lattice.su3 import unitarity_defect

        fat = fat_links(GaugeField.hot(geom, rng))
        assert unitarity_defect(fat) > 0.01

    @pytest.mark.parametrize(
        "shape", [(4, 4), (4, 4, 4), (4, 4, 4, 4)], ids=["2d", "3d", "4d"]
    )
    def test_nested_staples_are_the_path_sums(self, shape, rng):
        # 2-d has no 5- or 7-link family, 3-d no 7-link one; one distinct
        # coefficient per family, so two mixed-up families cannot cancel
        coeffs = {"one_link": 0.3, "staple3": 0.11, "staple5": 0.07,
                  "staple7": 0.013, "lepage": -0.05, "naik": -0.1}
        gauge = GaugeField.hot(LatticeGeometry(shape), rng)
        fat = fat_links(gauge, coeffs)
        for mu in range(len(shape)):
            ref = coeffs["one_link"] * gauge.links[mu]
            for family, paths in _staple_paths(mu, len(shape)).items():
                for path in paths:
                    ref = ref + coeffs[family] * link_path(gauge, path)
            assert np.abs(fat[mu] - ref).max() <= 1e-14 * np.abs(fat).max(), mu

    def test_smearing_bytes_do_not_depend_on_the_blas_kernel(self, geom, rng, tmp_path):
        # OpenBLAS picks its zgemm kernel by CPU, or by OPENBLAS_CORETYPE;
        # the link products must not call it.  The field is made here and
        # loaded there: the hot start itself goes through LAPACK
        try:  # numpy >= 2.0 reports both
            from numpy._core._multiarray_umath import __cpu_features__

            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        except (ImportError, TypeError, KeyError):
            pytest.skip("this numpy does not report its BLAS and CPU features")
        if "openblas" not in str(blas).lower():
            pytest.skip("numpy is not linked to OpenBLAS")
        if not __cpu_features__.get("AVX"):
            pytest.skip("no AVX: OpenBLAS cannot run its Sandybridge kernels")
        links = tmp_path / "links.npy"
        np.save(links, GaugeField.hot(geom, rng).links)
        program = (
            "import hashlib, sys, numpy as np\n"
            "from repro.fermions import fat_links, long_links\n"
            "from repro.lattice import GaugeField, LatticeGeometry\n"
            "g = GaugeField(LatticeGeometry((4, 4, 4, 4)), np.load(sys.argv[1]))\n"
            "for w in (fat_links(g), long_links(g)):\n"
            "    print(hashlib.sha256(w.tobytes()).hexdigest())\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        env.pop("OPENBLAS_CORETYPE", None)
        digests = []
        for coretype in (None, "Sandybridge"):
            if coretype is not None:
                env["OPENBLAS_CORETYPE"] = coretype
            done = subprocess.run(
                [sys.executable, "-c", program, str(links)],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            digests.append(done.stdout.split())
        assert len(digests[0]) == 2
        assert digests[0] == digests[1]

    def test_path_family_counts(self):
        fams = _staple_paths(0, 4)
        assert len(fams["staple3"]) == 6
        assert len(fams["staple5"]) == 24
        assert len(fams["staple7"]) == 48
        assert len(fams["lepage"]) == 6


class TestNaiveStaggered:
    def test_hopping_antihermitian(self, geom, rng):
        u = GaugeField.hot(geom, rng)
        d = NaiveStaggeredDirac(u, mass=0.0)
        a, b = random_vec(rng, geom), random_vec(rng, geom)
        lhs = np.vdot(a, d.hopping(b))
        rhs = -np.vdot(d.hopping(a), b)
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_normal_operator_parity_block_diagonal(self, geom, rng):
        u = GaugeField.hot(geom, rng)
        d = NaiveStaggeredDirac(u, mass=0.1)
        chi = np.zeros((geom.volume, 3), dtype=complex)
        chi[geom.even_sites] = 1.0
        out = d.normal(chi)
        assert np.allclose(out[geom.odd_sites], 0, atol=1e-12)

    def test_free_dispersion(self, geom):
        # On unit gauge the eigenvalue on a momentum state along t is
        # m + i eta-weighted sin(p): check |D chi|^2 = m^2 + sin^2 p.
        d = NaiveStaggeredDirac(GaugeField.unit(geom), mass=0.5)
        k = (0, 0, 0, 1)
        p = 2 * np.pi / 4
        phase = np.exp(1j * geom.coords @ (2 * np.pi * np.asarray(k) / 4))
        chi = phase[:, None] * np.ones((geom.volume, 3))
        out = d.apply(chi)
        ratio = np.linalg.norm(out) ** 2 / np.linalg.norm(chi) ** 2
        assert ratio == pytest.approx(0.25 + np.sin(p) ** 2, rel=1e-10)


class TestFieldContract:
    @pytest.mark.parametrize("operator", [NaiveStaggeredDirac, AsqtadDirac])
    def test_single_precision_field_rejected(self, geom, rng, operator):
        d = operator(GaugeField.unit(geom), mass=0.1)
        chi = random_vec(rng, geom)
        for method in (d.apply, d.apply_dagger, d.hopping):
            with pytest.raises(ConfigError, match="complex128"):
                method(chi.astype(np.complex64))
        assert d.apply(chi).dtype == np.complex128

    @pytest.mark.parametrize("operator", [NaiveStaggeredDirac, AsqtadDirac])
    def test_results_are_fresh_caller_owned_arrays(self, geom, rng, operator):
        d = operator(GaugeField.hot(geom, rng), mass=0.1)
        chi, eta = random_vec(rng, geom), random_vec(rng, geom)
        for method in (d.hopping, d.apply, d.apply_dagger):
            first = method(chi)
            kept = first.copy()
            second = method(eta)
            assert not np.shares_memory(first, second)
            assert first.tobytes() == kept.tobytes()


    def test_smeared_links_keep_their_public_shape_and_cannot_go_stale(self, geom, rng):
        # held once, in the kernel's layout; what callers scatter is a view
        gauge = GaugeField.hot(geom, rng)
        d = AsqtadDirac(gauge, mass=0.1)
        assert d.fat.shape == d.long.shape == (4, geom.volume, 3, 3)
        assert np.array_equal(d.fat, fat_links(gauge))
        assert np.array_equal(d.long, long_links(gauge))
        with pytest.raises(ValueError, match="read-only"):
            d.fat[0, 0] = 0


class TestAsqtad:
    def test_hopping_antihermitian(self, geom, rng):
        u = GaugeField.hot(geom, rng)
        d = AsqtadDirac(u, mass=0.0)
        a, b = random_vec(rng, geom), random_vec(rng, geom)
        assert np.vdot(a, d.hopping(b)) == pytest.approx(
            -np.vdot(d.hopping(a), b), rel=1e-10
        )

    def test_improved_dispersion_beats_naive(self):
        # (9/8) sin p - (1/24) sin 3p = p + O(p^5): at p = 2 pi / 16 the
        # ASQTAD effective momentum must be far closer to p than sin p is.
        geom = LatticeGeometry((16, 2, 2, 2))
        d = AsqtadDirac(GaugeField.unit(geom), mass=0.0)
        p = 2 * np.pi / 16
        phase = np.exp(1j * geom.coords[:, 0] * p)
        chi = phase[:, None] * np.ones((geom.volume, 3))
        out = d.apply(chi)
        # apply = (1/2) eta hopping; on this state out = i sin_eff(p) chi
        sin_eff = np.abs(np.vdot(chi, out) / np.vdot(chi, chi))
        expected = (9 / 8) * np.sin(p) - (1 / 24) * np.sin(3 * p)
        assert sin_eff == pytest.approx(expected, rel=1e-10)
        assert abs(sin_eff - p) < abs(np.sin(p) - p) / 10

    def test_reduces_to_rescaled_one_link_on_unit_gauge(self, geom, rng):
        # On U=1 fat links are 9/8 and long links 1, so ASQTAD acts like
        # the naive operator with (9/8) sinp - (1/24) sin3p kinematics;
        # cross-check on a random vector against a manual construction.
        d = AsqtadDirac(GaugeField.unit(geom), mass=0.3)
        naive = NaiveStaggeredDirac(GaugeField.unit(geom), mass=0.3)
        chi = random_vec(rng, geom)
        g = geom
        manual = 0.3 * chi
        for mu in range(4):
            eta = d.phases[mu][:, None]
            one = chi[g.hop(mu, +1)] - chi[g.hop(mu, -1)]
            three = chi[g.hop(mu, +3)] - chi[g.hop(mu, -3)]
            manual += 0.5 * eta * ((9 / 8) * one + (-1 / 24) * three)
        assert np.allclose(d.apply(chi), manual, atol=1e-12)
        # and differs from the naive operator
        assert not np.allclose(d.apply(chi), naive.apply(chi))

    def test_coefficients_exposed(self):
        assert ASQTAD_COEFFS["naik"] == pytest.approx(-1 / 24)
        assert ASQTAD_COEFFS["one_link"] == pytest.approx(5 / 8)
