"""Krylov solvers on dense matrices and on real Dirac operators."""

import numpy as np
import pytest

from repro.fermions import AsqtadDirac, CloverDirac, DomainWallDirac, WilsonDirac
from repro.lattice import GaugeField, LatticeGeometry
from repro.solvers import cg, cgne
from repro.util import rng_stream
from repro.util.errors import ConfigError


@pytest.fixture
def rng():
    return rng_stream(55, "solver-tests")


def hpd_matrix(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T + n * np.eye(n)


class TestCGDense:
    def test_solves_hpd_system(self, rng):
        a = hpd_matrix(rng, 40)
        b = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        res = cg(lambda v: a @ v, b, tol=1e-10)
        assert res.converged
        assert np.linalg.norm(a @ res.x - b) / np.linalg.norm(b) < 1e-9
        assert res.true_residual < 1e-9

    def test_residual_history_monotone_overall(self, rng):
        a = hpd_matrix(rng, 30)
        b = rng.standard_normal(30) + 0j
        res = cg(lambda v: a @ v, b, tol=1e-10)
        assert res.residuals[0] == pytest.approx(1.0)
        assert res.residuals[-1] < 1e-10

    def test_exact_convergence_in_n_steps(self, rng):
        # CG converges in at most n iterations in exact arithmetic.
        n = 12
        a = hpd_matrix(rng, n)
        b = rng.standard_normal(n) + 0j
        res = cg(lambda v: a @ v, b, tol=1e-12, maxiter=2 * n)
        assert res.iterations <= n + 2

    def test_initial_guess_respected(self, rng):
        a = hpd_matrix(rng, 20)
        b = rng.standard_normal(20) + 0j
        x_exact = np.linalg.solve(a, b)
        res = cg(lambda v: a @ v, b, x0=x_exact, tol=1e-8)
        assert res.iterations == 0
        assert res.converged

    def test_zero_rhs(self, rng):
        a = hpd_matrix(rng, 5)
        res = cg(lambda v: a @ v, np.zeros(5, dtype=complex))
        assert res.converged and np.allclose(res.x, 0)

    def test_maxiter_reports_not_converged(self, rng):
        a = hpd_matrix(rng, 50)
        b = rng.standard_normal(50) + 0j
        res = cg(lambda v: a @ v, b, tol=1e-14, maxiter=2)
        assert not res.converged
        assert res.iterations == 2

    def test_bad_tol_rejected(self, rng):
        with pytest.raises(ConfigError):
            cg(lambda v: v, np.ones(3, dtype=complex), tol=0.0)

    def test_callback_sees_every_iteration(self, rng):
        a = hpd_matrix(rng, 20)
        b = rng.standard_normal(20) + 0j
        seen = []
        res = cg(lambda v: a @ v, b, tol=1e-9, callback=lambda i, r: seen.append(i))
        assert seen == list(range(1, res.iterations + 1))

    def test_custom_dot_is_used(self, rng):
        a = hpd_matrix(rng, 10)
        b = rng.standard_normal(10) + 0j
        calls = []

        def spy_dot(u, v):
            calls.append(1)
            return complex(np.vdot(u, v))

        cg(lambda v: a @ v, b, tol=1e-8, dot=spy_dot)
        assert len(calls) > 0


class TestDiracSolves:
    """The paper's benchmark workload: CG on the Dirac normal equations."""

    @pytest.fixture
    def geom(self):
        return LatticeGeometry((4, 4, 4, 4))

    def test_cgne_wilson(self, geom, rng):
        u = GaugeField.weak(geom, rng, eps=0.3)
        d = WilsonDirac(u, mass=0.3)
        b = rng.standard_normal((geom.volume, 4, 3)) + 1j * rng.standard_normal(
            (geom.volume, 4, 3)
        )
        res = cgne(d.apply, d.apply_dagger, b, tol=1e-9)
        assert res.converged
        assert res.true_residual < 1e-8

    def test_cgne_clover(self, geom, rng):
        u = GaugeField.weak(geom, rng, eps=0.3)
        d = CloverDirac(u, mass=0.3, c_sw=1.0)
        b = rng.standard_normal((geom.volume, 4, 3)) + 0j
        res = cgne(d.apply, d.apply_dagger, b, tol=1e-9)
        assert res.converged and res.true_residual < 1e-8

    def test_cg_asqtad_normal(self, geom, rng):
        u = GaugeField.weak(geom, rng, eps=0.3)
        d = AsqtadDirac(u, mass=0.3)
        b = rng.standard_normal((geom.volume, 3)) + 1j * rng.standard_normal(
            (geom.volume, 3)
        )
        res = cg(d.normal, d.apply_dagger(b), tol=1e-9)
        assert res.converged
        x = res.x
        assert np.linalg.norm(d.apply(x) - b) / np.linalg.norm(b) < 1e-7

    def test_cgne_dwf(self, geom, rng):
        u = GaugeField.weak(geom, rng, eps=0.2)
        d = DomainWallDirac(u, Ls=4, M5=1.8, mf=0.2)
        b = rng.standard_normal(d.field_shape) + 1j * rng.standard_normal(d.field_shape)
        res = cgne(d.apply, d.apply_dagger, b, tol=1e-8, maxiter=4000)
        assert res.converged
        assert res.true_residual < 1e-7
