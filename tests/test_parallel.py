"""Distributed physics on the simulated machine vs the serial reference.

These are the reproduction's core integration tests: the paper's workload
(Wilson/clover CG) running over simulated SCU links and global sums, checked
against the serial operators and for bitwise run-to-run reproducibility.
"""

import functools

import numpy as np
import pytest

from repro.fermions import AsqtadDirac, CloverDirac, DomainWallDirac, WilsonDirac
from repro.lattice import GaugeField, LatticeGeometry
from repro.parallel import PhysicsMapping, solve_on_machine
from repro.parallel.pdirac import DistributedWilsonContext
from repro.parallel.pdwf import DistributedDWFContext
from repro.parallel.pstaggered import DistributedStaggeredContext
from repro.solvers import cgne
from repro.util import rng_stream
from repro.util.errors import ConfigError
from tests.harness import applied, booted, system


def machine_8():
    # 8 nodes as a logical 2x2x2x1 machine
    return booted((2, 2, 2, 1, 1, 1), word_batch=4096)


@pytest.fixture
def rng():
    return rng_stream(77, "parallel-tests")


class TestPhysicsMapping:
    def test_dimension_mismatch_rejected(self):
        m, p = booted((2, 2, 1, 1, 1, 1), [(0,), (1,)], word_batch=4096)
        with pytest.raises(ConfigError, match="remap"):
            PhysicsMapping(LatticeGeometry((4, 4, 4, 4)), p)

    def test_scatter_gather_roundtrip(self, rng):
        m, p = machine_8()
        geom = LatticeGeometry((4, 4, 4, 2))
        mapping = PhysicsMapping(geom, p)
        field = rng.standard_normal((geom.volume, 4, 3)) + 0j
        assert np.array_equal(
            mapping.gather_field(mapping.scatter_field(field)), field
        )

    def test_scatter_gauge_shape(self, rng):
        m, p = machine_8()
        geom = LatticeGeometry((4, 4, 4, 2))
        mapping = PhysicsMapping(geom, p)
        u = GaugeField.hot(geom, rng)
        local = mapping.scatter_gauge(u)
        assert local.shape == (8, 4, geom.volume // 8, 3, 3)


class TestDistributedDslash:
    def test_matches_serial_wilson(self, rng):
        machine, partition = machine_8()
        geom = LatticeGeometry((4, 4, 4, 2))
        gauge = GaugeField.hot(geom, rng)
        psi = rng.standard_normal((geom.volume, 4, 3)) + 1j * rng.standard_normal(
            (geom.volume, 4, 3)
        )
        got = applied(machine, partition, "wilson", gauge, psi, mass=0.3)
        want = WilsonDirac(gauge, mass=0.3).apply(psi)
        assert np.allclose(got, want, atol=1e-12)

    def test_matches_serial_clover(self, rng):
        machine, partition = machine_8()
        geom = LatticeGeometry((4, 4, 4, 2))
        gauge = GaugeField.weak(geom, rng, eps=0.4)
        psi = rng.standard_normal((geom.volume, 4, 3)) + 0j
        got = applied(
            machine, partition, "wilson", gauge, psi, mass=0.3, c_sw=1.0
        )
        want = CloverDirac(gauge, mass=0.3, c_sw=1.0).apply(psi)
        assert np.allclose(got, want, atol=1e-12)

    def test_clean_checksums_after_dslash(self, rng):
        machine, partition = machine_8()
        geom = LatticeGeometry((4, 4, 4, 2))
        gauge = GaugeField.hot(geom, rng)
        psi = rng.standard_normal((geom.volume, 4, 3)) + 0j
        applied(machine, partition, "wilson", gauge, psi, mass=0.3)
        assert machine.audit_checksums() == []

    def test_16_node_4d_machine(self, rng):
        machine, partition = booted((2, 2, 2, 2, 1, 1), word_batch=4096)
        geom = LatticeGeometry((4, 4, 2, 2))
        gauge = GaugeField.hot(geom, rng)
        psi = rng.standard_normal((geom.volume, 4, 3)) + 0j
        got = applied(machine, partition, "wilson", gauge, psi, mass=0.3)
        want = WilsonDirac(gauge, mass=0.3).apply(psi)
        assert np.allclose(got, want, atol=1e-12)

    def test_folded_axis_machine(self, rng):
        # 8 nodes as logical 2x2x2x1 via folding two physical axes into one
        machine, partition = booted(
            (2, 2, 2, 1, 1, 1), [(0,), (1, 2), (3,), (4,)], word_batch=4096
        )
        assert partition.logical_dims == (2, 4, 1, 1)
        geom = LatticeGeometry((2, 8, 2, 2))
        gauge = GaugeField.hot(geom, rng)
        psi = rng.standard_normal((geom.volume, 4, 3)) + 0j
        got = applied(machine, partition, "wilson", gauge, psi, mass=0.3)
        want = WilsonDirac(gauge, mass=0.3).apply(psi)
        assert np.allclose(got, want, atol=1e-12)


class TestApplyOnMachine:
    """The one operator driver against the serial operator chain: every
    action, ``D`` and ``D^+``, one application and two chained through
    one rank program (the second reuses the context's stored descriptors
    and feeds the context-owned output buffer back in)."""

    #: op -> (lattice, parameters, serial operator, comparison); the
    #: compressed Wilson assembly mirrors the serial statement sequence
    #: (``==``), the others accumulate in a different, equally valid order
    CLOSE = functools.partial(np.allclose, atol=1e-12)
    CASES = {
        "wilson": ((4, 4, 2, 2), {"mass": 0.3}, WilsonDirac, np.array_equal),
        "clover": ((4, 4, 2, 2), {"mass": 0.3, "c_sw": 1.0}, CloverDirac, CLOSE),
        "dwf": ((4, 4, 2, 2), {"Ls": 3, "M5": 1.8, "mf": 0.1}, DomainWallDirac, CLOSE),
        "asqtad": ((8, 8, 2, 2), {"mass": 0.3}, AsqtadDirac, CLOSE),
    }

    @pytest.mark.parametrize("applies", [1, 2])
    @pytest.mark.parametrize("dagger", [False, True], ids=["D", "Ddag"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_the_serial_chain(self, rng, case, dagger, applies):
        shape, params, serial, same = self.CASES[case]
        op = "wilson" if case == "clover" else case
        gauge, src = system(rng, shape, op, Ls=params.get("Ls"))
        machine, partition = booted((2, 2, 1, 1, 1, 1), word_batch=4096)
        got = applied(
            machine, partition, op, gauge, src, applies, dagger, **params
        )
        d = serial(gauge, **params)
        want = src
        for _ in range(applies):
            want = d.apply_dagger(want) if dagger else d.apply(want)
        assert got.shape == want.shape
        assert same(got, want), case
        assert machine.audit_checksums() == []


class TestTileRankChecked:
    """A tile whose rank differs from the partition's logical rank would
    index ``api.dims`` out of range (or silently decompose the wrong
    axes); the halo pipeline refuses it, naming both ranks."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda api, shape, u: DistributedWilsonContext(api, shape, u, mass=0.3),
            lambda api, shape, u: DistributedDWFContext(api, shape, u, Ls=2),
            lambda api, shape, u: DistributedStaggeredContext(
                api, shape, u, u, mass=0.3
            ),
        ],
        ids=["wilson", "dwf", "asqtad"],
    )
    def test_rank_mismatch_names_both_ranks(self, build):
        # a 3-axis logical mesh handed a 4D tile
        machine, partition = booted(
            (2, 2, 1, 1, 1, 1), [(0,), (1,), (2,)], word_batch=4096
        )
        shape = (4, 4, 2, 2)
        links = GaugeField.unit(LatticeGeometry(shape)).links

        def program(api):
            with pytest.raises(ConfigError, match=r"rank 4 .* rank 3"):
                build(api, shape, links)
            return None
            yield  # make it a generator

        machine.run_partition(partition, program)


class TestDistributedSolve:
    def setup_problem(self, rng, shape=(4, 4, 4, 2), eps=0.3):
        geom = LatticeGeometry(shape)
        gauge = GaugeField.weak(geom, rng, eps=eps)
        b = rng.standard_normal((geom.volume, 4, 3)) + 1j * rng.standard_normal(
            (geom.volume, 4, 3)
        )
        return geom, gauge, b

    def test_solution_matches_serial_cgne(self, rng):
        machine, partition = machine_8()
        _geom, gauge, b = self.setup_problem(rng)
        dist = solve_on_machine(
            machine, partition, gauge, b, mass=0.3, tol=1e-9, max_time=1e9
        )
        assert dist.converged
        assert dist.checksum_mismatches == []
        d = WilsonDirac(gauge, mass=0.3)
        serial = cgne(d.apply, d.apply_dagger, b, tol=1e-9)
        assert abs(dist.iterations - serial.iterations) <= 2
        assert np.allclose(dist.x, serial.x, atol=1e-7)
        # the solution really solves the original system:
        resid = np.linalg.norm(d.apply(dist.x) - b) / np.linalg.norm(b)
        assert resid < 1e-8

    def test_machine_time_and_flops_accounted(self, rng):
        machine, partition = machine_8()
        _geom, gauge, b = self.setup_problem(rng)
        dist = solve_on_machine(
            machine, partition, gauge, b, mass=0.4, tol=1e-6, max_time=1e9
        )
        assert dist.machine_time > 0
        assert dist.flops > 0
        assert dist.sustained_flops > 0

    def test_bitwise_reproducibility_run_over_run(self, rng):
        # The paper's verification: re-run the same calculation and demand
        # the result be "identical in all bits" (section 4).
        def run():
            machine, partition = machine_8()
            r = rng_stream(123, "repro-problem")
            geom = LatticeGeometry((4, 4, 4, 2))
            gauge = GaugeField.weak(geom, r, eps=0.3)
            b = r.standard_normal((geom.volume, 4, 3)) + 0j
            res = solve_on_machine(
                machine, partition, gauge, b, mass=0.3, tol=1e-8, max_time=1e9
            )
            return res.x.tobytes(), tuple(res.residuals), res.machine_time

        first, second = run(), run()
        assert first[0] == second[0]  # bit-identical solution
        assert first[1] == second[1]  # bit-identical residual history
        assert first[2] == second[2]  # identical simulated time

    def test_second_solve_on_the_same_machine(self, rng):
        # The shared-facility case: one booted machine, one partition, many
        # jobs.  The driver frees what each run allocated, so the second
        # solve neither dies on ``buffer 'work' already allocated`` nor
        # differs from the first in any bit.
        machine, partition = machine_8()
        _geom, gauge, b = self.setup_problem(rng)
        nodes = [
            machine.nodes[partition.physical_node(rank)]
            for rank in range(partition.n_nodes)
        ]
        before = [set(n.memory.buffer_names()) for n in nodes]
        first, second = (
            solve_on_machine(
                machine, partition, gauge, b, mass=0.3, tol=1e-8, max_time=1e9
            )
            for _ in range(2)
        )
        assert first.x.tobytes() == second.x.tobytes()
        assert first.residuals == second.residuals
        assert first.iterations == second.iterations
        assert [set(n.memory.buffer_names()) for n in nodes] == before

    def test_clover_solve_on_machine(self, rng):
        machine, partition = machine_8()
        _geom, gauge, b = self.setup_problem(rng)
        dist = solve_on_machine(
            machine,
            partition,
            gauge,
            b,
            mass=0.3,
            c_sw=1.0,
            tol=1e-8,
            max_time=1e9,
        )
        assert dist.converged
        d = CloverDirac(gauge, mass=0.3, c_sw=1.0)
        resid = np.linalg.norm(d.apply(dist.x) - b) / np.linalg.norm(b)
        assert resid < 1e-7

    def test_bad_source_shape_rejected(self, rng):
        machine, partition = machine_8()
        geom = LatticeGeometry((4, 4, 4, 2))
        gauge = GaugeField.unit(geom)
        with pytest.raises(ConfigError, match="source"):
            solve_on_machine(
                machine, partition, gauge, np.zeros((5, 4, 3)), mass=0.3
            )
