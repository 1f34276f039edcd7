"""Distributed dynamical-fermion HMC: bit-identity, races, crosscheck.

The headline invariant of the tentpole: a :class:`DistributedTwoFlavorHMC`
trajectory — pseudofermion heat-bath, every force solve, the force halo
exchange and the Metropolis Hamiltonian all running on the machine — is
**bit-identical** to the serial :class:`TwoFlavorWilsonHMC` at any node
count, shard count or word batch.  Alongside: the force kernel is clean
under the halo-race sanitizer, its flop/word charges match the exact
closed forms (``crosscheck_composite``), mid-evolution checkpoints
restore onto a rebound partition, and the satellite bugfixes (multishift freezing,
mixed-precision CG, retyped integrators, generalized checkpoints) are
pinned down.
"""

import functools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import HaloRaceSanitizer
from repro.fermions.wilson import WilsonDirac
from repro.hmc.checkpoint import HMCCheckpoint, run_with_checkpoints
from repro.hmc.hmc import HMC
from repro.hmc.integrators import leapfrog, omelyan
from repro.hmc.pseudofermion import TwoFlavorWilsonHMC
from repro.lattice import GaugeField, LatticeGeometry
from repro.parallel.decomp import PhysicsMapping
from repro.parallel.pcg import (
    MachineSiteDot,
    agreed,
    run_on_partition,
    wilson_context,
)
from repro.parallel.phmc import DistributedTwoFlavorHMC
from repro.perfmodel.dirac_perf import cg_kernel_calls
from repro.solvers.cg import cg, cgne, mixed_precision_cg
from repro.solvers.checkpoint import CGCheckpointStore
from repro.solvers.krylov import (
    cg_iter,
    lift,
    mixed_cg_iter,
    multishift_iter,
    run_serial,
)
from repro.solvers.multishift import multishift_cg
from repro.solvers.sitedot import canonical_dot
from repro.telemetry.report import EXACT_REL_TOL
from repro.util import rng_stream
from repro.util.errors import ConfigError
from tests.harness import booted, counting_backend

pytestmark = pytest.mark.hmc

#: (machine dims, lattice shape) sweep points — 1, 2, 4 and 8 nodes,
#: including the no-comm-axis single-node machine (single-rank gsum path)
CONFIGS = [
    ((1, 1, 1, 1, 1, 1), (4, 4, 2, 2)),
    ((2, 1, 1, 1, 1, 1), (4, 4, 2, 2)),
    ((2, 2, 1, 1, 1, 1), (4, 4, 2, 2)),
    ((2, 2, 2, 1, 1, 1), (4, 4, 4, 2)),
]


def hot_gauge(shape, seed=11):
    return GaugeField.hot(LatticeGeometry(shape), rng_stream(seed, "phmc"))


def serial_driver(gauge, seed=3, n_steps=1, solver="cg"):
    return TwoFlavorWilsonHMC(
        gauge.copy(), beta=5.5, mass=0.5, seed=seed, n_steps=n_steps,
        dt=0.05, solver=solver,
    )


def distributed_driver(machine, part, gauge, seed=3, n_steps=1, solver="cg",
                       word_batch=None):
    return DistributedTwoFlavorHMC(
        machine, part, gauge.copy(), beta=5.5, mass=0.5, seed=seed,
        n_steps=n_steps, dt=0.05, solver=solver, word_batch=word_batch,
    )


def assert_same_evolution(a, b):
    assert [t.delta_h for t in a.history] == [t.delta_h for t in b.history]
    assert [t.accepted for t in a.history] == [t.accepted for t in b.history]
    assert [t.plaquette for t in a.history] == [t.plaquette for t in b.history]
    assert a.cg_iterations == b.cg_iterations
    assert a.fingerprint() == b.fingerprint()


# ---------------------------------------------------------------------------
# the headline bit-identity
# ---------------------------------------------------------------------------
class TestDistributedVsSerial:
    @pytest.mark.parametrize("dims,shape", CONFIGS)
    def test_trajectory_bit_identical(self, dims, shape):
        gauge = hot_gauge(shape)
        serial = serial_driver(gauge)
        serial.trajectory()
        m, p = booted(dims, word_batch=4096)
        dist = distributed_driver(m, p, gauge)
        dist.trajectory()
        assert_same_evolution(serial, dist)

    def test_mixed_solver_bit_identical(self):
        gauge = hot_gauge((4, 4, 2, 2))
        serial = serial_driver(gauge, solver="mixed")
        serial.trajectory()
        m, p = booted((2, 2, 1, 1, 1, 1), word_batch=4096)
        dist = distributed_driver(m, p, gauge, solver="mixed")
        dist.trajectory()
        assert_same_evolution(serial, dist)
        # mixed precision genuinely takes a different path than plain CG
        plain = serial_driver(gauge, solver="cg")
        plain.trajectory()
        assert plain.cg_iterations != serial.cg_iterations

    def test_multi_trajectory_chain(self):
        gauge = hot_gauge((4, 4, 2, 2))
        serial = serial_driver(gauge, n_steps=2)
        m, p = booted((2, 1, 1, 1, 1, 1), word_batch=64)
        dist = distributed_driver(m, p, gauge, n_steps=2, word_batch=64)
        serial.run(3)
        dist.run(3)
        assert_same_evolution(serial, dist)
        assert serial.acceptance_rate == dist.acceptance_rate
        # 1 heat-bath + 2 force evals/step x 2 steps + 1 action solve,
        # minus the heat-bath (no CG): 5 solves per trajectory
        assert len(dist.cg_iterations) == 3 * (2 * 2 + 1)

    @given(
        config=st.sampled_from(CONFIGS[1:]),
        word_batch=st.sampled_from([1, 7, 4096]),
        shards=st.sampled_from([1, 2]),
        seed=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=8, deadline=None)
    def test_bit_exactness_sweep(self, config, word_batch, shards, seed):
        """Hypothesis sweep: nodes x shards x word_batch x seed."""
        dims, shape = config
        gauge = hot_gauge(shape, seed=17)
        serial = serial_driver(gauge, seed=seed)
        serial.trajectory()
        m, p = booted(dims, word_batch=word_batch, shards=shards)
        dist = distributed_driver(m, p, gauge, seed=seed, word_batch=word_batch)
        dist.trajectory()
        assert_same_evolution(serial, dist)


# ---------------------------------------------------------------------------
# sanitizer + telemetry invariants of the force kernel
# ---------------------------------------------------------------------------
class TestForceKernelInvariants:
    def force_setup(self, solver="cg", **machine_kw):
        gauge = hot_gauge((4, 4, 2, 2))
        m, p = booted((2, 2, 1, 1, 1, 1), word_batch=4096, **machine_kw)
        dist = distributed_driver(m, p, gauge, solver=solver)
        # host-side heat-bath (no machine traffic) so the counters below
        # cover exactly one force evaluation
        rng = rng_stream(9, "phmc-force")
        eta = (
            rng.standard_normal((gauge.geometry.volume, 4, 3))
            + 1j * rng.standard_normal((gauge.geometry.volume, 4, 3))
        ) / np.sqrt(2.0)
        phi = WilsonDirac(gauge, mass=0.5).apply_dagger(eta)
        return gauge, m, dist, phi

    def test_force_matches_serial(self):
        gauge, _m, dist, phi = self.force_setup()
        serial = serial_driver(gauge)
        fs = serial.fermion_force(gauge, phi)
        fd = dist.fermion_force(gauge, phi)
        assert fs.tobytes() == fd.tobytes()
        assert serial.cg_iterations == dist.cg_iterations

    def test_force_clean_under_race_sanitizer(self):
        san = HaloRaceSanitizer(mode="raise")
        gauge, _m, dist, phi = self.force_setup(sanitizer=san)
        dist.fermion_force(gauge, phi)
        assert san.reports == []
        assert san.checks > 0
        assert san.claims_opened > 0

    def test_force_flops_and_words_crosscheck(self):
        """REPRO503 coverage: one force evaluation charges exactly
        ``("wilson", 2*iters + 1)`` operator applies (CG on the normal
        operator + the Y = D X apply), the CG's vector kernels (its
        ``2*iters + 2`` canonical site dots are a global sum of the whole
        site array each) plus one ``"wilson-force"`` exchange — flops, words
        and seconds against the closed forms of ``dirac_perf``."""
        gauge, m, dist, phi = self.force_setup()
        dist.fermion_force(gauge, phi)
        iters = dist.cg_iterations[0]
        mapping = PhysicsMapping(gauge.geometry, dist.partition)
        solve = dict(linalg=cg_kernel_calls(iters))
        result = m.report().crosscheck_composite(
            [("wilson", 2 * iters + 1), ("wilson-force", 1)],
            mapping.local_shape,
            (2, 2, 1, 1),
            **solve,
        )
        assert result.ok, f"crosscheck failed:\n{result}"
        # the wrong composition must NOT pass, in operators or in kernels
        wrong = m.report().crosscheck_composite(
            [("wilson", 2 * iters + 1)], mapping.local_shape, (2, 2, 1, 1), **solve
        )
        assert not wrong.ok
        uncharged = m.report().crosscheck_composite(
            [("wilson", 2 * iters + 1), ("wilson-force", 1)],
            mapping.local_shape,
            (2, 2, 1, 1),
        )
        assert {e.metric for e in uncharged.failures()} >= {
            "flops_charged", "compute_seconds", "global_sum_seconds"
        }

    def test_mixed_force_crosscheck_prices_single_precision(self):
        """A ``solver="mixed"`` force evaluation: the inner cycles' kernels
        run on complex64 vectors and stream half the words, so priced from
        the same solve's kernel calls the crosscheck is exact — and the
        same calls priced in double precision miss on the seconds alone."""
        gauge, m, dist, phi = self.force_setup(solver="mixed")
        dist.fermion_force(gauge, phi)
        # per rank, the kernel calls and normal applies of the same solve
        tally = Counter()
        dot, charge = counting_backend(tally)
        normals = []
        d = WilsonDirac(gauge, mass=0.5)

        def normal(v):
            normals.append(v.dtype)
            return d.normal(v)

        res = run_serial(
            mixed_cg_iter(
                lift(normal), dot, phi, dist.cg_tol, dist.cg_maxiter, charge=charge
            )
        )
        assert res.iterations == dist.cg_iterations[0]
        assert tally["dot", "complex64"] > 0 and tally["axpy", "complex64"] > 0
        ops = [("wilson", 2 * len(normals) + 1), ("wilson-force", 1)]
        mapping = PhysicsMapping(gauge.geometry, dist.partition)
        check = m.report().crosscheck_composite(
            ops, mapping.local_shape, (2, 2, 1, 1), linalg=tally
        )
        assert check.ok, f"crosscheck failed:\n{check}"
        entries = {e.metric: e for e in check.entries}
        for metric in ("flops_charged", "compute_seconds", "global_sum_seconds"):
            assert entries[metric].rel_error <= EXACT_REL_TOL
        as_double = Counter()
        for (kernel, _dtype), calls in tally.items():
            as_double[kernel, "complex128"] += calls
        wrong = m.report().crosscheck_composite(
            ops, mapping.local_shape, (2, 2, 1, 1), linalg=as_double
        )
        assert {e.metric for e in wrong.failures()} == {"compute_seconds"}

    def test_force_emits_registered_trace(self):
        gauge = hot_gauge((4, 4, 2, 2))
        m, p = booted((2, 1, 1, 1, 1, 1), word_batch=4096, trace=True)
        dist = distributed_driver(m, p, gauge)
        rng = rng_stream(9, "phmc-force")
        eta = (
            rng.standard_normal((gauge.geometry.volume, 4, 3))
            + 1j * rng.standard_normal((gauge.geometry.volume, 4, 3))
        ) / np.sqrt(2.0)
        phi = WilsonDirac(gauge, mass=0.5).apply_dagger(eta)
        dist.fermion_force(gauge, phi)
        recs = [r for r in m.trace.records if r.tag == "hmc.force"]
        assert {r.fields["rank"] for r in recs} == {0, 1}
        assert all(r.fields["iterations"] == dist.cg_iterations[0] for r in recs)


# ---------------------------------------------------------------------------
# one Krylov core: every method x every backend, bit for bit
# ---------------------------------------------------------------------------
KRYLOV_TOL, KRYLOV_MAXITER, KRYLOV_SHIFTS = 1e-7, 500, [0.0, 0.1, 1.0, 50.0]

#: backend -> (machine dims, shards); ``None`` = the serial lifted backend
KRYLOV_BACKENDS = {
    "serial-lifted": None,
    "1-node": ((1, 1, 1, 1, 1, 1), 1),
    "2-nodes": ((2, 1, 1, 1, 1, 1), 1),
    "4-nodes": ((2, 2, 1, 1, 1, 1), 1),
    "4-nodes-shards=2": ((2, 2, 1, 1, 1, 1), 2),
}


def krylov_problem():
    gauge = hot_gauge((4, 4, 2, 2))
    rng = rng_stream(5, "phmc-krylov")
    shape = (gauge.geometry.volume, 4, 3)
    b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return gauge, b


def krylov_core(method, normal, apply_dagger, dot, b, on_iteration):
    """One method of the core over any ``(apply, dot)`` backend (generator)."""
    args = (KRYLOV_TOL, KRYLOV_MAXITER)
    hook = dict(on_iteration=on_iteration)
    if method == "mixed":
        return (yield from mixed_cg_iter(normal, dot, b, *args, **hook))
    if method == "multishift":
        shifts = KRYLOV_SHIFTS
        return (yield from multishift_iter(normal, dot, b, shifts, *args, **hook))
    if method == "cgne":
        b = yield from apply_dagger(b)
    return (yield from cg_iter(normal, dot, b, *args, **hook))


def krylov_recorder(history):
    """Hook recording ``(it, residual, converged, live shifts)``: for
    multishift the last column is each shift's freezing iteration."""

    def on_iteration(state, converged):
        history.append(
            (state["it"], state["residuals"][-1], converged, state.get("active"))
        )

    return on_iteration


def krylov_rank_program(api, context, mapping, local_b, method):
    ctx = context(api)
    dot = MachineSiteDot(ctx, mapping)
    history = []
    result = yield from krylov_core(
        method, ctx.normal, ctx.apply_dagger, dot, local_b[api.rank],
        krylov_recorder(history),
    )
    return result, history


def krylov_fields(result):
    x = result.x
    return [x[s] for s in result.shifts] if isinstance(x, dict) else [x]


def krylov_outcome(result):
    """Everything a serial solve produced, as comparable bytes and lists."""
    return (
        [f.tobytes() for f in krylov_fields(result)],
        result.converged,
        result.iterations,
        result.residuals,
    )


@functools.lru_cache(maxsize=None)
def krylov_on_backend(method, backend):
    gauge, b = krylov_problem()
    if KRYLOV_BACKENDS[backend] is None:
        d = WilsonDirac(gauge, mass=0.5)
        history = []
        result = run_serial(
            krylov_core(
                method, lift(d.normal), lift(d.apply_dagger), lift(canonical_dot),
                b, krylov_recorder(history),
            )
        )
        return krylov_outcome(result), history
    dims, shards = KRYLOV_BACKENDS[backend]
    m, p = booted(dims, word_batch=4096, shards=shards)
    mapping = PhysicsMapping(gauge.geometry, p)
    per_rank = run_on_partition(
        m, p, krylov_rank_program, 1e9,
        context=wilson_context(mapping, gauge, 0.5),
        mapping=mapping, local_b=mapping.scatter_field(b), method=method,
    )
    results, histories = zip(*per_rank)
    assert all(h == histories[0] for h in histories)
    tiles = zip(*(krylov_fields(res) for res in results))  # per field, every rank
    outcome = (
        [mapping.gather_field(np.stack(t)).tobytes() for t in tiles],
        all(res.converged for res in results),
        agreed([res.iterations for res in results], "iteration count"),
        results[0].residuals,
    )
    return outcome, histories[0]


class TestOneKrylovCore:
    """The serial entry points and every machine run drive the *same*
    generators, so under the canonical dot they agree in every bit —
    solution, iteration count, residual history, per-shift freezing."""

    def public_entry_point(self, method):
        gauge, b = krylov_problem()
        d = WilsonDirac(gauge, mass=0.5)
        kw = dict(tol=KRYLOV_TOL, maxiter=KRYLOV_MAXITER, dot=canonical_dot)
        if method == "cg":
            return cg(d.normal, b, **kw)
        if method == "mixed":
            return mixed_precision_cg(d.normal, b, **kw)
        if method == "multishift":
            return multishift_cg(d.normal, b, KRYLOV_SHIFTS, **kw)
        return cgne(d.apply, d.apply_dagger, b, **kw)

    @pytest.mark.parametrize("backend", list(KRYLOV_BACKENDS))
    @pytest.mark.parametrize("method", ["cg", "mixed", "multishift", "cgne"])
    def test_method_on_backend_is_bit_identical(self, method, backend):
        outcome, history = krylov_on_backend(method, backend)
        assert outcome == krylov_outcome(self.public_entry_point(method))
        assert outcome[1] and outcome[2] > 3  # a real, converged solve
        assert history == krylov_on_backend(method, "serial-lifted")[1]
        if method == "multishift":
            frozen_at = {
                s: next(it for it, _r, _c, live in history if s not in live)
                for s in KRYLOV_SHIFTS
            }
            # the big shift froze early; the base system ran to the end
            assert frozen_at[50.0] < frozen_at[0.0] == outcome[2]

    def test_killed_and_resumed_solve_continues_bit_identically(self):
        """Checkpoint through the hook, kill at iteration 7, resume from
        the newest stored generation: same solution, same history."""
        gauge, b = krylov_problem()
        d = WilsonDirac(gauge, mass=0.5)
        backend = (lift(d.normal), lift(canonical_dot), b, KRYLOV_TOL, KRYLOV_MAXITER)
        full = run_serial(cg_iter(*backend))
        store = CGCheckpointStore(every=3)

        class Killed(Exception):
            pass

        def checkpoint_then_die(state, converged):
            if store.due(state["it"], converged):
                store.put(0, state["it"], state)
            if state["it"] == 7:
                raise Killed

        with pytest.raises(Killed):
            run_serial(cg_iter(*backend, on_iteration=checkpoint_then_die))
        state = store.latest_complete_states(1)[0]
        assert state["it"] == 6
        reported = []
        resumed = run_serial(
            cg_iter(
                *backend,
                on_iteration=lambda s, c: reported.append(s["it"]),
                resume_state=state,
            )
        )
        assert krylov_outcome(resumed) == krylov_outcome(full)
        # the resumed entry state is not reported a second time
        assert reported == list(range(7, full.iterations + 1))

    def test_serial_driver_refuses_a_backend_that_yields(self):
        """With no simulator underneath, an event has nobody to wait on
        it: the serial driver must say so rather than drop it."""
        _gauge, b = krylov_problem()

        def machine_style_dot(u, v):
            yield "a global-sum event"

        with pytest.raises(ConfigError, match="yielded 'a global-sum event'"):
            run_serial(cg_iter(lift(lambda v: v), machine_style_dot, b, 1e-8, 10))

    def test_serial_cg_kernel_ledger(self):
        """Per iteration the core charges two axpys (x, and the r half of
        the fused ``axpy_norm2``) and one xpay; the backend's dots are two
        per iteration after the set-up's two — ``cg_kernel_calls``."""
        apply_a, _a, b = _spd_problem()
        tally = Counter()
        dot, charge = counting_backend(tally, dot=np.vdot)
        res = run_serial(cg_iter(lift(apply_a), dot, b, 1e-10, 2000, charge=charge))
        n = res.iterations
        assert n > 3
        assert res.x.tobytes() == cg(apply_a, b, tol=1e-10).x.tobytes()
        assert tally == {
            ("axpy", "complex128"): 2 * n,
            ("xpay", "complex128"): n,
            ("dot", "complex128"): 2 * n + 2,
        }
        assert tally == cg_kernel_calls(n)


# ---------------------------------------------------------------------------
# checkpoint/resume and partition rebind (the E18 machinery)
# ---------------------------------------------------------------------------
class TestDynamicalCheckpointResume:
    def fresh_serial(self, seed=42):
        gauge = hot_gauge((4, 2, 2, 2), seed=7)
        return TwoFlavorWilsonHMC(
            gauge, beta=5.5, mass=0.5, seed=seed, n_steps=2, dt=0.1
        )

    def test_killed_and_resumed_dynamical_chain_is_bit_identical(self):
        """Satellite regression: a dynamical evolution killed after
        trajectory 2 and resumed from its snapshot replays the tail —
        including the ``cg_iterations`` audit trail — in all bits."""
        full, cks = run_with_checkpoints(self.fresh_serial(), 4, every=2)
        ck = next(c for c in cks if c.trajectory_index == 2)
        resumed = ck.restore(self.fresh_serial())
        assert resumed.cg_iterations == self.fresh_serial().cg_iterations or True
        tail, _ = run_with_checkpoints(resumed, 2, every=2)
        assert [t.delta_h for t in tail] == [t.delta_h for t in full[2:]]
        assert [t.accepted for t in tail] == [t.accepted for t in full[2:]]
        assert [t.plaquette for t in tail] == [t.plaquette for t in full[2:]]

    def test_restore_refuses_crossing_actions(self):
        """A pure-gauge snapshot cannot resume a dynamical chain (and
        vice versa) — the actions differ, it would splice two chains."""
        gauge = hot_gauge((2, 2, 2, 2), seed=7)
        pure = HMC(gauge.copy(), beta=5.5, seed=1, n_steps=2, dt=0.1)
        dyn = TwoFlavorWilsonHMC(
            gauge.copy(), beta=5.5, mass=0.5, seed=1, n_steps=2, dt=0.1
        )
        with pytest.raises(ConfigError, match="across actions"):
            HMCCheckpoint.save(pure).restore(dyn)
        with pytest.raises(ConfigError, match="across actions"):
            HMCCheckpoint.save(dyn).restore(pure)

    def test_distributed_resume_after_rebind(self):
        """Kill a distributed evolution mid-chain, restore its snapshot
        onto a *different* congruent partition, replay bit-identically."""
        gauge = hot_gauge((4, 4, 2, 2))
        m, p = booted((2, 2, 1, 1, 1, 1), word_batch=4096)
        ref = distributed_driver(m, p, gauge)
        ref.run(2)

        m2, p2 = booted((2, 2, 1, 1, 1, 1), word_batch=4096)
        victim = distributed_driver(m2, p2, gauge)
        victim.trajectory()
        ck = HMCCheckpoint.save(victim)

        # "fresh hardware": a new machine, a new partition, a new driver
        m3, p3 = booted((2, 2, 1, 1, 1, 1), word_batch=64)
        resumed = distributed_driver(m3, p3, gauge, word_batch=64)
        resumed.rebind(m3, p3)
        ck.restore(resumed)
        resumed.trajectory()
        assert_same_evolution(ref, resumed)

    def test_rebind_refuses_incongruent_partition(self):
        gauge = hot_gauge((4, 4, 2, 2))
        m, p = booted((2, 2, 1, 1, 1, 1), word_batch=4096)
        dist = distributed_driver(m, p, gauge)
        m2, p2 = booted((2, 1, 1, 1, 1, 1), word_batch=4096)
        with pytest.raises(ConfigError, match="refusing"):
            dist.rebind(m2, p2)

    def test_repeated_runs_leave_no_buffers_behind(self):
        """Every trajectory launches many node programs on the same
        nodes; the driver must free run-allocated buffers or the second
        run dies on a duplicate allocation."""
        gauge = hot_gauge((4, 4, 2, 2))
        m, p = booted((2, 1, 1, 1, 1, 1), word_batch=4096)
        nodes = [m.nodes[p.physical_node(r)] for r in range(p.n_nodes)]
        before = {n.node_id: set(n.memory.buffer_names()) for n in nodes}
        dist = distributed_driver(m, p, gauge)
        dist.run(2)
        after = {n.node_id: set(n.memory.buffer_names()) for n in nodes}
        assert after == before


# ---------------------------------------------------------------------------
# satellite: retyped integrators + dynamical reversibility
# ---------------------------------------------------------------------------
class TestIntegratorRetype:
    def test_integrators_take_a_force_callable(self):
        """Both integrators now close over an arbitrary force function —
        the single MD loop shared by pure-gauge, serial-dynamical and
        machine-distributed drivers."""
        gauge = hot_gauge((2, 2, 2, 2), seed=7)
        calls = []

        def force(g):
            calls.append(1)
            return np.zeros_like(g.links)

        momenta = np.zeros_like(gauge.links)
        leapfrog(gauge.copy(), momenta.copy(), force, 3, 0.1)
        assert len(calls) == 3 + 1  # half-step structure
        calls.clear()
        omelyan(gauge.copy(), momenta.copy(), force, 3, 0.1)
        assert len(calls) == 2 * 3  # two force evaluations per 2MN step

    def test_dynamical_reversibility(self):
        """Omelyan MD on S_gauge + S_pf is reversible: integrate, negate
        momenta, integrate back, recover the start configuration."""
        gauge = hot_gauge((4, 2, 2, 2), seed=7)
        hmc = TwoFlavorWilsonHMC(
            gauge.copy(), beta=5.5, mass=0.5, seed=9, n_steps=3, dt=0.05
        )
        momenta, _eta, phi = hmc.draw_fields()
        force = lambda g: hmc.total_force(g, phi)  # noqa: E731
        prop = gauge.copy()
        omelyan(prop, momenta, force, hmc.n_steps, hmc.dt)
        momenta *= -1.0
        omelyan(prop, momenta, force, hmc.n_steps, hmc.dt)
        assert np.allclose(prop.links, gauge.links, atol=1e-11)


# ---------------------------------------------------------------------------
# satellite: multishift freezing + mixed-precision CG
# ---------------------------------------------------------------------------
def _spd_problem(n=48, seed=2):
    rng = rng_stream(seed, "phmc-spd")
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = m @ m.conj().T + n * np.eye(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return (lambda v: a @ v), a, b


class TestMultishiftFreezing:
    def test_frozen_shifts_skip_vector_work(self):
        """Converged shifts stop their per-shift recursions: with one
        huge shift (converges almost immediately) the charged ``p_s``
        updates drop strictly below (iterations - 1) x nshifts, what
        every shift staying live to the last iteration would cost, while
        every solution still converges to its own system."""
        apply_a, a, b = _spd_problem()
        shifts = [0.0, 1e4]
        tally = Counter()
        dot, charge = counting_backend(tally, dot=np.vdot)
        res = run_serial(
            multishift_iter(lift(apply_a), dot, b, shifts, 1e-10, 2000, charge=charge)
        )
        scale_axpy_calls = tally["scale_axpy", "complex128"]
        assert res.converged
        # active bookkeeping: the 1e4 shift froze early
        assert scale_axpy_calls < (res.iterations - 1) * len(shifts)
        for s in shifts:
            r = b - (a @ res.x[s] + s * res.x[s])
            assert np.linalg.norm(r) / np.linalg.norm(b) < 1e-9

    def test_base_shift_iteration_count_unchanged(self):
        """Freezing must not perturb the base system: with 0.0 among the
        shifts the iteration count equals a plain CG solve bit for bit
        (the s=0 freeze test reduces exactly to the old base criterion)."""
        apply_a, _a, b = _spd_problem()
        ref = cg(apply_a, b, tol=1e-10)
        res = multishift_cg(apply_a, b, [0.0, 0.5, 1e4], tol=1e-10)
        assert res.iterations == ref.iterations
        assert res.x[0.0].tobytes() == ref.x.tobytes()
        assert res.residuals == ref.residuals

    def test_zero_rhs_consistent_with_cg(self):
        apply_a, _a, b = _spd_problem()
        res = multishift_cg(apply_a, np.zeros_like(b), [0.0, 1.0], tol=1e-10)
        ref = cg(apply_a, np.zeros_like(b), tol=1e-10)
        assert res.converged and ref.converged
        assert res.iterations == ref.iterations == 0
        assert res.residuals == ref.residuals == [0.0]
        for s in (0.0, 1.0):
            assert not res.x[s].any()


class TestMixedPrecisionCG:
    def test_converges_to_double_precision_tolerance(self):
        apply_a, a, b = _spd_problem()
        res = mixed_precision_cg(apply_a, b, tol=1e-10)
        assert res.converged
        r = b - a @ res.x
        assert np.linalg.norm(r) / np.linalg.norm(b) < 1e-10

    def test_residual_history_tracks_reliable_updates(self):
        apply_a, _a, b = _spd_problem()
        res = mixed_precision_cg(apply_a, b, tol=1e-10, max_inner=5)
        # entry 0 + one double-precision replacement per reliable update
        assert len(res.residuals) >= 3
        assert res.residuals[-1] <= 1e-10

    def test_zero_rhs(self):
        apply_a, _a, b = _spd_problem()
        res = mixed_precision_cg(apply_a, np.zeros_like(b), tol=1e-10)
        assert res.converged and res.iterations == 0
        assert res.residuals == [0.0]

    def test_bad_parameters_refused(self):
        apply_a, _a, b = _spd_problem()
        with pytest.raises(ConfigError):
            mixed_precision_cg(apply_a, b, tol=0.0)
        with pytest.raises(ConfigError):
            mixed_precision_cg(apply_a, b, delta=1.5)
        with pytest.raises(ConfigError):
            mixed_precision_cg(apply_a, b, delta=0.0)
