"""Scaling smoke test: a 64-node machine booted and exercised in shards.

ISSUE E16's mid-size checkpoint between the 8-node determinism suite
(:mod:`tests.test_sim_sharding`) and the 256-node benchmark sweep
(:mod:`benchmarks.bench_e16_sim_scaling`): boot a 2^6 torus under
``shards=4`` (batched link training), run one distributed Wilson dslash
over all 64 ranks, and audit the cross-shard conservation laws:

* every word sent across a shard boundary was received — per-link
  send-unit vs recv-unit payload counters agree on every boundary cable,
  and the end-of-run checksum audit is clean;
* quiesce drains the machine — ``in_flight_words == 0`` for every shard
  and globally, with the global figure computed through the telemetry
  :func:`~repro.telemetry.merge_samples` shard-merge path.
"""

from collections import defaultdict

import numpy as np
import pytest

from repro.fermions import WilsonDirac
from repro.telemetry import merge_samples
from tests.harness import applied, booted, system

pytestmark = pytest.mark.sharding

DIMS_64 = (2, 2, 2, 2, 2, 2)
GROUPS_64 = [(0,), (1,), (2,), (3, 4, 5)]  # logical (2, 2, 2, 8)
SHARDS = 4


@pytest.fixture(scope="module")
def sharded_64():
    """One booted-and-exercised 64-node machine shared by the asserts."""
    m, part = booted(
        DIMS_64, GROUPS_64, word_batch=4096, shards=SHARDS, trace=True
    )
    assert int(np.prod(part.logical_dims)) == 64
    gauge, psi = system((64, "scaling-smoke"), (4, 4, 4, 16))
    out = applied(m, part, "wilson", gauge, psi, mass=0.2)
    m.quiesce()
    return m, gauge, psi, out


def test_boot_and_dslash_correct(sharded_64):
    m, gauge, psi, out = sharded_64
    assert m.shards == SHARDS
    # batched boot trained every cable of the 2^6 torus
    assert all(link.trained for link in m.network.links.values())
    assert len(m.network.links) == 64 * 12
    # every shard owns a contiguous quarter of the mesh
    assert [m.shard_of(i) for i in (0, 15, 16, 31, 32, 47, 48, 63)] == [
        0, 0, 1, 1, 2, 2, 3, 3,
    ]
    expect = WilsonDirac(gauge, mass=0.2).apply(psi)
    assert np.allclose(out, expect, atol=1e-12)


def test_cross_boundary_sent_equals_received(sharded_64):
    m, _, _, _ = sharded_64
    topo = m.topology
    boundary = 0
    for (src, direction), link in sorted(m.network.links.items()):
        dst = topo.neighbour_by_direction(src, direction)
        if m.shard_of(src) == m.shard_of(dst):
            continue
        boundary += 1
        arrival = topo.opposite(direction)
        sent = m.nodes[src].scu.send_units[direction].payload_words
        recvd = m.nodes[dst].scu.recv_units[arrival].payload_words
        assert sent == recvd, (
            f"boundary link n{src}.d{direction}->n{dst}: "
            f"{sent} words sent, {recvd} received"
        )
        assert link.frames_dropped == 0
    # the 2^6 torus sharded 4 ways has real boundary traffic to conserve
    assert boundary > 0
    assert m.audit_checksums() == []


def test_quiesce_leaves_nothing_in_flight(sharded_64):
    m, _, _, _ = sharded_64
    # per shard: direct unit counters
    per_shard = defaultdict(int)
    for node_id, node in sorted(m.nodes.items()):
        per_shard[m.shard_of(node_id)] += node.scu.in_flight_words()
    assert set(per_shard) == set(range(SHARDS))
    assert all(v == 0 for v in per_shard.values()), dict(per_shard)

    # globally: through the telemetry shard-merge path — slice one
    # counter sample into per-shard sub-samples and merge them back
    sample = m.counters()
    shard_samples = []
    for shard in range(SHARDS):
        nodes = {n for n in m.nodes if m.shard_of(n) == shard}
        shard_samples.append(
            {
                path: value
                for path, value in sample.items()
                if path.startswith("node") and int(path.split(".")[0][4:]) in nodes
            }
        )
    merged = merge_samples(shard_samples)
    in_flight = [v for p, v in merged.items() if p.endswith(".in_flight_words")]
    assert len(in_flight) == 64
    assert sum(in_flight) == 0
    # the merge is lossless: node-scoped paths re-sum to the full sample
    for path, value in merged.items():
        assert value == sample[path]
