"""In-memory checkpoint store for distributed CG solves.

The paper's reliability machinery (section 2.2) guarantees that a run
which *finishes* moved no corrupt data; the companion papers'
12,288-node operating experience adds the case where a run does **not**
finish — a cable or daughterboard dies mid-solve and the host daemon
must restart the job on remapped hardware.  Because the distributed CG
accumulates its global sums in canonical rank order (bitwise
reproducible), the complete per-rank iteration state is a *sufficient*
checkpoint: resuming from it on any healthy partition of the same
logical shape continues the residual history bit for bit.

:class:`CGCheckpointStore` lives on the **host** side of the simulation
boundary (it models checkpoints streamed out over the Ethernet/JTAG
service network, not node DRAM), so a node death never takes its own
checkpoint down with it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.util.errors import ConfigError

#: per-rank CG state captured at the *end* of an iteration; together with
#: the (deterministic) operator this fully determines the remaining run
CG_STATE_KEYS = ("it", "x", "resid", "p", "rr", "bb", "residuals")

#: complete generations a store keeps when it prunes: the newest, which a
#: resume loads, and the one before it
KEEP_GENERATIONS = 2


class CGCheckpointStore:
    """Host-side store of per-rank CG iteration state.

    ``every`` sets the checkpoint cadence in iterations; iteration 0 (the
    state right after the initial residual) is always stored, so a fault
    before the first periodic checkpoint still resumes rather than
    restarts.  :meth:`put` deep-copies the arrays — the solver keeps
    mutating its own buffers in place.

    A checkpoint generation is *complete* only when every rank has stored
    the same iteration; :meth:`latest_complete_states` returns the newest
    such generation (ranks can sit an iteration apart mid-stride when a
    fault hits between their ``put`` calls).
    """

    def __init__(self, every: int = 10):
        if every < 1:
            raise ConfigError(f"checkpoint cadence must be >= 1, got {every}")
        self.every = int(every)
        #: iteration -> rank -> state dict
        self._generations: Dict[int, Dict[int, dict]] = {}
        self.puts = 0

    # -- solver side -------------------------------------------------------
    def due(self, iteration: int, converged: bool) -> bool:
        """Should the solver checkpoint at the end of this iteration?"""
        return iteration == 0 or converged or iteration % self.every == 0

    def put(self, rank: int, iteration: int, state: dict) -> None:
        """Store one rank's end-of-iteration state (deep-copied)."""
        missing = [k for k in CG_STATE_KEYS if k not in state]
        if missing:
            raise ConfigError(f"checkpoint state missing keys {missing}")
        snap = {
            "it": int(state["it"]),
            "x": np.array(state["x"], copy=True),
            "resid": np.array(state["resid"], copy=True),
            "p": np.array(state["p"], copy=True),
            "rr": float(state["rr"]),
            "bb": float(state["bb"]),
            "residuals": list(state["residuals"]),
        }
        self._generations.setdefault(int(iteration), {})[int(rank)] = snap
        self.puts += 1

    # -- host side ---------------------------------------------------------
    def complete_iterations(self, n_ranks: int) -> List[int]:
        """Sorted iterations at which *every* rank has stored state."""
        return sorted(
            it
            for it, ranks in self._generations.items()
            if len(ranks) == n_ranks
        )

    def has_complete_generation(self, n_ranks: int) -> bool:
        """True once some generation has every rank's state.

        A pure query (no pruning) — the service layer's preemption gate:
        a victim is only revoked once this holds, so "checkpoint before
        revoke" is an invariant rather than a race.
        """
        return bool(self.complete_iterations(n_ranks))

    def latest_complete_states(self, n_ranks: int) -> Optional[Dict[int, dict]]:
        """Newest complete generation as ``{rank: state}``, or ``None``.

        Also prunes older generations down to the newest
        :data:`KEEP_GENERATIONS` complete ones — the store
        models a bounded host-side ring, not an ever-growing archive.
        """
        complete = self.complete_iterations(n_ranks)
        if not complete:
            return None
        latest = complete[-1]
        for it in sorted(self._generations):
            if it not in complete[-KEEP_GENERATIONS:]:
                del self._generations[it]
        return self._generations[latest]

    def clear(self) -> None:
        self._generations.clear()

    def __len__(self) -> int:
        return len(self._generations)

    def __repr__(self) -> str:
        return (
            f"CGCheckpointStore(every={self.every}, "
            f"{len(self._generations)} generations, {self.puts} puts)"
        )
