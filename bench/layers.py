"""Source file -> layer map for the cProfile (``P``) shares.

Layers are named after ``src/repro/`` modules.  A file is looked up by
its path relative to ``src/repro/``: an exact entry in ``FILE_LAYER``
wins, otherwise the entry of its top-level package in ``PACKAGE_LAYER``.
Everything outside ``src/repro/`` (numpy, builtins, the standard library,
this benchmark's own files) is ``other``.

``bench/tests`` asserts that every file under ``src/repro/`` is covered.
At run time an uncovered file is *reported* (``unmapped`` in the trace
output) and counted as ``other`` instead of aborting the run: a later
change that adds a module may not edit the benchmark, and must still be
measurable by it.
"""

from pathlib import PurePosixPath
from typing import Dict, Optional

OTHER = "other"

#: every layer that owns a ``<layer>.self_share`` metric
LAYERS = (
    "sim.core",
    "sim.shard",
    "machine.machine",
    "machine.scu",
    "machine.hssl",
    "machine.replay",
    "machine.globalops",
    "comms",
    "parallel",
    "fermions",
    "lattice",
    "solvers",
    "hmc",
    "host",
    "service",
    "telemetry",
    OTHER,
)

#: files whose layer differs from their package's
FILE_LAYER: Dict[str, str] = {
    "__init__.py": OTHER,
    "sim/shard.py": "sim.shard",
    "sim/sync.py": "sim.shard",
    "machine/scu.py": "machine.scu",
    "machine/hssl.py": "machine.hssl",
    "machine/network.py": "machine.hssl",
    "machine/packets.py": "machine.hssl",
    "machine/replay.py": "machine.replay",
    "machine/globalops.py": "machine.globalops",
}

#: top-level package of ``src/repro/`` -> layer of its remaining files
PACKAGE_LAYER: Dict[str, str] = {
    "sim": "sim.core",
    "machine": "machine.machine",
    "comms": "comms",
    "parallel": "parallel",
    "fermions": "fermions",
    "lattice": "lattice",
    "solvers": "solvers",
    "hmc": "hmc",
    "host": "host",
    "service": "service",
    "telemetry": "telemetry",
    "perfmodel": OTHER,
    "util": OTHER,
    "kernel": OTHER,
    "analysis": OTHER,
}


def layer_of(relpath: str) -> Optional[str]:
    """Layer of a file given relative to ``src/repro/``; None if unmapped."""
    rel = PurePosixPath(relpath).as_posix()
    if rel in FILE_LAYER:
        return FILE_LAYER[rel]
    return PACKAGE_LAYER.get(rel.split("/", 1)[0]) if "/" in rel else None
