"""Package-layering rule (REPRO4xx, part 2).

The repository's import DAG mirrors the hardware stack: utilities and
the event simulator at the bottom, the machine model above them, the
physics (fermions/solvers) above *that*, and orchestration
(parallel/hmc/host) plus observability (telemetry/analysis) on top.
``repro.machine`` importing ``repro.fermions`` would weld the hardware
twin to one physics workload — exactly the coupling the paper's
general-purpose-machine argument (section 3) warns against.

Function-local imports are exempt: they are the sanctioned, visibly
marked escape hatch for facade upcalls (``QCDOCMachine.report`` →
``repro.telemetry``) and cannot create import cycles.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.analysis.engine import Finding, Project, Rule, register_rule
from repro.analysis.visitor import module_level_imports

#: package -> layer rank; module-level imports must flow downward
#: (importer rank >= importee rank; equal ranks may inter-import, e.g.
#: fermions <-> solvers are one physics layer)
LAYER_RANKS: Dict[str, int] = {
    "util": 0,
    "sim": 1,
    "lattice": 2,
    "machine": 3,
    "comms": 4,
    "fermions": 5,
    "solvers": 5,
    "perfmodel": 6,
    "telemetry": 7,
    "parallel": 8,
    "hmc": 8,
    "host": 8,
    "kernel": 8,
    "analysis": 9,
    # the job-service layer sits on top of everything it orchestrates
    # (host daemon, machine, solvers, telemetry); nothing below may
    # depend back on it
    "service": 10,
}


@register_rule
class LayeringRule(Rule):
    """Module-level imports must respect the package layer ranks."""

    rule_id = "REPRO403"
    name = "layering"
    summary = (
        "module-level imports must flow down the layer DAG (machine "
        "never up into fermions; upcalls go function-local)"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            my_rank = LAYER_RANKS.get(module.package)
            if my_rank is None:
                continue
            for stmt, target in module_level_imports(module.tree):
                parts = target.split(".")
                if parts[0] != "repro" or len(parts) < 2:
                    continue
                target_pkg = parts[1]
                target_rank = LAYER_RANKS.get(target_pkg)
                if target_rank is None:
                    continue
                if target_rank > my_rank:
                    yield self.finding(
                        module,
                        stmt,
                        f"cross-layer import: repro.{module.package} (layer "
                        f"{my_rank}) imports repro.{target_pkg} (layer "
                        f"{target_rank}) at module scope; invert the dependency "
                        "or make the upcall function-local",
                    )
