"""The dollar cost model: bill of materials and price/performance (E6, E7).

Every line item below is quoted verbatim from paper section 4 ("they have
all been purchased on Columbia University purchase orders").  Note a
curiosity we preserve faithfully: the paper's printed component lines sum
to $1,608,733.55 but its printed total is $1,610,442 — a $1,708.45 gap
(presumably an unlisted small item); :attr:`BillOfMaterials.paper_total`
records the printed figure and the audit keeps both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.machine.asic import ASICConfig
from repro.util.errors import ConfigError
from repro.util.units import MHZ


@dataclass(frozen=True)
class CostLine:
    item: str
    quantity: int
    total_dollars: float


@dataclass
class BillOfMaterials:
    """A machine's purchased components + development proration."""

    name: str
    lines: List[CostLine]
    #: the total as printed in the paper (may differ from the line sum)
    paper_total: Optional[float] = None
    rnd_dollars: float = 0.0
    rnd_prorated_dollars: float = 0.0

    @property
    def component_total(self) -> float:
        return sum(line.total_dollars for line in self.lines)

    @property
    def machine_total(self) -> float:
        """The machine cost (the paper's printed total when available)."""
        return self.paper_total if self.paper_total is not None else self.component_total

    @property
    def total_with_rnd(self) -> float:
        return self.machine_total + self.rnd_prorated_dollars

    def audit(self) -> Dict[str, float]:
        return {
            "component_sum": self.component_total,
            "paper_total": self.machine_total,
            "discrepancy": self.machine_total - self.component_total,
            "with_rnd": self.total_with_rnd,
        }


#: Paper section 4, verbatim: the 4096-node Columbia machine.
QCDOC_4096_BOM = BillOfMaterials(
    name="columbia-4096",
    lines=[
        # "128 Mbytes of off-chip memory per node for one half of the
        #  nodes and 256 Mbytes for the other half"
        CostLine("daughterboards (2 nodes each)", 2048, 1_105_692.67),
        CostLine("motherboards", 64, 180_404.88),
        CostLine("water-cooled cabinets", 4, 187_296.00),
        CostLine("mesh network cables", 768, 71_040.00),
        CostLine("host computer + Ethernet switches + 6 TB RAID disks", 1, 64_300.00),
    ],
    paper_total=1_610_442.00,
    rnd_dollars=2_166_000.00,
    # "If this cost is prorated over all of the presently funded QCDOC
    #  machines, this represents an additional cost of $99,159"
    rnd_prorated_dollars=99_159.00,
)

#: the paper's grand total for the 4096-node machine
QCDOC_4096_TOTAL_WITH_RND = 1_709_601.00


def sustained_megaflops(
    n_nodes: int, clock_hz: float, efficiency: float = 0.45
) -> float:
    """Sustained Mflops: nodes x 2 flops/cycle x clock x efficiency."""
    if not 0 < efficiency <= 1:
        raise ConfigError(f"bad efficiency {efficiency}")
    return n_nodes * 2.0 * clock_hz * efficiency / 1e6


def price_performance(
    clock_hz: float,
    n_nodes: int = 4096,
    efficiency: float = 0.45,
    total_dollars: float = QCDOC_4096_TOTAL_WITH_RND,
) -> float:
    """Dollars per sustained Megaflops (the paper's headline metric).

    With the paper's own inputs (45% CG efficiency, $1,709,601):
    $1.29 at 360 MHz, $1.10 at 420 MHz, $1.03 at 450 MHz.
    """
    return total_dollars / sustained_megaflops(n_nodes, clock_hz, efficiency)


def price_performance_table(
    clocks=(360 * MHZ, 420 * MHZ, 450 * MHZ),
    **kwargs,
) -> List[Tuple[float, float]]:
    """Rows of ``(clock_hz, dollars_per_sustained_mflops)``."""
    return [(c, price_performance(c, **kwargs)) for c in clocks]


def volume_scaled_bom(n_nodes: int, discount: float = 0.08) -> BillOfMaterials:
    """Scale the 4096-node BOM to a larger machine with a volume discount.

    "For the full size 12,288 machines, the cost per node will be reduced,
    due to the discount from volume ordering" — the paper expects this to
    land "very close to our targeted $1 per sustained Megaflops"; an ~8%
    parts discount does exactly that at 450 MHz.
    """
    scale = n_nodes / 4096.0
    lines = [
        CostLine(l.item, max(1, int(l.quantity * scale)), l.total_dollars * scale * (1 - discount))
        for l in QCDOC_4096_BOM.lines
    ]
    return BillOfMaterials(
        name=f"qcdoc-{n_nodes}",
        lines=lines,
        paper_total=None,
        rnd_dollars=QCDOC_4096_BOM.rnd_dollars,
        rnd_prorated_dollars=QCDOC_4096_BOM.rnd_prorated_dollars * scale,
    )
