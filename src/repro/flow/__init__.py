"""Min-cost flow substrate (stands in for OR-Tools in DSS-LC)."""

from .graph import TransportResult, solve_transport
from .mcmf import FlowEdge, FlowResult, MinCostMaxFlow
from .multicommodity import (
    Commodity,
    MultiCommodityResult,
    SharedLink,
    solve_sequential,
)

__all__ = [
    "MinCostMaxFlow",
    "FlowEdge",
    "FlowResult",
    "TransportResult",
    "solve_transport",
    "Commodity",
    "SharedLink",
    "MultiCommodityResult",
    "solve_sequential",
]
