"""Min-cost flow substrate (stands in for OR-Tools in DSS-LC).

DSS-LC solves every graph in closed form with :func:`solve_transport`.
:class:`MinCostMaxFlow` is the general successive-shortest-path solver the
fill is checked against in the tests; no scheduler calls it.
"""

from .graph import TransportResult, solve_transport
from .mcmf import FlowEdge, FlowResult, MinCostMaxFlow

__all__ = [
    "MinCostMaxFlow",
    "FlowEdge",
    "FlowResult",
    "TransportResult",
    "solve_transport",
]
