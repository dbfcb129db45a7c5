"""Multi-commodity coordination over shared link capacities.

§5.2.1 formulates LC dispatch as a *Multi-Commodity* Network Flow: every
request type ``k`` is a commodity with its own supply/demand pattern, but
Eq. 4's transmission capacities ``c_{i,j}`` are shared across commodities.
Integral MCNF is NP-hard in general; practical traffic-engineering systems
(and OR-Tools-based pipelines like the paper's) solve it with sequential
single-commodity passes over a shared residual network, which is what this
module implements:

1. commodities are ordered (most-constrained first by default: least
   capacity slack per unit of demand);
2. each commodity runs a min-cost max-flow on the network with the *current
   residual* link capacities;
3. its flow is subtracted from the shared links before the next commodity.

The result is feasible by construction (never exceeds shared capacity) and
optimal per commodity given the residuals — the standard sequential
heuristic.  A ``rounds`` parameter re-runs the sequence with rotated
ordering to reduce order bias.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .graph import COST_SCALE
from .mcmf import MinCostMaxFlow

__all__ = ["Commodity", "SharedLink", "MultiCommodityResult", "solve_sequential"]


@dataclass
class Commodity:
    """One request type's supply/demand over the shared node set.

    ``supplies[i] > 0``: node i must ship that many units of this commodity;
    ``supplies[i] < 0``: node i can absorb that many units.
    """

    name: str
    supplies: List[int]


@dataclass
class SharedLink:
    src: int
    dst: int
    delay_ms: float
    capacity: int


@dataclass
class MultiCommodityResult:
    #: commodity name → {(src, dst): flow}
    flows: Dict[str, Dict[Tuple[int, int], int]]
    #: commodity name → units successfully routed
    placed: Dict[str, int]
    #: total delay cost over all commodities (ms · units)
    total_delay_ms: float
    #: remaining capacity per link after all commodities
    residual: Dict[Tuple[int, int], int]

    def link_usage(self) -> Dict[Tuple[int, int], int]:
        usage: Dict[Tuple[int, int], int] = {}
        for flows in self.flows.values():
            for key, f in flows.items():
                usage[key] = usage.get(key, 0) + f
        return usage


def _constraint_score(commodity: Commodity) -> float:
    """Demand volume; larger = scheduled earlier (most constrained first)."""
    return float(sum(s for s in commodity.supplies if s > 0))


def solve_sequential(
    n_nodes: int,
    commodities: Sequence[Commodity],
    links: Sequence[SharedLink],
    *,
    rounds: int = 1,
) -> MultiCommodityResult:
    """Route every commodity over the shared links (sequential heuristic).

    With ``rounds > 1`` the commodity order rotates each round and only the
    best round (most total units placed, ties broken by lower delay) is
    returned.
    """
    if n_nodes <= 0:
        raise ValueError("need at least one node")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")

    ordered = sorted(commodities, key=_constraint_score, reverse=True)
    best: Optional[MultiCommodityResult] = None
    for round_idx in range(rounds):
        rotation = ordered[round_idx % max(1, len(ordered)):] + ordered[
            : round_idx % max(1, len(ordered))
        ]
        result = _one_pass(n_nodes, rotation, links)
        if best is None or _better(result, best):
            best = result
    assert best is not None
    return best


def _better(a: MultiCommodityResult, b: MultiCommodityResult) -> bool:
    pa, pb = sum(a.placed.values()), sum(b.placed.values())
    if pa != pb:
        return pa > pb
    return a.total_delay_ms < b.total_delay_ms


def _one_pass(
    n_nodes: int,
    commodities: Sequence[Commodity],
    links: Sequence[SharedLink],
) -> MultiCommodityResult:
    residual: Dict[Tuple[int, int], int] = {}
    for link in links:
        key = (link.src, link.dst)
        residual[key] = residual.get(key, 0) + link.capacity
    delay_of: Dict[Tuple[int, int], float] = {
        (l.src, l.dst): l.delay_ms for l in links
    }

    flows: Dict[str, Dict[Tuple[int, int], int]] = {}
    placed: Dict[str, int] = {}
    total_delay = 0.0

    for commodity in commodities:
        if len(commodity.supplies) != n_nodes:
            raise ValueError(
                f"commodity {commodity.name}: supplies length "
                f"{len(commodity.supplies)} != n_nodes {n_nodes}"
            )
        source, sink = n_nodes, n_nodes + 1
        net = MinCostMaxFlow(n_nodes + 2)
        for i, s in enumerate(commodity.supplies):
            if s > 0:
                net.add_edge(source, i, s, 0)
            elif s < 0:
                net.add_edge(i, sink, -s, 0)
        edge_keys: List[Tuple[int, Tuple[int, int]]] = []
        for key, cap in residual.items():
            if cap <= 0:
                continue
            cost = max(0, int(round(delay_of[key] * COST_SCALE)))
            idx = net.add_edge(key[0], key[1], cap, cost)
            edge_keys.append((idx, key))
        solved = net.solve(source, sink)

        commodity_flows: Dict[Tuple[int, int], int] = {}
        for idx, key in edge_keys:
            f = solved.edge_flows[idx]
            if f > 0:
                commodity_flows[key] = f
                residual[key] -= f
                total_delay += f * delay_of[key]
        flows[commodity.name] = commodity_flows
        placed[commodity.name] = solved.flow

    return MultiCommodityResult(
        flows=flows,
        placed=placed,
        total_delay_ms=total_delay,
        residual=residual,
    )
