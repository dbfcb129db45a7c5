"""Min-cost max-flow solver — the general substrate standing in for OR-Tools.

The paper solves the Multi-Commodity Network Flow formulation of LC request
scheduling (§5.2) with Google OR-Tools.  OR-Tools is not available offline, so
we implement an integral min-cost max-flow solver from scratch using the
successive-shortest-path (SSP) algorithm with Johnson potentials: an initial
Bellman-Ford pass handles arbitrary costs, and all subsequent augmentations
run Dijkstra on reduced costs.

The solver operates on integer capacities and integer (scaled) costs.  No
scheduler calls it: every DSS-LC graph, with link capacities shared or not, is a star and is
solved in closed form by :mod:`repro.flow.graph`, which reproduces this
solver's flow exactly.  It stays as the tie-rule oracle of that fill in the
tests and as a section that ``perfbench`` traces.

Storage is flat parallel arrays (src/dst/capacity/cost/flow per arc) rather
than per-arc objects, which are cheaper to walk in the Dijkstra inner loop.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["MinCostMaxFlow", "FlowEdge", "FlowResult"]

_INF = float("inf")


@dataclass
class FlowEdge:
    """One directed arc in the residual network (a read view of the arrays)."""

    src: int
    dst: int
    capacity: int
    cost: int
    flow: int = 0

    @property
    def residual(self) -> int:
        return self.capacity - self.flow


@dataclass
class FlowResult:
    """Outcome of a max-flow computation."""

    flow: int
    cost: int
    #: flow carried by each *forward* edge, in the order edges were added.
    edge_flows: List[int] = field(default_factory=list)


class MinCostMaxFlow:
    """Successive-shortest-path min-cost max-flow on integer networks.

    Usage::

        net = MinCostMaxFlow(n_nodes)
        e0 = net.add_edge(src, dst, capacity, cost)
        result = net.solve(source, sink)
        result.edge_flows[e0]   # flow routed over the first edge

    Negative costs are accepted (a single Bellman-Ford pass initialises the
    potentials); negative *cycles* are not supported and will raise.
    """

    def __init__(self, n_nodes: int) -> None:
        if n_nodes <= 0:
            raise ValueError("flow network needs at least one node")
        self.n = n_nodes
        # flat parallel arrays; forward arcs at even indices, their residual
        # twins at odd indices (twin of arc i is i ^ 1).
        self._src: List[int] = []
        self._dst: List[int] = []
        self._cap: List[int] = []
        self._cost: List[int] = []
        self._flow: List[int] = []
        self._adj: List[List[int]] = [[] for _ in range(n_nodes)]
        self._has_negative_cost = False
        #: cumulative shortest-path augmentations over all solves.
        self.augmentations = 0

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_edge(self, src: int, dst: int, capacity: int, cost: int) -> int:
        """Add a forward arc and its residual twin; return the forward index.

        The returned index identifies the edge in ``FlowResult.edge_flows``
        (forward edges occupy even slots internally; the public index is the
        count of forward edges added so far).
        """
        self._check_node(src)
        self._check_node(dst)
        if capacity < 0:
            raise ValueError(f"negative capacity {capacity}")
        if cost < 0:
            self._has_negative_cost = True
        cost = int(cost)
        base = len(self._src)
        self._src.extend((src, dst))
        self._dst.extend((dst, src))
        self._cap.extend((int(capacity), 0))
        self._cost.extend((cost, -cost))
        self._flow.extend((0, 0))
        self._adj[src].append(base)
        self._adj[dst].append(base + 1)
        return base // 2

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n:
            raise ValueError(f"node {node} outside [0, {self.n})")

    @property
    def n_edges(self) -> int:
        return len(self._src) // 2

    # ------------------------------------------------------------------ #
    # solving
    # ------------------------------------------------------------------ #
    def solve(
        self,
        source: int,
        sink: int,
        max_flow: Optional[int] = None,
    ) -> FlowResult:
        """Push up to ``max_flow`` units (default: maximum) at minimum cost."""
        self._check_node(source)
        self._check_node(sink)
        if source == sink:
            raise ValueError("source and sink must differ")
        limit = _INF if max_flow is None else int(max_flow)
        potential = self._initial_potentials(source)
        total_flow = 0
        total_cost = 0

        cap, cost, flow, src = self._cap, self._cost, self._flow, self._src
        while total_flow < limit:
            dist, parent_edge = self._dijkstra(source, potential)
            if dist[sink] == _INF:
                break
            self.augmentations += 1
            for v in range(self.n):
                if dist[v] < _INF:
                    potential[v] += dist[v]
            # find bottleneck along the path
            push = limit - total_flow
            v = sink
            while v != source:
                idx = parent_edge[v]
                residual = cap[idx] - flow[idx]
                if residual < push:
                    push = residual
                v = src[idx]
            # apply
            v = sink
            while v != source:
                idx = parent_edge[v]
                flow[idx] += push
                flow[idx ^ 1] -= push
                total_cost += push * cost[idx]
                v = src[idx]
            total_flow += push

        edge_flows = [
            f if f > 0 else 0 for f in flow[::2]
        ]
        return FlowResult(flow=total_flow, cost=total_cost, edge_flows=edge_flows)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _initial_potentials(self, source: int) -> List[float]:
        if not self._has_negative_cost:
            return [0.0] * self.n
        # Bellman-Ford over residual arcs with positive capacity.
        dist = [_INF] * self.n
        dist[source] = 0.0
        cap, cost, flow = self._cap, self._cost, self._flow
        src, dst = self._src, self._dst
        n_arcs = len(src)
        for iteration in range(self.n):
            changed = False
            for idx in range(n_arcs):
                if (
                    cap[idx] - flow[idx] > 0
                    and dist[src[idx]] + cost[idx] < dist[dst[idx]]
                ):
                    dist[dst[idx]] = dist[src[idx]] + cost[idx]
                    changed = True
            if not changed:
                break
        else:
            raise ValueError("negative-cost cycle detected")
        return [d if d < _INF else 0.0 for d in dist]

    def _dijkstra(
        self, source: int, potential: List[float]
    ) -> Tuple[List[float], List[int]]:
        dist = [_INF] * self.n
        parent_edge = [-1] * self.n
        dist[source] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, source)]
        cap, cost, flow = self._cap, self._cost, self._flow
        dst, adj = self._dst, self._adj
        push, pop = heapq.heappush, heapq.heappop
        while heap:
            d, u = pop(heap)
            if d > dist[u]:
                continue
            pot_u = potential[u]
            for idx in adj[u]:
                if cap[idx] - flow[idx] <= 0:
                    continue
                v = dst[idx]
                reduced = cost[idx] + pot_u - potential[v]
                nd = d + reduced
                if nd < dist[v] - 1e-12:
                    dist[v] = nd
                    parent_edge[v] = idx
                    push(heap, (nd, v))
        return dist, parent_edge

    # ------------------------------------------------------------------ #
    # introspection (used by tests)
    # ------------------------------------------------------------------ #
    def edge(self, public_index: int) -> FlowEdge:
        """Return the forward edge for a public index from :meth:`add_edge`."""
        internal = public_index * 2
        if not 0 <= internal < len(self._src):
            raise IndexError(public_index)
        return FlowEdge(
            src=self._src[internal],
            dst=self._dst[internal],
            capacity=self._cap[internal],
            cost=self._cost[internal],
            flow=self._flow[internal],
        )

    def flow_conservation_violations(self, source: int, sink: int) -> Dict[int, int]:
        """Net flow imbalance per node, excluding source/sink (should be {})."""
        balance = [0] * self.n
        src, dst, flow = self._src, self._dst, self._flow
        for i in range(0, len(src), 2):
            f = flow[i]
            if f > 0:
                balance[src[i]] -= f
                balance[dst[i]] += f
        return {
            v: b
            for v, b in enumerate(balance)
            if b != 0 and v not in (source, sink)
        }
