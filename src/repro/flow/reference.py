"""Obviously-correct reference implementations used as differential oracles.

Two independent re-implementations live here, deliberately written for
clarity over speed:

* :class:`ReferenceMCMF` — a textbook Bellman-Ford successive-shortest-paths
  min-cost max-flow.  No potentials: every augmentation re-runs
  Bellman-Ford on the residual network.  It is the oracle the property
  tests compare the flat-array solver in :mod:`repro.flow.mcmf` and the
  closed-form star solve in :mod:`repro.flow.graph` against — equal
  max-flow value and equal minimum cost on any graph the production path
  can produce.  It takes equal-cost paths in plain arc order, so where
  the optimum is not unique its split can differ from theirs.

* :func:`eq2_capacities_scalar` / :func:`node_units_scalar` — plain-Python
  re-statements of the vectorized Eq. 2 capacity math in
  :mod:`repro.scheduling.dss_lc`.  The scalar path mirrors the numpy
  operations step for step (including ``int()`` truncation matching
  ``.astype(int64)`` on non-negative values) so any divergence points at a
  real semantic drift in the hot path, not float noise.

Nothing here is performance-sensitive; keep it boring.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .mcmf import FlowResult

__all__ = [
    "ReferenceMCMF",
    "node_units_scalar",
    "eq2_capacities_scalar",
]

_INF = float("inf")


class ReferenceMCMF:
    """Bellman-Ford successive-shortest-paths MCMF, kept deliberately simple.

    API mirrors the subset of :class:`repro.flow.mcmf.MinCostMaxFlow` the
    tests exercise: ``add_edge`` returns a public forward-edge index, and
    ``solve`` returns a :class:`FlowResult` whose ``edge_flows`` line up with
    those indices.
    """

    def __init__(self, n_nodes: int) -> None:
        if n_nodes <= 0:
            raise ValueError("flow network needs at least one node")
        self.n = n_nodes
        # twin-arc storage: forward arc 2k, residual twin 2k+1
        self._src: List[int] = []
        self._dst: List[int] = []
        self._cap: List[int] = []
        self._cost: List[int] = []
        self._flow: List[int] = []

    def add_edge(self, src: int, dst: int, capacity: int, cost: int) -> int:
        for node in (src, dst):
            if not 0 <= node < self.n:
                raise ValueError(f"node {node} outside [0, {self.n})")
        if capacity < 0:
            raise ValueError(f"negative capacity {capacity}")
        base = len(self._src)
        self._src.extend((src, dst))
        self._dst.extend((dst, src))
        self._cap.extend((int(capacity), 0))
        self._cost.extend((int(cost), -int(cost)))
        self._flow.extend((0, 0))
        return base // 2

    def _bellman_ford(
        self, source: int
    ) -> Tuple[List[float], List[int]]:
        dist = [_INF] * self.n
        parent_edge = [-1] * self.n
        dist[source] = 0.0
        n_arcs = len(self._src)
        for _ in range(self.n):
            changed = False
            for idx in range(n_arcs):
                if self._cap[idx] - self._flow[idx] <= 0:
                    continue
                u, v = self._src[idx], self._dst[idx]
                nd = dist[u] + self._cost[idx]
                if nd < dist[v] - 1e-12:
                    dist[v] = nd
                    parent_edge[v] = idx
                    changed = True
            if not changed:
                break
        else:
            raise ValueError("negative-cost cycle detected")
        return dist, parent_edge

    def solve(
        self, source: int, sink: int, max_flow: Optional[int] = None
    ) -> FlowResult:
        if source == sink:
            raise ValueError("source and sink must differ")
        limit = _INF if max_flow is None else int(max_flow)
        total_flow = 0
        total_cost = 0
        while total_flow < limit:
            dist, parent_edge = self._bellman_ford(source)
            if dist[sink] == _INF:
                break
            push = limit - total_flow
            v = sink
            while v != source:
                idx = parent_edge[v]
                push = min(push, self._cap[idx] - self._flow[idx])
                v = self._src[idx]
            v = sink
            while v != source:
                idx = parent_edge[v]
                self._flow[idx] += push
                self._flow[idx ^ 1] -= push
                total_cost += push * self._cost[idx]
                v = self._src[idx]
            total_flow += push
        edge_flows = [f if f > 0 else 0 for f in self._flow[::2]]
        return FlowResult(
            flow=total_flow, cost=total_cost, edge_flows=edge_flows
        )

    def flow_conservation_violations(self, source: int, sink: int):
        balance = [0] * self.n
        for i in range(0, len(self._src), 2):
            f = self._flow[i]
            if f > 0:
                balance[self._src[i]] -= f
                balance[self._dst[i]] += f
        return {
            v: b
            for v, b in enumerate(balance)
            if b != 0 and v not in (source, sink)
        }


# ---------------------------------------------------------------------- #
# scalar Eq. 2 capacity math
# ---------------------------------------------------------------------- #
def node_units_scalar(
    cpu: float, mem: float, r_cpu: float, r_mem: float
) -> int:
    """How many requests of a type fit in (cpu, mem) — scalar Eq. 2 core.

    Mirrors ``min(cpu/r_cpu, mem/r_mem).astype(int64)`` in the vectorized
    path: plain truncation toward zero, identical for the non-negative
    inputs both paths operate on.
    """
    if r_cpu <= 0.0 or r_mem <= 0.0:
        return 0
    return int(min(cpu / r_cpu, mem / r_mem))


def eq2_capacities_scalar(
    cpu_available: Sequence[float],
    mem_available: Sequence[float],
    cpu_total: Sequence[float],
    mem_total: Sequence[float],
    lc_queue: Sequence[int],
    r_cpu: Sequence[float],
    r_mem: Sequence[float],
    target_fill: float,
) -> List[int]:
    """Per-node immediate dispatch capacity (Eq. 2 with target-fill holdback).

    One node at a time, no numpy: effective headroom is available resources
    minus the (1 - target_fill) holdback fraction of the node's totals,
    floored at zero; unit count is the binding min over CPU and memory (with
    the node's per-request minima ``r_cpu[i]``/``r_mem[i]``, which the
    re-assurance mechanism adjusts per node); the node's own LC queue backlog
    is deducted last.
    """
    hold = 1.0 - target_fill
    caps: List[int] = []
    for i in range(len(cpu_available)):
        cpu_eff = max(0.0, cpu_available[i] - hold * cpu_total[i])
        mem_eff = max(0.0, mem_available[i] - hold * mem_total[i])
        units = node_units_scalar(cpu_eff, mem_eff, r_cpu[i], r_mem[i])
        caps.append(max(0, units - int(lc_queue[i])))
    return caps
