"""DSS-LC: Distributed Service request Scheduling for LC requests (§5.2).

Each master runs this algorithm on its own LC queue every tick, making
"one-time decisions for the dynamic number of requests":

1. requests are grouped by type ``k``;
2. node supply/demand terms are computed — the master supplies its pending
   count ``t_k``, every eligible worker absorbs
   ``|t_i^k| = min(cpu_ava / r^c_k, mem_ava / r^m_k)`` requests (Eq. 2),
   where the per-request minima ``r^{c,k}, r^{m,k}`` come from the QoS
   re-assurance mechanism when HRM is active;
3. **case 1** (demand ≤ capacity): a single graph ``G_k`` is built over
   available resources and solved as a min-cost max-flow (transmission delay
   as cost) — ``G_k`` is a star, so the exact closed-form fill in
   :mod:`repro.flow.graph` stands in for the paper's OR-Tools call;
4. **case 2** (demand > capacity): the random sorting function ρ(·) splits
   the queue into ``R_k`` (placed immediately, as case 1) and ``R'_k``
   (queued), and a second graph ``Ĝ'_k`` distributes the queued remainder
   proportionally to *total* node resources scaled by the augmentation
   factor λ (Eqs. 7–8), respecting edge heterogeneity.

Decision latency is tracked per call so the §7.2 response-time claims
(1.99 ms @ 500 nodes, 3.98 ms @ 1000) can be benchmarked.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.state_storage import NodeSnapshot, SystemSnapshot
from repro.flow.graph import solve_transport
from repro.hrm.reassurance import ReassuranceMechanism
from repro.obs.emitter import NULL_EMITTER
from repro.sim.request import ServiceRequest
from repro.workloads.spec import ServiceSpec

from .base import Assignment, group_by_type
from .priority import PriorityPolicy, make_priority

__all__ = [
    "DSSLCConfig",
    "DSSLCScheduler",
    "DispatchAuditRecord",
    "augmented_capacities",
    "slice_capacities",
]

#: queueing-delay surcharge of each capacity slice of a worker in ``G_k``.
#: Each deeper slice pays more (a convex load cost), so the min-cost flow
#: spreads across nodes instead of filling the closest one to the brim.
#: (§5.2.2 notes richer traffic-engineering terms slot in here.)
SLICE_SURCHARGES_MS = np.array([0.0, 6.0, 18.0])
_SLICE_INDEX = np.arange(len(SLICE_SURCHARGES_MS))


def slice_capacities(
    capacities: Sequence[int], pending: int, link_capacity: int
) -> np.ndarray:
    """``(workers, 3)`` capacities of each worker's master→worker arcs.

    A worker's usable capacity — its Eq. 2 bound, capped by the link
    capacity c_{i,j} of Eq. 4 and by the pending count — is split into
    slices of ``ceil(usable / 3)``, the last taking the remainder.
    """
    usable = np.minimum(
        np.maximum(np.asarray(capacities, dtype=np.int64), 0),
        min(link_capacity, pending),
    )[:, None]
    size = (usable + 2) // 3
    return np.minimum(size, np.maximum(usable - size * _SLICE_INDEX, 0))


def augmented_capacities(
    total_units: Sequence[int], n_queued: int
) -> List[int]:
    """Eq. 7–8: scale total-resource units by λ so Σ capacities = |R'_k|.

    Uses largest-remainder rounding so the integral capacities still sum to
    exactly the queued count (the paper's λ guarantees this in the
    continuous formulation).  Module-level so the invariant checker can
    recompute the bound from audited raw inputs.
    """
    total = sum(total_units)
    if total <= 0:
        # degenerate topology: spread uniformly
        base = [n_queued // len(total_units)] * len(total_units)
        for i in range(n_queued - sum(base)):
            base[i % len(base)] += 1
        return base
    lam = n_queued / total
    raw = [u * lam for u in total_units]
    floors = [int(x) for x in raw]
    shortfall = n_queued - sum(floors)
    remainders = sorted(
        range(len(raw)), key=lambda i: raw[i] - floors[i], reverse=True
    )
    for i in remainders[:shortfall]:
        floors[i] += 1
    return floors


@dataclass
class DispatchAuditRecord:
    """Raw inputs + outcome of one per-type dispatch round.

    The invariant checker re-derives the Eq. 2 / Eq. 7–8 bounds from these
    *inputs* with the independent scalar path in :mod:`repro.flow.reference`
    and checks the recorded placement counts against them — auditing the
    decision, not trusting the scheduler's own arithmetic.
    """

    service: str
    node_names: List[str]
    cpu_available: List[float]
    mem_available: List[float]
    cpu_total: List[float]
    mem_total: List[float]
    lc_queue: List[int]
    r_cpu: List[float]
    r_mem: List[float]
    target_fill: float
    #: immediate (case-1 / R_k) placements per node this round.
    immediate_counts: List[int]
    #: queued-path (R'_k, Ĝ'_k) placements per node this round.
    queued_counts: List[int]
    #: size of the queued remainder handed to Ĝ'_k (post max_queue_push cap).
    n_queued: int


@dataclass
class DSSLCConfig:
    #: per-link transmission capacity (requests per decision round), the
    #: c_{i,j} bound of Eq. 4.
    link_capacity: int = 64
    #: cap on queued requests pushed per round in case 2 (keeps node queues
    #: from exploding under pathological overload).
    max_queue_push: int = 256
    #: utilisation the dispatcher is willing to fill a node to.  Packing to
    #: 100 % pushes nodes past the interference knee and every co-located
    #: request slows down; leaving headroom makes DSS-LC spill to geo-nearby
    #: clusters before a node becomes contended.
    target_fill: float = 0.85
    #: the ρ(·) case-2 priority policy: random (paper default), fifo,
    #: deadline, or tier (§5.2.2: "can be changed as required").
    priority: str = "random"
    #: solve all request types jointly over shared link capacities (the
    #: full multi-commodity formulation) instead of the paper's per-type
    #: "in parallel" graphs.  Costs one sequential MCMF pass per type but
    #: never oversubscribes a link across types.
    coordinate_types: bool = False
    seed: int = 0


class DSSLCScheduler:
    """The paper's LC dispatch algorithm (Alg. 2)."""

    def __init__(
        self,
        config: Optional[DSSLCConfig] = None,
        *,
        reassurance: Optional[ReassuranceMechanism] = None,
    ) -> None:
        self.config = config or DSSLCConfig()
        self.reassurance = reassurance
        self.rng = np.random.default_rng(self.config.seed)
        #: per-master ρ(·) policies, lazily built with seed
        #: ``(config.seed, origin_cluster)``.  Each master runs Alg. 2
        #: independently in the paper, so each owns an independent random
        #: stream — this is also what makes per-master dispatch rounds
        #: order-free.
        self._priorities: Dict[int, PriorityPolicy] = {}
        self.decision_latencies_ms: List[float] = []
        self.case2_rounds = 0
        #: observability bus; assigned by the runner, None when disabled
        #: (kept for introspection — emissions go through the emitter).
        self.bus = None
        #: lifecycle emitter; rewired by the runner, null when standalone.
        self.emitter = NULL_EMITTER
        #: MCMF objective accumulated across the current round's solves.
        self._flow_cost_round = 0.0
        #: G_k solves and their (SSP-equivalent) augmentations, cumulative.
        self._solves = 0
        self._augmentations = 0
        #: per-type minima cache: (service, id(nodes)) -> (nodes ref,
        #: reassurance version, r_cpu, r_mem).  Each master queries its own
        #: eligible-node list, so the list identity is part of the key; the
        #: pinned nodes reference inside the entry defeats ``id()`` reuse.
        self._minima_cache: Dict[Tuple[str, int], tuple] = {}
        #: per-node resource columns (cpu/mem available+total, lc queue)
        #: as arrays, keyed and pinned the same way as the minima cache.
        self._node_array_cache: Dict[int, tuple] = {}
        #: when set (by the runner with invariant checking on), every
        #: per-type dispatch round appends a :class:`DispatchAuditRecord`;
        #: the invariant stage drains it each tick.  None = no recording.
        self.audit_log: Optional[List[DispatchAuditRecord]] = None

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def priority_for(self, origin_cluster: int) -> PriorityPolicy:
        """The master's own ρ(·) policy (independent stream per master)."""
        policy = self._priorities.get(origin_cluster)
        if policy is None:
            policy = make_priority(
                self.config.priority, seed=(self.config.seed, origin_cluster)
            )
            self._priorities[origin_cluster] = policy
        return policy

    def dispatch(
        self,
        origin_cluster: int,
        requests: Sequence[ServiceRequest],
        snapshot: SystemSnapshot,
        eligible_clusters: Sequence[int],
        now_ms: float,
    ) -> List[Assignment]:
        if not requests:
            return []
        start = time.perf_counter()
        case2_before = self.case2_rounds
        self._flow_cost_round = 0.0
        assignments: List[Assignment] = []
        nodes = snapshot.nodes_of(list(eligible_clusters))
        if nodes:
            groups = group_by_type(requests)
            if self.config.coordinate_types and len(groups) > 1:
                assignments.extend(
                    self._dispatch_coordinated(
                        origin_cluster, groups, nodes, snapshot
                    )
                )
            else:
                for service, reqs in groups.items():
                    assignments.extend(
                        self._dispatch_type(
                            origin_cluster, reqs, nodes, snapshot
                        )
                    )
        decision_ms = (time.perf_counter() - start) * 1000.0
        self.decision_latencies_ms.append(decision_ms)
        self.emitter.dispatch_round(
            now_ms,
            "dss-lc",
            origin_cluster,
            len(requests),
            len(assignments),
            self._flow_cost_round,
            decision_ms=decision_ms,
            case2=self.case2_rounds > case2_before,
        )
        return assignments

    # ------------------------------------------------------------------ #
    # per-type scheduling (the body of Alg. 2)
    # ------------------------------------------------------------------ #
    def _dispatch_type(
        self,
        origin_cluster: int,
        requests: List[ServiceRequest],
        nodes: List[NodeSnapshot],
        snapshot: SystemSnapshot,
    ) -> List[Assignment]:
        spec = requests[0].spec
        r_cpu, r_mem = self._per_request_minima(spec, nodes)
        cpu_ava, mem_ava, cpu_tot, mem_tot, lc_q, _ = self._node_arrays(nodes)

        # |t_i^k| of Eq. 2, with two practical corrections: the node is only
        # filled to ``target_fill`` of its total (past that every co-located
        # request pays interference), and requests already waiting at the
        # node consume capacity units this round.  Elementwise array ops are
        # IEEE-identical to the scalar per-node loop they replace.
        hold = 1.0 - self.config.target_fill
        cpu_eff = np.maximum(0.0, cpu_ava - hold * cpu_tot)
        mem_eff = np.maximum(0.0, mem_ava - hold * mem_tot)
        units = np.minimum(cpu_eff / r_cpu, mem_eff / r_mem).astype(np.int64)
        capacities = np.maximum(0, units - lc_q)
        pending = len(requests)
        total_capacity = int(capacities.sum())

        if pending <= total_capacity:
            placed, counts = self._solve_and_assign(
                origin_cluster, requests, nodes, capacities, snapshot
            )
            if self.audit_log is not None:
                self._record_audit(
                    spec, nodes, r_cpu, r_mem, counts, np.zeros_like(counts), 0
                )
            return placed

        # case 2: split via the configured ρ(·) policy (paper default:
        # random — all LC types share one priority in their scenario).
        self.case2_rounds += 1
        ordered = self.priority_for(origin_cluster).order(
            requests, snapshot.time_ms
        )
        immediate = ordered[:total_capacity]
        queued = ordered[total_capacity:]
        assignments, placed_now = self._solve_and_assign(
            origin_cluster, immediate, nodes, capacities, snapshot
        )

        queued = queued[: self.config.max_queue_push]
        queued_counts = np.zeros_like(placed_now)
        if queued:
            total_units = np.minimum(
                cpu_tot / r_cpu, mem_tot / r_mem
            ).astype(np.int64)
            # Ĝ'_k capacities come from *remaining* total resources: the
            # immediate placements of this very round and the requests
            # already queued at each node consume capacity units, so both
            # are deducted before the λ scaling of Eqs. 7-8 (counting the
            # raw totals twice over-assigned busy nodes).
            adjusted = np.maximum(0, total_units - placed_now - lc_q)
            aug_caps = self._augmented_capacities(
                [int(u) for u in adjusted], len(queued)
            )
            queued_assignments, queued_counts = self._solve_and_assign(
                origin_cluster, queued, nodes, aug_caps, snapshot
            )
            assignments.extend(queued_assignments)
        if self.audit_log is not None:
            self._record_audit(
                spec, nodes, r_cpu, r_mem, placed_now, queued_counts,
                len(queued),
            )
        return assignments

    def _record_audit(
        self,
        spec: ServiceSpec,
        nodes: List[NodeSnapshot],
        r_cpu,
        r_mem,
        immediate_counts: np.ndarray,
        queued_counts: np.ndarray,
        n_queued: int,
    ) -> None:
        self.audit_log.append(
            DispatchAuditRecord(
                service=spec.name,
                node_names=[n.name for n in nodes],
                cpu_available=[n.cpu_available for n in nodes],
                mem_available=[n.mem_available for n in nodes],
                cpu_total=[n.cpu_total for n in nodes],
                mem_total=[n.mem_total for n in nodes],
                lc_queue=[n.lc_queue for n in nodes],
                r_cpu=[float(x) for x in r_cpu],
                r_mem=[float(x) for x in r_mem],
                target_fill=self.config.target_fill,
                immediate_counts=immediate_counts.tolist(),
                queued_counts=queued_counts.tolist(),
                n_queued=n_queued,
            )
        )

    # ------------------------------------------------------------------ #
    # coordinated (true multi-commodity) dispatch
    # ------------------------------------------------------------------ #
    def _dispatch_coordinated(
        self,
        origin_cluster: int,
        groups: Dict[str, List[ServiceRequest]],
        nodes: List[NodeSnapshot],
        snapshot: SystemSnapshot,
    ) -> List[Assignment]:
        """Solve every type jointly over shared master→worker links.

        Node absorption stays per-commodity (each type has its own resource
        footprint); the transmission capacities c_{i,j} of Eq. 4 are shared.
        Requests the joint solve cannot place stay queued at the master.
        """
        from repro.flow.multicommodity import Commodity, SharedLink, solve_sequential

        fill = self.config.target_fill
        commodities: List[Commodity] = []
        for service, reqs in groups.items():
            spec = reqs[0].spec
            r_cpu, r_mem = self._per_request_minima(spec, nodes)
            supplies = [len(reqs)]
            for i, n in enumerate(nodes):
                cpu_eff = max(0.0, n.cpu_available - (1.0 - fill) * n.cpu_total)
                mem_eff = max(0.0, n.mem_available - (1.0 - fill) * n.mem_total)
                units = self._node_units(cpu_eff, mem_eff, r_cpu[i], r_mem[i])
                supplies.append(-max(0, units - n.lc_queue))
            commodities.append(Commodity(service, supplies))

        links = [
            SharedLink(
                0,
                1 + i,
                snapshot.delay_ms[origin_cluster][n.cluster_id],
                self.config.link_capacity,
            )
            for i, n in enumerate(nodes)
        ]
        result = solve_sequential(1 + len(nodes), commodities, links)

        assignments: List[Assignment] = []
        for service, reqs in groups.items():
            cursor = 0
            for (src, dst), flow in sorted(result.flows[service].items()):
                node = nodes[dst - 1]
                delay = snapshot.delay_ms[origin_cluster][node.cluster_id]
                for _ in range(flow):
                    if cursor >= len(reqs):
                        break
                    assignments.append(
                        Assignment(
                            request=reqs[cursor],
                            node_name=node.name,
                            cluster_id=node.cluster_id,
                            cost_ms=delay,
                        )
                    )
                    self._flow_cost_round += delay
                    cursor += 1
            # overflow the joint solve could not place follows the case-2
            # queued path (Ĝ'_k over total resources, Eq. 7-8) — critically,
            # this ships LC to busy nodes where HRM preemption frees BE-held
            # resources; holding them at the master would starve them.
            leftover = reqs[cursor:][: self.config.max_queue_push]
            if leftover:
                self.case2_rounds += 1
                spec = leftover[0].spec
                r_cpu, r_mem = self._per_request_minima(spec, nodes)
                # remaining totals: deduct this round's joint-solve
                # placements and each node's existing backlog, mirroring
                # the per-type case-2 path.
                placed_now = [0] * len(nodes)
                index_of = {n.name: i for i, n in enumerate(nodes)}
                for a in assignments:
                    placed_now[index_of[a.node_name]] += 1
                total_units = [
                    max(
                        0,
                        self._node_units(
                            n.cpu_total, n.mem_total, r_cpu[i], r_mem[i]
                        )
                        - placed_now[i]
                        - n.lc_queue,
                    )
                    for i, n in enumerate(nodes)
                ]
                aug_caps = self._augmented_capacities(
                    total_units, len(leftover)
                )
                assignments.extend(
                    self._solve_and_assign(
                        origin_cluster, leftover, nodes, aug_caps, snapshot
                    )[0]
                )
        return assignments

    def _per_request_minima(
        self, spec: ServiceSpec, nodes: List[NodeSnapshot]
    ) -> tuple:
        """Per-node (r^c_k, r^m_k), re-assurance-adjusted when available.

        Memoized per (node list, re-assurance version): the node list is a
        shared snapshot object, and re-assurance minima only move when its
        control loop fires, so successive dispatch rounds within a snapshot
        period reuse the same vectors.
        """
        version = self.reassurance.version if self.reassurance is not None else 0
        key = (spec.name, id(nodes))
        cached = self._minima_cache.get(key)
        if cached is not None and cached[0] is nodes and cached[1] == version:
            return cached[2], cached[3]
        r_cpu = np.empty(len(nodes))
        r_mem = np.empty(len(nodes))
        for i, n in enumerate(nodes):
            if self.reassurance is not None:
                r = self.reassurance.min_resources(n.name, spec)
            else:
                r = spec.min_resources
            r_cpu[i] = max(r.cpu, 1e-9)
            r_mem[i] = max(r.memory, 1e-9)
        if len(self._minima_cache) > 512:
            self._minima_cache.clear()
        self._minima_cache[key] = (nodes, version, r_cpu, r_mem)
        return r_cpu, r_mem

    def _node_arrays(self, nodes: List[NodeSnapshot]) -> tuple:
        """Resource columns for a snapshot's eligible-node list, as arrays.

        Valid for the lifetime of the list object (node views are frozen for
        a snapshot period); the entry pins the list so a recycled ``id()``
        can never serve stale columns.
        """
        key = id(nodes)
        cached = self._node_array_cache.get(key)
        if cached is not None and cached[0] is nodes:
            return cached[1]
        arrays = (
            np.array([n.cpu_available for n in nodes]),
            np.array([n.mem_available for n in nodes]),
            np.array([n.cpu_total for n in nodes]),
            np.array([n.mem_total for n in nodes]),
            np.array([n.lc_queue for n in nodes], dtype=np.int64),
            np.array([n.cluster_id for n in nodes], dtype=np.intp),
        )
        if len(self._node_array_cache) > 64:
            self._node_array_cache.clear()
        self._node_array_cache[key] = (nodes, arrays)
        return arrays

    @staticmethod
    def _node_units(
        cpu_ava: float, mem_ava: float, r_cpu: float, r_mem: float
    ) -> int:
        """|t_i^k| of Eq. 2 (or its total-resource analogue for Eq. 7)."""
        return max(0, int(min(cpu_ava / r_cpu, mem_ava / r_mem)))

    def _augmented_capacities(
        self, total_units: List[int], n_queued: int
    ) -> List[int]:
        """Eq. 7–8 λ scaling; see :func:`augmented_capacities`."""
        return augmented_capacities(total_units, n_queued)

    # ------------------------------------------------------------------ #
    # graph construction + flow solve
    # ------------------------------------------------------------------ #
    def _solve_and_assign(
        self,
        origin_cluster: int,
        requests: List[ServiceRequest],
        nodes: List[NodeSnapshot],
        capacities: Sequence[int],
        snapshot: SystemSnapshot,
    ) -> Tuple[List[Assignment], np.ndarray]:
        """Solve G_k for ``requests``; return assignments and per-node counts.

        The origin master supplies ``len(requests)``; each node is reached
        over the slices of :func:`slice_capacities`, each costing the
        master→node delay plus the slice's surcharge.
        """
        if not requests:
            return [], np.zeros(len(nodes), dtype=np.int64)
        *_, cluster_ids = self._node_arrays(nodes)
        delay_row = snapshot.delay_ms[origin_cluster]
        delays = np.asarray(delay_row)[cluster_ids]
        result = solve_transport(
            len(requests),
            slice_capacities(
                capacities, len(requests), self.config.link_capacity
            ),
            delays[:, None] + SLICE_SURCHARGES_MS,
        )
        self._solves += 1
        self._augmentations += result.augmentations
        self._flow_cost_round += result.total_delay_ms

        assignments: List[Assignment] = []
        cursor = 0
        for j in np.flatnonzero(result.absorbed).tolist():
            node = nodes[j]
            delay = delay_row[node.cluster_id]
            for _ in range(int(result.absorbed[j])):
                assignments.append(
                    Assignment(
                        request=requests[cursor],
                        node_name=node.name,
                        cluster_id=node.cluster_id,
                        cost_ms=delay,
                    )
                )
                cursor += 1
        return assignments, result.absorbed

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def mean_decision_latency_ms(self) -> float:
        if not self.decision_latencies_ms:
            return 0.0
        return float(np.mean(self.decision_latencies_ms))

    # ------------------------------------------------------------------ #
    # Checkpointable
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> Dict:
        """RNG positions and counters.  The id()-keyed snapshot caches are
        pure accelerators (self-invalidating via ``is`` checks) and are
        rebuilt, not restored."""
        return {
            "rng": self.rng.bit_generator.state,
            # one stream per master; stateless policies contribute nothing
            "priority_rngs": {
                cid: policy.rng.bit_generator.state
                for cid, policy in sorted(self._priorities.items())
                if hasattr(policy, "rng")
            },
            "decision_latencies_ms": self.decision_latencies_ms,
            "case2_rounds": self.case2_rounds,
            "flow_cost_round": self._flow_cost_round,
        }

    def restore_state(self, state: Dict) -> None:
        self.rng.bit_generator.state = state["rng"]
        self._priorities.clear()
        for cid, rng_state in state["priority_rngs"].items():
            policy = self.priority_for(cid)
            if hasattr(policy, "rng"):
                policy.rng.bit_generator.state = rng_state
        self.decision_latencies_ms = state["decision_latencies_ms"]
        self.case2_rounds = state["case2_rounds"]
        self._flow_cost_round = state["flow_cost_round"]
        self._minima_cache.clear()
        self._node_array_cache.clear()

    def solver_stats(self) -> Dict[str, float]:
        """Cumulative G_k solve counters."""
        return {
            "solves": self._solves,
            "augmentations": self._augmentations,
            "case2_rounds": self.case2_rounds,
            "mean_decision_latency_ms": round(
                self.mean_decision_latency_ms(), 4
            ),
        }
