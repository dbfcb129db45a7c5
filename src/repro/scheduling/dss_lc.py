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
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.state_storage import NodeView, SystemSnapshot
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
    capacities: Sequence[int],
    pending: int,
    link_capacity: Union[int, np.ndarray],
) -> np.ndarray:
    """``(workers, 3)`` capacities of each worker's master→worker arcs.

    A worker's usable capacity — its Eq. 2 bound, capped by the link
    capacity c_{i,j} of Eq. 4 and by the pending count — is split into
    slices of ``ceil(usable / 3)``, the last taking the remainder.
    ``link_capacity`` is one bound for every link, or one per worker
    (the residuals of links shared across types).
    """
    if isinstance(link_capacity, np.ndarray):
        bound = np.minimum(link_capacity, pending)
    else:
        bound = min(link_capacity, pending)
    usable = np.minimum(
        np.maximum(np.asarray(capacities, dtype=np.int64), 0), bound
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
    #: share each master→worker link's c_{i,j} across request types (the
    #: multi-commodity coupling of Eq. 4) instead of giving every per-type
    #: graph the full bound.  Types run the same per-type solve, most
    #: pending first, and every solve of the round (immediate and queued)
    #: draws on one residual per link, so no link is oversubscribed.
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
        #: per-master ρ(·) policies, lazily built with seed
        #: ``(config.seed, origin_cluster)``.  Each master runs Alg. 2
        #: independently in the paper, so each owns an independent random
        #: stream — this is also what makes per-master dispatch rounds
        #: order-free.
        self._priorities: Dict[int, PriorityPolicy] = {}
        self.decision_latencies_ms: List[float] = []
        self.case2_rounds = 0
        #: lifecycle emitter; rewired by the runner, null when standalone.
        self.emitter = NULL_EMITTER
        #: MCMF objective accumulated across the current round's solves.
        self._flow_cost_round = 0.0
        #: G_k solves and their (SSP-equivalent) augmentations, cumulative.
        self._solves = 0
        self._augmentations = 0
        #: ``(snapshot, slots)``: the re-assurance slots of one snapshot's
        #: nodes in snapshot order, looked up once per snapshot.
        self._node_slots: Optional[Tuple[SystemSnapshot, np.ndarray]] = None
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
        view = snapshot.view(eligible_clusters)
        if view.nodes:
            groups = list(group_by_type(requests).values())
            links = None
            if self.config.coordinate_types:
                # one residual c_{i,j} per master→worker link, shared by
                # every solve of the round; the most pending type goes first
                groups.sort(key=len, reverse=True)
                links = np.full(
                    len(view.nodes), self.config.link_capacity, dtype=np.int64
                )
            for reqs in groups:
                assignments.extend(
                    self._dispatch_type(
                        origin_cluster, reqs, view, snapshot, links
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
        view: NodeView,
        snapshot: SystemSnapshot,
        links: Optional[np.ndarray] = None,
    ) -> List[Assignment]:
        spec = requests[0].spec
        r_cpu, r_mem, capacities = self._capacities(spec, view, snapshot)
        pending = len(requests)
        total_capacity = int(capacities.sum())

        if pending <= total_capacity:
            placed, counts = self._solve_and_assign(
                origin_cluster, requests, view, capacities, snapshot, links
            )
            if self.audit_log is not None:
                self._record_audit(
                    spec, view, r_cpu, r_mem, counts, np.zeros_like(counts), 0
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
            origin_cluster, immediate, view, capacities, snapshot, links
        )

        queued = queued[: self.config.max_queue_push]
        queued_counts = np.zeros_like(placed_now)
        if queued:
            aug_caps = augmented_capacities(
                self._remaining_units(view, r_cpu, r_mem, placed_now),
                len(queued),
            )
            queued_assignments, queued_counts = self._solve_and_assign(
                origin_cluster, queued, view, aug_caps, snapshot, links
            )
            assignments.extend(queued_assignments)
        if self.audit_log is not None:
            self._record_audit(
                spec, view, r_cpu, r_mem, placed_now, queued_counts,
                len(queued),
            )
        return assignments

    def _record_audit(
        self,
        spec: ServiceSpec,
        view: NodeView,
        r_cpu,
        r_mem,
        immediate_counts: np.ndarray,
        queued_counts: np.ndarray,
        n_queued: int,
    ) -> None:
        self.audit_log.append(
            DispatchAuditRecord(
                service=spec.name,
                node_names=[n.name for n in view.nodes],
                cpu_available=view.cpu_available.tolist(),
                mem_available=view.mem_available.tolist(),
                cpu_total=view.cpu_total.tolist(),
                mem_total=view.mem_total.tolist(),
                lc_queue=view.lc_queue.tolist(),
                r_cpu=[float(x) for x in r_cpu],
                r_mem=[float(x) for x in r_mem],
                target_fill=self.config.target_fill,
                immediate_counts=immediate_counts.tolist(),
                queued_counts=queued_counts.tolist(),
                n_queued=n_queued,
            )
        )

    def _per_request_minima(
        self, spec: ServiceSpec, view: NodeView, snapshot: SystemSnapshot
    ) -> tuple:
        """Per-node (r^c_k, r^m_k), re-assurance-adjusted when available.

        One gather from the re-assurance columns at the view's node slots;
        no per-node Python and no cache of minima, so they are always the
        ones re-assurance holds right now.
        """
        if self.reassurance is None:
            r = spec.min_resources
            return (
                np.full(len(view.nodes), max(r.cpu, 1e-9), dtype=np.float64),
                np.full(len(view.nodes), max(r.memory, 1e-9), dtype=np.float64),
            )
        held = self._node_slots
        if held is None or held[0] is not snapshot:
            names = [n.name for n in snapshot.nodes]
            held = self._node_slots = (snapshot, self.reassurance.slots_of(names))
        r_cpu, r_mem = self.reassurance.minima(spec, held[1][view.index])
        return np.maximum(r_cpu, 1e-9), np.maximum(r_mem, 1e-9)

    def _capacities(
        self, spec: ServiceSpec, view: NodeView, snapshot: SystemSnapshot
    ) -> tuple:
        """``(r_cpu, r_mem, capacities)``: minima and Eq. 2 capacities.

        |t_i^k| of Eq. 2, with two practical corrections: the node is only
        filled to ``target_fill`` of its total (past that every co-located
        request pays interference), and requests already waiting at the node
        consume capacity units this round.  Elementwise array ops are
        IEEE-identical to the scalar per-node reference.
        """
        r_cpu, r_mem = self._per_request_minima(spec, view, snapshot)
        hold = 1.0 - self.config.target_fill
        cpu_eff = np.maximum(0.0, view.cpu_available - hold * view.cpu_total)
        mem_eff = np.maximum(0.0, view.mem_available - hold * view.mem_total)
        units = self._node_units(cpu_eff, mem_eff, r_cpu, r_mem)
        return r_cpu, r_mem, np.maximum(0, units - view.lc_queue)

    def _remaining_units(
        self,
        view: NodeView,
        r_cpu: np.ndarray,
        r_mem: np.ndarray,
        placed_now: np.ndarray,
    ) -> List[int]:
        """Ĝ'_k inputs of Eqs. 7-8: units of *remaining* total resources.

        This round's placements and the requests already queued at each node
        consume capacity units, so both are deducted before the λ scaling
        (counting the raw totals twice over-assigned busy nodes).
        """
        units = self._node_units(view.cpu_total, view.mem_total, r_cpu, r_mem)
        return np.maximum(0, units - placed_now - view.lc_queue).tolist()

    @staticmethod
    def _node_units(cpu, mem, r_cpu, r_mem):
        """|t_i^k| of Eq. 2 (or its total-resource analogue for Eq. 7),
        elementwise over per-node arrays of non-negative resources."""
        return np.minimum(cpu / r_cpu, mem / r_mem).astype(np.int64)

    # ------------------------------------------------------------------ #
    # graph construction + flow solve
    # ------------------------------------------------------------------ #
    def _solve_and_assign(
        self,
        origin_cluster: int,
        requests: List[ServiceRequest],
        view: NodeView,
        capacities: Sequence[int],
        snapshot: SystemSnapshot,
        links: Optional[np.ndarray] = None,
    ) -> Tuple[List[Assignment], np.ndarray]:
        """Solve G_k for ``requests``; return assignments and per-node counts.

        The origin master supplies ``len(requests)``; each node is reached
        over the slices of :func:`slice_capacities`, each costing the
        master→node delay plus the slice's surcharge.  ``links``, when
        given, holds the residual of each shared link: it bounds the arcs
        in place of ``link_capacity`` and loses this solve's placements.
        Requests no arc can carry stay at the master for the next round.
        """
        if not requests:
            return [], np.zeros(len(view.nodes), dtype=np.int64)
        delay_row = snapshot.delay_ms[origin_cluster]
        delays = np.asarray(delay_row)[view.cluster_id]
        result = solve_transport(
            len(requests),
            slice_capacities(
                capacities,
                len(requests),
                self.config.link_capacity if links is None else links,
            ),
            delays[:, None] + SLICE_SURCHARGES_MS,
        )
        if links is not None:
            links -= result.absorbed
        self._solves += 1
        self._augmentations += result.augmentations
        self._flow_cost_round += result.total_delay_ms
        return (
            self._assign(requests, view, result.absorbed, delay_row),
            result.absorbed,
        )

    @staticmethod
    def _assign(
        requests: List[ServiceRequest],
        view: NodeView,
        absorbed: np.ndarray,
        delay_row: Sequence[float],
    ) -> List[Assignment]:
        """Hand ``requests`` out in order, walking ``absorbed`` in node order."""
        assignments: List[Assignment] = []
        cursor = 0
        for j in np.flatnonzero(absorbed).tolist():
            node = view.nodes[j]
            delay = delay_row[node.cluster_id]
            for _ in range(int(absorbed[j])):
                assignments.append(
                    Assignment(
                        request=requests[cursor],
                        node_name=node.name,
                        cluster_id=node.cluster_id,
                        cost_ms=delay,
                    )
                )
                cursor += 1
        return assignments

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
        """RNG positions and counters.  The held re-assurance slots are
        keyed by snapshot identity and rebuilt, not restored."""
        return {
            # one stream per master; stateless policies contribute nothing
            "priority_rngs": {
                cid: policy.rng.bit_generator.state
                for cid, policy in sorted(self._priorities.items())
                if hasattr(policy, "rng")
            },
            "decision_latencies_ms": self.decision_latencies_ms,
            "case2_rounds": self.case2_rounds,
            "flow_cost_round": self._flow_cost_round,
            "solves": self._solves,
            "augmentations": self._augmentations,
        }

    def restore_state(self, state: Dict) -> None:
        """States from builds that kept an unused scheduler-wide RNG carry
        an ``rng`` key; it is ignored.  States written before the solver
        counters were checkpointed restore them as zero."""
        self._priorities.clear()
        for cid, rng_state in state["priority_rngs"].items():
            policy = self.priority_for(cid)
            if hasattr(policy, "rng"):
                policy.rng.bit_generator.state = rng_state
        self.decision_latencies_ms = state["decision_latencies_ms"]
        self.case2_rounds = state["case2_rounds"]
        self._flow_cost_round = state["flow_cost_round"]
        self._solves = state.get("solves", 0)
        self._augmentations = state.get("augmentations", 0)

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
