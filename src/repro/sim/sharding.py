"""Sharded parallel multi-cluster execution.

Tango's per-cluster control loops are independent by construction: each
master runs DSS-LC on its own queue (§5.2, Alg. 2), each node's HRM
regulates locally (§4), and only DCG-BE is centralized.  This module
exploits that shape: clusters are partitioned into *shards* and the
embarrassingly-parallel per-cluster portion of each tick — snapshot
refresh, per-master LC dispatch, node stepping, and the re-assurance
active-set collection — runs across a worker pool, with a deterministic
merge barrier before anything centralized (DCG-BE, metrics, invariants).

The determinism contract, relied on throughout and pinned by the
equivalence suite:

* :func:`partition_clusters` is contiguous over the *sorted* cluster ids,
  so concatenating per-shard results in fixed shard order reproduces the
  canonical (cluster-ascending) order — merge order never depends on
  worker completion order;
* DSS-LC's ρ(·) random stream is **per master** (seeded
  ``(seed, cluster_id)``), so dispatch rounds commute across masters;
* all observable side effects produced inside a worker (assignments, RNG
  positions, counters, audit records, emitter calls) are shipped back as
  data and re-applied by the parent in canonical order — workers never
  touch the run's collector, bus, or queues directly.

Three pool flavors (``RunnerConfig.parallel_backend``): ``process``
(default; per-tick payloads are pickled to a ``multiprocessing`` pool),
``thread``, and ``serial`` (the sharded code path run in-process — what
the equivalence suite uses to pin merge semantics cheaply).  Because the
merge is deterministic, all three produce bit-identical RunMetrics.
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.emitter import BufferingEmitter
from repro.scheduling.base import Assignment, group_by_type
from repro.scheduling.dss_lc import DSSLCConfig, DSSLCScheduler
from repro.sim.pipeline import (
    LCDispatchStage,
    ReassureStage,
    RefreshStage,
    SimContext,
    Stage,
    StepNodesStage,
    TickPipeline,
    requeue_evicted,
    ship,
)
from repro.workloads.spec import ServiceSpec

__all__ = [
    "partition_clusters",
    "ShardPlan",
    "ShardExecutor",
    "SerialShardExecutor",
    "ThreadShardExecutor",
    "ProcessShardExecutor",
    "make_executor",
    "run_lc_shard",
    "ShardedLCDispatchStage",
    "ShardedRefreshStage",
    "ShardedStepStage",
    "ShardedReassureStage",
    "ShardCoordinator",
]

logger = logging.getLogger(__name__)

BACKENDS = ("process", "thread", "serial")


# ---------------------------------------------------------------------- #
# partitioner
# ---------------------------------------------------------------------- #
def partition_clusters(
    cluster_ids: Sequence[int], n_shards: int
) -> List[List[int]]:
    """Contiguous, balanced shards over the sorted cluster ids.

    Properties the equivalence proof rests on (property-tested in
    ``tests/test_shard_partitioner.py``):

    * every cluster appears in exactly one shard;
    * the result depends only on the *set* of ids (permutation-stable);
    * concatenating the shards in shard order reproduces the ascending id
      order, so a merge in fixed shard order IS the canonical order;
    * shard sizes differ by at most one.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    ids = sorted(set(cluster_ids))
    if not ids:
        return []
    n_shards = min(n_shards, len(ids))
    base, extra = divmod(len(ids), n_shards)
    shards: List[List[int]] = []
    start = 0
    for i in range(n_shards):
        size = base + (1 if i < extra else 0)
        shards.append(ids[start : start + size])
        start += size
    return shards


@dataclass
class ShardPlan:
    """A fixed cluster→shard assignment for one topology."""

    shards: List[List[int]]
    shard_of: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.shard_of:
            self.shard_of = {
                cid: i for i, members in enumerate(self.shards) for cid in members
            }

    @classmethod
    def build(cls, cluster_ids: Sequence[int], n_shards: int) -> "ShardPlan":
        return cls(shards=partition_clusters(cluster_ids, n_shards))

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def split_nodes(self, worker_list: Sequence[Any]) -> List[List[Any]]:
        """Group nodes by their cluster's shard, preserving node order.

        ``worker_list`` is cluster-ascending and shards are contiguous
        cluster ranges, so concatenating the slices in shard order
        reproduces ``worker_list`` exactly.
        """
        slices: List[List[Any]] = [[] for _ in self.shards]
        for node in worker_list:
            slices[self.shard_of[node.cluster_id]].append(node)
        return slices


# ---------------------------------------------------------------------- #
# executors
# ---------------------------------------------------------------------- #
class ShardExecutor:
    """Maps a function over payloads; results come back in payload order
    (never completion order), which is half the determinism contract."""

    backend = "serial"

    def run_tasks(self, fn: Callable, payloads: Sequence[Any]) -> List[Any]:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass


class SerialShardExecutor(ShardExecutor):
    """Runs the sharded code path in-process, shard by shard."""

    def run_tasks(self, fn: Callable, payloads: Sequence[Any]) -> List[Any]:
        return [fn(p) for p in payloads]


class ThreadShardExecutor(ShardExecutor):
    """Thread pool; lazily created, re-creatable after :meth:`close`."""

    backend = "thread"

    def __init__(self, max_workers: int) -> None:
        self.max_workers = max(1, max_workers)
        self._pool: Optional[ThreadPoolExecutor] = None

    def run_tasks(self, fn: Callable, payloads: Sequence[Any]) -> List[Any]:
        if len(payloads) <= 1:
            return [fn(p) for p in payloads]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="repro-shard"
            )
        futures = [self._pool.submit(fn, p) for p in payloads]
        return [f.result() for f in futures]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ProcessShardExecutor(ShardExecutor):
    """One single-process pool per shard slot (fork when available).

    Payload *i* always lands in process *i*, so each worker reuses one
    cached scheduler clone across ticks — a shared pool would scatter a
    shard's ticks over arbitrary processes and rebuild the clone every
    time.  Payload functions must be module-level and payloads
    picklable.
    """

    backend = "process"

    def __init__(self, max_workers: int) -> None:
        self.max_workers = max(1, max_workers)
        self._pools: Optional[List[ProcessPoolExecutor]] = None

    def _ensure_pools(self) -> List[ProcessPoolExecutor]:
        if self._pools is None:
            import multiprocessing

            try:
                mp_context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX
                mp_context = multiprocessing.get_context()
            self._pools = [
                ProcessPoolExecutor(max_workers=1, mp_context=mp_context)
                for _ in range(self.max_workers)
            ]
        return self._pools

    def run_tasks(self, fn: Callable, payloads: Sequence[Any]) -> List[Any]:
        if len(payloads) <= 1:
            return [fn(p) for p in payloads]
        pools = self._ensure_pools()
        futures = [
            pools[getattr(p, "shard_index", i) % len(pools)].submit(fn, p)
            for i, p in enumerate(payloads)
        ]
        return [f.result() for f in futures]

    def close(self) -> None:
        if self._pools is not None:
            for pool in self._pools:
                pool.shutdown(wait=True)
            self._pools = None


def make_executor(backend: str, max_workers: int) -> ShardExecutor:
    if backend == "serial":
        return SerialShardExecutor()
    if backend == "thread":
        return ThreadShardExecutor(max_workers)
    if backend == "process":
        return ProcessShardExecutor(max_workers)
    raise ValueError(f"unknown parallel backend {backend!r}; want {BACKENDS}")


# ---------------------------------------------------------------------- #
# LC dispatch payloads + worker entry point
# ---------------------------------------------------------------------- #
@dataclass
class _ReqLite:
    """Stand-in shipped to LC shard workers instead of the live request.

    Carries exactly what Alg. 2 reads: grouping key and solver sizing come
    from ``spec``, every ρ(·) policy orders on ``(request_id, arrival_ms,
    spec)``.  Workers return *indices* into the original queue, so the
    live objects never cross the process boundary.
    """

    request_id: int
    arrival_ms: float
    spec: ServiceSpec


@dataclass
class _SnapshotView:
    """Minimal SystemSnapshot stand-in for one master's dispatch: the
    eligible-node list is pre-resolved by the parent."""

    time_ms: float
    delay_ms: List[List[float]]
    nodes: List[Any]

    def nodes_of(self, cluster_ids: Optional[List[int]] = None) -> List[Any]:
        return self.nodes


@dataclass
class _MasterPayload:
    cluster_id: int
    requests: List[_ReqLite]
    nodes: List[Any]
    #: pre-resolved re-assurance minima, ``{service: (r_cpu, r_mem)}``.
    minima: Dict[str, tuple]
    #: the master's ρ(·) RNG position (None for stateless policies).
    rng_state: Optional[dict]


@dataclass
class _ShardPayload:
    shard_index: int
    now_ms: float
    snapshot_time_ms: float
    delay_ms: List[List[float]]
    config: DSSLCConfig
    audit: bool
    masters: List[_MasterPayload]


@dataclass
class _MasterResult:
    cluster_id: int
    #: (request index, node name, cluster id, cost ms) per assignment.
    assigned: List[Tuple[int, str, int, float]]
    rng_state: Optional[dict]
    case2_delta: int
    flow_cost_ms: float
    decision_ms: float
    audit: List[Any]
    #: worker CPU seconds spent on this master — feeds the parent's
    #: cost-balanced shard assignment (never the simulation itself).
    busy_s: float = 0.0


@dataclass
class _ShardResult:
    shard_index: int
    masters: List[_MasterResult]
    #: worker-side CPU seconds (``time.process_time`` delta) — the honest
    #: parallel-speedup signal on core-starved CI boxes, where wall time
    #: only measures contention.
    busy_s: float


#: per-thread (and therefore per-process, in a process pool) scheduler
#: clone, kept across ticks as the serial scheduler is.  Thread-local
#: because the thread backend runs :func:`run_lc_shard` concurrently in
#: one process.
_worker_state = threading.local()


def _worker_scheduler(config: DSSLCConfig) -> DSSLCScheduler:
    scheduler = getattr(_worker_state, "scheduler", None)
    if scheduler is None or scheduler.config != config:
        scheduler = DSSLCScheduler(config)
        _worker_state.scheduler = scheduler
    # Caches are keyed by node-list identity; under the process backend
    # every tick unpickles fresh node lists, so pinned entries can only
    # accumulate — drop them before they become a leak (pure accelerators,
    # rebuilding is always safe).
    if len(scheduler._minima_cache) > 4096:
        scheduler._minima_cache.clear()
        scheduler._node_array_cache.clear()
    scheduler.decision_latencies_ms.clear()
    return scheduler


def run_lc_shard(payload: _ShardPayload) -> _ShardResult:
    """Worker entry: run Alg. 2 for every master in the shard, in order.

    Runs on a per-worker scheduler clone built from the shipped config
    (its caches are pure accelerators, kept across ticks; the only
    sequential state is the per-master ρ(·) stream, which
    is installed from and returned to the parent).  Module-level so a
    process pool can pickle it.
    """
    t0 = time.process_time()
    scheduler = _worker_scheduler(payload.config)
    results: List[_MasterResult] = []
    for master in payload.masters:
        m0 = time.process_time()
        policy = scheduler.priority_for(master.cluster_id)
        if master.rng_state is not None and hasattr(policy, "rng"):
            policy.rng.bit_generator.state = master.rng_state
        scheduler._minima_override = master.minima
        scheduler.audit_log = [] if payload.audit else None
        view = _SnapshotView(
            payload.snapshot_time_ms, payload.delay_ms, master.nodes
        )
        case2_before = scheduler.case2_rounds
        assignments = scheduler.dispatch(
            master.cluster_id, master.requests, view, (), payload.now_ms
        )
        index_of = {id(r): i for i, r in enumerate(master.requests)}
        results.append(
            _MasterResult(
                cluster_id=master.cluster_id,
                assigned=[
                    (index_of[id(a.request)], a.node_name, a.cluster_id, a.cost_ms)
                    for a in assignments
                ],
                rng_state=(
                    policy.rng.bit_generator.state
                    if hasattr(policy, "rng")
                    else None
                ),
                case2_delta=scheduler.case2_rounds - case2_before,
                flow_cost_ms=scheduler._flow_cost_round,
                decision_ms=scheduler.decision_latencies_ms[-1],
                audit=scheduler.audit_log or [],
                busy_s=time.process_time() - m0,
            )
        )
    return _ShardResult(
        payload.shard_index, results, time.process_time() - t0
    )


# ---------------------------------------------------------------------- #
# sharded stages
# ---------------------------------------------------------------------- #
class ShardedLCDispatchStage(Stage):
    """Per-master DSS-LC fanned out across shards, merged canonically.

    The parent drains every master queue, pre-resolves what only it holds
    (eligible-node snapshot slices, re-assurance minima, ρ(·) RNG
    positions), ships per-shard payloads, and at the barrier re-applies
    each master's results — RNG position, counters, audit records,
    ``dispatch_round`` emission, shipping, requeue — in canonical cluster
    order, reproducing the serial event stream byte for byte.

    Non-DSS-LC schedulers (the baseline stacks) fall back to the serial
    stage: their dispatch is not shard-isolated, and they are not the
    scale bottleneck.
    """

    name = "lc"

    def __init__(
        self,
        plan: ShardPlan,
        executor: ShardExecutor,
        fallback: LCDispatchStage,
    ) -> None:
        self.plan = plan
        self.executor = executor
        self.fallback = fallback
        # --- per-shard timing (perf introspection, not fingerprinted) ---
        self.ticks = 0
        #: Σ over ticks of max-over-shards worker CPU time: the stage's
        #: critical path under perfect parallelism.
        self.critical_busy_s = 0.0
        #: Σ worker CPU time across all shards (the serial-equivalent work).
        self.total_busy_s = 0.0
        #: parent-side payload build + merge time (the sharding tax).
        self.overhead_s = 0.0
        self.shard_busy_s: Dict[int, float] = {}
        #: sticky, cost-balanced shard assignment: masters keep their
        #: shard (preserving worker-side solver-arena affinity) until the
        #: predicted-cost skew under the current assignment exceeds
        #: ``rebalance_threshold`` × the mean shard cost, then a fresh LPT
        #: assignment is computed.  Cost per master is an EWMA of the
        #: worker-measured CPU seconds, so heterogeneous solve costs —
        #: which queue lengths alone cannot see — balance out too.  The
        #: merge keys results by cluster id, so which shard solves which
        #: master is free to vary without touching the determinism
        #: contract (timing feeds the *assignment* only, never the
        #: simulation).  Set to None to pin the static contiguous plan.
        self.rebalance_threshold: Optional[float] = 1.15
        self._sticky: Dict[int, int] = dict(plan.shard_of)
        #: EWMA of worker CPU cost per queued request, per master.
        self._cost: Dict[int, float] = {}
        self.rebalances = 0

    def _predicted(self, cluster_id: int, n_requests: int) -> float:
        return self._cost.get(cluster_id, 1.0) * n_requests

    def _assign_shards(self, work: List[tuple]) -> Dict[int, int]:
        """Master→shard assignment for this tick's drained queues.

        The sticky map starts from the static contiguous plan; the LPT
        recompute orders by (predicted cost desc, cluster id) with
        (load, shard index) tie-breaks, so given the same cost estimates
        the assignment is a pure function of the queue state.
        """
        threshold = self.rebalance_threshold
        if threshold is None:
            return self.plan.shard_of
        n = self.plan.n_shards
        weights = [
            self._predicted(cluster.cluster_id, len(requests))
            for cluster, requests in work
        ]
        loads = [0.0] * n
        for (cluster, _), weight in zip(work, weights):
            loads[self._sticky[cluster.cluster_id]] += weight
        total = sum(loads)
        if total <= 0 or max(loads) * n <= threshold * total:
            return self._sticky
        order = sorted(
            range(len(work)),
            key=lambda i: (-weights[i], work[i][0].cluster_id),
        )
        loads = [0.0] * n
        shard_of = dict(self._sticky)
        for i in order:
            target = min(range(n), key=lambda s: (loads[s], s))
            shard_of[work[i][0].cluster_id] = target
            loads[target] += weights[i]
        self._sticky = shard_of
        self.rebalances += 1
        return shard_of

    def _note_cost(self, cluster_id: int, n_requests: int, busy_s: float) -> None:
        if n_requests <= 0 or busy_s <= 0.0:
            return
        per_req = busy_s / n_requests
        prev = self._cost.get(cluster_id)
        self._cost[cluster_id] = (
            per_req if prev is None else 0.7 * prev + 0.3 * per_req
        )

    def run(self, ctx: SimContext) -> None:
        scheduler = ctx.lc_scheduler
        if not isinstance(scheduler, DSSLCScheduler):
            self.fallback.run(ctx)
            return
        now_ms = ctx.now_ms
        t_build = time.perf_counter()
        work: List[tuple] = []  # (cluster, drained requests), canonical order
        for cluster in ctx.system.clusters:
            if cluster.lc_queue:
                work.append((cluster, cluster.drain_lc()))
        if not work:
            return
        snapshot = ctx.snapshot
        audit = scheduler.audit_log is not None
        per_shard: List[List[_MasterPayload]] = [
            [] for _ in range(self.plan.n_shards)
        ]
        shard_of = self._assign_shards(work)
        for cluster, requests in work:
            eligible = ctx.system.nearby_clusters(cluster.cluster_id)
            nodes = snapshot.nodes_of(list(eligible))
            minima: Dict[str, tuple] = {}
            if nodes:
                for service, group in group_by_type(requests).items():
                    minima[service] = scheduler.minima_for(group[0].spec, nodes)
            policy = scheduler.priority_for(cluster.cluster_id)
            per_shard[shard_of[cluster.cluster_id]].append(
                _MasterPayload(
                    cluster_id=cluster.cluster_id,
                    requests=[
                        _ReqLite(r.request_id, r.arrival_ms, r.spec)
                        for r in requests
                    ],
                    nodes=nodes,
                    minima=minima,
                    rng_state=(
                        policy.rng.bit_generator.state
                        if hasattr(policy, "rng")
                        else None
                    ),
                )
            )
        payloads = [
            _ShardPayload(
                shard_index=i,
                now_ms=now_ms,
                snapshot_time_ms=snapshot.time_ms,
                delay_ms=snapshot.delay_ms,
                config=scheduler.config,
                audit=audit,
                masters=masters,
            )
            for i, masters in enumerate(per_shard)
            if masters
        ]
        build_s = time.perf_counter() - t_build

        results = self.executor.run_tasks(run_lc_shard, payloads)

        t_merge = time.perf_counter()
        self.ticks += 1
        tick_max_busy = 0.0
        by_cluster: Dict[int, _MasterResult] = {}
        for shard in results:
            self.shard_busy_s[shard.shard_index] = (
                self.shard_busy_s.get(shard.shard_index, 0.0) + shard.busy_s
            )
            self.total_busy_s += shard.busy_s
            tick_max_busy = max(tick_max_busy, shard.busy_s)
            for master in shard.masters:
                by_cluster[master.cluster_id] = master
        self.critical_busy_s += tick_max_busy

        for cluster, requests in work:
            result = by_cluster[cluster.cluster_id]
            self._note_cost(cluster.cluster_id, len(requests), result.busy_s)
            policy = scheduler.priority_for(cluster.cluster_id)
            if result.rng_state is not None and hasattr(policy, "rng"):
                policy.rng.bit_generator.state = result.rng_state
            scheduler.case2_rounds += result.case2_delta
            scheduler.decision_latencies_ms.append(result.decision_ms)
            if audit:
                scheduler.audit_log.extend(result.audit)
            scheduler.emitter.dispatch_round(
                now_ms,
                "dss-lc",
                cluster.cluster_id,
                len(requests),
                len(result.assigned),
                result.flow_cost_ms,
                decision_ms=result.decision_ms,
                case2=result.case2_delta > 0,
            )
            assigned_idx = set()
            for index, node_name, cluster_id, cost_ms in result.assigned:
                assigned_idx.add(index)
                ship(
                    ctx,
                    Assignment(
                        request=requests[index],
                        node_name=node_name,
                        cluster_id=cluster_id,
                        cost_ms=cost_ms,
                    ),
                    cluster.cluster_id,
                    now_ms,
                )
            for index, request in enumerate(requests):
                if index not in assigned_idx:
                    cluster.lc_queue.append(request)
        self.overhead_s += build_s + (time.perf_counter() - t_merge)

    def stats(self) -> Dict[str, Any]:
        return {
            "ticks": self.ticks,
            "rebalances": self.rebalances,
            "critical_busy_s": round(self.critical_busy_s, 6),
            "total_busy_s": round(self.total_busy_s, 6),
            "overhead_s": round(self.overhead_s, 6),
            "shard_busy_s": {
                k: round(v, 6) for k, v in sorted(self.shard_busy_s.items())
            },
        }


class ShardedRefreshStage(Stage):
    """Per-shard snapshot collection; concatenated in shard order."""

    name = "refresh"

    def __init__(self, plan: ShardPlan, executor: ShardExecutor) -> None:
        self.plan = plan
        self.executor = executor

    def run(self, ctx: SimContext) -> None:
        ctx.snapshot = ctx.storage.refresh_partitioned(
            ctx.now_ms, self.plan.split_nodes(ctx.worker_list), self.executor
        )


class ShardedStepStage(Stage):
    """Node stepping in per-shard slices, merged in canonical node order.

    Workers buffer each node's observable output — the manager's emissions
    during ``step`` (captured by swapping a
    :class:`~repro.obs.emitter.BufferingEmitter` in) plus the
    completed/evicted/abandoned lists — without touching the run's
    collector or queues.  The barrier replays per node, in ``worker_list``
    order, exactly the serial interleaving: manager events, completions
    (with BE ``note_completion``), evictions (with requeue), abandons.

    Slices run concurrently only when their managers are disjoint; the
    default topologies share one manager object across all workers (its
    counters and D-VPA maps are not synchronized), so shards then step
    sequentially in shard order — same result, by construction.
    """

    name = "step"

    def __init__(self, plan: ShardPlan, executor: ShardExecutor) -> None:
        self.plan = plan
        self.executor = executor
        #: manager disjointness is a topology property; computed once.
        self._disjoint: Optional[bool] = None

    @staticmethod
    def _managers_disjoint(slices: List[List[Any]]) -> bool:
        seen: set = set()
        for members in slices:
            mine = {
                id(node.manager)
                for node in members
                if node.manager is not None
            }
            if mine & seen:
                return False
            seen |= mine
        return True

    def run(self, ctx: SimContext) -> None:
        now_ms = ctx.now_ms
        dt = ctx.config.tick_ms
        active = ctx.active
        skip_idle = ctx.idle_skip_ok
        injector = ctx.injector
        enabled = ctx.emit.enabled

        def step_slice(nodes: List[Any]) -> List[tuple]:
            out: List[tuple] = []
            for node in nodes:
                if skip_idle and node not in active:
                    continue
                if injector is not None and injector.node_is_down(node.name):
                    continue
                manager = node.manager
                buffer = BufferingEmitter(enabled)
                original = None
                if manager is not None:
                    original = manager.emitter
                    manager.emitter = buffer
                try:
                    completed, evicted, abandoned = node.step(now_ms, dt)
                finally:
                    if manager is not None:
                        manager.emitter = original
                out.append((node, buffer, completed, evicted, abandoned))
            return out

        slices = [s for s in self.plan.split_nodes(ctx.worker_list) if s]
        if self._disjoint is None:
            self._disjoint = self._managers_disjoint(slices)
        if isinstance(self.executor, SerialShardExecutor) or self._disjoint:
            batches = self.executor.run_tasks(step_slice, slices)
        else:
            batches = [step_slice(s) for s in slices]

        emit = ctx.emit
        for batch in batches:
            for node, buffer, completed, evicted, abandoned in batch:
                if skip_idle and not node.is_active:
                    active.discard(node)
                buffer.replay(emit)
                for request in completed:
                    emit.completed(now_ms, request, node.name)
                    if not request.is_lc and hasattr(
                        ctx.be_scheduler, "note_completion"
                    ):
                        ctx.be_scheduler.note_completion(
                            request, node.capacity.cpu, node.capacity.memory
                        )
                for request in evicted:
                    emit.evicted(now_ms, request, node.name, "preemption")
                    requeue_evicted(ctx, request, now_ms)
                for request in abandoned:
                    emit.abandoned(now_ms, request, "node-queue")


class ShardedReassureStage(Stage):
    """Active-services map collected per shard; the re-assurance pass
    itself stays central (it is cheap and mutates shared HRM state)."""

    name = "reassure"

    def __init__(self, plan: ShardPlan, executor: ShardExecutor) -> None:
        self.plan = plan
        self.executor = executor

    def run(self, ctx: SimContext) -> None:
        if ctx.reassurance is None:
            return
        active_set = ctx.active if ctx.idle_skip_ok else None

        def collect(nodes: List[Any]) -> Dict[str, Dict[str, ServiceSpec]]:
            part: Dict[str, Dict[str, ServiceSpec]] = {}
            for node in nodes:
                if active_set is not None and node not in active_set:
                    continue
                if not node.running:
                    continue
                services: Dict[str, ServiceSpec] = {}
                for rr in node.running.values():
                    if rr.request.is_lc:
                        services[rr.request.spec.name] = rr.request.spec
                if services:
                    part[node.name] = services
            return part

        slices = [s for s in self.plan.split_nodes(ctx.worker_list) if s]
        parts = self.executor.run_tasks(collect, slices)
        active: Dict[str, Dict[str, ServiceSpec]] = {}
        for part in parts:  # shard order == canonical node order
            active.update(part)
        if active:
            ctx.reassurance.run(ctx.now_ms, active)


# ---------------------------------------------------------------------- #
# coordinator
# ---------------------------------------------------------------------- #
class ShardCoordinator:
    """Owns the shard plan and worker pools; swaps sharded stages into a
    runner's pipeline.

    Holds no simulation state — a checkpoint taken under N shards resumes
    under M shards (or serially) unchanged, because sharding only
    restructures *execution*, never semantics.
    """

    def __init__(self, system: Any, n_shards: int, backend: str) -> None:
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown parallel backend {backend!r}; want {BACKENDS}"
            )
        cluster_ids = [c.cluster_id for c in system.clusters]
        self.plan = ShardPlan.build(cluster_ids, n_shards)
        self.backend = backend
        n = self.plan.n_shards
        #: pool for the CPU-heavy LC solves (process-capable).
        self.compute = make_executor(backend, n)
        #: pool for stages that must share the parent's live objects
        #: (refresh/step/reassure) — threads when the compute pool is
        #: process-based, otherwise the same executor.
        self.local: ShardExecutor = (
            ThreadShardExecutor(n) if backend == "process" else self.compute
        )
        self.lc_stage: Optional[ShardedLCDispatchStage] = None

    def install(self, pipeline: TickPipeline) -> TickPipeline:
        """Replace the parallelizable stages in place (profiled wrappers
        keep working: stage names are preserved)."""
        stages: List[Stage] = []
        for stage in pipeline.stages:
            if isinstance(stage, LCDispatchStage):
                self.lc_stage = ShardedLCDispatchStage(
                    self.plan, self.compute, fallback=stage
                )
                stage = self.lc_stage
            elif isinstance(stage, RefreshStage):
                stage = ShardedRefreshStage(self.plan, self.local)
            elif isinstance(stage, StepNodesStage):
                stage = ShardedStepStage(self.plan, self.local)
            elif isinstance(stage, ReassureStage):
                stage = ShardedReassureStage(self.plan, self.local)
            stages.append(stage)
        pipeline.stages[:] = stages
        return pipeline

    def stats(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "n_shards": self.plan.n_shards,
            "backend": self.backend,
            "shards": [list(s) for s in self.plan.shards],
        }
        if self.lc_stage is not None:
            out["lc"] = self.lc_stage.stats()
        return out

    def close(self) -> None:
        self.compute.close()
        if self.local is not self.compute:
            self.local.close()
