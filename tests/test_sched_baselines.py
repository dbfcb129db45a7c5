"""Scheduling-baseline tests: load-greedy, K8s-native RR, scoring."""

from repro.core.state_storage import NodeSnapshot, SystemSnapshot
from repro.scheduling.baselines import (
    K8sNativeScheduler,
    LoadGreedyScheduler,
    ScoringScheduler,
)
from repro.sim.request import ServiceRequest
from repro.workloads.spec import ServiceKind, default_catalog

CATALOG = default_catalog()
LC = next(s for s in CATALOG if s.kind is ServiceKind.LC)


def node(name, cluster, cpu_ava, mem_ava=16384.0, queue=0):
    return NodeSnapshot(
        name=name,
        cluster_id=cluster,
        cpu_total=16.0,
        cpu_available=cpu_ava,
        mem_total=32768.0,
        mem_available=mem_ava,
        lc_queue=queue,
        be_queue=0,
        running=0,
        min_slack=1.0,
    )


def snapshot(nodes, n_clusters=2):
    delays = [
        [1.0 if a == b else 30.0 for b in range(n_clusters)]
        for a in range(n_clusters)
    ]
    return SystemSnapshot(
        time_ms=0.0, nodes=nodes, delay_ms=delays, central_cluster_id=0
    )


def reqs(n):
    return [ServiceRequest(spec=LC, origin_cluster=0, arrival_ms=0.0) for _ in range(n)]


class TestLoadGreedy:
    def test_picks_least_loaded(self):
        sched = LoadGreedyScheduler()
        nodes = [node("busy", 0, 2.0), node("idle", 0, 14.0)]
        out = sched.dispatch(0, reqs(1), snapshot(nodes), [0], 0.0)
        assert out[0].node_name == "idle"

    def test_local_queue_mitigation_spreads_bursts(self):
        sched = LoadGreedyScheduler()
        nodes = [node("a", 0, 14.0), node("b", 0, 13.9)]
        out = sched.dispatch(0, reqs(20), snapshot(nodes), [0], 0.0)
        names = {a.node_name for a in out}
        assert names == {"a", "b"}  # backlog term spreads within the round

    def test_no_nodes_returns_empty(self):
        sched = LoadGreedyScheduler()
        assert sched.dispatch(0, reqs(3), snapshot([]), [0], 0.0) == []

    def test_be_role_uses_all_nodes(self):
        sched = LoadGreedyScheduler()
        nodes = [node("a", 0, 2.0), node("b", 1, 14.0)]
        out = sched.dispatch_be(reqs(1), snapshot(nodes), 0.0)
        assert out[0].node_name == "b"


class TestK8sNative:
    def test_round_robin_cycles(self):
        sched = K8sNativeScheduler()
        nodes = [node("a", 0, 8.0), node("b", 0, 8.0), node("c", 0, 8.0)]
        out = sched.dispatch(0, reqs(6), snapshot(nodes), [0], 0.0)
        assert [a.node_name for a in out] == ["a", "b", "c", "a", "b", "c"]

    def test_blind_to_load(self):
        sched = K8sNativeScheduler()
        nodes = [node("full", 0, 0.0), node("idle", 0, 16.0)]
        out = sched.dispatch(0, reqs(2), snapshot(nodes), [0], 0.0)
        # RR hits the full node anyway — the §2.1 criticism
        assert out[0].node_name == "full"

    def test_per_service_cursor(self):
        sched = K8sNativeScheduler()
        nodes = [node("a", 0, 8.0), node("b", 0, 8.0)]
        lc2 = [s for s in CATALOG if s.kind is ServiceKind.LC][1]
        r1 = ServiceRequest(spec=LC, origin_cluster=0, arrival_ms=0.0)
        r2 = ServiceRequest(spec=lc2, origin_cluster=0, arrival_ms=0.0)
        out = sched.dispatch(0, [r1, r2], snapshot(nodes), [0], 0.0)
        assert [a.node_name for a in out] == ["a", "a"]


class TestScoring:
    def test_prefers_free_and_close(self):
        sched = ScoringScheduler()
        nodes = [node("near-free", 0, 14.0), node("far-free", 1, 14.0)]
        out = sched.dispatch(0, reqs(1), snapshot(nodes), [0, 1], 0.0)
        assert out[0].node_name == "near-free"

    def test_queue_penalty(self):
        sched = ScoringScheduler()
        nodes = [node("quiet", 0, 10.0, queue=0), node("backed", 0, 10.0, queue=30)]
        out = sched.dispatch(0, reqs(1), snapshot(nodes), [0], 0.0)
        assert out[0].node_name == "quiet"

    def test_working_copy_spreads_sequential_requests(self):
        sched = ScoringScheduler()
        nodes = [node("a", 0, 10.0), node("b", 0, 10.0)]
        out = sched.dispatch(0, reqs(8), snapshot(nodes), [0], 0.0)
        names = {a.node_name for a in out}
        assert names == {"a", "b"}

    def test_be_role(self):
        sched = ScoringScheduler()
        nodes = [node("a", 0, 14.0), node("b", 1, 2.0)]
        out = sched.dispatch_be(reqs(1), snapshot(nodes), 0.0)
        assert len(out) == 1
