"""DCG-BE scheduler tests: topology encoding, context filter, rewards."""

import math

import numpy as np
import pytest

from repro.core.state_storage import NodeSnapshot, SystemSnapshot
from repro.scheduling.dcg_be import (
    DCGBEConfig,
    DCGBEScheduler,
    N_NODE_FEATURES,
    build_topology,
)
from repro.scheduling.gnn_sac import GNNSACScheduler
from repro.baselines.dsaco import DSACOScheduler
from repro.sim.request import ServiceRequest
from repro.workloads.spec import ServiceKind, default_catalog

CATALOG = default_catalog()
BE = next(s for s in CATALOG if s.kind is ServiceKind.BE)


def node(name, cluster, cpu_ava=12.0, mem_ava=24000.0):
    return NodeSnapshot(
        name=name,
        cluster_id=cluster,
        cpu_total=16.0,
        cpu_available=cpu_ava,
        mem_total=32768.0,
        mem_available=mem_ava,
        lc_queue=0,
        be_queue=0,
        running=0,
        min_slack=1.0,
    )


def snapshot(nodes, n_clusters=3, central=0):
    delays = [
        [1.0 if a == b else (20.0 if abs(a - b) == 1 else 80.0)
         for b in range(n_clusters)]
        for a in range(n_clusters)
    ]
    return SystemSnapshot(
        time_ms=0.0, nodes=nodes, delay_ms=delays, central_cluster_id=central
    )


def be_reqs(n):
    return [ServiceRequest(spec=BE, origin_cluster=0, arrival_ms=0.0) for _ in range(n)]


class TestTopologyBuilder:
    def test_lan_clique_within_cluster(self):
        nodes = [node("a", 0), node("b", 0), node("c", 1)]
        adj = build_topology(nodes, snapshot(nodes))
        assert 1 in adj[0] and 0 in adj[1]

    def test_wan_gateway_to_central(self):
        nodes = [node("a", 0), node("b", 1), node("c", 2)]
        adj = build_topology(nodes, snapshot(nodes, central=0))
        # cluster 2 is 80 ms away but central is 0 → gateway edge exists
        assert 2 in adj[0] or 0 in adj[2]

    def test_distant_noncentral_clusters_not_linked(self):
        nodes = [node("a", 1), node("b", 2), node("x", 0)]
        snap = snapshot(nodes, central=0)
        adj = build_topology(nodes, snap)
        # clusters 1 and 2 are adjacent (20ms ≤ 40ms) so they ARE linked;
        # make them distant instead
        snap.delay_ms[1][2] = snap.delay_ms[2][1] = 90.0
        adj = build_topology(nodes, snap)
        assert 1 not in adj[0] or True  # smoke structure
        a_idx, b_idx = 0, 1
        assert b_idx not in adj[a_idx]


class TestDispatch:
    def test_assignments_for_all_feasible(self):
        sched = DCGBEScheduler(DCGBEConfig(seed=0))
        nodes = [node(f"n{i}", i % 3) for i in range(6)]
        out = sched.dispatch_be(be_reqs(5), snapshot(nodes), 0.0)
        assert len(out) == 5
        assert sched.decisions == 5

    def test_context_filter_masks_full_nodes(self):
        sched = DCGBEScheduler(DCGBEConfig(seed=0))
        nodes = [node("full", 0, cpu_ava=0.0, mem_ava=0.0), node("ok", 1)]
        out = sched.dispatch_be(be_reqs(4), snapshot(nodes), 0.0)
        assert all(a.node_name == "ok" for a in out)

    def test_saturated_system_still_ships_work(self):
        """With every node full, requests are still sent to a target node
        (they wait in its queue), and the event is counted."""
        sched = DCGBEScheduler(DCGBEConfig(seed=0))
        nodes = [node("full", 0, cpu_ava=0.0, mem_ava=0.0)]
        out = sched.dispatch_be(be_reqs(3), snapshot(nodes), 0.0)
        assert len(out) == 3
        assert sched.requeues == 3

    def test_working_copy_prevents_single_node_overcommit(self):
        sched = DCGBEScheduler(DCGBEConfig(seed=0))
        # one node with room for exactly 2 requests' minima
        cpu = BE.min_resources.cpu * 2.2
        mem = BE.min_resources.memory * 2.2
        nodes = [node("tight", 0, cpu_ava=cpu, mem_ava=mem), node("big", 1)]
        out = sched.dispatch_be(be_reqs(8), snapshot(nodes), 0.0)
        tight = sum(1 for a in out if a.node_name == "tight")
        assert tight <= 2

    def test_max_per_round_cap(self):
        sched = DCGBEScheduler(DCGBEConfig(seed=0, max_per_round=3))
        nodes = [node(f"n{i}", 0) for i in range(4)]
        out = sched.dispatch_be(be_reqs(10), snapshot(nodes), 0.0)
        assert len(out) == 3

    def test_empty_inputs(self):
        sched = DCGBEScheduler()
        assert sched.dispatch_be([], snapshot([node("a", 0)]), 0.0) == []
        assert sched.dispatch_be(be_reqs(1), snapshot([]), 0.0) == []


class TestFeatures:
    def test_fast_path_equals_scalar_loop(self):
        """DCG-BE's vectorised ``_features_fast`` is bit-identical to the
        per-node ``_features`` loop GNN-SAC runs, including the 1e-9 clamp
        on zero totals, negative available resources and the 2.0 cap on
        queue pressure."""
        rng = np.random.default_rng(0)
        sched = DCGBEScheduler()
        for case in range(200):
            n = int(rng.integers(1, 12))
            cpu_tot = rng.choice([0.0, 0.5, 4.0, 16.0, 64.0], size=n)
            mem_tot = rng.choice([0.0, 512.0, 8192.0, 32768.0], size=n)
            nodes = [
                NodeSnapshot(
                    name=f"n{i}",
                    cluster_id=i % 3,
                    cpu_total=float(cpu_tot[i]),
                    cpu_available=float(cpu_tot[i] * rng.uniform(-0.5, 1.0)),
                    mem_total=float(mem_tot[i]),
                    mem_available=float(mem_tot[i] * rng.uniform(-0.5, 1.0)),
                    lc_queue=0,
                    be_queue=0,
                    running=0,
                    min_slack=float(rng.uniform(-1.0, 1.0)),
                )
                for i in range(n)
            ]
            cpu_ava = np.array([nd.cpu_available for nd in nodes])
            mem_ava = np.array([nd.mem_available for nd in nodes])
            # up to 3x the node's CPU, so the min(2.0, ...) cap is hit
            pending_cpu = (
                np.maximum(cpu_tot, 1.0) * rng.uniform(0.0, 3.0, size=n)
            )
            spec = CATALOG[case % len(CATALOG)]
            _, tot_c, tot_m, cols = sched._static_state(snapshot(nodes))
            fast = sched._features_fast(
                cpu_ava, mem_ava, pending_cpu, spec, tot_c, tot_m, cols
            )
            slow = sched._features(nodes, cpu_ava, mem_ava, pending_cpu, spec)
            assert np.array_equal(fast, slow), case


class TestReward:
    def test_short_term_reward_formula(self):
        """r_short = exp(−max(Σcpu/cpu_node, Σmem/mem_node))."""
        sched = DCGBEScheduler(DCGBEConfig(seed=0, eta=0.0))
        nodes = [node("a", 0)]
        pending_cpu = np.array([4.0])
        pending_mem = np.array([8192.0])
        r = sched._reward(0, nodes, pending_cpu, pending_mem)
        expected = math.exp(-max(4.0 / 16.0, 8192.0 / 32768.0))
        assert r == pytest.approx(expected)

    def test_long_term_reward_accumulates_completions(self):
        sched = DCGBEScheduler(DCGBEConfig(seed=0, eta=1.0))
        assert sched._long_term_reward() == pytest.approx(0.0)
        req = be_reqs(1)[0]
        sched.note_completion(req, node_cpu=16.0, node_mem=32768.0)
        assert sched._long_term_reward() > 0.0

    def test_reward_resets_completion_mass(self):
        sched = DCGBEScheduler(DCGBEConfig(seed=0))
        sched.note_completion(be_reqs(1)[0], 16.0, 32768.0)
        nodes = [node("a", 0)]
        sched._reward(0, nodes, np.zeros(1), np.zeros(1))
        assert sched._completion_mass == 0.0

    def test_training_happens_online(self):
        sched = DCGBEScheduler(DCGBEConfig(seed=0, train_interval=8))
        nodes = [node(f"n{i}", i % 2) for i in range(4)]
        for _ in range(4):
            sched.dispatch_be(be_reqs(4), snapshot(nodes), 0.0)
        assert sched.agent.train_steps >= 1


class TestVariants:
    def test_gnn_sac_same_interface(self):
        sched = GNNSACScheduler(DCGBEConfig(seed=0))
        nodes = [node(f"n{i}", i % 2) for i in range(4)]
        out = sched.dispatch_be(be_reqs(6), snapshot(nodes), 0.0)
        assert len(out) == 6

    def test_dsaco_lc_protocol(self):
        sched = DSACOScheduler()
        nodes = [node(f"n{i}", i % 2) for i in range(4)]
        reqs = be_reqs(3)
        out = sched.dispatch(0, reqs, snapshot(nodes), [0, 1], 0.0)
        assert len(out) == 3

    def test_dsaco_respects_eligibility(self):
        sched = DSACOScheduler()
        nodes = [node("a", 0), node("b", 1), node("c", 2)]
        out = sched.dispatch(0, be_reqs(4), snapshot(nodes), [0], 0.0)
        assert all(a.cluster_id == 0 for a in out)
