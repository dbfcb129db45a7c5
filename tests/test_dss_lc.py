"""DSS-LC scheduler tests: both Alg. 2 cases, Eq. 7-8, decision latency."""

import copy

from hypothesis import given, settings, strategies as st

from repro.core.state_storage import NodeSnapshot, SystemSnapshot
from repro.hrm.qos import QoSDetector
from repro.hrm.reassurance import ReassuranceConfig, ReassuranceMechanism
from repro.scheduling.dss_lc import (
    DSSLCConfig,
    DSSLCScheduler,
    augmented_capacities,
)
from repro.sim.request import ServiceRequest
from repro.workloads.spec import ServiceKind, default_catalog

CATALOG = default_catalog()
LCS = [s for s in CATALOG if s.kind is ServiceKind.LC]
LC, LC2 = LCS[0], LCS[1]


def node(name, cluster, cpu_ava, mem_ava, cpu_total=16.0, mem_total=32768.0,
         lc_queue=0):
    return NodeSnapshot(
        name=name,
        cluster_id=cluster,
        cpu_total=cpu_total,
        cpu_available=cpu_ava,
        mem_total=mem_total,
        mem_available=mem_ava,
        lc_queue=lc_queue,
        be_queue=0,
        running=0,
        min_slack=1.0,
    )


def snapshot(nodes, n_clusters=2):
    delays = [
        [1.0 if a == b else 20.0 for b in range(n_clusters)]
        for a in range(n_clusters)
    ]
    return SystemSnapshot(
        time_ms=0.0, nodes=nodes, delay_ms=delays, central_cluster_id=0
    )


def minima(sched, spec, snap):
    """DSS-LC's per-request minima over every node of ``snap``."""
    return sched._per_request_minima(spec, snap.view(), snap)


def requests(n, spec=LC):
    return [
        ServiceRequest(spec=spec, origin_cluster=0, arrival_ms=0.0)
        for _ in range(n)
    ]


class TestCase1:
    """Demand ≤ capacity: single graph G_k."""

    def test_all_requests_placed(self):
        sched = DSSLCScheduler()
        nodes = [node("a", 0, 8.0, 16384.0), node("b", 1, 8.0, 16384.0)]
        out = sched.dispatch(0, requests(4), snapshot(nodes), [0, 1], 0.0)
        assert len(out) == 4

    def test_prefers_local_cluster(self):
        sched = DSSLCScheduler()
        nodes = [node("local", 0, 8.0, 16384.0), node("remote", 1, 8.0, 16384.0)]
        out = sched.dispatch(0, requests(3), snapshot(nodes), [0, 1], 0.0)
        assert all(a.node_name == "local" for a in out)

    def test_spills_to_remote_when_local_full(self):
        # target_fill=1.0 isolates the pure Eq. 2 capacity semantics
        sched = DSSLCScheduler(DSSLCConfig(target_fill=1.0))
        # local can absorb only 1 request of this type
        r_cpu = LC.min_resources.cpu
        r_mem = LC.min_resources.memory
        nodes = [
            node("local", 0, r_cpu * 1.5, r_mem * 1.5),
            node("remote", 1, 100.0, 1e6),
        ]
        out = sched.dispatch(0, requests(4), snapshot(nodes), [0, 1], 0.0)
        assert len(out) == 4
        by_node = {}
        for a in out:
            by_node[a.node_name] = by_node.get(a.node_name, 0) + 1
        assert by_node.get("local", 0) == 1
        assert by_node.get("remote", 0) == 3

    def test_groups_by_type(self):
        sched = DSSLCScheduler()
        nodes = [node("a", 0, 32.0, 65536.0)]
        mixed = requests(2, LC) + requests(2, LC2)
        out = sched.dispatch(0, mixed, snapshot(nodes), [0], 0.0)
        assert len(out) == 4

    def test_empty_queue_no_assignments(self):
        sched = DSSLCScheduler()
        assert sched.dispatch(0, [], snapshot([node("a", 0, 8, 8192)]), [0], 0.0) == []

    def test_no_eligible_nodes(self):
        sched = DSSLCScheduler()
        out = sched.dispatch(0, requests(2), snapshot([]), [0], 0.0)
        assert out == []


class TestCase2:
    """Demand > capacity: split into R_k (placed) and R'_k (queued, Eq. 7-8)."""

    def overload(self, n_requests=10):
        r_cpu = LC.min_resources.cpu
        r_mem = LC.min_resources.memory
        # capacity for 2 requests immediately; total resources differ 3:1
        nodes = [
            node("big", 0, r_cpu * 1.2, r_mem * 1.2, cpu_total=12.0, mem_total=24576.0),
            node("small", 1, r_cpu * 1.2, r_mem * 1.2, cpu_total=4.0, mem_total=8192.0),
        ]
        sched = DSSLCScheduler(DSSLCConfig(seed=5))
        out = sched.dispatch(0, requests(n_requests), snapshot(nodes), [0, 1], 0.0)
        return sched, out, nodes

    def test_all_requests_still_dispatched(self):
        sched, out, _ = self.overload()
        assert len(out) == 10
        assert sched.case2_rounds == 1

    def test_queued_remainder_follows_total_resources(self):
        """Ĝ'_k capacities ∝ total node resources (heterogeneity, Eq. 7)."""
        _, out, _ = self.overload(n_requests=18)
        counts = {}
        for a in out:
            counts[a.node_name] = counts.get(a.node_name, 0) + 1
        # the big node (3× the total resources) must receive clearly more
        assert counts["big"] > counts["small"]

    def test_augmentation_factor_conserves_count(self):
        caps = augmented_capacities([12, 4], 9)
        assert sum(caps) == 9
        assert caps[0] > caps[1]

    def test_augmentation_degenerate_total_zero(self):
        caps = augmented_capacities([0, 0, 0], 7)
        assert sum(caps) == 7

    def test_queue_push_cap_bounds_case2(self):
        sched = DSSLCScheduler(DSSLCConfig(max_queue_push=3, seed=1))
        r_cpu = LC.min_resources.cpu
        nodes = [node("a", 0, r_cpu * 1.1, LC.min_resources.memory * 1.1)]
        out = sched.dispatch(0, requests(50), snapshot(nodes, 1), [0], 0.0)
        assert len(out) <= 1 + 3  # one immediate + capped queue push

    def test_queued_graph_subtracts_immediate_assignments(self):
        """Regression: Ĝ'_k capacities were built from total resources
        without deducting this round's R_k placements, double-counting the
        units the immediate graph just consumed and over-assigning the
        exhausted node past its physical capacity."""
        r_cpu = LC.min_resources.cpu
        r_mem = LC.min_resources.memory
        nodes = [
            # "a": fully available but small — exactly 4 units, all of
            # which the immediate R_k graph will consume
            node("a", 0, r_cpu * 4.2, r_mem * 4.2,
                 cpu_total=r_cpu * 4.5, mem_total=r_mem * 4.5),
            # "b": nothing available now but a large total — the queued
            # remainder's only legitimate destination
            node("b", 1, r_cpu * 0.2, r_mem * 0.2,
                 cpu_total=r_cpu * 12.5, mem_total=r_mem * 12.5),
        ]
        sched = DSSLCScheduler(DSSLCConfig(target_fill=1.0, seed=7))
        out = sched.dispatch(0, requests(16), snapshot(nodes), [0, 1], 0.0)
        assert len(out) == 16
        assert sched.case2_rounds == 1
        counts = {}
        for a in out:
            counts[a.node_name] = counts.get(a.node_name, 0) + 1
        # before the fix "a" received 4 immediate + 3 queued = 7 > its
        # 4-unit total; post-fix its queued share is zero
        assert counts["a"] == 4
        assert counts["b"] == 12

    def test_boundary_at_exact_capacity(self):
        """pending == total immediate capacity stays in case 1; one more
        request tips into case 2 without over-assigning any node."""
        r_cpu = LC.min_resources.cpu
        r_mem = LC.min_resources.memory

        def overloadable():
            # each node absorbs exactly 3 requests immediately
            return [
                node("a", 0, r_cpu * 3.2, r_mem * 3.2),
                node("b", 1, r_cpu * 3.2, r_mem * 3.2),
            ]

        for pending, case2 in ((5, 0), (6, 0), (7, 1)):
            sched = DSSLCScheduler(DSSLCConfig(target_fill=1.0, seed=2))
            out = sched.dispatch(
                0, requests(pending), snapshot(overloadable()), [0, 1], 0.0
            )
            assert len(out) == pending, f"pending={pending}"
            assert sched.case2_rounds == case2, f"pending={pending}"
            counts = {}
            for a in out:
                counts[a.node_name] = counts.get(a.node_name, 0) + 1
            # physical bound: never beyond a node's total units (16 cpu /
            # r_cpu each with the default totals)
            total_units = int(min(16.0 / r_cpu, 32768.0 / r_mem))
            assert all(c <= total_units for c in counts.values())

    def test_audit_records_round_inputs_and_counts(self):
        sched = DSSLCScheduler(DSSLCConfig(seed=5))
        sched.audit_log = []
        r_cpu = LC.min_resources.cpu
        r_mem = LC.min_resources.memory
        nodes = [
            node("big", 0, r_cpu * 1.2, r_mem * 1.2,
                 cpu_total=12.0, mem_total=24576.0),
            node("small", 1, r_cpu * 1.2, r_mem * 1.2,
                 cpu_total=4.0, mem_total=8192.0),
        ]
        out = sched.dispatch(0, requests(10), snapshot(nodes), [0, 1], 0.0)
        assert len(sched.audit_log) == 1
        rec = sched.audit_log[0]
        assert rec.service == LC.name
        assert rec.node_names == ["big", "small"]
        assert sum(rec.immediate_counts) + sum(rec.queued_counts) == len(out)
        assert rec.n_queued == sum(rec.queued_counts)
        assert rec.target_fill == sched.config.target_fill


class TestMastersCommute:
    """Each master owns its ρ(·) stream, so dispatch order across masters
    changes neither assignments nor any master's RNG position."""

    @staticmethod
    def saturated_batch(master, n=12):
        return [
            ServiceRequest(spec=LC, origin_cluster=master, arrival_ms=0.0)
            for _ in range(n)
        ]

    @staticmethod
    def saturated_nodes():
        r_cpu = LC.min_resources.cpu
        r_mem = LC.min_resources.memory
        # two immediate units in total: a 12-request batch is case 2
        return [
            node("big", 0, r_cpu * 1.2, r_mem * 1.2,
                 cpu_total=12.0, mem_total=24576.0),
            node("small", 1, r_cpu * 1.2, r_mem * 1.2,
                 cpu_total=4.0, mem_total=8192.0),
        ]

    def run_in_order(self, masters):
        sched = DSSLCScheduler(DSSLCConfig(seed=9))
        placed = {}
        for master in masters:
            batch = self.saturated_batch(master)
            index = {id(r): i for i, r in enumerate(batch)}
            out = sched.dispatch(
                master, batch, snapshot(self.saturated_nodes()), [0, 1], 0.0
            )
            placed[master] = [
                (index[id(a.request)], a.node_name, a.cluster_id, a.cost_ms)
                for a in out
            ]
        rng_states = {
            m: sched.priority_for(m).rng.bit_generator.state for m in masters
        }
        return sched, placed, rng_states

    def test_dispatch_order_across_masters_is_unobservable(self):
        fwd, placed_fwd, rng_fwd = self.run_in_order([0, 1])
        rev, placed_rev, rng_rev = self.run_in_order([1, 0])
        assert fwd.case2_rounds == rev.case2_rounds == 2
        assert placed_fwd == placed_rev
        assert all(len(p) == 12 for p in placed_fwd.values())
        assert rng_fwd == rng_rev
        # ρ(·) was actually drawn from: each stream left its seed position
        fresh = DSSLCScheduler(DSSLCConfig(seed=9))
        for master in (0, 1):
            assert (
                rng_fwd[master]
                != fresh.priority_for(master).rng.bit_generator.state
            )


class TestCapacityCorrections:
    def test_headroom_reserves_contention_margin(self):
        """With target_fill<1, a node near the knee gets no capacity."""
        sched = DSSLCScheduler(DSSLCConfig(target_fill=0.85))
        r_cpu = LC.min_resources.cpu
        r_mem = LC.min_resources.memory
        # available is positive but below the 15% headroom slice
        hot = node("hot", 0, 2.0, 2048.0, cpu_total=16.0, mem_total=32768.0)
        cool = node("cool", 0, 12.0, 24000.0, cpu_total=16.0, mem_total=32768.0)
        out = sched.dispatch(0, requests(3), snapshot([hot, cool]), [0], 0.0)
        assert all(a.node_name == "cool" for a in out)

    def test_existing_queue_consumes_capacity(self):
        sched = DSSLCScheduler(DSSLCConfig(target_fill=1.0))
        backed = NodeSnapshot(
            name="backed", cluster_id=0, cpu_total=16.0, cpu_available=2.0,
            mem_total=32768.0, mem_available=4096.0, lc_queue=50, be_queue=0,
            running=0, min_slack=1.0,
        )
        idle = node("idle", 0, 8.0, 16384.0)
        out = sched.dispatch(0, requests(4), snapshot([backed, idle]), [0], 0.0)
        assert all(a.node_name == "idle" for a in out)


class TestEquation2:
    def test_node_units(self):
        assert DSSLCScheduler._node_units(4.0, 4096.0, 1.0, 1024.0) == 4
        assert DSSLCScheduler._node_units(4.0, 1024.0, 1.0, 1024.0) == 1
        assert DSSLCScheduler._node_units(0.5, 4096.0, 1.0, 1024.0) == 0

    def test_reassurance_adjusted_minima_used(self, lc_spec):
        from repro.hrm.qos import QoSDetector
        from repro.hrm.reassurance import ReassuranceConfig, ReassuranceMechanism

        det = QoSDetector()
        mech = ReassuranceMechanism(det, ReassuranceConfig(period_ms=0.0))
        # drive the minimum up on node "a"
        for _ in range(10):
            det.observe("a", lc_spec.name, 0.0, lc_spec.qos_target_ms * 2)
        mech.run(0.0, {"a": {lc_spec.name: lc_spec}})
        sched = DSSLCScheduler(reassurance=mech)
        nodes = [node("a", 0, 8.0, 16384.0), node("b", 0, 8.0, 16384.0)]
        r_cpu, r_mem = minima(sched, lc_spec, snapshot(nodes))
        # one poor step on "a"; "b" was never adjusted
        step = mech.config.increase_step
        assert r_cpu.tolist() == [
            lc_spec.min_resources.cpu * step, lc_spec.min_resources.cpu
        ]
        assert r_mem.tolist() == [
            lc_spec.min_resources.memory * step, lc_spec.min_resources.memory
        ]
        assert r_cpu[0] > lc_spec.min_resources.cpu
        assert r_cpu[0] == mech.min_resources("a", lc_spec).cpu


class TestTimeliness:
    def test_decision_latency_recorded(self):
        sched = DSSLCScheduler()
        nodes = [node(f"n{i}", 0, 8.0, 16384.0) for i in range(10)]
        sched.dispatch(0, requests(5), snapshot(nodes, 1), [0], 0.0)
        assert len(sched.decision_latencies_ms) == 1
        assert sched.mean_decision_latency_ms() > 0

    def test_decision_fast_at_moderate_scale(self):
        """§7.2 claims ~2-4 ms at 500-1000 nodes; we sanity-check 100 nodes
        stays well under the smallest LC QoS target."""
        sched = DSSLCScheduler()
        nodes = [node(f"n{i}", 0, 8.0, 16384.0) for i in range(100)]
        sched.dispatch(0, requests(20), snapshot(nodes, 1), [0], 0.0)
        assert sched.mean_decision_latency_ms() < 100.0


class TestCoordinatedTypes:
    def nodes(self):
        return [
            node("a", 0, 8.0, 16384.0),
            node("b", 1, 8.0, 16384.0),
        ]

    def test_joint_solve_places_multiple_types(self):
        sched = DSSLCScheduler(DSSLCConfig(coordinate_types=True))
        mixed = requests(3, LC) + requests(3, LC2)
        out = sched.dispatch(0, mixed, snapshot(self.nodes()), [0, 1], 0.0)
        assert len(out) == 6
        types = {a.request.spec.name for a in out}
        assert types == {LC.name, LC2.name}

    def test_shared_link_capacity_binds_joint_solve(self):
        sched = DSSLCScheduler(
            DSSLCConfig(coordinate_types=True, link_capacity=2)
        )
        mixed = requests(4, LC) + requests(4, LC2)
        out = sched.dispatch(0, mixed, snapshot(self.nodes()), [0, 1], 0.0)
        # 2 links x capacity 2 = 4 placements across both types; the first
        # type spends both links and the other 4 stay at the master for
        # the next round (Eq. 4 holds across types)
        assert [(a.request.spec.name, a.node_name) for a in out] == [
            (LC.name, "a"), (LC.name, "a"), (LC.name, "b"), (LC.name, "b")
        ]
        assert sched.case2_rounds == 0

    def test_each_joint_fill_counts_as_a_solve(self):
        sched = DSSLCScheduler(DSSLCConfig(coordinate_types=True))
        mixed = requests(3, LC) + requests(3, LC2)
        out = sched.dispatch(0, mixed, snapshot(self.nodes()), [0, 1], 0.0)
        # both types fit in the nearest node's slices (1, 7 and 19 ms all
        # undercut the 20 ms link): one solve and three arcs each
        assert {a.node_name for a in out} == {"a"}
        stats = sched.solver_stats()
        assert (stats["solves"], stats["augmentations"]) == (2, 6)
        assert stats["case2_rounds"] == 0

    def test_single_type_falls_back_to_parallel_path(self):
        sched = DSSLCScheduler(DSSLCConfig(coordinate_types=True))
        out = sched.dispatch(0, requests(3, LC), snapshot(self.nodes()), [0, 1], 0.0)
        assert len(out) == 3

    def test_types_spread_like_the_parallel_path(self):
        """Two 8-CPU nodes 1 ms and 5 ms away, 4 + 4 requests of two types:
        the links (64) never bind, so each type spreads over the slices
        exactly as in the parallel path, and each type's round is audited."""
        snap = SystemSnapshot(
            time_ms=0.0, nodes=self.nodes(), delay_ms=[[1.0, 5.0], [5.0, 1.0]],
            central_cluster_id=0,
        )
        mixed = requests(4, LC) + requests(4, LC2)
        out = {}
        for coordinate in (False, True):
            sched = DSSLCScheduler(DSSLCConfig(coordinate_types=coordinate))
            sched.audit_log = []
            placed = sched.dispatch(0, mixed, snap, [0, 1], 0.0)
            out[coordinate] = [
                (a.request.spec.name, a.node_name) for a in placed
            ]
            assert [r.service for r in sched.audit_log] == [LC.name, LC2.name]
        assert out[True] == out[False]
        for spec in (LC, LC2):
            assert sorted(n for s, n in out[True] if s == spec.name) == [
                "a", "a", "b", "b"
            ]

    def test_type_shares_the_link_with_its_queued_solve(self):
        """One type in case 2: its immediate and queued solves draw on the
        same residual link, where the parallel path grants each solve the
        full c_{i,j}."""
        nodes = [node("a", 0, 8.0, 16384.0), node("b", 1, 3.0, 16384.0)]
        batch = requests(40, LC)
        per_node = {}
        for coordinate in (False, True):
            sched = DSSLCScheduler(
                DSSLCConfig(coordinate_types=coordinate, link_capacity=6)
            )
            out = sched.dispatch(0, batch, snapshot(nodes), [0, 1], 0.0)
            per_node[coordinate] = {
                n.name: sum(a.node_name == n.name for a in out) for n in nodes
            }
            assert sched.case2_rounds == 1
        assert per_node[True] == {"a": 6, "b": 6}
        assert max(per_node[False].values()) > 6

    def test_each_request_assigned_once(self):
        sched = DSSLCScheduler(DSSLCConfig(coordinate_types=True))
        mixed = requests(5, LC) + requests(5, LC2)
        out = sched.dispatch(0, mixed, snapshot(self.nodes()), [0, 1], 0.0)
        ids = [a.request.request_id for a in out]
        assert len(ids) == len(set(ids))

    def test_pinned_dispatch_with_adjusted_minima(self):
        """Two types in case 2 over shared links of capacity 4, with minima
        that re-assurance moved in both directions; pins the exact
        placement.  The 12-request type goes first; the 6 requests the
        spent links cannot carry stay at the master."""
        det = QoSDetector()
        mech = ReassuranceMechanism(det, ReassuranceConfig(period_ms=0.0))
        for _ in range(10):
            det.observe("a", LC.name, 0.0, LC.qos_target_ms * 2)
            det.observe("c", LC2.name, 0.0, LC2.qos_target_ms * 0.05)
        for t in range(3):
            mech.run(float(t), {"a": {LC.name: LC}, "c": {LC2.name: LC2}})
        # grouped by ascending cluster, as StateStorage lists them
        nodes = [
            node("a", 0, 4.6, 30000.0),
            node("b", 1, 4.0, 30000.0, lc_queue=1),
            node("d", 1, 3.5, 30000.0, cpu_total=6.0, lc_queue=2),
            node("c", 2, 2.7, 15000.0, cpu_total=8.0, mem_total=16384.0),
        ]
        delays = [[1.0, 12.0, 30.0], [12.0, 1.0, 18.0], [30.0, 18.0, 1.0]]
        snap = SystemSnapshot(
            time_ms=0.0, nodes=nodes, delay_ms=delays, central_cluster_id=0
        )
        batch = requests(9, LC) + requests(12, LC2)
        index = {id(r): i for i, r in enumerate(batch)}
        sched = DSSLCScheduler(
            DSSLCConfig(coordinate_types=True, link_capacity=4, seed=3),
            reassurance=mech,
        )
        out = sched.dispatch(0, batch, snap, [0, 1, 2], 0.0)
        assert [(index[id(a.request)], a.node_name) for a in out] == [
            (20, "a"), (16, "a"), (11, "a"), (19, "a"), (9, "b"), (10, "b"),
            (13, "d"), (15, "d"), (18, "c"), (14, "c"), (12, "c"), (17, "b"),
            (7, "b"), (4, "d"), (3, "c"),
        ]
        assert sched.case2_rounds == 2
        # the G_k objectives of the round, slice surcharges included
        assert sched._flow_cost_round == 256.0


#: node names the differential test draws from; more than the initial
#: column capacity, so columns grow while names keep first appearing.
POOL = [f"w{i}" for i in range(24)]


def reference_scale(model, node_name, spec, factor, config):
    """The pre-column minima store: a (node, service) dict, scalar maths."""
    current = model.get((node_name, spec.name), spec.min_resources)
    floor = spec.min_resources * config.floor_fraction
    ceiling = spec.reference_resources * config.ceiling_multiple
    model[(node_name, spec.name)] = (
        (current * factor).max_with(floor).min_with(ceiling)
    )


OPS = st.one_of(
    st.tuples(
        st.just("run"),
        st.dictionaries(
            st.tuples(st.sampled_from(POOL), st.sampled_from(range(len(LCS)))),
            st.booleans(),  # True = poor, False = excellent
            min_size=1,
            max_size=6,
        ),
    ),
    st.tuples(st.just("reset"), st.one_of(st.none(), st.sampled_from(POOL))),
    st.tuples(st.just("save"), st.none()),
    st.tuples(st.just("restore"), st.none()),
)


class TestMinimaColumns:
    """DSS-LC's gathered minima equal the scalar per-node lookup, and the
    lookup equals the pre-column dict store, after any op sequence."""

    @staticmethod
    def check(sched, mech, model, snapshots):
        for spec in LCS:
            for name in POOL:
                assert mech.min_resources(name, spec) == model.get(
                    (name, spec.name), spec.min_resources
                )
            for snap in snapshots:
                r_cpu, r_mem = minima(sched, spec, snap)
                scalar = [mech.min_resources(n.name, spec) for n in snap.nodes]
                assert r_cpu.tolist() == [max(r.cpu, 1e-9) for r in scalar]
                assert r_mem.tolist() == [max(r.memory, 1e-9) for r in scalar]

    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(OPS, min_size=1, max_size=12), data=st.data())
    def test_gather_matches_scalar_lookup(self, ops, data):
        config = ReassuranceConfig(period_ms=0.0)
        mech = ReassuranceMechanism(QoSDetector(), config)
        sched = DSSLCScheduler(reassurance=mech)
        model = {}
        saved = None
        seen = []  # snapshots queried before; reused as the same objects
        for step, (op, arg) in enumerate(ops):
            if op == "run":
                mech.detector = QoSDetector()
                active = {}
                for (name, k), poor in arg.items():
                    spec = LCS[k]
                    ratio = 2.0 if poor else 0.05
                    for _ in range(10):
                        mech.detector.observe(
                            name, spec.name, 0.0, spec.qos_target_ms * ratio
                        )
                    active.setdefault(name, {})[spec.name] = spec
                    factor = config.increase_step if poor else config.decrease_step
                    reference_scale(model, name, spec, factor, config)
                mech.run(float(step), active)
            elif op == "reset":
                mech.reset(arg)
                model = {
                    key: v for key, v in model.items()
                    if arg is not None and key[0] != arg
                }
            elif op == "save":
                saved = (copy.deepcopy(mech.snapshot_state()), dict(model))
            else:
                state, kept = saved or (
                    copy.deepcopy(mech.snapshot_state()), dict(model)
                )
                mech.restore_state(copy.deepcopy(state))
                model = dict(kept)
            names = data.draw(
                st.lists(st.sampled_from(POOL), min_size=1, max_size=10,
                         unique=True)
            )
            fresh = snapshot([node(n, 0, 8.0, 16384.0) for n in names])
            self.check(sched, mech, model, seen + [fresh])
            seen.append(fresh)

    def test_names_first_seen_after_columns_exist(self):
        config = ReassuranceConfig(period_ms=0.0)
        mech = ReassuranceMechanism(QoSDetector(), config)
        sched = DSSLCScheduler(reassurance=mech)
        early = snapshot([node(n, 0, 8.0, 16384.0) for n in POOL[:3]])
        minima(sched, LC, early)  # slots 0-2 assigned
        for _ in range(10):
            mech.detector.observe(POOL[20], LC.name, 0.0, LC.qos_target_ms * 2)
        mech.run(0.0, {POOL[20]: {LC.name: LC}})  # column grows past 8
        late = snapshot([node(n, 0, 8.0, 16384.0) for n in reversed(POOL)])
        r_cpu, _ = minima(sched, LC, late)
        expected = [LC.min_resources.cpu] * len(POOL)
        expected[len(POOL) - 1 - 20] = LC.min_resources.cpu * config.increase_step
        assert r_cpu.tolist() == expected
        assert minima(sched, LC, early)[0].tolist() == (
            [LC.min_resources.cpu] * 3
        )
