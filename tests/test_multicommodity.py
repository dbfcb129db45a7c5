"""Multi-commodity dispatch tests: request types sharing master→worker links.

§5.2 writes LC dispatch as a multi-commodity flow; with
``DSSLCConfig(coordinate_types=True)`` every type runs the per-type solve,
most pending requests first, and all solves of a round draw on one
residual c_{i,j} per master→worker link (Eq. 4).
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core.state_storage import NodeSnapshot, SystemSnapshot
from repro.scheduling.dss_lc import DSSLCConfig, DSSLCScheduler
from repro.sim.request import ServiceRequest
from repro.workloads.spec import ServiceKind, default_catalog

LCS = [s for s in default_catalog() if s.kind is ServiceKind.LC]
LC, LC2 = LCS[:2]


def worker(name, cluster, cpu_available=8.0, lc_queue=0):
    return NodeSnapshot(
        name=name, cluster_id=cluster, cpu_total=16.0,
        cpu_available=cpu_available, mem_total=32768.0, mem_available=16384.0,
        lc_queue=lc_queue, be_queue=0, running=0, min_slack=1.0,
    )


def requests(n, spec):
    return [
        ServiceRequest(spec=spec, origin_cluster=0, arrival_ms=0.0)
        for _ in range(n)
    ]


def one_worker():
    return SystemSnapshot(
        time_ms=0.0, nodes=[worker("a", 0)], delay_ms=[[1.0]],
        central_cluster_id=0,
    )


def counters(sched):
    """Solver counters without the wall-clock decision latency."""
    stats = sched.solver_stats()
    del stats["mean_decision_latency_ms"]
    return stats


class TestBasics:
    def test_single_commodity_equals_plain_flow(self):
        # one type in case 2, its two solves together far from the 64-request
        # links: coordinated dispatch is the parallel per-type dispatch
        snap = SystemSnapshot(
            time_ms=0.0,
            nodes=[worker("a", 0, 8.0), worker("b", 1, 3.0)],
            delay_ms=[[1.0, 4.0], [4.0, 1.0]],
            central_cluster_id=0,
        )
        batch = requests(40, LC)
        out = {}
        for coordinate in (False, True):
            sched = DSSLCScheduler(
                DSSLCConfig(coordinate_types=coordinate)
            )
            placed = sched.dispatch(0, batch, snap, [0, 1], 0.0)
            out[coordinate] = (
                [(a.request.request_id, a.node_name) for a in placed],
                counters(sched),
            )
        assert out[True] == out[False]
        assert out[True][1]["case2_rounds"] == 1

    def test_shared_capacity_is_respected(self):
        # one link of capacity 3 shared by two types wanting 3 each
        sched = DSSLCScheduler(
            DSSLCConfig(coordinate_types=True, link_capacity=3)
        )
        batch = requests(3, LC) + requests(3, LC2)
        out = sched.dispatch(0, batch, one_worker(), [0], 0.0)
        assert len(out) == 3  # hard cap from the shared link
        # the first type spends the link; the second stays at the master
        assert {a.request.spec.name for a in out} == {LC.name}

    def test_most_constrained_first_ordering(self):
        # the big type goes first and grabs the cheap link, although the
        # small type arrives first in the batch
        sched = DSSLCScheduler(
            DSSLCConfig(coordinate_types=True, link_capacity=5)
        )
        snap = SystemSnapshot(
            time_ms=0.0,
            nodes=[worker("a", 0), worker("b", 1)],
            delay_ms=[[1.0, 20.0], [20.0, 1.0]],
            central_cluster_id=0,
        )
        batch = requests(1, LC2) + requests(5, LC)
        out = sched.dispatch(0, batch, snap, [0, 1], 0.0)
        where = {}
        for a in out:
            where.setdefault(a.request.spec.name, []).append(a.node_name)
        assert where[LC.name] == ["a"] * 5
        # the small type spills to the expensive link
        assert where[LC2.name] == ["b"]
        assert sched.case2_rounds == 0


@st.composite
def coordinated_rounds(draw):
    """(nodes, delays, batch, link_capacity) of one coordinated round.

    Nodes have little free CPU and queued requests, so case 2 (and with it
    the queued Ĝ'_k solve) is common; link capacities reach zero.
    """
    n_clusters = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=5))
    nodes = [
        worker(
            f"w{i}",
            draw(st.integers(min_value=0, max_value=n_clusters - 1)),
            cpu_available=draw(st.sampled_from([0.5, 2.0, 4.0, 8.0])),
            lc_queue=draw(st.integers(min_value=0, max_value=3)),
        )
        for i in range(n)
    ]
    nodes.sort(key=lambda node: node.cluster_id)
    delay = st.sampled_from([1.0, 3.0, 7.0])
    delays = [
        [1.0 if a == b else draw(delay) for b in range(n_clusters)]
        for a in range(n_clusters)
    ]
    batch = []
    for spec in draw(st.lists(st.sampled_from(LCS), min_size=1, max_size=12)):
        batch += requests(draw(st.integers(min_value=1, max_value=6)), spec)
    link = draw(st.integers(min_value=0, max_value=8))
    return nodes, delays, batch, link


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        demands=st.lists(st.integers(min_value=0, max_value=8), min_size=1,
                         max_size=4),
        capacity=st.integers(min_value=0, max_value=12),
    )
    def test_never_exceeds_shared_capacity(self, demands, capacity):
        sched = DSSLCScheduler(
            DSSLCConfig(coordinate_types=True, link_capacity=capacity)
        )
        batch = []
        for spec, demand in zip(LCS, demands):
            batch += requests(demand, spec)
        placed = len(sched.dispatch(0, batch, one_worker(), [0], 0.0))
        assert placed <= capacity
        assert placed == min(capacity, sum(demands))

    @settings(max_examples=200, deadline=None)
    @given(coordinated_rounds())
    def test_round_keeps_every_link_within_capacity(self, round_):
        nodes, delays, batch, link = round_
        snap = SystemSnapshot(
            time_ms=0.0, nodes=nodes, delay_ms=delays, central_cluster_id=0
        )
        sched = DSSLCScheduler(
            DSSLCConfig(coordinate_types=True, link_capacity=link)
        )
        sched.audit_log = []
        out = sched.dispatch(0, batch, snap, list(range(len(delays))), 0.0)
        # summed over every solve of the round, immediate and queued
        per_worker = Counter(a.node_name for a in out)
        assert all(count <= link for count in per_worker.values())
        ids = [a.request.request_id for a in out]
        assert len(ids) == len(set(ids))
        assert len(sched.audit_log) == len({r.spec.name for r in batch})
