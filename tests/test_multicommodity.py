"""Multi-commodity dispatch tests: request types sharing master→worker links.

§5.2 writes LC dispatch as a multi-commodity flow; with
``DSSLCConfig(coordinate_types=True)`` the types take the shared links in
turn (:func:`joint_fill`), most pending requests first.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.state_storage import NodeSnapshot, SystemSnapshot
from repro.flow import solve_transport
from repro.scheduling.dss_lc import DSSLCConfig, DSSLCScheduler, joint_fill
from repro.sim.request import ServiceRequest
from repro.workloads.spec import ServiceKind, default_catalog

LC, LC2 = [s for s in default_catalog() if s.kind is ServiceKind.LC][:2]


def caps(*rows):
    return [np.array(r, dtype=np.int64) for r in rows]


def worker(name, cluster):
    return NodeSnapshot(
        name=name, cluster_id=cluster, cpu_total=16.0, cpu_available=8.0,
        mem_total=32768.0, mem_available=16384.0, lc_queue=0, be_queue=0,
        running=0, min_slack=1.0,
    )


def requests(n, spec):
    return [
        ServiceRequest(spec=spec, origin_cluster=0, arrival_ms=0.0)
        for _ in range(n)
    ]


class TestBasics:
    def test_single_commodity_equals_plain_flow(self):
        delays = np.array([1.0, 1.0])
        (fill,) = joint_fill([4], caps([2, 2]), delays, 10)
        plain = solve_transport(4, np.array([[2], [2]]), delays[:, None])
        assert fill.absorbed.tolist() == [2, 2]
        assert fill.absorbed.tolist() == plain.absorbed.tolist()
        assert fill.augmentations == plain.augmentations

    def test_shared_capacity_is_respected(self):
        # one link of capacity 3 shared by two types wanting 3 each
        fills = joint_fill([3, 3], caps([3], [3]), np.array([1.0]), 3)
        placed = [int(f.absorbed.sum()) for f in fills]
        assert sum(placed) == 3  # hard cap from the shared link
        usage = sum(f.absorbed for f in fills)
        assert usage.tolist() == [3]
        assert (3 - usage).tolist() == [0]

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


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        demands=st.lists(st.integers(min_value=0, max_value=8), min_size=1,
                         max_size=4),
        capacity=st.integers(min_value=0, max_value=12),
    )
    def test_never_exceeds_shared_capacity(self, demands, capacity):
        fills = joint_fill(
            demands, caps(*[[d] for d in demands]), np.array([1.0]), capacity
        )
        placed = sum(int(f.absorbed.sum()) for f in fills)
        assert placed <= capacity
        assert placed == min(capacity, sum(demands))
        assert capacity - placed >= 0
