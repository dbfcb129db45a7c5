"""Property tests on dispatch invariants shared by every scheduler."""

from hypothesis import given, settings, strategies as st

from repro.core.state_storage import NodeSnapshot, SystemSnapshot
from repro.scheduling.baselines import (
    K8sNativeScheduler,
    LoadGreedyScheduler,
    ScoringScheduler,
)
from repro.scheduling.dss_lc import DSSLCConfig, DSSLCScheduler
from repro.sim.request import ServiceRequest
from repro.workloads.spec import ServiceKind, default_catalog

CATALOG = default_catalog()
LC_SPECS = [s for s in CATALOG if s.kind is ServiceKind.LC]


@st.composite
def dispatch_scenarios(draw):
    n_clusters = draw(st.integers(min_value=1, max_value=4))
    nodes = []
    for cid in range(n_clusters):
        for w in range(draw(st.integers(min_value=1, max_value=3))):
            cpu_total = draw(st.sampled_from([2.0, 4.0, 8.0, 16.0]))
            nodes.append(
                NodeSnapshot(
                    name=f"c{cid}-w{w}",
                    cluster_id=cid,
                    cpu_total=cpu_total,
                    cpu_available=draw(
                        st.floats(min_value=0.0, max_value=cpu_total)
                    ),
                    mem_total=cpu_total * 2048.0,
                    mem_available=draw(
                        st.floats(min_value=0.0, max_value=cpu_total * 2048.0)
                    ),
                    lc_queue=draw(st.integers(min_value=0, max_value=10)),
                    be_queue=0,
                    running=0,
                    min_slack=1.0,
                )
            )
    n_requests = draw(st.integers(min_value=0, max_value=20))
    spec = draw(st.sampled_from(LC_SPECS))
    requests = [
        ServiceRequest(spec=spec, origin_cluster=0, arrival_ms=0.0)
        for _ in range(n_requests)
    ]
    eligible = sorted(
        set(draw(st.lists(st.integers(min_value=0, max_value=n_clusters - 1),
                          min_size=1, max_size=n_clusters)))
    )
    delays = [
        [1.0 if a == b else 25.0 for b in range(n_clusters)]
        for a in range(n_clusters)
    ]
    snapshot = SystemSnapshot(
        time_ms=0.0, nodes=nodes, delay_ms=delays, central_cluster_id=0
    )
    return requests, snapshot, eligible


SCHEDULERS = [
    lambda: DSSLCScheduler(DSSLCConfig(seed=0)),
    LoadGreedyScheduler,
    K8sNativeScheduler,
    ScoringScheduler,
]


class TestUniversalInvariants:
    @settings(max_examples=40, deadline=None)
    @given(scenario=dispatch_scenarios(), which=st.integers(min_value=0, max_value=3))
    def test_each_request_assigned_at_most_once(self, scenario, which):
        requests, snapshot, eligible = scenario
        scheduler = SCHEDULERS[which]()
        out = scheduler.dispatch(0, requests, snapshot, eligible, 0.0)
        ids = [a.request.request_id for a in out]
        assert len(ids) == len(set(ids))
        valid = {r.request_id for r in requests}
        assert set(ids) <= valid

    @settings(max_examples=40, deadline=None)
    @given(scenario=dispatch_scenarios(), which=st.integers(min_value=0, max_value=3))
    def test_assignments_stay_within_eligible_clusters(self, scenario, which):
        requests, snapshot, eligible = scenario
        scheduler = SCHEDULERS[which]()
        out = scheduler.dispatch(0, requests, snapshot, eligible, 0.0)
        allowed = set(eligible)
        by_name = {n.name: n for n in snapshot.nodes}
        for a in out:
            assert a.cluster_id in allowed
            assert by_name[a.node_name].cluster_id == a.cluster_id

    @settings(max_examples=30, deadline=None)
    @given(scenario=dispatch_scenarios())
    def test_dss_lc_never_assigns_more_than_pending(self, scenario):
        requests, snapshot, eligible = scenario
        scheduler = DSSLCScheduler(DSSLCConfig(seed=1))
        out = scheduler.dispatch(0, requests, snapshot, eligible, 0.0)
        assert len(out) <= len(requests)

    @settings(max_examples=30, deadline=None)
    @given(scenario=dispatch_scenarios())
    def test_rr_assigns_everything_when_nodes_exist(self, scenario):
        requests, snapshot, eligible = scenario
        scheduler = K8sNativeScheduler()
        out = scheduler.dispatch(0, requests, snapshot, eligible, 0.0)
        if snapshot.nodes_of(eligible):
            assert len(out) == len(requests)
        else:
            assert out == []
