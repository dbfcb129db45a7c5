"""Endpoints controller tests: watch-driven Service endpoint tracking."""

from repro.cluster.resources import ResourceVector
from repro.kube.api_server import ApiServer
from repro.kube.endpoints import EndpointsResolver
from repro.kube.objects import (
    ContainerSpec,
    Pod,
    PodPhase,
    PodSpec,
    ServiceObject,
)

rv = ResourceVector.of


def make_pod(name, node="n0", app="web", running=True):
    pod = Pod(
        name=name,
        spec=PodSpec(
            containers=[ContainerSpec("c", requests=rv(cpu=0.1, memory=64))],
            node_name=node,
        ),
        labels={"app": app},
    )
    if running:
        pod.phase = PodPhase.RUNNING
    return pod


def setup():
    api = ApiServer()
    api.create("Service", "web", ServiceObject("web", selector={"app": "web"}))
    resolver = EndpointsResolver(api)
    return api, resolver


class TestEndpointTracking:
    def test_running_matching_pods_become_endpoints(self):
        api, resolver = setup()
        api.create("Pod", "w1", make_pod("w1"))
        api.create("Pod", "w2", make_pod("w2", node="n1"))
        assert resolver.endpoints("web") == ["default/w1", "default/w2"]

    def test_pending_pods_excluded_until_running(self):
        api, resolver = setup()
        pod = make_pod("w1", running=False)
        api.create("Pod", "w1", pod)
        assert resolver.endpoints("web") == []
        pod.phase = PodPhase.RUNNING
        api.update("Pod", "w1", pod)
        assert resolver.endpoints("web") == ["default/w1"]

    def test_selector_mismatch_excluded(self):
        api, resolver = setup()
        api.create("Pod", "db1", make_pod("db1", app="db"))
        assert resolver.endpoints("web") == []

    def test_deleted_pod_removed(self):
        api, resolver = setup()
        api.create("Pod", "w1", make_pod("w1"))
        api.delete("Pod", "w1")
        assert resolver.endpoints("web") == []

    def test_bootstrap_from_existing_state(self):
        api = ApiServer()
        api.create("Service", "web", ServiceObject("web", selector={"app": "web"}))
        api.create("Pod", "w1", make_pod("w1"))
        resolver = EndpointsResolver(api)  # constructed after the fact
        assert resolver.endpoints("web") == ["default/w1"]

    def test_service_deletion_clears_endpoints(self):
        api, resolver = setup()
        api.create("Pod", "w1", make_pod("w1"))
        api.delete("Service", "web")
        assert resolver.endpoints("web") == []

    def test_unknown_service_empty(self):
        _, resolver = setup()
        assert resolver.endpoints("ghost") == []


class TestRouting:
    def test_round_robin_over_nodes(self):
        api, resolver = setup()
        api.create("Pod", "w1", make_pod("w1", node="nA"))
        api.create("Pod", "w2", make_pod("w2", node="nB"))
        routes = [resolver.route("web") for _ in range(4)]
        assert routes == ["nA", "nB", "nA", "nB"]

    def test_route_none_without_endpoints(self):
        _, resolver = setup()
        assert resolver.route("web") is None

    def test_close_stops_tracking(self):
        api, resolver = setup()
        resolver.close()
        api.create("Pod", "w1", make_pod("w1"))
        assert resolver.endpoints("web") == []
