"""Deployment-style replica controller closing the HPA loop.

The K8s substrate gains the piece that makes the HPA actionable: a
reconciling controller that owns a ReplicaSet of identical pods, watches
the API server, and converges the observed replica count to the desired
one — creating pods (which then pay scheduler placement + kubelet cold
start) or deleting the youngest ones on scale-down, exactly like the
upstream Deployment controller's default behaviour.

Tango itself does not scale horizontally (D-VPA replaces that), but the
§2.1 comparison — "horizontal scaling is relatively time-consuming for
millisecond-level LC services" — needs a working HPA + Deployment pipeline
to measure, and downstream users of the substrate get the standard K8s
trio: Deployment → scheduler → kubelet.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .api_server import ApiServer, NotFoundError
from .objects import ContainerSpec, Pod, PodPhase, PodSpec
from .scheduler import KubeScheduler, NodeView

__all__ = ["Deployment", "DeploymentController", "ReconcileResult"]

_generation = itertools.count(1)


@dataclass
class Deployment:
    """Desired state: N replicas of one pod template."""

    name: str
    replicas: int
    template: PodSpec
    namespace: str = "default"
    labels: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.replicas < 0:
            raise ValueError("replicas must be non-negative")
        self.labels.setdefault("app", self.name)


@dataclass
class ReconcileResult:
    created: List[str]
    deleted: List[str]
    unschedulable: int

    @property
    def changed(self) -> bool:
        return bool(self.created or self.deleted)


class DeploymentController:
    """Reconciles Deployments against the API server."""

    def __init__(
        self,
        api: ApiServer,
        scheduler: Optional[KubeScheduler] = None,
    ) -> None:
        self.api = api
        self.scheduler = scheduler or KubeScheduler()
        self._revision = itertools.count(1)

    # ------------------------------------------------------------------ #
    # desired state
    # ------------------------------------------------------------------ #
    def apply(self, deployment: Deployment) -> None:
        if self.api.exists("Deployment", deployment.name, deployment.namespace):
            self.api.update(
                "Deployment", deployment.name, deployment, deployment.namespace
            )
        else:
            self.api.create(
                "Deployment", deployment.name, deployment, deployment.namespace
            )

    def scale(self, name: str, replicas: int, namespace: str = "default") -> None:
        if replicas < 0:
            raise ValueError("replicas must be non-negative")

        def mutate(deployment: Deployment) -> None:
            deployment.replicas = replicas

        self.api.patch("Deployment", name, mutate, namespace)

    # ------------------------------------------------------------------ #
    # reconciliation
    # ------------------------------------------------------------------ #
    def owned_pods(self, deployment: Deployment) -> List[Pod]:
        return [
            pod
            for pod in self.api.list("Pod", deployment.namespace)
            if pod.labels.get("app") == deployment.labels["app"]
            and not pod.deleted
            and pod.phase is not PodPhase.FAILED
        ]

    def reconcile(
        self,
        deployment_name: str,
        nodes: Sequence[NodeView],
        namespace: str = "default",
    ) -> ReconcileResult:
        """One reconcile pass: converge actual replicas toward desired."""
        deployment: Deployment = self.api.get(
            "Deployment", deployment_name, namespace
        )
        pods = self.owned_pods(deployment)
        created: List[str] = []
        deleted: List[str] = []
        unschedulable = 0

        deficit = deployment.replicas - len(pods)
        for _ in range(max(0, deficit)):
            pod = self._new_pod(deployment)
            target = self.scheduler.select_node(pod, nodes)
            if target is None:
                unschedulable += 1
                continue
            pod.spec.node_name = target
            self.api.create("Pod", pod.name, pod, namespace)
            created.append(pod.name)

        # scale-down: delete the youngest pods first (upstream default)
        surplus = len(pods) - deployment.replicas
        if surplus > 0:
            for pod in sorted(pods, key=lambda p: p.uid, reverse=True)[:surplus]:
                pod.deleted = True
                try:
                    self.api.delete("Pod", pod.name, namespace)
                except NotFoundError:
                    pass
                deleted.append(pod.name)
        return ReconcileResult(created, deleted, unschedulable)

    def _new_pod(self, deployment: Deployment) -> Pod:
        revision = next(self._revision)
        template = deployment.template
        spec = PodSpec(
            containers=[
                ContainerSpec(
                    name=c.name, requests=c.requests, limits=c.limits
                )
                for c in template.containers
            ],
            service_name=template.service_name,
            priority=template.priority,
        )
        return Pod(
            name=f"{deployment.name}-{revision:05d}",
            spec=spec,
            namespace=deployment.namespace,
            labels=dict(deployment.labels),
        )
