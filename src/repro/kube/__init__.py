"""Behaviour-level Kubernetes: API server, cgroups, kubelet, schedulers."""

from .controller import Deployment, DeploymentController, ReconcileResult
from .endpoints import EndpointsResolver
from .api_server import ApiServer, ConflictError, EventType, NotFoundError, WatchEvent
from .cgroups import CGroup, CGroupError, CGroupTree
from .hpa import HorizontalPodAutoscaler
from .kubelet import CONTAINER_COLD_START_MS, Kubelet
from .objects import (
    ContainerSpec,
    NodeInfo,
    Pod,
    PodPhase,
    PodSpec,
    QoSClass,
    ServiceObject,
    qos_class_of,
)
from .scheduler import KubeScheduler, NodeView, RoundRobinProxy
from .vpa import NativeVPA

__all__ = [
    "ApiServer",
    "WatchEvent",
    "EventType",
    "ConflictError",
    "NotFoundError",
    "CGroup",
    "CGroupTree",
    "CGroupError",
    "Kubelet",
    "CONTAINER_COLD_START_MS",
    "KubeScheduler",
    "RoundRobinProxy",
    "NodeView",
    "NativeVPA",
    "HorizontalPodAutoscaler",
    "Pod",
    "PodSpec",
    "PodPhase",
    "ContainerSpec",
    "NodeInfo",
    "ServiceObject",
    "QoSClass",
    "qos_class_of",
    "Deployment",
    "DeploymentController",
    "ReconcileResult",
    "EndpointsResolver",
]
