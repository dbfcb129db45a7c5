"""Elasticity mechanisms head-to-head: HPA / native VPA / D-VPA (§2.1).

The paper motivates D-VPA by dismissing the two K8s-native elasticity paths
for millisecond LC services:

* "Horizontal scaling ... is relatively time-consuming ... due to long
  container start-up time" — an HPA decision only helps after the
  Deployment controller schedules a pod *and* the kubelet's cold start
  (~2.2 s) completes, plus the HPA sync period (15 s upstream);
* "K8s's vertical scaling component ... causes downtime since it relies on
  a delete-and-rebuild approach" — capacity exists but blinks out for the
  rebuild duration;
* D-VPA resizes in place in ~23 ms with zero downtime.

This harness simulates a load step (demand doubles at t=0) and tracks when
each mechanism restores sufficient capacity:

* **time-to-capacity** — first instant serving capacity ≥ new demand;
* **downtime** — capacity lost during the reaction (native VPA only);
* **reaction latency** — decision + actuation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.cluster.resources import ResourceVector
from repro.hrm.dvpa import DVPA
from repro.kube.api_server import ApiServer
from repro.kube.controller import Deployment, DeploymentController
from repro.kube.hpa import HorizontalPodAutoscaler
from repro.kube.kubelet import CONTAINER_COLD_START_MS
from repro.kube.objects import ContainerSpec, Pod, PodSpec
from repro.kube.scheduler import NodeView
from repro.kube.vpa import NativeVPA

from .common import print_table

__all__ = ["run_elasticity", "main"]

rv = ResourceVector.of

#: per-replica capacity before the step (CPU cores worth of service).
BASE_CPU = 1.0
#: the load step: demand doubles.
DEMAND_FACTOR = 2.0


@dataclass
class MechanismOutcome:
    time_to_capacity_ms: float
    downtime_ms: float
    interrupts: int


def _hpa_path() -> MechanismOutcome:
    """HPA + Deployment + kubelet: scale 2 → 4 replicas."""
    api = ApiServer()
    controller = DeploymentController(api)
    template = PodSpec(
        containers=[
            ContainerSpec(
                "main",
                requests=rv(cpu=BASE_CPU, memory=1024.0),
                limits=rv(cpu=BASE_CPU, memory=1024.0),
            )
        ],
        service_name="svc",
    )
    controller.apply(Deployment("svc", 2, template))
    nodes = [NodeView(f"n{i}", rv(cpu=8, memory=16384), rv()) for i in range(4)]
    controller.reconcile("svc", nodes)

    hpa = HorizontalPodAutoscaler(
        target_utilization=0.5, max_replicas=8, sync_period_ms=15_000.0
    )
    # load steps at t=0; utilisation observed at 1.0 (double the target)
    now = 0.0
    decision = None
    while decision is None:
        decision = hpa.evaluate(now, current_replicas=2, observed_utilization=1.0)
        if decision is None:
            now += 1_000.0
    controller.scale("svc", decision.desired_replicas)
    controller.reconcile("svc", nodes)
    # new replicas serve only after the cold start completes
    return MechanismOutcome(
        time_to_capacity_ms=now + CONTAINER_COLD_START_MS,
        downtime_ms=0.0,
        interrupts=0,
    )


def _native_vpa_path() -> MechanismOutcome:
    """Delete-and-rebuild resize of both replicas to 2× CPU."""
    vpa = NativeVPA()
    worst_finish = 0.0
    downtime = 0.0
    interrupts = 0
    for i in range(2):
        pod = Pod(
            name=f"svc-{i}",
            spec=PodSpec(
                containers=[
                    ContainerSpec(
                        "main",
                        requests=rv(cpu=BASE_CPU, memory=1024.0),
                        limits=rv(cpu=BASE_CPU, memory=1024.0),
                    )
                ]
            ),
        )
        outcome = vpa.resize(pod, rv(cpu=BASE_CPU * DEMAND_FACTOR, memory=2048.0))
        worst_finish = max(worst_finish, outcome.latency_ms)
        downtime += outcome.downtime_ms
        interrupts += 1
    return MechanismOutcome(
        time_to_capacity_ms=worst_finish,
        downtime_ms=downtime,
        interrupts=interrupts,
    )


def _dvpa_path() -> MechanismOutcome:
    """In-place resize of both replicas' cgroups."""
    dvpa = DVPA("bench", detailed=True)
    worst = 0.0
    for i in range(2):
        service = f"svc-{i}"
        dvpa.scale(service, rv(cpu=BASE_CPU, memory=1024.0))
        latency = dvpa.scale(
            service, rv(cpu=BASE_CPU * DEMAND_FACTOR, memory=2048.0)
        )
        worst = max(worst, latency)
    return MechanismOutcome(
        time_to_capacity_ms=worst, downtime_ms=0.0, interrupts=0
    )


def run_elasticity() -> Dict[str, MechanismOutcome]:
    return {
        "hpa": _hpa_path(),
        "native-vpa": _native_vpa_path(),
        "d-vpa": _dvpa_path(),
    }


def main(scale_name: str = "small") -> Dict[str, MechanismOutcome]:
    del scale_name
    result = run_elasticity()
    rows = [
        {
            "mechanism": name,
            "time_to_capacity_ms": outcome.time_to_capacity_ms,
            "downtime_ms": outcome.downtime_ms,
            "interrupts": outcome.interrupts,
        }
        for name, outcome in result.items()
    ]
    print_table("§2.1 elasticity mechanisms under a 2x load step", rows)
    return result


if __name__ == "__main__":
    main()
