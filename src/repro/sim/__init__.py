"""Simulation engine: clock, deliveries, requests, latency model, runner."""

from .engine import Clock, DeliveryQueue, TICK_MS
from .failures import FailureConfig, FailureEvent, FailureInjector
from .latency import LatencyModel, speed_factor
from .pressure import PressurePoint, PressureTester, TableLatencyModel
from .request import RequestState, ServiceRequest

__all__ = [
    "Clock",
    "DeliveryQueue",
    "TICK_MS",
    "LatencyModel",
    "speed_factor",
    "ServiceRequest",
    "RequestState",
    "SimulationRunner",
    "RunnerConfig",
    "FailureInjector",
    "FailureConfig",
    "FailureEvent",
    "PressureTester",
    "PressurePoint",
    "TableLatencyModel",
]


def __getattr__(name):
    # SimulationRunner pulls in the cluster package, which itself uses the
    # latency model above — import it lazily to keep the import graph acyclic.
    if name in ("SimulationRunner", "RunnerConfig"):
        from .runner import RunnerConfig, SimulationRunner

        return {"SimulationRunner": SimulationRunner, "RunnerConfig": RunnerConfig}[
            name
        ]
    raise AttributeError(name)
