"""Service catalog: the 10 LC/BE service types extracted from the trace.

§6.2: the paper classifies 2019 Google cluster-data jobs into 10 categories
of LC and BE services using the ``LatencySensitivity`` field (tiers 0-3,
where higher is more latency sensitive), instantiates each in one container,
and derives per-type resource expectations and QoS targets (tail latency)
from pressure measurements à la PARTIES.

We reproduce that catalog synthetically: five LC types (tiers 2-3) spanning
the paper's motivating workloads (cloud rendering, AR/VR, audio/video) with
QoS targets around the ~300 ms the production measurement shows (Fig. 1(b)),
and five BE types (tiers 0-1) modelled on data analytics / model training
batch jobs with multi-second service times.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Tuple

from repro.cluster.resources import ResourceVector

__all__ = ["ServiceKind", "ServiceSpec", "default_catalog", "CatalogError"]


class ServiceKind(str, Enum):
    LC = "LC"
    BE = "BE"


class CatalogError(ValueError):
    pass


@dataclass(frozen=True)
class ServiceSpec:
    """Static description of one service type.

    Attributes
    ----------
    qos_target_ms:
        γ_k — tail-latency target for LC services (∞ for BE, which have no
        strict QoS, §5.3).
    base_service_ms:
        processing time with the reference resource allocation on an
        unloaded node (from "pressure testing", §6.1).
    min_resources:
        the minimum request allocation r^{c,k}, r^{m,k} used by Eq. 2; the
        QoS re-assurance mechanism adjusts this at runtime.
    reference_resources:
        allocation at which ``base_service_ms`` was measured; giving less
        slows processing per the latency model.
    """

    name: str
    kind: ServiceKind
    latency_sensitivity: int
    qos_target_ms: float
    base_service_ms: float
    min_resources: ResourceVector
    reference_resources: ResourceVector
    #: how strongly latency reacts to CPU starvation (latency model exponent).
    cpu_elasticity: float = 1.0
    #: request payload size for network transfer accounting (KB).
    payload_kb: float = 64.0

    def __post_init__(self) -> None:
        if self.kind is ServiceKind.LC and not (0 < self.qos_target_ms < 10_000):
            raise CatalogError(f"{self.name}: implausible LC QoS target")
        if self.base_service_ms <= 0:
            raise CatalogError(f"{self.name}: base service time must be positive")

    @property
    def is_lc(self) -> bool:
        return self.kind is ServiceKind.LC


def default_catalog() -> List[ServiceSpec]:
    """The 10-type catalog used throughout the experiments."""
    rv = ResourceVector.of
    lc: List[Tuple[str, int, float, float, float, float, float]] = [
        # name, tier, qos_ms, base_ms, cpu, mem, elasticity
        ("lc-cloud-render", 3, 250.0, 80.0, 1.00, 1024.0, 1.2),
        ("lc-vr-stream", 3, 300.0, 100.0, 0.75, 768.0, 1.1),
        ("lc-video-conf", 2, 350.0, 120.0, 0.50, 512.0, 1.0),
        ("lc-smart-factory", 2, 280.0, 90.0, 0.60, 512.0, 1.0),
        ("lc-audio-rt", 2, 320.0, 70.0, 0.35, 256.0, 0.9),
    ]
    be: List[Tuple[str, int, float, float, float, float]] = [
        # name, tier, base_ms, cpu, mem, elasticity
        ("be-analytics", 1, 4_000.0, 1.00, 2048.0, 1.0),
        ("be-model-train", 0, 8_000.0, 2.00, 3072.0, 1.1),
        ("be-etl-batch", 1, 3_000.0, 0.75, 1536.0, 0.9),
        ("be-log-compact", 0, 2_000.0, 0.50, 1024.0, 0.8),
        ("be-media-transcode", 1, 6_000.0, 1.50, 2048.0, 1.2),
    ]
    catalog: List[ServiceSpec] = []
    for name, tier, qos, base, cpu, mem, elas in lc:
        catalog.append(
            ServiceSpec(
                name=name,
                kind=ServiceKind.LC,
                latency_sensitivity=tier,
                qos_target_ms=qos,
                base_service_ms=base,
                min_resources=rv(cpu=cpu * 0.7, memory=mem * 0.7),
                reference_resources=rv(cpu=cpu, memory=mem),
                cpu_elasticity=elas,
                payload_kb=128.0,
            )
        )
    for name, tier, base, cpu, mem, elas in be:
        catalog.append(
            ServiceSpec(
                name=name,
                kind=ServiceKind.BE,
                latency_sensitivity=tier,
                qos_target_ms=float("inf"),
                base_service_ms=base,
                min_resources=rv(cpu=cpu * 0.5, memory=mem * 0.5),
                reference_resources=rv(cpu=cpu, memory=mem),
                cpu_elasticity=elas,
                payload_kb=512.0,
            )
        )
    return catalog
