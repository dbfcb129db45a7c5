"""Top-level configuration for building a Tango (or baseline) system."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.topology import TopologyConfig
from repro.hrm.reassurance import ReassuranceConfig
from repro.hrm.regulations import HRMConfig
from repro.scheduling.dcg_be import DCGBEConfig
from repro.scheduling.dss_lc import DSSLCConfig
from repro.sim.runner import RunnerConfig

__all__ = ["TangoConfig", "LC_POLICIES", "BE_POLICIES", "MANAGERS"]

LC_POLICIES = ("dss-lc", "load-greedy", "k8s-native", "scoring", "dsaco")
BE_POLICIES = ("dcg-be", "gnn-sac", "load-greedy", "k8s-native", "dsaco")
MANAGERS = ("hrm", "static", "ceres")


@dataclass
class TangoConfig:
    """Everything needed to assemble one experimental system.

    Tango itself is ``manager="hrm", lc_policy="dss-lc", be_policy="dcg-be"``
    with re-assurance on; baselines swap individual pieces, which is exactly
    how the paper's pairing matrix (Fig. 12) and ablations are produced.
    """

    manager: str = "hrm"
    lc_policy: str = "dss-lc"
    be_policy: str = "dcg-be"
    #: QoS re-assurance on/off (Fig. 10 ablation).
    reassurance_enabled: bool = True
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    runner: RunnerConfig = field(default_factory=RunnerConfig)
    hrm: HRMConfig = field(default_factory=HRMConfig)
    reassurance: ReassuranceConfig = field(default_factory=ReassuranceConfig)
    dss_lc: DSSLCConfig = field(default_factory=DSSLCConfig)
    dcg_be: DCGBEConfig = field(default_factory=DCGBEConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.manager not in MANAGERS:
            raise ValueError(f"unknown manager {self.manager!r}; want {MANAGERS}")
        if self.lc_policy not in LC_POLICIES:
            raise ValueError(
                f"unknown LC policy {self.lc_policy!r}; want {LC_POLICIES}"
            )
        if self.be_policy not in BE_POLICIES:
            raise ValueError(
                f"unknown BE policy {self.be_policy!r}; want {BE_POLICIES}"
            )

    @classmethod
    def tango(cls, **overrides) -> "TangoConfig":
        """The full Tango stack (HRM + DSS-LC + DCG-BE)."""
        return cls(**overrides)

    @classmethod
    def k8s_native(cls, **overrides) -> "TangoConfig":
        """Plain Kubernetes: static allocation + round-robin everywhere."""
        overrides.setdefault("manager", "static")
        overrides.setdefault("lc_policy", "k8s-native")
        overrides.setdefault("be_policy", "k8s-native")
        overrides.setdefault("reassurance_enabled", False)
        return cls(**overrides)

    @classmethod
    def ceres(cls, **overrides) -> "TangoConfig":
        """CERES: local elastic management, static traffic policy (§7.3)."""
        overrides.setdefault("manager", "ceres")
        overrides.setdefault("lc_policy", "k8s-native")
        overrides.setdefault("be_policy", "k8s-native")
        overrides.setdefault("reassurance_enabled", False)
        return cls(**overrides)

    @classmethod
    def dsaco(cls, **overrides) -> "TangoConfig":
        """DSACO: distributed SAC offloading, no mixed-workload manager."""
        overrides.setdefault("manager", "static")
        overrides.setdefault("lc_policy", "dsaco")
        overrides.setdefault("be_policy", "dsaco")
        overrides.setdefault("reassurance_enabled", False)
        return cls(**overrides)
