"""Simulated Linux cgroup-v1 hierarchy as built by kubelet.

D-VPA's whole trick (§4.2, Fig. 5) is an extra control flow into the cgroup
tree: instead of delete-and-rebuild, it rewrites ``cpu.shares`` /
``cpu.cfs_quota_us`` / memory limits on the *pod-level* and *container-level*
cgroups at runtime.  The paper stresses that "modifications must be
sequential to prevent failure": expansion writes the pod-level group first,
then the container level; shrinking reverses the order — otherwise a child
limit could momentarily exceed its parent and the write would fail, exactly
like the real kernel rejects such writes.

This module models:

* the ``kubepods/<qos>/<pod>/<container>`` tree with per-group control files;
* the invariant "child limit ≤ parent limit" enforced on every write;
* a per-write latency cost so experiments can measure scaling-operation time
  (a D-VPA resize is a handful of file writes ≈ 23 ms; the native VPA path is
  a pod delete + cold container start ≈ 100× that, §7.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.resources import ResourceKind, ResourceVector

__all__ = ["CGroup", "CGroupTree", "CGroupError", "WRITE_LATENCY_MS"]

#: Simulated latency of one cgroup control-file write (ms).  Six writes per
#: two-level resize puts a D-VPA operation at ~23 ms, matching §7.1.
WRITE_LATENCY_MS = 3.8

#: cpu.cfs_period_us default used by kubelet.
CFS_PERIOD_US = 100_000

#: cpu.shares per core, K8s convention.
SHARES_PER_CORE = 1024


class CGroupError(RuntimeError):
    """A rejected control-file write (kernel ``EINVAL``/``EBUSY`` analogue)."""


@dataclass
class CGroup:
    """One cgroup directory with its control files."""

    path: str
    parent: Optional["CGroup"] = None
    children: Dict[str, "CGroup"] = field(default_factory=dict)
    #: control files; limits of 0 mean "unlimited" (root groups).
    controls: Dict[str, float] = field(default_factory=dict)

    def control(self, name: str, default: float = 0.0) -> float:
        return self.controls.get(name, default)

    # -- limit views ---------------------------------------------------- #
    def cpu_limit_cores(self) -> float:
        quota = self.control("cpu.cfs_quota_us", -1.0)
        if quota < 0:
            return float("inf")
        return quota / self.control("cpu.cfs_period_us", CFS_PERIOD_US)

    def memory_limit_mib(self) -> float:
        limit = self.control("memory.limit_in_bytes", -1.0)
        if limit < 0:
            return float("inf")
        return limit / (1024.0 * 1024.0)


@dataclass
class WriteRecord:
    """Audit-log entry for one control-file write."""

    path: str
    control: str
    value: float
    time_cost_ms: float


class CGroupTree:
    """The per-node cgroup filesystem under ``/sys/fs/cgroup/.../kubepods``."""

    ROOT_PATH = "/sys/fs/cgroup/cpu,cpuacct/kubepods"

    def __init__(self) -> None:
        self.root = CGroup(path=self.ROOT_PATH)
        for qos in ("guaranteed", "burstable", "besteffort"):
            self._add_child(self.root, qos)
        self.write_log: List[WriteRecord] = []

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    def _add_child(self, parent: CGroup, name: str) -> CGroup:
        group = CGroup(path=f"{parent.path}/{name}", parent=parent)
        parent.children[name] = group
        return group

    def qos_group(self, qos: str) -> CGroup:
        key = qos.lower().replace("-", "")
        if key not in self.root.children:
            raise CGroupError(f"unknown QoS class group {qos!r}")
        return self.root.children[key]

    def create_pod_group(
        self,
        qos: str,
        pod_uid: str,
        container_names: List[str],
        *,
        cpu_limit_cores: Optional[float] = None,
        memory_limit_mib: Optional[float] = None,
    ) -> CGroup:
        """Create ``.../<qos>/pod<uid>/<container>`` as kubelet does."""
        parent = self.qos_group(qos)
        pod_name = f"pod{pod_uid}"
        if pod_name in parent.children:
            raise CGroupError(f"pod cgroup {pod_name} already exists")
        pod_group = self._add_child(parent, pod_name)
        self._init_limits(pod_group, cpu_limit_cores, memory_limit_mib)
        for cname in container_names:
            container = self._add_child(pod_group, cname)
            self._init_limits(container, cpu_limit_cores, memory_limit_mib)
        return pod_group

    def remove_pod_group(self, qos: str, pod_uid: str) -> None:
        parent = self.qos_group(qos)
        pod_name = f"pod{pod_uid}"
        if pod_name not in parent.children:
            raise CGroupError(f"pod cgroup {pod_name} does not exist")
        del parent.children[pod_name]

    def pod_group(self, qos: str, pod_uid: str) -> CGroup:
        parent = self.qos_group(qos)
        pod_name = f"pod{pod_uid}"
        if pod_name not in parent.children:
            raise CGroupError(f"pod cgroup {pod_name} does not exist")
        return parent.children[pod_name]

    def _init_limits(
        self,
        group: CGroup,
        cpu_limit_cores: Optional[float],
        memory_limit_mib: Optional[float],
    ) -> None:
        group.controls["cpu.cfs_period_us"] = CFS_PERIOD_US
        if cpu_limit_cores is None:
            group.controls["cpu.cfs_quota_us"] = -1.0
            group.controls["cpu.shares"] = 2  # K8s BestEffort shares
        else:
            group.controls["cpu.cfs_quota_us"] = cpu_limit_cores * CFS_PERIOD_US
            group.controls["cpu.shares"] = max(
                2, int(cpu_limit_cores * SHARES_PER_CORE)
            )
        if memory_limit_mib is None:
            group.controls["memory.limit_in_bytes"] = -1.0
        else:
            group.controls["memory.limit_in_bytes"] = memory_limit_mib * 1024 * 1024

    # ------------------------------------------------------------------ #
    # writes (the D-VPA control flow)
    # ------------------------------------------------------------------ #
    def write(self, group: CGroup, control: str, value: float) -> float:
        """Write one control file; returns simulated latency in ms.

        Enforces the kernel invariant that a group's limit may not exceed its
        parent's limit and may not fall below the sum already granted to its
        children — the reason D-VPA's two-level writes must be ordered.
        """
        self._validate(group, control, value)
        group.controls[control] = value
        record = WriteRecord(group.path, control, value, WRITE_LATENCY_MS)
        self.write_log.append(record)
        return WRITE_LATENCY_MS

    def _validate(self, group: CGroup, control: str, value: float) -> None:
        if control == "cpu.cfs_quota_us":
            if value < 0:
                return  # unlimited is always allowed
            new_cores = value / group.control("cpu.cfs_period_us", CFS_PERIOD_US)
            self._check_bounds(group, new_cores, CGroup.cpu_limit_cores)
        elif control == "memory.limit_in_bytes":
            if value < 0:
                return
            new_mib = value / (1024.0 * 1024.0)
            self._check_bounds(group, new_mib, CGroup.memory_limit_mib)
        elif control in ("cpu.shares", "cpu.cfs_period_us"):
            if value <= 0:
                raise CGroupError(f"{control} must be positive, got {value}")
        else:
            raise CGroupError(f"unknown control file {control!r}")

    @staticmethod
    def _check_bounds(group: CGroup, new_value: float, limit_getter) -> None:
        if group.parent is not None:
            parent_limit = limit_getter(group.parent)
            if new_value > parent_limit + 1e-9:
                raise CGroupError(
                    f"{group.path}: new limit {new_value:.3f} exceeds parent "
                    f"limit {parent_limit:.3f} (writes must go top-down when "
                    "expanding)"
                )
        child_max = 0.0
        for child in group.children.values():
            child_limit = limit_getter(child)
            if child_limit != float("inf"):
                child_max = max(child_max, child_limit)
        if group.children and new_value < child_max - 1e-9:
            raise CGroupError(
                f"{group.path}: new limit {new_value:.3f} is below child "
                f"limit {child_max:.3f} (writes must go bottom-up when "
                "shrinking)"
            )

    # ------------------------------------------------------------------ #
    # resize protocols
    # ------------------------------------------------------------------ #
    def resize_pod(
        self,
        qos: str,
        pod_uid: str,
        container_name: str,
        new_limits: ResourceVector,
    ) -> float:
        """Resize a container via the ordered two-level protocol (§4.2).

        Expansion: pod-level first, then container-level.  Shrink: container
        first, then pod.  Returns the total simulated latency (ms).
        """
        pod_group = self.pod_group(qos, pod_uid)
        if container_name not in pod_group.children:
            raise CGroupError(
                f"container cgroup {container_name} not in {pod_group.path}"
            )
        container = pod_group.children[container_name]
        latency = 0.0
        for kind, control, to_raw in (
            (
                ResourceKind.CPU,
                "cpu.cfs_quota_us",
                lambda cores: cores * CFS_PERIOD_US,
            ),
            (
                ResourceKind.MEMORY,
                "memory.limit_in_bytes",
                lambda mib: mib * 1024 * 1024,
            ),
        ):
            target = new_limits.get(kind)
            if target <= 0:
                continue
            current = (
                container.cpu_limit_cores()
                if kind is ResourceKind.CPU
                else container.memory_limit_mib()
            )
            expanding = target > current
            order = (pod_group, container) if expanding else (container, pod_group)
            for group in order:
                latency += self.write(group, control, to_raw(target))
            if kind is ResourceKind.CPU:
                latency += self.write(
                    container,
                    "cpu.shares",
                    max(2, int(target * SHARES_PER_CORE)),
                )
        return latency
