"""Resource model for edge-cloud nodes, pods, and requests.

The paper distinguishes *compressible* resources, which can be throttled and
shared back to LC services instantly, from *incompressible* resources, which
can only be reclaimed by evicting the holder (§4.1).  It names CPU and
bandwidth as compressible and memory and disk as incompressible, but every
formula the simulator implements (Eq. 2's node capacity, Eqs. 7–8, the
DCG-BE state and reward, the HRM squeeze and eviction) reads CPU and memory
only.  So all resource arithmetic goes through :class:`ResourceVector`, a
frozen pair of floats that every component (cgroups, schedulers, HRM) agrees
on:

* ``cpu`` — CPU cores (fractional cores allowed, like K8s millicores / 1000);
  compressible.
* ``memory`` — MiB; incompressible.

Bandwidth is modelled on the links between clusters, where the paper's
``tc`` shaping lives (``EdgeCloudSystem.bandwidth_mbps`` in
:mod:`repro.cluster.topology`), and no request reserves disk.
"""

from __future__ import annotations

import dataclasses
from enum import Enum
from typing import Tuple

__all__ = [
    "ResourceKind",
    "ResourceVector",
    "ZERO",
]


class ResourceKind(str, Enum):
    """The two resource dimensions tracked by the simulator."""

    CPU = "cpu"
    MEMORY = "memory"

    @property
    def compressible(self) -> bool:
        """Whether the resource can be throttled without killing the holder."""
        return self is ResourceKind.CPU


_EPS = 1e-9


@dataclasses.dataclass(frozen=True)
class ResourceVector:
    """A point in (cpu, memory) space.

    Instances are frozen; all operators return new vectors.  Comparison
    helpers follow K8s semantics: ``fits_in`` is a conjunction over both
    dimensions.
    """

    cpu: float = 0.0
    memory: float = 0.0

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def of(cls, *, cpu: float = 0.0, memory: float = 0.0) -> "ResourceVector":
        """Build a vector from keyword dimensions, coerced to float.

        A name the model does not track raises ``TypeError`` rather than
        being dropped.
        """
        return cls(float(cpu), float(memory))

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def get(self, kind: ResourceKind) -> float:
        return getattr(self, kind.value)

    def replace(self, kind: ResourceKind, value: float) -> "ResourceVector":
        return dataclasses.replace(self, **{kind.value: float(value)})

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.cpu + other.cpu, self.memory + other.memory)

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.cpu - other.cpu, self.memory - other.memory)

    def __mul__(self, scalar: float) -> "ResourceVector":
        return ResourceVector(self.cpu * scalar, self.memory * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "ResourceVector":
        return self * -1.0

    def clamp_min(self, floor: float = 0.0) -> "ResourceVector":
        """Clamp every dimension to at least ``floor`` (used after reclaim)."""
        return ResourceVector(max(self.cpu, floor), max(self.memory, floor))

    def min_with(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            min(self.cpu, other.cpu), min(self.memory, other.memory)
        )

    def max_with(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            max(self.cpu, other.cpu), max(self.memory, other.memory)
        )

    # ------------------------------------------------------------------ #
    # predicates / scalar summaries
    # ------------------------------------------------------------------ #
    def fits_in(self, capacity: "ResourceVector") -> bool:
        """True when this demand fits inside ``capacity`` on every dimension."""
        return (
            self.cpu <= capacity.cpu + _EPS
            and self.memory <= capacity.memory + _EPS
        )

    def is_nonnegative(self) -> bool:
        return self.cpu >= -_EPS and self.memory >= -_EPS

    def is_zero(self) -> bool:
        return abs(self.cpu) <= _EPS and abs(self.memory) <= _EPS

    def as_tuple(self) -> Tuple[float, float]:
        return (self.cpu, self.memory)

    def approx_equal(self, other: "ResourceVector", tol: float = 1e-6) -> bool:
        return (
            abs(self.cpu - other.cpu) <= tol
            and abs(self.memory - other.memory) <= tol
        )


ZERO = ResourceVector()
