"""In-memory Kubernetes API server: typed object store with watch semantics.

Tango's components (Fig. 3) interact with the cluster exclusively through the
K8s API server — the LC traffic dispatcher reads node state, the D-VPA
patches pod resources, Prometheus pushes metrics into the state storage.
This module provides the storage and eventing core: CRUD over (kind,
namespace, name) keys, optimistic concurrency via ``resourceVersion``, and
watch streams that deliver ADDED / MODIFIED / DELETED events to subscribers,
mirroring the real API machinery at behaviour level.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["ApiServer", "WatchEvent", "EventType", "ConflictError", "NotFoundError"]


class EventType(str, Enum):
    ADDED = "ADDED"
    MODIFIED = "MODIFIED"
    DELETED = "DELETED"


@dataclass
class WatchEvent:
    type: EventType
    kind: str
    namespace: str
    name: str
    obj: Any
    resource_version: int


class ConflictError(Exception):
    """Raised on a stale-resourceVersion update (HTTP 409 equivalent)."""


class NotFoundError(KeyError):
    """Raised when an object does not exist (HTTP 404 equivalent)."""


_Key = Tuple[str, str, str]


class ApiServer:
    """The cluster's source of truth for API objects."""

    def __init__(self) -> None:
        self._store: Dict[_Key, Any] = {}
        self._versions: Dict[_Key, int] = {}
        self._global_version = 0
        self._watchers: List[Tuple[Optional[str], Callable[[WatchEvent], None]]] = []

    # ------------------------------------------------------------------ #
    # CRUD
    # ------------------------------------------------------------------ #
    def create(
        self, kind: str, name: str, obj: Any, namespace: str = "default"
    ) -> int:
        key = (kind, namespace, name)
        if key in self._store:
            raise ConflictError(f"{kind} {namespace}/{name} already exists")
        self._store[key] = obj
        version = self._bump(key)
        self._notify(EventType.ADDED, key, obj, version)
        return version

    def get(self, kind: str, name: str, namespace: str = "default") -> Any:
        try:
            return self._store[(kind, namespace, name)]
        except KeyError:
            raise NotFoundError(f"{kind} {namespace}/{name}") from None

    def exists(self, kind: str, name: str, namespace: str = "default") -> bool:
        return (kind, namespace, name) in self._store

    def update(
        self,
        kind: str,
        name: str,
        obj: Any,
        namespace: str = "default",
        expected_version: Optional[int] = None,
    ) -> int:
        key = (kind, namespace, name)
        if key not in self._store:
            raise NotFoundError(f"{kind} {namespace}/{name}")
        if expected_version is not None and self._versions[key] != expected_version:
            raise ConflictError(
                f"{kind} {namespace}/{name}: version {expected_version} is stale "
                f"(current {self._versions[key]})"
            )
        self._store[key] = obj
        version = self._bump(key)
        self._notify(EventType.MODIFIED, key, obj, version)
        return version

    def patch(
        self,
        kind: str,
        name: str,
        mutate: Callable[[Any], None],
        namespace: str = "default",
    ) -> int:
        """Read-modify-write in one step (strategic-merge-patch equivalent)."""
        obj = self.get(kind, name, namespace)
        mutate(obj)
        return self.update(kind, name, obj, namespace)

    def delete(self, kind: str, name: str, namespace: str = "default") -> Any:
        key = (kind, namespace, name)
        if key not in self._store:
            raise NotFoundError(f"{kind} {namespace}/{name}")
        obj = self._store.pop(key)
        version = self._bump(key, removed=True)
        self._notify(EventType.DELETED, key, obj, version)
        return obj

    def list(self, kind: str, namespace: Optional[str] = None) -> List[Any]:
        return [
            obj
            for (k, ns, _), obj in sorted(
                self._store.items(), key=lambda item: item[0]
            )
            if k == kind and (namespace is None or ns == namespace)
        ]

    def resource_version(
        self, kind: str, name: str, namespace: str = "default"
    ) -> int:
        key = (kind, namespace, name)
        if key not in self._versions:
            raise NotFoundError(f"{kind} {namespace}/{name}")
        return self._versions[key]

    # ------------------------------------------------------------------ #
    # watch
    # ------------------------------------------------------------------ #
    def watch(
        self,
        callback: Callable[[WatchEvent], None],
        kind: Optional[str] = None,
    ) -> Callable[[], None]:
        """Subscribe to events (optionally one kind); returns an unsubscribe."""
        entry = (kind, callback)
        self._watchers.append(entry)

        def cancel() -> None:
            if entry in self._watchers:
                self._watchers.remove(entry)

        return cancel

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _bump(self, key: _Key, removed: bool = False) -> int:
        self._global_version += 1
        if removed:
            self._versions.pop(key, None)
        else:
            self._versions[key] = self._global_version
        return self._global_version

    def _notify(self, etype: EventType, key: _Key, obj: Any, version: int) -> None:
        kind, namespace, name = key
        event = WatchEvent(etype, kind, namespace, name, obj, version)
        for want_kind, callback in list(self._watchers):
            if want_kind is None or want_kind == kind:
                callback(event)
