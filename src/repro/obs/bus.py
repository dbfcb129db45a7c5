"""The structured event bus: typed publish/subscribe plus a ring buffer.

Design constraints, in order:

1. **Deterministic.**  Dispatch is synchronous and in publication order;
   subscribers for a type run in subscription order.  The bus is a pure
   tee: the run's metrics collector is fed directly by the emitter, never
   through a subscription, so no subscriber can move a fingerprint bit.
2. **Cheap.**  A publish is one deque append plus a cached handler-list
   walk.  Without a bus the runner wires a
   :class:`~repro.obs.emitter.DirectEmitter`, which never constructs an
   event at all.
3. **Bounded.**  The ring buffer keeps the last ``capacity`` events for
   retrospective queries (``bus.events()``); subscribers always see every
   event regardless of ring evictions.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple, Type

from repro.obs.events import Event

__all__ = ["EventBus"]

Handler = Callable[[Event], None]


class EventBus:
    """Synchronous, ring-buffered, type-keyed event bus."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._ring: Deque[Event] = deque(maxlen=capacity)
        #: handlers keyed by concrete event class; ``None`` key = wildcard.
        self._subscribers: Dict[Optional[Type[Event]], List[Handler]] = {}
        #: per-class dispatch list (type handlers + wildcards), rebuilt on
        #: subscription changes so a publish is a single dict hit.
        self._dispatch_cache: Dict[Type[Event], Tuple[Handler, ...]] = {}
        #: total publications per event kind (never evicted).
        self._counts: Dict[str, int] = {}
        self.published = 0

    # ------------------------------------------------------------------ #
    # subscription
    # ------------------------------------------------------------------ #
    def subscribe(
        self, event_type: Optional[Type[Event]], handler: Handler
    ) -> Handler:
        """Register ``handler`` for one event class (``None`` = all)."""
        self._subscribers.setdefault(event_type, []).append(handler)
        self._dispatch_cache.clear()
        return handler

    def subscribe_many(
        self, handlers: Dict[Optional[Type[Event]], Handler]
    ) -> None:
        for event_type, handler in handlers.items():
            self.subscribe(event_type, handler)

    def unsubscribe(
        self, event_type: Optional[Type[Event]], handler: Handler
    ) -> None:
        listeners = self._subscribers.get(event_type, [])
        if handler in listeners:
            listeners.remove(handler)
            self._dispatch_cache.clear()

    # ------------------------------------------------------------------ #
    # publication
    # ------------------------------------------------------------------ #
    def publish(self, event: Event) -> None:
        self._ring.append(event)
        self.published += 1
        kind = event.kind
        self._counts[kind] = self._counts.get(kind, 0) + 1
        cls = type(event)
        handlers = self._dispatch_cache.get(cls)
        if handlers is None:
            handlers = tuple(
                self._subscribers.get(cls, ())
            ) + tuple(self._subscribers.get(None, ()))
            self._dispatch_cache[cls] = handlers
        for handler in handlers:
            handler(event)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def events(self, *event_types: Type[Event]) -> List[Event]:
        """Ring-buffer contents, optionally filtered by class."""
        if not event_types:
            return list(self._ring)
        return [e for e in self._ring if isinstance(e, event_types)]

    def count(self, kind_or_type) -> int:
        """Total publications of one kind (string or event class)."""
        kind = (
            kind_or_type
            if isinstance(kind_or_type, str)
            else kind_or_type.kind
        )
        return self._counts.get(kind, 0)

    def counts(self) -> Dict[str, int]:
        return dict(self._counts)

    def tail(self, n: int = 20) -> List[Event]:
        if n <= 0:
            return []
        return list(self._ring)[-n:]

    def clear(self) -> None:
        """Drop buffered events and counters (subscriptions survive)."""
        self._ring.clear()
        self._counts.clear()
        self.published = 0
