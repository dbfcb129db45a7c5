"""Deterministic checkpoint/restore of a running simulation.

Long-horizon runs, warm-started experiments, and scenario branching all
need the same primitive: freeze *every* piece of mutable simulation state
at tick t, and later rebuild an identical system and continue such that the
resumed run is bit-identical to a straight run.  The contract:

* every stateful layer implements the :class:`Checkpointable` protocol —
  ``snapshot_state()`` returns a plain dict of its live mutable state and
  ``restore_state(state)`` installs one back.  Wiring (bus/emitter refs,
  back-pointers to the system) is *not* part of the state: it is re-created
  by constructing a fresh runner;
* the runner gathers each layer's state dict into one bundle and performs a
  **single deepcopy over the whole bundle**, so objects shared between
  layers (a request in flight *and* in a queue, numpy arrays aliased
  between an agent's encoder and its optimizer) keep their aliasing;
* restore deepcopies again before distributing the sub-states, so one
  checkpoint can be resumed — or *forked* — any number of times.

:class:`RunnerCheckpoint` is the deepcopied bundle plus a format version;
:func:`save_checkpoint` / :func:`load_checkpoint` pickle it (optionally
with rebuild metadata) for the ``python -m repro checkpoint|resume`` CLI.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, Protocol, runtime_checkable

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpointable",
    "RunnerCheckpoint",
    "component_state",
    "restore_component",
    "save_checkpoint",
    "load_checkpoint",
]

#: bump on any incompatible change to the bundle layout.
CHECKPOINT_VERSION = 1


@runtime_checkable
class Checkpointable(Protocol):
    """A layer whose live mutable state can be snapshotted and restored."""

    def snapshot_state(self) -> Dict[str, Any]:
        """Return the layer's mutable state (no deepcopy; caller copies)."""
        ...

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Install a previously snapshotted state dict."""
        ...


#: attributes the generic fallback must never capture: wiring re-created by
#: the runner, or configuration/topology shared with the rebuilt system.
_SKIP_ATTRS = frozenset(
    {"bus", "emitter", "system", "config", "detector", "reassurance"}
)


def component_state(obj: Any) -> Dict[str, Any]:
    """Snapshot one component, via the protocol or a filtered ``__dict__``.

    The fallback covers trivially stateful components (round-robin cursors,
    counters) without forcing every baseline to implement the protocol.
    """
    fn = getattr(obj, "snapshot_state", None)
    if fn is not None:
        return fn()
    return {
        "__dict__": {
            k: v for k, v in vars(obj).items() if k not in _SKIP_ATTRS
        }
    }


def restore_component(obj: Any, state: Dict[str, Any]) -> None:
    fn = getattr(obj, "restore_state", None)
    if fn is not None:
        fn(state)
        return
    for key, value in state["__dict__"].items():
        setattr(obj, key, value)


@dataclass
class RunnerCheckpoint:
    """One frozen simulation state; ``state`` is owned (already deepcopied)."""

    state: Dict[str, Any]
    version: int = CHECKPOINT_VERSION
    #: optional rebuild metadata (CLI stack/topology/trace arguments).
    meta: Dict[str, Any] = field(default_factory=dict)

    def fork(self) -> "RunnerCheckpoint":
        """An independent copy (resuming never mutates a checkpoint, but a
        caller may want to annotate forks with diverging metadata)."""
        return RunnerCheckpoint(
            state=copy.deepcopy(self.state),
            version=self.version,
            meta=dict(self.meta),
        )


def save_checkpoint(checkpoint: RunnerCheckpoint, path: str) -> str:
    with open(path, "wb") as fh:
        pickle.dump(checkpoint, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return path


def load_checkpoint(path: str) -> RunnerCheckpoint:
    with open(path, "rb") as fh:
        checkpoint = pickle.load(fh)
    if not isinstance(checkpoint, RunnerCheckpoint):
        raise TypeError(f"{path}: not a RunnerCheckpoint")
    if checkpoint.version != CHECKPOINT_VERSION:
        raise ValueError(
            f"{path}: checkpoint version {checkpoint.version} "
            f"!= supported {CHECKPOINT_VERSION}"
        )
    return checkpoint
