"""Save/load trained agent parameters as ``.npz`` checkpoints.

The learning schedulers (DCG-BE, GNN-SAC, DSACO) train online; checkpoints
let experiments warm-start from a previous session instead of re-training —
the bench suite's warmup runs can be cached, and the examples can ship a
pre-trained policy.

A checkpoint stores every parameter array in registration order plus a
structural fingerprint (shapes), so loading into a mismatched architecture
fails loudly instead of silently corrupting weights.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence, Union

import numpy as np

__all__ = ["save_params", "load_params", "CheckpointError"]

_VERSION = 1


class CheckpointError(RuntimeError):
    """Raised when a checkpoint does not match the target architecture."""


def save_params(
    params: Sequence[np.ndarray], path: Union[str, Path]
) -> Path:
    """Write the parameter list to ``path`` (.npz appended if missing)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = {f"p{i:04d}": np.asarray(p) for i, p in enumerate(params)}
    arrays["_meta"] = np.array(
        [_VERSION, len(params)], dtype=np.int64
    )
    np.savez(path, **arrays)
    return path


def load_params(
    params: Sequence[np.ndarray], path: Union[str, Path]
) -> None:
    """Load a checkpoint *into* the live parameter arrays (in place).

    The target agent must already be constructed with the same architecture
    and parameter registration order.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    with np.load(path) as data:
        meta = data.get("_meta")
        if meta is None or int(meta[0]) != _VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint format")
        count = int(meta[1])
        if count != len(params):
            raise CheckpointError(
                f"{path}: checkpoint has {count} parameter arrays, "
                f"agent has {len(params)}"
            )
        for i, live in enumerate(params):
            stored = data[f"p{i:04d}"]
            if stored.shape != live.shape:
                raise CheckpointError(
                    f"{path}: parameter {i} shape {stored.shape} != "
                    f"agent shape {live.shape}"
                )
            live[...] = stored
