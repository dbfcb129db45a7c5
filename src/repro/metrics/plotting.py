"""ASCII timeline rendering for terminal-friendly experiment output.

The paper's figures are time series (utilisation, QoS rate, throughput per
800 ms period).  The bench harness runs in terminals, so this module renders
those series as unicode sparklines and aligned multi-series charts — the
same primitives the examples use.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

__all__ = ["sparkline", "timeline_chart", "histogram"]

_BLOCKS = " ▁▂▃▄▅▆▇█"


def sparkline(
    values: Sequence[float],
    width: int = 60,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> str:
    """One-line unicode sparkline, resampled to at most ``width`` chars."""
    data = [float(v) for v in values]
    if not data:
        return ""
    if len(data) > width:
        step = len(data) / width
        data = [
            sum(data[int(i * step): max(int(i * step) + 1, int((i + 1) * step))])
            / max(1, len(data[int(i * step): max(int(i * step) + 1, int((i + 1) * step))]))
            for i in range(width)
        ]
    floor = min(data) if lo is None else lo
    ceil = max(data) if hi is None else hi
    span = ceil - floor
    if span <= 0:
        return _BLOCKS[4] * len(data)
    out = []
    for v in data:
        frac = (v - floor) / span
        out.append(_BLOCKS[round(frac * (len(_BLOCKS) - 1))])
    return "".join(out)


def timeline_chart(
    series: Dict[str, Sequence[float]],
    width: int = 60,
    normalize: bool = True,
) -> str:
    """Aligned multi-series sparkline block with a shared scale.

    With ``normalize`` the scale is shared across all series (comparable
    heights, the paper's normalized-figure style); otherwise each line is
    self-scaled.
    """
    if not series:
        return ""
    label_width = max(len(name) for name in series)
    lo = hi = None
    if normalize:
        all_values = [
            float(v) for s in series.values() for v in list(s)
        ]
        if all_values:
            lo, hi = min(all_values), max(all_values)
    lines = []
    for name, values in series.items():
        values = list(values)
        spark = sparkline(values, width=width, lo=lo, hi=hi)
        suffix = f"  (last {values[-1]:.3g})" if values else ""
        lines.append(f"{name.rjust(label_width)} {spark}{suffix}")
    return "\n".join(lines)


def histogram(
    values: Sequence[float],
    bins: int = 10,
    width: int = 40,
) -> str:
    """Horizontal ASCII histogram with bin edges."""
    data = sorted(float(v) for v in values)
    if not data:
        return "(no data)"
    lo, hi = data[0], data[-1]
    if hi <= lo:
        return f"{lo:.3g}: {'█' * width} ({len(data)})"
    edges = [lo + (hi - lo) * i / bins for i in range(bins + 1)]
    counts = [0] * bins
    for v in data:
        idx = min(bins - 1, int((v - lo) / (hi - lo) * bins))
        counts[idx] += 1
    peak = max(counts)
    lines = []
    for i, count in enumerate(counts):
        bar = "█" * max(1 if count else 0, round(count / peak * width))
        lines.append(
            f"{edges[i]:>10.3g} – {edges[i+1]:<10.3g} {bar} {count}"
        )
    return "\n".join(lines)
