"""The canonical RunMetrics fingerprint + readable diffing.

One fingerprint shape is used everywhere determinism is asserted — the
seed-metrics goldens, the checkpoint/resume suite, the mode-parity test
and perfbench — so a drift in any gate points at the same fields.
Floats are rounded exactly as the goldens were recorded (latency sums to
6 places, rates to 12), making "bit-identical" well-defined across JSON
round-trips.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

__all__ = ["metrics_fingerprint", "fingerprint_diff", "format_fingerprint_diff"]


def metrics_fingerprint(metrics) -> Dict[str, Any]:
    """The seed fingerprint shape over a :class:`RunMetrics`."""
    return {
        "lc_arrived": metrics.lc_arrived,
        "lc_completed": metrics.lc_completed,
        "lc_satisfied": metrics.lc_satisfied,
        "lc_abandoned": metrics.lc_abandoned,
        "be_arrived": metrics.be_arrived,
        "be_completed": metrics.be_completed,
        "be_evictions": metrics.be_evictions,
        "lc_latency_sum": round(sum(metrics.lc_latencies_ms), 6),
        "utilization": [round(u, 12) for u in metrics.utilization],
        "qos_rate_per_period": [
            round(r, 12) for r in metrics.qos_rate_per_period
        ],
        "per_service": {
            k: list(v) for k, v in sorted(metrics.per_service.items())
        },
    }


def _describe(value: Any) -> str:
    if isinstance(value, list) and len(value) > 6:
        head = ", ".join(repr(v) for v in value[:3])
        return f"[{head}, … {len(value)} items]"
    return repr(value)


def fingerprint_diff(
    expected: Dict[str, Any], actual: Dict[str, Any]
) -> List[Tuple[str, str, str]]:
    """Per-field differences as ``(field, expected, actual)`` rows.

    List fields report the first differing index; dict fields (per-service
    counters) report each differing key as its own row.
    """
    rows: List[Tuple[str, str, str]] = []
    for key in sorted(set(expected) | set(actual)):
        a, b = expected.get(key), actual.get(key)
        if a == b:
            continue
        if isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                rows.append((key, f"len {len(a)}", f"len {len(b)}"))
                continue
            for i, (x, y) in enumerate(zip(a, b)):
                if x != y:
                    rows.append((f"{key}[{i}]", repr(x), repr(y)))
                    break
        elif isinstance(a, dict) and isinstance(b, dict):
            for sub in sorted(set(a) | set(b)):
                if a.get(sub) != b.get(sub):
                    rows.append(
                        (
                            f"{key}[{sub!r}]",
                            _describe(a.get(sub)),
                            _describe(b.get(sub)),
                        )
                    )
        else:
            rows.append((key, _describe(a), _describe(b)))
    return rows


def format_fingerprint_diff(
    expected: Dict[str, Any],
    actual: Dict[str, Any],
    labels: Tuple[str, str] = ("expected", "actual"),
) -> str:
    """A readable per-field table of fingerprint differences (empty string
    when the fingerprints match)."""
    rows = fingerprint_diff(expected, actual)
    if not rows:
        return ""
    header = ("field", labels[0], labels[1])
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) for i in range(3)
    ]
    lines = [
        "  ".join(header[i].ljust(widths[i]) for i in range(3)),
        "  ".join("-" * widths[i] for i in range(3)),
    ]
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(3)))
    return "\n".join(lines)
