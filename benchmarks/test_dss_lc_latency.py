"""§7.2 — DSS-LC decision-latency scaling with node count.

Shape claims: decision time grows roughly linearly with the node count
(the paper reports 1.99 ms at 500 nodes and 3.98 ms at 1000 — a clean 2×),
and stays far below LC QoS targets.  Since the per-type graph is solved in
closed form (a numpy fill), our absolute numbers are below the paper's and a
fixed per-call cost dominates at small node counts — see EXPERIMENTS.md.
"""

from repro.experiments.dss_latency import main as dss_main


def test_dss_lc_decision_latency(once):
    result = once(dss_main)
    # monotone growth in node count
    sizes = sorted(result)
    latencies = [result[n] for n in sizes]
    assert all(a < b for a, b in zip(latencies, latencies[1:]))
    # roughly-linear shape: 1000 nodes within ~1.5x-6x of 500 nodes
    ratio = result[1000] / result[500]
    assert 1.3 <= ratio <= 6.0
    # always far below the smallest LC QoS target (250 ms)
    assert max(latencies) < 125.0
