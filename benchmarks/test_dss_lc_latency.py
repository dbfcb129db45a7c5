"""§7.2 — DSS-LC decision-latency scaling with node count.

Shape claims: decision time grows with the node count (the paper reports
1.99 ms at 500 nodes and 3.98 ms at 1000) and stays far below LC QoS
targets.  Since the per-type graph is solved in closed form (a numpy fill),
our absolute numbers are below the paper's and a fixed per-call cost
dominates the small sizes, so adjacent sizes can swap order within the
noise — see EXPERIMENTS.md.  Growth is asserted across the whole ladder on
paired samples: each round times every size back to back, and the lower
quartile of the 21 per-round 2000-node minus 100-node differences must be
positive.
"""

from repro.experiments.dss_latency import main as dss_main


def test_dss_lc_decision_latency(once):
    result = once(dss_main)
    assert result[2000]["paired_q1_ms"] > 0.0
    # the paper's 1000-node point
    assert result[1000]["median_ms"] < 3.98
    # always far below the smallest LC QoS target (250 ms)
    assert max(r["median_ms"] for r in result.values()) < 125.0
