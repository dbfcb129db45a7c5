"""Figure 12 — LC × BE algorithm pairing matrix.

Shape claims: DSS-LC yields the best LC QoS under every BE pairing and its
QoS barely moves across BE policies (HRM insulation); the DSS-LC × DCG-BE
cell is the best (or near-best) throughput pairing.
"""

from repro.experiments.fig12 import BE_SET, LC_SET, run_fig12


def test_fig12_pairing(once):
    result = once(run_fig12, "multi")
    qos, thr = result["qos"], result["throughput"]

    # DSS-LC wins (or ties within noise) the QoS comparison for each BE policy
    wins = 0
    for be in BE_SET:
        best_lc = max(LC_SET, key=lambda lc: qos[(lc, be)])
        if qos[("dss-lc", be)] >= qos[(best_lc, be)] - 0.01:
            wins += 1
    assert wins >= 3  # at least 3 of 4 columns

    # LC results are insensitive to the BE policy under DSS-LC (HRM buffering)
    dss_row = [qos[("dss-lc", be)] for be in BE_SET]
    assert max(dss_row) - min(dss_row) < 0.08

    # the Tango pairing is at or near the top of the throughput matrix
    tango_cell = thr[("dss-lc", "dcg-be")]
    best = max(thr.values())
    assert tango_cell >= 0.9 * best
