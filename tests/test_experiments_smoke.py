"""Smoke tests for the experiment harnesses (fast paths only).

The benchmark suite exercises the full-size experiments; these tests only
assert that every harness builds, runs at a reduced scale, and returns the
structure the benches consume.  Heavy learning arms are excluded here.
"""

from repro.experiments import common
from repro.experiments.dss_latency import run_dss_latency
from repro.experiments.dvpa_latency import run_dvpa_latency
from repro.experiments.fig1 import run_fig1


class TestCommon:
    def test_scales_registry(self):
        assert {"tiny", "small", "multi", "paper"} <= set(common.SCALES)
        for scale in common.SCALES.values():
            assert scale.duration_ms > 0
            assert scale.n_clusters >= 1

    def test_normalize(self):
        out = common.normalize({"a": 2.0, "b": 1.0})
        assert out == {"a": 1.0, "b": 0.5}
        assert common.normalize({}) == {}
        assert common.normalize({"a": 0.0}) == {"a": 0.0}

    def test_print_table_handles_rows_and_empty(self, capsys):
        common.print_table("t", [{"x": 1, "y": 2.5}])
        common.print_table("empty", [])
        out = capsys.readouterr().out
        assert "t" in out and "2.500" in out and "(no rows)" in out

    def test_build_and_run_with_custom_trace(self):
        from repro.core.config import TangoConfig

        scale = common.SCALES["tiny"]
        config = common.scaled_config(TangoConfig.k8s_native, scale)
        metrics = common.build_and_run(config, scale, trace=[])
        assert metrics.lc_arrived == 0


class TestMicrobenches:
    def test_dvpa_latency_structure(self):
        result = run_dvpa_latency(n_ops=6)
        assert set(result) >= {"dvpa_mean_ms", "native_mean_ms", "speedup"}
        assert result["speedup"] > 1.0

    def test_dss_latency_structure(self):
        result = run_dss_latency(node_counts=(20, 50), n_requests=10, repeats=2)
        assert set(result) == {20, 50}
        assert all(v > 0 for v in result.values())


class TestFig1Smoke:
    def test_returns_series_and_summaries(self):
        result = run_fig1("tiny")
        assert len(result["hours"]) == len(result["utilization"])
        assert 0.0 <= result["mean_utilization"] <= 1.0
        assert result["mean_latency_ms"] >= 0.0
