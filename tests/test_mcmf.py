"""Min-cost max-flow solver tests, including cross-checks vs networkx."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.flow.mcmf import MinCostMaxFlow


class TestBasics:
    def test_single_edge(self):
        net = MinCostMaxFlow(2)
        net.add_edge(0, 1, 5, 3)
        result = net.solve(0, 1)
        assert result.flow == 5
        assert result.cost == 15

    def test_two_parallel_paths_prefers_cheap(self):
        net = MinCostMaxFlow(4)
        net.add_edge(0, 1, 10, 1)
        net.add_edge(1, 3, 10, 1)
        net.add_edge(0, 2, 10, 5)
        net.add_edge(2, 3, 10, 5)
        result = net.solve(0, 3, max_flow=10)
        assert result.flow == 10
        assert result.cost == 10 * 2  # everything over the cheap path

    def test_spill_to_expensive_path(self):
        net = MinCostMaxFlow(4)
        e_cheap1 = net.add_edge(0, 1, 4, 1)
        net.add_edge(1, 3, 4, 1)
        e_exp1 = net.add_edge(0, 2, 10, 5)
        net.add_edge(2, 3, 10, 5)
        result = net.solve(0, 3, max_flow=6)
        assert result.flow == 6
        assert result.edge_flows[e_cheap1] == 4
        assert result.edge_flows[e_exp1] == 2
        assert result.cost == 4 * 2 + 2 * 10

    def test_max_flow_bounded_by_cut(self):
        net = MinCostMaxFlow(3)
        net.add_edge(0, 1, 3, 0)
        net.add_edge(1, 2, 100, 0)
        assert net.solve(0, 2).flow == 3

    def test_disconnected_graph_zero_flow(self):
        net = MinCostMaxFlow(4)
        net.add_edge(0, 1, 5, 1)
        net.add_edge(2, 3, 5, 1)
        result = net.solve(0, 3)
        assert result.flow == 0
        assert result.cost == 0

    def test_flow_conservation(self):
        net = MinCostMaxFlow(5)
        net.add_edge(0, 1, 4, 1)
        net.add_edge(0, 2, 4, 2)
        net.add_edge(1, 3, 3, 1)
        net.add_edge(2, 3, 5, 1)
        net.add_edge(1, 2, 2, 0)
        net.add_edge(3, 4, 6, 1)
        net.solve(0, 4)
        assert net.flow_conservation_violations(0, 4) == {}

    def test_negative_cost_edge(self):
        net = MinCostMaxFlow(3)
        net.add_edge(0, 1, 2, -5)
        net.add_edge(1, 2, 2, 1)
        result = net.solve(0, 2)
        assert result.flow == 2
        assert result.cost == 2 * (-5) + 2 * 1


class TestValidation:
    def test_rejects_bad_node(self):
        net = MinCostMaxFlow(2)
        with pytest.raises(ValueError):
            net.add_edge(0, 5, 1, 1)

    def test_rejects_negative_capacity(self):
        net = MinCostMaxFlow(2)
        with pytest.raises(ValueError):
            net.add_edge(0, 1, -1, 1)

    def test_rejects_same_source_sink(self):
        net = MinCostMaxFlow(2)
        with pytest.raises(ValueError):
            net.solve(1, 1)

    def test_rejects_empty_network(self):
        with pytest.raises(ValueError):
            MinCostMaxFlow(0)


@st.composite
def random_networks(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    n_edges = draw(st.integers(min_value=1, max_value=16))
    edges = []
    seen = set()
    for _ in range(n_edges):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u == v or (u, v) in seen:
            # parallel (u, v) edges with different costs cannot be expressed
            # in a simple nx.DiGraph, so keep one edge per ordered pair
            continue
        seen.add((u, v))
        cap = draw(st.integers(min_value=0, max_value=20))
        cost = draw(st.integers(min_value=0, max_value=50))
        edges.append((u, v, cap, cost))
    return n, edges


class TestAgainstNetworkx:
    @settings(max_examples=60, deadline=None)
    @given(random_networks())
    def test_matches_networkx_max_flow_min_cost(self, net_spec):
        n, edges = net_spec
        if not edges:
            return
        ours = MinCostMaxFlow(n)
        graph = nx.DiGraph()
        graph.add_nodes_from(range(n))
        for u, v, cap, cost in edges:
            ours.add_edge(u, v, cap, cost)
            graph.add_edge(u, v, capacity=cap, weight=cost)
        source, sink = 0, n - 1
        result = ours.solve(source, sink)
        nx_flow_value = nx.maximum_flow_value(graph, source, sink)
        assert result.flow == nx_flow_value
        if nx_flow_value > 0:
            nx_dict = nx.max_flow_min_cost(graph, source, sink)
            nx_cost = nx.cost_of_flow(graph, nx_dict)
            assert result.cost == nx_cost

    @settings(max_examples=40, deadline=None)
    @given(random_networks())
    def test_conservation_always_holds(self, net_spec):
        n, edges = net_spec
        if not edges:
            return
        net = MinCostMaxFlow(n)
        for u, v, cap, cost in edges:
            net.add_edge(u, v, cap, cost)
        net.solve(0, n - 1)
        assert net.flow_conservation_violations(0, n - 1) == {}
