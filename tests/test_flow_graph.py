"""Tests for the closed-form star transport solve used by DSS-LC.

Star cases go through :func:`solve_transport`; the cases that need a
general network (a relay hop, a binding link) go to :class:`MinCostMaxFlow`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.flow.graph import solve_transport
from repro.flow.mcmf import MinCostMaxFlow


def solve_star(pending: int, capacities, delays):
    """Master supplying ``pending``; worker ``i`` takes one arc of
    ``capacities[i]`` at ``delays[i]`` ms."""
    return solve_transport(
        pending,
        np.array(capacities, dtype=np.int64).reshape(-1, 1),
        np.array(delays, dtype=float).reshape(-1, 1),
    )


class TestTransport:
    def test_prefers_low_delay_worker(self):
        result = solve_star(3, [10, 10], [1.0, 50.0])
        assert result.placed == 3
        assert result.absorbed.tolist() == [3, 0]

    def test_spills_when_cheap_worker_full(self):
        result = solve_star(8, [5, 10], [1.0, 50.0])
        assert result.placed == 8
        assert result.absorbed.tolist() == [5, 3]

    def test_respects_link_capacity(self):
        # source(2) → master(0) → worker(1) → sink(3); the link binds at 4
        net = MinCostMaxFlow(4)
        net.add_edge(2, 0, 6, 0)
        link = net.add_edge(0, 1, 4, 1000)
        net.add_edge(1, 3, 10, 0)
        result = net.solve(2, 3)
        assert result.flow == 4
        assert result.edge_flows[link] == 4

    def test_total_delay_accounting(self):
        result = solve_star(2, [2], [7.5])
        assert result.total_delay_ms == pytest.approx(15.0, abs=0.01)
        assert result.cost == 15000

    def test_empty_graph(self):
        result = solve_transport(3, np.zeros((0, 3)), np.zeros((0, 3)))
        assert result.placed == 0
        assert result.absorbed.size == 0
        assert (result.cost, result.augmentations) == (0, 0)

    def test_insufficient_capacity_partial_placement(self):
        result = solve_star(10, [3, 2], [1.0, 2.0])
        assert result.placed == 5
        assert result.augmentations == 2

    def test_multi_hop_relay(self):
        # source(3) → master(0) → relay(1) → worker(2) → sink(4); the relay
        # has no capacity of its own
        net = MinCostMaxFlow(5)
        net.add_edge(3, 0, 2, 0)
        first = net.add_edge(0, 1, 10, 1000)
        second = net.add_edge(1, 2, 10, 1000)
        absorb = net.add_edge(2, 4, 2, 0)
        result = net.solve(3, 4)
        assert result.flow == 2
        assert result.cost == 4000
        assert result.edge_flows[first] == 2
        assert result.edge_flows[second] == 2
        assert result.edge_flows[absorb] == 2


class TestTransportProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        pending=st.integers(min_value=0, max_value=30),
        caps=st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=6),
    )
    def test_placed_never_exceeds_supply_or_capacity(self, pending, caps):
        delays = [float(i + 1) for i in range(len(caps))]
        result = solve_star(pending, caps, delays)
        assert result.placed <= pending
        assert result.placed <= sum(caps)
        assert result.placed == min(pending, sum(caps))  # star is always feasible

    @settings(max_examples=50, deadline=None)
    @given(
        pending=st.integers(min_value=1, max_value=30),
        caps=st.lists(st.integers(min_value=1, max_value=10), min_size=2, max_size=6),
    )
    def test_absorption_respects_per_node_capacity(self, pending, caps):
        delays = [float(i + 1) for i in range(len(caps))]
        result = solve_star(pending, caps, delays)
        assert all(0 <= a <= c for a, c in zip(result.absorbed.tolist(), caps))

    @settings(max_examples=30, deadline=None)
    @given(pending=st.integers(min_value=1, max_value=20))
    def test_greedy_delay_ordering(self, pending):
        # with ample capacity everywhere, everything goes to the closest node
        result = solve_star(pending, [100, 100, 100], [5.0, 1.0, 9.0])
        assert result.absorbed.tolist() == [0, pending, 0]
