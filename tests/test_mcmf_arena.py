"""Golden-value tests for the flat-array MCMF solver.

Complements ``test_mcmf.py`` (hypothesis-vs-networkx) with pinned golden
networks — including negative-cost and zero-capacity arcs — and with the
read view of the solver's arc arrays.
"""

from __future__ import annotations

from repro.flow.mcmf import MinCostMaxFlow


def build_diamond(net: MinCostMaxFlow) -> list:
    """0 -> {1, 2} -> 3 with an uneven cheap path; returns edge indices."""
    return [
        net.add_edge(0, 1, 2, 1),
        net.add_edge(0, 2, 2, 4),
        net.add_edge(1, 3, 1, 1),
        net.add_edge(1, 2, 2, 1),
        net.add_edge(2, 3, 3, 1),
    ]


class TestGolden:
    def test_diamond_pinned(self):
        net = MinCostMaxFlow(4)
        build_diamond(net)
        res = net.solve(0, 3)
        # max flow 4: 0-1-3 (1u, cost 2), 0-1-2-3 (1u, cost 3),
        # 0-2-3 (2u, cost 5 each)
        assert res.flow == 4
        assert res.cost == 15
        assert res.edge_flows == [2, 2, 1, 1, 3]

    def test_negative_cost_edge(self):
        net = MinCostMaxFlow(4)
        e0 = net.add_edge(0, 1, 3, 5)
        e1 = net.add_edge(1, 2, 3, -4)  # discount leg
        e2 = net.add_edge(2, 3, 2, 1)
        e3 = net.add_edge(1, 3, 2, 3)
        res = net.solve(0, 3)
        # 2 units take 0-1-2-3 (cost 2 each), 1 unit takes 0-1-3 (cost 8)
        assert res.flow == 3
        assert res.cost == 12
        assert res.edge_flows[e0] == 3
        assert res.edge_flows[e1] == 2
        assert res.edge_flows[e2] == 2
        assert res.edge_flows[e3] == 1
        assert net.flow_conservation_violations(0, 3) == {}

    def test_zero_capacity_edge_carries_nothing(self):
        net = MinCostMaxFlow(3)
        dead = net.add_edge(0, 1, 0, 0)  # tempting but unusable
        cheap = net.add_edge(0, 1, 2, 7)
        out = net.add_edge(1, 2, 2, 1)
        res = net.solve(0, 2)
        assert res.flow == 2
        assert res.cost == 16
        assert res.edge_flows[dead] == 0
        assert res.edge_flows[cheap] == 2
        assert res.edge_flows[out] == 2

    def test_max_flow_cap_respected(self):
        net = MinCostMaxFlow(4)
        build_diamond(net)
        res = net.solve(0, 3, max_flow=2)
        assert res.flow == 2
        assert res.cost == 5  # the two cheapest units


class TestArenaReuse:
    """Read views of a solved network's arc arrays."""

    def test_edge_view_reflects_arrays(self):
        net = MinCostMaxFlow(4)
        idx = build_diamond(net)
        net.solve(0, 3)
        e = net.edge(idx[0])
        assert (e.src, e.dst, e.capacity, e.cost) == (0, 1, 2, 1)
        assert e.flow == 2
        assert e.residual == 0
