"""Multi-commodity sequential solver tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.flow.multicommodity import Commodity, SharedLink, solve_sequential


def star_links(n_workers, delay=1.0, capacity=10):
    """Master node 0 connected to workers 1..n."""
    return [SharedLink(0, 1 + i, delay, capacity) for i in range(n_workers)]


class TestBasics:
    def test_single_commodity_equals_plain_flow(self):
        result = solve_sequential(
            3,
            [Commodity("a", [4, -2, -2])],
            star_links(2),
        )
        assert result.placed["a"] == 4
        assert result.flows["a"][(0, 1)] == 2
        assert result.flows["a"][(0, 2)] == 2

    def test_shared_capacity_is_respected(self):
        # one link of capacity 3 shared by two commodities wanting 3 each
        links = [SharedLink(0, 1, 1.0, 3)]
        result = solve_sequential(
            2,
            [Commodity("a", [3, -3]), Commodity("b", [3, -3])],
            links,
        )
        total = result.placed["a"] + result.placed["b"]
        assert total == 3  # hard cap from the shared link
        usage = result.link_usage()
        assert usage[(0, 1)] == 3
        assert result.residual[(0, 1)] == 0

    def test_most_constrained_first_ordering(self):
        # big demand goes first and grabs the cheap link
        links = [SharedLink(0, 1, 1.0, 5), SharedLink(0, 2, 50.0, 100)]
        # both commodities can be absorbed at either worker
        small = Commodity("small", [1, -100, -100])
        big = Commodity("big", [5, -100, -100])
        result = solve_sequential(3, [small, big], links)
        assert result.flows["big"].get((0, 1), 0) == 5
        # the small commodity spills to the expensive path
        assert result.flows["small"].get((0, 2), 0) == 1

    def test_rounds_never_hurt(self):
        links = [SharedLink(0, 1, 1.0, 3), SharedLink(0, 2, 2.0, 3)]
        commodities = [
            Commodity("a", [3, -3, 0]),
            Commodity("b", [3, 0, -3]),
        ]
        one = solve_sequential(3, commodities, links, rounds=1)
        three = solve_sequential(3, commodities, links, rounds=3)
        assert sum(three.placed.values()) >= sum(one.placed.values())

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_sequential(0, [], [])
        with pytest.raises(ValueError):
            solve_sequential(2, [Commodity("a", [1])], [], rounds=1)
        with pytest.raises(ValueError):
            solve_sequential(2, [Commodity("a", [1, -1])], [], rounds=0)

    def test_empty_commodities(self):
        result = solve_sequential(2, [], star_links(1))
        assert result.flows == {}
        assert result.total_delay_ms == 0.0


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        demands=st.lists(st.integers(min_value=0, max_value=8), min_size=1,
                         max_size=4),
        capacity=st.integers(min_value=0, max_value=12),
    )
    def test_never_exceeds_shared_capacity(self, demands, capacity):
        links = [SharedLink(0, 1, 1.0, capacity)]
        commodities = [
            Commodity(f"c{i}", [d, -d]) for i, d in enumerate(demands)
        ]
        result = solve_sequential(2, commodities, links)
        assert sum(result.placed.values()) <= capacity
        assert sum(result.placed.values()) == min(capacity, sum(demands))
        assert result.residual[(0, 1)] >= 0

    @settings(max_examples=30, deadline=None)
    @given(
        demands=st.lists(st.integers(min_value=1, max_value=5), min_size=2,
                         max_size=4)
    )
    def test_flow_accounting_consistent(self, demands):
        links = star_links(2, capacity=100)
        commodities = [
            Commodity(f"c{i}", [d, -d, -d]) for i, d in enumerate(demands)
        ]
        result = solve_sequential(3, commodities, links)
        for name, flows in result.flows.items():
            assert sum(flows.values()) == result.placed[name]
