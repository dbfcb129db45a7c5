"""Differential tests against the reference oracles in repro.flow.reference.

Three production paths get an obviously-correct shadow here:

* the flat-array SSP+Johnson solver (:class:`MinCostMaxFlow`) vs the
  textbook Bellman-Ford reference (:class:`ReferenceMCMF`) on randomized
  graphs — equal max-flow value, equal minimum cost, and both sides
  feasible (capacities respected, flow conserved);
* the closed-form star fill DSS-LC solves ``G_k`` with
  (:func:`solve_transport`) vs both solvers on the lowered network, on
  DSS-LC stars where equal costs are common, under one link capacity or
  per-worker link residuals (types sharing links);
* the vectorized Eq. 2 capacity expression in DSS-LC vs its scalar
  re-statement (:func:`eq2_capacities_scalar`) across dtypes and edge
  values.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.flow.graph import COST_SCALE, solve_transport
from repro.flow.mcmf import MinCostMaxFlow
from repro.flow.reference import (
    ReferenceMCMF,
    eq2_capacities_scalar,
    node_units_scalar,
)
from repro.scheduling.dss_lc import SLICE_SURCHARGES_MS, slice_capacities


# ---------------------------------------------------------------------- #
# randomized-graph strategy
# ---------------------------------------------------------------------- #
@st.composite
def flow_networks(draw):
    """(n_nodes, edges) with non-negative costs (no negative cycles)."""
    n = draw(st.integers(min_value=2, max_value=8))
    n_edges = draw(st.integers(min_value=0, max_value=16))
    edges = []
    for _ in range(n_edges):
        src = draw(st.integers(min_value=0, max_value=n - 1))
        dst = draw(st.integers(min_value=0, max_value=n - 1))
        if src == dst:
            continue
        cap = draw(st.integers(min_value=0, max_value=20))
        cost = draw(st.integers(min_value=0, max_value=50))
        edges.append((src, dst, cap, cost))
    return n, edges


def _build(solver_cls, n, edges):
    net = solver_cls(n)
    for src, dst, cap, cost in edges:
        net.add_edge(src, dst, cap, cost)
    return net


def _assert_feasible(result, edges, label):
    assert len(result.edge_flows) == len(edges), label
    for flow, (_, _, cap, _) in zip(result.edge_flows, edges):
        assert 0 <= flow <= cap, f"{label}: edge flow {flow} outside [0, {cap}]"


class TestArenaVsReference:
    @settings(max_examples=120, deadline=None)
    @given(flow_networks(), st.one_of(st.none(), st.integers(0, 15)))
    def test_equal_value_and_cost(self, network, max_flow):
        n, edges = network
        arena = _build(MinCostMaxFlow, n, edges).solve(
            0, n - 1, max_flow=max_flow
        )
        reference = _build(ReferenceMCMF, n, edges).solve(
            0, n - 1, max_flow=max_flow
        )
        assert arena.flow == reference.flow
        assert arena.cost == reference.cost
        _assert_feasible(arena, edges, "arena")
        _assert_feasible(reference, edges, "reference")

    @settings(max_examples=60, deadline=None)
    @given(flow_networks())
    def test_both_sides_conserve_flow(self, network):
        n, edges = network
        arena = _build(MinCostMaxFlow, n, edges)
        reference = _build(ReferenceMCMF, n, edges)
        arena.solve(0, n - 1)
        reference.solve(0, n - 1)
        assert arena.flow_conservation_violations(0, n - 1) == {}
        assert reference.flow_conservation_violations(0, n - 1) == {}

    def test_agree_on_negative_cost_edge(self):
        # the hypothesis strategy stays non-negative (negative cycles would
        # make min-cost flow ill-defined); pin one acyclic negative case.
        edges = [(0, 1, 2, -5), (1, 2, 2, 1)]
        arena = _build(MinCostMaxFlow, 3, edges).solve(0, 2)
        reference = _build(ReferenceMCMF, 3, edges).solve(0, 2)
        assert (arena.flow, arena.cost) == (reference.flow, reference.cost)


class TestReferenceSolver:
    """Pin the oracle itself on hand-checked graphs."""

    def test_spill_to_expensive_path(self):
        net = ReferenceMCMF(4)
        cheap = net.add_edge(0, 1, 4, 1)
        net.add_edge(1, 3, 4, 1)
        expensive = net.add_edge(0, 2, 10, 5)
        net.add_edge(2, 3, 10, 5)
        result = net.solve(0, 3, max_flow=6)
        assert result.flow == 6
        assert result.cost == 4 * 2 + 2 * 10
        assert result.edge_flows[cheap] == 4
        assert result.edge_flows[expensive] == 2

    def test_disconnected_zero_flow(self):
        net = ReferenceMCMF(4)
        net.add_edge(0, 1, 5, 1)
        net.add_edge(2, 3, 5, 1)
        result = net.solve(0, 3)
        assert (result.flow, result.cost) == (0, 0)

    def test_negative_cycle_raises(self):
        net = ReferenceMCMF(3)
        net.add_edge(0, 1, 5, -2)
        net.add_edge(1, 0, 5, -2)
        net.add_edge(0, 2, 5, 1)
        with pytest.raises(ValueError, match="negative-cost cycle"):
            net.solve(0, 2)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ReferenceMCMF(0)
        net = ReferenceMCMF(2)
        with pytest.raises(ValueError):
            net.add_edge(0, 5, 1, 1)
        with pytest.raises(ValueError):
            net.add_edge(0, 1, -1, 1)
        with pytest.raises(ValueError):
            net.solve(0, 0)


# ---------------------------------------------------------------------- #
# closed-form DSS-LC star vs the lowered network
# ---------------------------------------------------------------------- #
@st.composite
def dss_lc_stars(draw):
    """(pending, capacities, delays, link) of a DSS-LC ``G_k``.

    Workers share a few cluster delays drawn 6/12/18 ms apart (the slice
    surcharges), so equal arc costs — within and across workers' slices —
    are the common case, not the exception.  ``link`` is one capacity for
    every link, or a list of per-worker residuals (what earlier types of a
    coordinated round left), which reach zero and often bind.
    """
    n = draw(st.integers(min_value=1, max_value=8))
    base = draw(st.sampled_from([0.0, 0.0025, 0.5, 1.0, 2.5]))
    clusters = draw(
        st.lists(
            st.sampled_from([0.0, 6.0, 12.0, 18.0, 24.0]), min_size=1, max_size=3
        )
    )
    delays = [base + draw(st.sampled_from(clusters)) for _ in range(n)]
    capacities = [draw(st.integers(min_value=0, max_value=12)) for _ in range(n)]
    pending = draw(st.integers(min_value=1, max_value=30))
    link = draw(
        st.one_of(
            st.integers(min_value=1, max_value=40),
            st.lists(st.integers(min_value=0, max_value=12), min_size=n, max_size=n),
        )
    )
    return pending, capacities, delays, link


def _star_arcs(pending, capacities, delays, link):
    if isinstance(link, list):
        link = np.array(link, dtype=np.int64)
    caps = slice_capacities(capacities, pending, link)
    return caps, np.array(delays)[:, None] + SLICE_SURCHARGES_MS


def _lowered_star(solver_cls, pending, capacities, delays, link):
    """Build G_k one arc at a time and solve it on a general network.

    Returns (absorbed, cost, net).  Nodes: master 0, workers 1..n,
    super-source n+1, super-sink n+2.  The source arc, then the
    worker→sink arcs (bounded by the worker's Eq. 2 capacity), then each
    worker's convex slices, cut with the scalar loop and priced with
    scalar ``round``.  ``link`` is an int or a per-worker list.
    """
    n = len(capacities)
    links = link if isinstance(link, list) else [link] * n
    source, sink = n + 1, n + 2
    net = solver_cls(n + 3)
    net.add_edge(source, 0, pending, 0)
    for i, c in enumerate(capacities):
        if c > 0:
            net.add_edge(1 + i, sink, c, 0)
    arcs = []
    for i, delay in enumerate(delays):
        remaining = min(links[i], pending, capacities[i])
        slice_size = max(1, (remaining + 2) // 3)
        for surcharge in (0.0, 6.0, 18.0):
            take = min(slice_size, remaining)
            if take <= 0:
                break
            cost = max(0, int(round((delay + surcharge) * COST_SCALE)))
            arcs.append((net.add_edge(0, 1 + i, take, cost), i))
            remaining -= take
    result = net.solve(source, sink)
    absorbed = [0] * n
    for edge, i in arcs:
        absorbed[i] += result.edge_flows[edge]
    return absorbed, result.cost, net


def _marginal_tie(caps, arc_delays, pending):
    """True if the marginal cost level holds more arcs than it fills fully."""
    costs = np.maximum(0, np.rint(arc_delays * COST_SCALE))[caps > 0]
    live_caps = caps[caps > 0]
    order = np.argsort(costs, kind="stable")
    cum = np.cumsum(live_caps[order])
    if not cum.size or cum[-1] <= pending:
        return False
    level = costs[order][np.searchsorted(cum, pending)]
    at_level = costs == level
    below = live_caps[costs < level].sum()
    return at_level.sum() > 1 and below + live_caps[at_level].sum() > pending


class TestClosedFormStar:
    @settings(max_examples=300, deadline=None)
    @given(dss_lc_stars())
    @example((8, [8, 8], [1.0, 1.0], [2, 0]))  # residuals bind, one spent
    @example((5, [5, 5, 5], [6.0, 6.0, 6.0], [0, 3, 5]))  # equal delays
    @example((5, [3, 0], [0.0, 1.0], [0, 0]))  # every link spent
    def test_matches_ssp_solver(self, star):
        pending, capacities, delays, link = star
        caps, arc_delays = _star_arcs(pending, capacities, delays, link)
        ours = solve_transport(pending, caps, arc_delays)
        absorbed, cost, net = _lowered_star(
            MinCostMaxFlow, pending, capacities, delays, link
        )
        assert ours.absorbed.tolist() == absorbed
        assert ours.cost == cost
        assert ours.augmentations == net.augmentations

    @settings(max_examples=150, deadline=None)
    @given(dss_lc_stars())
    def test_matches_reference_cost(self, star):
        pending, capacities, delays, link = star
        caps, arc_delays = _star_arcs(pending, capacities, delays, link)
        ours = solve_transport(pending, caps, arc_delays)
        absorbed, cost, _ = _lowered_star(
            ReferenceMCMF, pending, capacities, delays, link
        )
        assert ours.cost == cost
        assert ours.placed == sum(absorbed) == min(pending, int(caps.sum()))
        # Bellman-Ford takes equal-cost arcs in plain arc order, so the
        # split may differ only where the optimum itself is not unique
        if not _marginal_tie(caps, arc_delays, pending):
            assert ours.absorbed.tolist() == absorbed

    def test_untouched_worker_takes_marginal_tie_first(self):
        """Pending 2, capacities [2, 1], delays [1, 7] ms.

        Worker 0's second slice (1 + 6 ms) ties worker 1's first (7 ms).
        SSP takes the worker without flow first, so each absorbs one; a
        plain stable (cost, arc-index) fill would give [2, 0].
        """
        caps, arc_delays = _star_arcs(2, [2, 1], [1.0, 7.0], 64)
        ours = solve_transport(2, caps, arc_delays)
        assert ours.absorbed.tolist() == [1, 1]
        assert (ours.cost, ours.augmentations) == (8000, 2)
        absorbed, cost, net = _lowered_star(
            MinCostMaxFlow, 2, [2, 1], [1.0, 7.0], 64
        )
        assert (absorbed, cost, net.augmentations) == ([1, 1], 8000, 2)

    def test_reference_breaks_the_same_tie_in_arc_order(self):
        absorbed, cost, _ = _lowered_star(ReferenceMCMF, 2, [2, 1], [1.0, 7.0], 64)
        assert (absorbed, cost) == ([2, 0], 8000)

    def test_slice_capacities(self):
        caps = slice_capacities([0, 1, 2, 7, 100], 50, 64)
        assert caps.tolist() == [
            [0, 0, 0], [1, 0, 0], [1, 1, 0], [3, 3, 1], [17, 17, 16]
        ]
        # the link capacity c_ij bounds a worker's arcs in total
        assert slice_capacities([100], 50, 4).tolist() == [[2, 2, 0]]
        # per-worker residuals of shared links bound each worker's arcs
        residual = np.array([0, 4, 64])
        assert slice_capacities([7, 100, 100], 50, residual).tolist() == [
            [0, 0, 0], [2, 2, 0], [17, 17, 16]
        ]


# ---------------------------------------------------------------------- #
# scalar vs vectorized Eq. 2
# ---------------------------------------------------------------------- #
def eq2_vectorized(
    cpu_ava, mem_ava, cpu_tot, mem_tot, lc_q, r_cpu, r_mem, target_fill
):
    """The exact numpy expression from DSSLCScheduler._dispatch_type."""
    hold = 1.0 - target_fill
    cpu_eff = np.maximum(0.0, cpu_ava - hold * cpu_tot)
    mem_eff = np.maximum(0.0, mem_ava - hold * mem_tot)
    units = np.minimum(cpu_eff / r_cpu, mem_eff / r_mem).astype(np.int64)
    return np.maximum(0, units - lc_q)


@st.composite
def eq2_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    finite = st.floats(
        min_value=0.0, max_value=1024.0, allow_nan=False, allow_infinity=False
    )
    cpu_tot = [draw(finite) for _ in range(n)]
    mem_tot = [draw(finite) for _ in range(n)]
    # availability never exceeds the total in a real snapshot
    cpu_ava = [draw(st.floats(0.0, max(t, 1e-9))) for t in cpu_tot]
    mem_ava = [draw(st.floats(0.0, max(t, 1e-9))) for t in mem_tot]
    r = st.floats(
        min_value=1e-3, max_value=64.0, allow_nan=False, allow_infinity=False
    )
    r_cpu = [draw(r) for _ in range(n)]
    r_mem = [draw(r) for _ in range(n)]
    lc_q = [draw(st.integers(0, 50)) for _ in range(n)]
    target_fill = draw(st.floats(0.0, 1.0))
    return cpu_ava, mem_ava, cpu_tot, mem_tot, lc_q, r_cpu, r_mem, target_fill


class TestEq2ScalarVsVectorized:
    @settings(max_examples=200, deadline=None)
    @given(eq2_inputs())
    def test_equivalent_on_float64(self, inputs):
        cpu_ava, mem_ava, cpu_tot, mem_tot, lc_q, r_cpu, r_mem, fill = inputs
        vec = eq2_vectorized(
            np.array(cpu_ava),
            np.array(mem_ava),
            np.array(cpu_tot),
            np.array(mem_tot),
            np.array(lc_q, dtype=np.int64),
            np.array(r_cpu),
            np.array(r_mem),
            fill,
        )
        scalar = eq2_capacities_scalar(
            cpu_ava, mem_ava, cpu_tot, mem_tot, lc_q, r_cpu, r_mem, fill
        )
        assert scalar == vec.tolist()

    @settings(max_examples=60, deadline=None)
    @given(eq2_inputs())
    def test_equivalent_on_float32_inputs(self, inputs):
        # snapshots may carry narrower dtypes; both paths must agree after
        # the identical float32 → float64 promotion.
        cpu_ava, mem_ava, cpu_tot, mem_tot, lc_q, r_cpu, r_mem, fill = inputs
        as32 = lambda xs: np.array(xs, dtype=np.float32).astype(np.float64)
        vec = eq2_vectorized(
            as32(cpu_ava), as32(mem_ava), as32(cpu_tot), as32(mem_tot),
            np.array(lc_q, dtype=np.int64), as32(r_cpu), as32(r_mem), fill,
        )
        scalar = eq2_capacities_scalar(
            as32(cpu_ava).tolist(),
            as32(mem_ava).tolist(),
            as32(cpu_tot).tolist(),
            as32(mem_tot).tolist(),
            lc_q,
            as32(r_cpu).tolist(),
            as32(r_mem).tolist(),
            fill,
        )
        assert scalar == vec.tolist()

    def test_edge_values(self):
        # holdback swallowing all availability; zero totals; backlog beyond
        # capacity; units exactly at an integer boundary.
        assert eq2_capacities_scalar(
            [10.0], [100.0], [100.0], [1000.0], [0], [1.0], [10.0], 0.85
        ) == [0]
        assert eq2_capacities_scalar(
            [0.0], [0.0], [0.0], [0.0], [0], [1.0], [1.0], 0.85
        ) == [0]
        assert eq2_capacities_scalar(
            [8.0], [16.0], [8.0], [16.0], [99], [1.0], [2.0], 1.0
        ) == [0]
        assert eq2_capacities_scalar(
            [8.0], [16.0], [8.0], [16.0], [3], [1.0], [2.0], 1.0
        ) == [5]

    def test_node_units_guards_nonpositive_minima(self):
        assert node_units_scalar(8.0, 16.0, 0.0, 1.0) == 0
        assert node_units_scalar(8.0, 16.0, 1.0, -2.0) == 0
        assert node_units_scalar(8.0, 16.0, 2.0, 4.0) == 4
