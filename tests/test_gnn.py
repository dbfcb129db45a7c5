"""GNN encoder tests: aggregation semantics, shapes, and gradient flow."""

import copy
import tracemalloc
import types

import numpy as np
import pytest

from repro.nn.gnn import (
    GATEncoder,
    GCNEncoder,
    GraphEncoder,
    GraphSAGEEncoder,
    IdentityEncoder,
    adjacency_from_edges,
)


def line_graph(n):
    return adjacency_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def densify(op):
    """The (n, n) matrix of a GraphSAGE ``(idx, wts)`` operator."""
    idx, wts = op
    n = idx.shape[0]
    a = np.zeros((n, n))
    np.add.at(a, (np.repeat(np.arange(n), idx.shape[1]), idx.ravel()), wts.ravel())
    return a


#: p = 3: rows with d > p (0, 4, 6), d = p (1, 8), d < p (2, 5, 7), d = 0
#: (3), and duplicate neighbours (4, 5, 8).  Not symmetric on purpose.
MIXED_ADJ = [
    [1, 2, 3, 4, 5, 6],
    [0, 2, 3],
    [0, 1],
    [],
    [5, 5, 6, 0],
    [4, 4],
    [0, 4, 7, 8, 1],
    [6],
    [6, 6, 6],
]


def choice_loop_matrix(adj, p, rng):
    """Reference aggregation: the per-row ``rng.choice`` sampling loop."""
    n = len(adj)
    a = np.zeros((n, n))
    for i, neigh in enumerate(adj):
        d = len(neigh)
        if d > p:
            for k in rng.choice(d, size=p, replace=False):
                a[i, neigh[k]] += 1.0 / p
        else:
            for j in neigh:
                a[i, j] += 1.0 / d
    return a


def clique_of_cliques(n_cliques, size):
    """LAN cliques whose first members are joined pairwise (gateways)."""
    edges = []
    for c in range(n_cliques):
        members = range(c * size, (c + 1) * size)
        edges += [(i, j) for i in members for j in members if i < j]
        edges += [(c * size, b * size) for b in range(c + 1, n_cliques)]
    return adjacency_from_edges(n_cliques * size, edges)


class TestAdjacency:
    def test_undirected(self):
        adj = adjacency_from_edges(3, [(0, 1), (1, 2)])
        assert adj[0] == [1]
        assert sorted(adj[1]) == [0, 2]

    def test_ignores_self_loops_and_duplicates(self):
        adj = adjacency_from_edges(2, [(0, 0), (0, 1), (1, 0)])
        assert adj[0] == [1]
        assert adj[1] == [0]


class TestGraphSAGE:
    def test_output_shape(self, rng):
        enc = GraphSAGEEncoder(5, [8, 8], rng, sample_size=3)
        h = enc.encode(rng.normal(size=(6, 5)), line_graph(6))
        assert h.shape == (6, 8)

    def test_isolated_node_keeps_self_path(self, rng):
        enc = GraphSAGEEncoder(3, [4], rng)
        # neighbour aggregation is empty, but the separate self path still
        # produces a non-trivial embedding
        a = densify(enc.aggregation_operator([[]], np.zeros((1, 3)), 0))
        assert a.shape == (1, 1)
        assert np.array_equal(a, [[0.0]])
        h = enc.encode(np.ones((1, 3)), [[]])
        assert np.abs(h).sum() > 0

    def test_mean_aggregation_row_stochastic(self, rng):
        enc = GraphSAGEEncoder(3, [4], rng, sample_size=2)
        adj = line_graph(5)
        a = densify(enc.aggregation_operator(adj, np.zeros((5, 3)), 0))
        assert a.shape == (5, 5)
        assert np.allclose(a.sum(axis=1), 1.0)

    def test_self_features_survive_deep_aggregation(self, rng):
        """The CONCAT form must let the actor tell clique members apart."""
        n = 6
        clique = adjacency_from_edges(
            n, [(i, j) for i in range(n) for j in range(i + 1, n)]
        )
        enc = GraphSAGEEncoder(4, [8, 8], rng, sample_size=5)
        x = rng.normal(size=(n, 4))
        h = enc.encode(x, clique)
        # embeddings of distinct nodes differ even in a complete graph
        assert not np.allclose(h[0], h[1], atol=1e-6)

    def test_sampling_caps_neighbourhood(self, rng):
        enc = GraphSAGEEncoder(3, [4], rng, sample_size=2)
        star = adjacency_from_edges(6, [(0, i) for i in range(1, 6)])
        a = densify(enc.aggregation_operator(star, np.zeros((6, 3)), 0))
        # row 0: exactly 2 of its 5 neighbours sampled, at weight 1/2 (self
        # handled separately); the leaves keep their only neighbour, 0
        assert a.shape == (6, 6)
        assert np.count_nonzero(a[0]) == 2
        assert set(np.flatnonzero(a[0])) <= {1, 2, 3, 4, 5}
        assert np.allclose(a[0][a[0] > 0], 0.5)
        assert np.array_equal(a[1:], np.eye(6)[[0] * 5])

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 2024])
    @pytest.mark.parametrize("p", [2, 3])
    def test_sampling_replays_choice_loop(self, seed, p):
        """The batched draw equals the per-row ``choice`` loop, RNG included.

        With identity weights, a zero self path and a bias that keeps every
        unit active, a layer outputs ``A @ h + 10``, so each encode exposes
        both sampled matrices of the two layers.
        """
        n, f = len(MIXED_ADJ), 4
        enc = GraphSAGEEncoder(f, [f, f], np.random.default_rng(seed), sample_size=p)
        for layer in range(2):
            enc.weights[layer][...] = np.eye(f)
            enc.self_weights[layer][...] = 0.0
            enc.biases[layer][...] = 10.0
        twin = np.random.default_rng()
        twin.bit_generator.state = enc.rng.bit_generator.state
        x = np.random.default_rng(seed + 100).uniform(size=(n, f))
        for _ in range(3):
            h = enc.encode(x, MIXED_ADJ)
            a1 = choice_loop_matrix(MIXED_ADJ, p, twin)
            a2 = choice_loop_matrix(MIXED_ADJ, p, twin)
            np.testing.assert_allclose(h, a2 @ (a1 @ x + 10.0) + 10.0, rtol=1e-12)
            assert enc.rng.bit_generator.state == twin.bit_generator.state

    def test_index_operator_matches_dense(self, rng):
        """Encode and backward equal the dense ``a @ h`` / ``a.T @ g`` form
        replayed on the same sample."""
        n = len(MIXED_ADJ)
        enc = GraphSAGEEncoder(5, [6, 4], rng, sample_size=3)
        x = rng.normal(size=(n, 5))
        g = rng.normal(size=(n, 4))
        enc.zero_grad()
        h = enc.encode(x, MIXED_ADJ)
        enc.backward(g)
        ref = copy.deepcopy(enc)
        dense_ops = iter([densify(op) for op in enc._ops])
        ref.aggregation_operator = lambda adj, h, layer: next(dense_ops)
        ref._aggregate = types.MethodType(GraphEncoder._aggregate, ref)
        ref._aggregate_grad = types.MethodType(GraphEncoder._aggregate_grad, ref)
        ref.zero_grad()
        np.testing.assert_allclose(h, ref.encode(x, MIXED_ADJ), rtol=1e-12)
        ref.backward(g)
        for got, want in zip(enc.grads, ref.grads):
            np.testing.assert_allclose(got, want, rtol=1e-12)
        for op in enc._ops:
            a = densify(op)
            hl = rng.normal(size=(n, 3))
            np.testing.assert_allclose(enc._aggregate(op, hl), a @ hl, rtol=1e-12)
            np.testing.assert_allclose(
                enc._aggregate_grad(op, hl), a.T @ hl, rtol=1e-12
            )

    def test_memory_stays_below_one_dense_matrix(self, rng):
        """One encode + backward at 1000 nodes allocates less than a single
        n×n float64 matrix, and no cached plan holds an n²-sized array."""
        adj = clique_of_cliques(20, 50)
        n = len(adj)
        enc = GraphSAGEEncoder(8, [64, 64], rng)
        x = rng.normal(size=(n, 8))
        tracemalloc.start()
        try:
            h = enc.encode(x, adj)
            enc.backward(np.ones_like(h))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8
        held, plan = enc._plan
        assert held is adj
        assert all(value.size < n * n for value in plan)

    def test_alternating_topologies_match_fresh_encoders(self):
        """Encoding A, B, A, A with one encoder (one held plan: a rebuild
        per switch, a reuse on the repeat) gives the outputs and RNG
        position of a fresh encoder per call."""
        a = tuple(map(tuple, clique_of_cliques(3, 5)))
        b = tuple(map(tuple, MIXED_ADJ))
        enc = GraphSAGEEncoder(4, [6, 6], np.random.default_rng(3))
        for adj in (a, b, a, a):
            fresh = GraphSAGEEncoder(4, [6, 6], np.random.default_rng(3))
            fresh.rng.bit_generator.state = enc.rng.bit_generator.state
            x = np.random.default_rng(len(adj)).normal(size=(len(adj), 4))
            np.testing.assert_array_equal(enc.encode(x, adj), fresh.encode(x, adj))
            assert enc.rng.bit_generator.state == fresh.rng.bit_generator.state
            assert enc._plan[0] is adj

    def test_rejects_bad_sample_size(self, rng):
        with pytest.raises(ValueError):
            GraphSAGEEncoder(3, [4], rng, sample_size=0)

    def test_gradient_flow_to_all_layers(self, rng):
        enc = GraphSAGEEncoder(4, [6, 6], rng)
        h = enc.encode(rng.normal(size=(5, 4)), line_graph(5))
        enc.backward(np.ones_like(h))
        assert all(np.abs(g).sum() > 0 for g in enc.grads)

    def test_gradient_check(self, rng):
        enc = GraphSAGEEncoder(3, [4], rng, sample_size=10)  # no subsampling
        x = rng.normal(size=(4, 3))
        adj = line_graph(4)

        def loss():
            return float((enc.encode(x, adj) ** 2).sum())

        # fix sampling randomness: sample_size > degree means deterministic
        enc.zero_grad()
        h = enc.encode(x, adj)
        enc.backward(2 * h)
        eps = 1e-6
        w = enc.weights[0]
        num = np.zeros_like(w)
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                orig = w[i, j]
                w[i, j] = orig + eps
                hi = loss()
                w[i, j] = orig - eps
                lo = loss()
                w[i, j] = orig
                num[i, j] = (hi - lo) / (2 * eps)
        assert np.allclose(enc.grads[0], num, atol=1e-4)


class TestGCN:
    def test_symmetric_normalisation(self, rng):
        enc = GCNEncoder(3, [4], rng)
        adj = line_graph(3)
        a = enc.aggregation_operator(adj, np.zeros((3, 3)), 0)
        assert np.allclose(a, a.T)
        # eigenvalues of the normalised adjacency are within [-1, 1]
        eig = np.linalg.eigvalsh(a)
        assert eig.max() <= 1.0 + 1e-9

    def test_output_shape(self, rng):
        enc = GCNEncoder(5, [8, 8], rng)
        h = enc.encode(rng.normal(size=(6, 5)), line_graph(6))
        assert h.shape == (6, 8)


class TestGAT:
    def test_attention_rows_sum_to_one(self, rng):
        enc = GATEncoder(3, [4], rng)
        adj = line_graph(4)
        a = enc.aggregation_operator(adj, rng.normal(size=(4, 3)), 0)
        assert np.allclose(a.sum(axis=1), 1.0)
        assert (a >= 0).all()

    def test_attention_depends_on_features(self, rng):
        enc = GATEncoder(3, [4], rng)
        adj = line_graph(4)
        a1 = enc.aggregation_operator(adj, rng.normal(size=(4, 3)), 0)
        a2 = enc.aggregation_operator(adj, rng.normal(size=(4, 3)), 0)
        assert not np.allclose(a1, a2)

    def test_output_shape(self, rng):
        enc = GATEncoder(5, [8, 8], rng)
        h = enc.encode(rng.normal(size=(6, 5)), line_graph(6))
        assert h.shape == (6, 8)


class TestIdentity:
    def test_no_message_passing(self, rng):
        enc = IdentityEncoder(3, [4], rng)
        x = rng.normal(size=(4, 3))
        # changing a neighbour's features must not affect node 0's embedding
        h1 = enc.encode(x, line_graph(4))
        x2 = x.copy()
        x2[1] += 10.0
        h2 = enc.encode(x2, line_graph(4))
        assert np.allclose(h1[0], h2[0])

    def test_differs_from_graphsage(self, rng):
        x = np.random.default_rng(0).normal(size=(4, 3))
        ident = IdentityEncoder(3, [4], np.random.default_rng(1))
        sage = GraphSAGEEncoder(3, [4], np.random.default_rng(1))
        h_i = ident.encode(x, line_graph(4))
        h_s = sage.encode(x, line_graph(4))
        assert not np.allclose(h_i, h_s)


class TestGradientChecks:
    def _numeric_check(self, enc, x, adj, rng):
        import numpy as np

        enc.zero_grad()
        h = enc.encode(x, adj)
        enc.backward(2 * h)
        eps = 1e-6
        w = enc.weights[0]
        num = np.zeros_like(w)
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                orig = w[i, j]
                w[i, j] = orig + eps
                hi = float((enc.encode(x, adj) ** 2).sum())
                w[i, j] = orig - eps
                lo = float((enc.encode(x, adj) ** 2).sum())
                w[i, j] = orig
                num[i, j] = (hi - lo) / (2 * eps)
        stride = enc._stride()
        assert np.allclose(enc.grads[0], num, atol=1e-4)

    def test_gcn_gradient_check(self, rng):
        enc = GCNEncoder(3, [4], rng)
        self._numeric_check(enc, rng.normal(size=(4, 3)), line_graph(4), rng)

    def test_graphsage_self_weight_gradient_check(self, rng):
        import numpy as np

        enc = GraphSAGEEncoder(3, [4], rng, sample_size=10)
        x = rng.normal(size=(4, 3))
        adj = line_graph(4)
        enc.zero_grad()
        h = enc.encode(x, adj)
        enc.backward(2 * h)
        eps = 1e-6
        ws = enc.self_weights[0]
        num = np.zeros_like(ws)
        for i in range(ws.shape[0]):
            for j in range(ws.shape[1]):
                orig = ws[i, j]
                ws[i, j] = orig + eps
                hi = float((enc.encode(x, adj) ** 2).sum())
                ws[i, j] = orig - eps
                lo = float((enc.encode(x, adj) ** 2).sum())
                ws[i, j] = orig
                num[i, j] = (hi - lo) / (2 * eps)
        # self-weight grads live at stride offset 2
        assert np.allclose(enc.grads[2], num, atol=1e-4)

    def test_identity_gradient_check(self, rng):
        enc = IdentityEncoder(3, [4], rng)
        self._numeric_check(enc, rng.normal(size=(3, 3)), line_graph(3), rng)
