"""Graph encoders for DCG-BE: GraphSAGE (the paper's choice) and ablations.

The paper encodes the global edge-cloud topology with a two-hop GraphSAGE
network using mean aggregation over ``p`` sampled neighbours (Eq. 9), and
ablates against GCN, GAT, and a plain MLP ("Native-A2C") in Fig. 11(d).

All encoders share one computational form per layer::

    H^{l+1} = relu(A_l H^l W_l + b_l)

where ``A_l`` is a (row-stochastic or normalised) aggregation operator built
from the topology.  Each encoder supplies ``A_l`` through
:meth:`GraphEncoder.aggregation_operator` and applies it (forward) and its
transpose (backward) through two hooks, so forward and backward stay plain
linear algebra:

* **GraphSAGE** — row ``i`` of ``A`` averages over ``sample_p(N(i))``; the
  neighbour sample is redrawn per forward pass (inductive, per the paper).
  ``A`` is never materialised: it is an ``(n, p)`` neighbour-index table
  with its weights, applied as a gather-and-weigh forward and a scatter-add
  backward, so one layer costs O(n·p·F) and memory never grows as n².
* **GCN** — symmetric normalisation ``D^-1/2 (A+I) D^-1/2`` over the full
  neighbourhood (transductive; no sampling), as a dense matrix.
* **GAT** — attention coefficients ``softmax_j(leaky_relu(a^T [Wh_i || Wh_j]))``
  computed per forward pass, as a dense matrix.  Gradients flow through the
  value path only; the attention coefficients themselves are treated as
  constants in backward (a straight-through simplification that preserves
  learning behaviour at this scale and keeps the substrate small —
  documented here as a deliberate deviation).
* **IdentityEncoder** — no aggregation; reproduces the "Native-A2C" ablation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .layers import Layer

__all__ = [
    "GraphEncoder",
    "GraphSAGEEncoder",
    "GCNEncoder",
    "GATEncoder",
    "IdentityEncoder",
    "adjacency_from_edges",
]


def adjacency_from_edges(n_nodes: int, edges: Sequence[tuple]) -> List[List[int]]:
    """Undirected adjacency list from ``(u, v)`` pairs (self-loops ignored)."""
    adj: List[List[int]] = [[] for _ in range(n_nodes)]
    seen = set()
    for u, v in edges:
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    return adj


class GraphEncoder(Layer):
    """Base: stack of aggregation+dense layers mapping (N, F) → (N, D).

    Two layer forms are supported, selected by ``separate_self``:

    * ``False`` (GCN/GAT/Identity): ``H' = relu(A @ H @ W + b)`` where the
      aggregation matrix ``A`` already mixes the node itself.
    * ``True`` (GraphSAGE): ``H' = relu(H @ W_self + (A @ H) @ W_neigh + b)``
      — the CONCAT form of Hamilton et al. expressed as two weight blocks,
      which preserves each node's own features through deep aggregation.
      (A pure mean over ``{i} ∪ N(i)`` shrinks the self signal to ~(1/deg)^L
      after L hops, leaving the downstream actor unable to tell nodes of one
      LAN clique apart.)

    Subclasses build ``A`` in :meth:`aggregation_operator`.  The base class
    treats it as a dense (n, n) matrix; an encoder with another operator
    form overrides :meth:`_aggregate` and :meth:`_aggregate_grad` as well.
    """

    separate_self = False

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int],
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.rng = rng
        sizes = [in_features, *hidden]
        self.weights: List[np.ndarray] = []
        self.self_weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        for fin, fout in zip(sizes[:-1], sizes[1:]):
            scale = np.sqrt(2.0 / fin)
            self.weights.append(rng.normal(0.0, scale, size=(fin, fout)))
            self.biases.append(np.zeros(fout))
            if self.separate_self:
                self.self_weights.append(
                    rng.normal(0.0, scale, size=(fin, fout))
                )
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            self.params.extend([w, b])
            self.grads.extend([np.zeros_like(w), np.zeros_like(b)])
            if self.separate_self:
                ws = self.self_weights[i]
                self.params.append(ws)
                self.grads.append(np.zeros_like(ws))
        self.out_features = sizes[-1]
        # caches for backward
        self._ops: list = []
        self._inputs: List[np.ndarray] = []
        self._selves: List[np.ndarray] = []
        self._masks: List[np.ndarray] = []

    def _stride(self) -> int:
        return 3 if self.separate_self else 2

    # -- topology hooks ------------------------------------------------- #
    def aggregation_operator(
        self, adj: List[List[int]], h: np.ndarray, layer: int
    ):  # pragma: no cover - abstract
        """Layer ``layer``'s aggregation operator ``A`` for input ``h``."""
        raise NotImplementedError

    def _aggregate(self, op, h: np.ndarray) -> np.ndarray:
        """``A @ h``."""
        return op @ h

    def _aggregate_grad(self, op, g: np.ndarray) -> np.ndarray:
        """``A.T @ g``: the gradient of :meth:`_aggregate` w.r.t. ``h``."""
        return op.T @ g

    # -- forward/backward ------------------------------------------------ #
    def encode(self, features: np.ndarray, adj: List[List[int]]) -> np.ndarray:
        """Run all hops; caches intermediates for :meth:`backward`."""
        h = np.asarray(features, dtype=np.float64)
        self._ops, self._inputs, self._selves, self._masks = [], [], [], []
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            op = self.aggregation_operator(adj, h, layer)
            agg = self._aggregate(op, h)
            z = agg @ w + b
            if self.separate_self:
                z = z + h @ self.self_weights[layer]
                self._selves.append(h)
            mask = z > 0.0
            new_h = z * mask
            self._ops.append(op)
            self._inputs.append(agg)
            self._masks.append(mask)
            h = new_h
        return h

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise TypeError("GraphEncoder needs a topology; call encode() instead")

    def backward(self, grad: np.ndarray) -> None:
        """Backprop through all hops; accumulates into ``self.grads``.

        Stops at layer 0: the input features take no gradient, so nothing
        is propagated past the first layer and nothing is returned.
        """
        stride = self._stride()
        for layer in range(len(self.weights) - 1, -1, -1):
            grad = grad * self._masks[layer]
            self.grads[stride * layer] += self._inputs[layer].T @ grad
            self.grads[stride * layer + 1] += grad.sum(axis=0)
            if self.separate_self:
                self.grads[stride * layer + 2] += self._selves[layer].T @ grad
            if layer == 0:
                break
            grad_h = self._aggregate_grad(
                self._ops[layer], grad @ self.weights[layer].T
            )
            if self.separate_self:
                grad_h = grad_h + grad @ self.self_weights[layer].T
            grad = grad_h


class GraphSAGEEncoder(GraphEncoder):
    """GraphSAGE with neighbour sampling (Eq. 9: p samples, L=2 hops).

    Uses the CONCAT layer form (``separate_self``): aggregation means over
    the *sampled neighbours only*, and the node's own vector takes the
    dedicated self-weight path.

    The aggregation operator is an index pair ``(idx, wts)``, both (n, p):
    row ``i`` of ``A @ h`` is ``sum_k wts[i, k] * h[idx[i, k]]``.  A row of
    degree d ≤ p holds all its neighbours at weight 1/d (zero-weight padding
    after them; an isolated row is all padding, so only its self path
    contributes), and a row of degree d > p holds the p drawn neighbours at
    weight 1/p.  A neighbour listed twice is simply gathered twice.
    """

    separate_self = True
    #: ``(adj, plan)`` of the last graph encoded, checked by identity (holding
    #: ``adj`` keeps its id unique); a class default, so old pickles encode.
    _plan: Optional[tuple] = None

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int],
        rng: np.random.Generator,
        *,
        sample_size: int = 3,
    ) -> None:
        if sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        self.sample_size = sample_size
        super().__init__(in_features, hidden, rng)

    def _sampling_plan(self, adj: List[List[int]]) -> tuple:
        """Precompute everything about ``adj`` that sampling reuses, as
        ``(idx, wts, rows, bases, starts, flat, bounds)``:

        * ``idx``/``wts`` — the (n, p) operator with every row of degree
          ≤ p already filled (those rows never change between draws) and
          the sampled rows already weighted 1/p;
        * ``rows`` — the rows that need a fresh sample each pass, with
          ``bases`` (d - p per row) and their neighbour lists concatenated
          in ``flat`` from offsets ``starts``;
        * ``bounds`` — the exclusive upper bounds of every uniform draw
          `choice(d, size=p, replace=False)` makes, concatenated across
          sampled rows: Floyd's algorithm draws ``integers(0, j+1)`` for
          ``j = d-p .. d-1``, then the output shuffle draws
          ``integers(0, i+1)`` for ``i = p-1 .. 1``.
        """
        if self._plan is not None and self._plan[0] is adj:
            return self._plan[1]
        p = self.sample_size
        idx = np.zeros((len(adj), p), dtype=np.int64)
        wts = np.zeros((len(adj), p))
        rows: List[int] = []
        starts: List[int] = []
        flat: List[int] = []
        bounds: List[int] = []
        for i, neigh in enumerate(adj):
            d = len(neigh)
            if d > p:
                rows.append(i)
                starts.append(len(flat))
                flat.extend(neigh)
                bounds.extend(range(d - p + 1, d + 1))
                bounds.extend(range(p, 1, -1))
            elif d:
                idx[i, :d] = neigh
                wts[i, :d] = 1.0 / d
        wts[rows] = 1.0 / p
        bases = [len(adj[i]) - p for i in rows]
        plan = (idx, wts) + tuple(
            np.asarray(a, dtype=np.int64) for a in (rows, bases, starts, flat, bounds)
        )
        self._plan = (adj, plan)
        return plan

    def aggregation_operator(
        self, adj: List[List[int]], h: np.ndarray, layer: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(idx, wts)`` of a fresh p-neighbour sample, via one RNG call.

        Replays ``Generator.choice(d, size=p, replace=False)`` exactly —
        Floyd's sampler followed by a Fisher-Yates output shuffle — against
        a single vectorised ``integers`` draw, so the RNG stream and the
        sampled neighbour sets are identical to the per-row ``choice`` loop
        (asserted across seeds by ``tests/test_gnn.py``).  The shuffle
        draws are consumed but their permutation is ignored: every sampled
        neighbour carries the same 1/p weight, so the aggregate doesn't
        depend on sample order.
        """
        idx, wts, rows, bases, starts, flat, bounds = self._sampling_plan(adj)
        if bounds.size:
            p = self.sample_size
            # (m, 2p-1) draws per sampled row: p Floyd draws, then p-1
            # output-shuffle draws whose permutation is irrelevant here.
            draws = self.rng.integers(0, bounds).reshape(len(rows), 2 * p - 1)
            chosen = draws[:, :p].copy()
            # Floyd's collision rule, one sweep per sample slot: a draw that
            # hit an earlier slot becomes j = base + k, which can never
            # itself collide (earlier slots are all < base + k).
            for k in range(1, p):
                col = chosen[:, k]
                hit = (chosen[:, :k] == col[:, None]).any(axis=1)
                col[hit] = bases[hit] + k
            idx = idx.copy()
            idx[rows] = flat[starts[:, None] + chosen]
        return idx, wts

    def _aggregate(self, op, h: np.ndarray) -> np.ndarray:
        idx, wts = op
        return np.einsum("np,npf->nf", wts, h[idx])

    def _aggregate_grad(self, op, g: np.ndarray) -> np.ndarray:
        # scatter-add of wts[i, k] * g[i] into row idx[i, k], as one
        # bincount over flattened (node, feature) keys
        idx, wts = op
        n, f = g.shape
        keys = (idx * f)[:, :, None] + np.arange(f)
        vals = wts[:, :, None] * g[:, None, :]
        return np.bincount(
            keys.ravel(), vals.ravel(), minlength=n * f
        ).reshape(n, f)


class GCNEncoder(GraphEncoder):
    """Kipf-Welling GCN: ``D^-1/2 (A+I) D^-1/2`` aggregation, no sampling."""

    def aggregation_operator(
        self, adj: List[List[int]], h: np.ndarray, layer: int
    ) -> np.ndarray:
        n = len(adj)
        a = np.eye(n)
        for i in range(n):
            for j in adj[i]:
                a[i, j] = 1.0
        deg = a.sum(axis=1)
        d_inv_sqrt = 1.0 / np.sqrt(np.maximum(deg, 1e-12))
        return a * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]


class GATEncoder(GraphEncoder):
    """Single-head graph attention; attention weights are stop-gradient."""

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int],
        rng: np.random.Generator,
        *,
        leaky_slope: float = 0.2,
    ) -> None:
        super().__init__(in_features, hidden, rng)
        self.leaky_slope = leaky_slope
        # one attention vector per layer over the layer's *input* features
        sizes = [in_features, *hidden]
        self.att_vectors: List[np.ndarray] = [
            rng.normal(0.0, 0.1, size=(2 * fin,)) for fin in sizes[:-1]
        ]

    def aggregation_operator(
        self, adj: List[List[int]], h: np.ndarray, layer: int
    ) -> np.ndarray:
        n = len(adj)
        att = self.att_vectors[layer]
        fin = h.shape[1]
        a_self = h @ att[:fin]
        a_neigh = h @ att[fin:]
        mat = np.full((n, n), -np.inf)
        for i in range(n):
            members = [i, *adj[i]]
            scores = a_self[i] + a_neigh[members]
            scores = np.where(
                scores > 0, scores, self.leaky_slope * scores
            )
            scores -= scores.max()
            e = np.exp(scores)
            mat[i, members] = e / e.sum()
        mat[~np.isfinite(mat)] = 0.0
        return mat


class IdentityEncoder(GraphEncoder):
    """No message passing — reduces the actor to a plain MLP (Native-A2C)."""

    def aggregation_operator(
        self, adj: List[List[int]], h: np.ndarray, layer: int
    ) -> np.ndarray:
        return np.eye(len(adj))
