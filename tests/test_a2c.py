"""A2C agent tests: action validity, learning signal, masking."""

import copy

import numpy as np
import pytest

from repro.nn import a2c
from repro.nn.a2c import A2CAgent, A2CConfig, Transition
from repro.nn.gnn import IdentityEncoder, adjacency_from_edges


def tiny_agent(rng, **cfg_kwargs):
    cfg = A2CConfig(
        hidden_actor=(16, 8),
        hidden_critic=(16, 8),
        encoder_hidden=(8,),
        train_interval=cfg_kwargs.pop("train_interval", 8),
        **cfg_kwargs,
    )
    return A2CAgent(4, rng, config=cfg)


def ring(n):
    return adjacency_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


class TestActing:
    def test_action_in_range(self, rng):
        agent = tiny_agent(rng)
        feats = rng.normal(size=(5, 4))
        for _ in range(10):
            a = agent.act(feats, ring(5))
            assert 0 <= a < 5

    def test_mask_respected(self, rng):
        agent = tiny_agent(rng)
        feats = rng.normal(size=(5, 4))
        mask = np.array([0, 0, 1, 0, 0], dtype=bool)
        for _ in range(10):
            assert agent.act(feats, ring(5), mask) == 2

    def test_probs_sum_to_one(self, rng):
        agent = tiny_agent(rng)
        p = agent.action_probs(rng.normal(size=(6, 4)), ring(6))
        assert p.sum() == pytest.approx(1.0)

    def test_variable_topology_size(self, rng):
        agent = tiny_agent(rng)
        # the per-node scoring head must handle any N without retraining
        for n in (3, 7, 12):
            a = agent.act(rng.normal(size=(n, 4)), ring(n))
            assert 0 <= a < n

    def test_greedy_picks_argmax(self, rng):
        agent = tiny_agent(rng)
        feats = rng.normal(size=(5, 4))
        # greedy choice is deterministic given the same sampled encoder pass
        probs = agent.action_probs(feats, ring(5))
        assert agent.value(feats, ring(5)) == pytest.approx(
            agent.value(feats, ring(5)), rel=1.0
        )  # smoke: value() runs
        assert isinstance(int(np.argmax(probs)), int)

    def test_act_and_train_leave_inputs_unchanged(self, rng):
        agent = tiny_agent(rng)
        feats = rng.normal(size=(6, 4))
        mask = np.array([1, 0, 1, 1, 0, 1], dtype=bool)
        adj = ring(6)
        before = (feats.copy(), mask.copy(), copy.deepcopy(adj))
        action = agent.act(feats, adj, mask)
        agent.train_on([Transition(feats, adj, mask, action, 1.0)])
        np.testing.assert_array_equal(feats, before[0])
        np.testing.assert_array_equal(mask, before[1])
        assert adj == before[2]


class TestLearning:
    def test_record_triggers_training_at_interval(self, rng):
        agent = tiny_agent(rng, train_interval=4)
        feats = rng.normal(size=(3, 4))
        trained = []
        for i in range(8):
            trained.append(
                agent.record(Transition(feats, ring(3), None, i % 3, 1.0))
            )
        assert trained == [False, False, False, True] * 2
        assert agent.train_steps == 2

    def test_discounted_returns(self, rng):
        agent = tiny_agent(rng, gamma=0.5)
        returns = agent._discounted_returns([1.0, 1.0, 1.0])
        assert returns[2] == pytest.approx(1.0)
        assert returns[1] == pytest.approx(1.5)
        assert returns[0] == pytest.approx(1.75)

    def test_policy_learns_rewarded_action(self, rng):
        """Rewarding node 1 consistently must raise its probability.

        Nodes need *distinct embeddings*: the weight-shared scoring head maps
        identical embeddings to identical logits by construction, and mean
        aggregation over a complete 3-ring collapses one-hot features to the
        same vector — so this test uses the IdentityEncoder.
        """
        cfg = A2CConfig(
            hidden_actor=(16, 8),
            hidden_critic=(16, 8),
            train_interval=16,
            entropy_coef=0.0,
            lr=0.05,
        )
        agent = A2CAgent(
            4, rng, encoder=IdentityEncoder(4, [8], rng), config=cfg
        )
        feats = np.eye(3, 4)
        adj = ring(3)
        p_before = agent.action_probs(feats, adj)[1]
        for _ in range(200):
            a = agent.act(feats, adj)
            reward = 1.0 if a == 1 else 0.0
            agent.record(Transition(feats, adj, None, a, reward))
        p_after = agent.action_probs(feats, adj)[1]
        assert p_after > max(p_before, 0.5)

    def test_training_updates_parameters(self, rng):
        agent = tiny_agent(rng, train_interval=2)
        feats = rng.normal(size=(3, 4))
        before = [p.copy() for p in agent.optimizer.params]
        agent.record(Transition(feats, ring(3), None, 0, 1.0))
        agent.record(Transition(feats, ring(3), None, 1, 0.0))
        changed = any(
            not np.allclose(b, p)
            for b, p in zip(before, agent.optimizer.params)
        )
        assert changed

    def test_empty_batch_noop(self, rng):
        agent = tiny_agent(rng)
        assert agent.train_on([]) == 0.0

    def test_masked_actions_stay_masked_after_training(self, rng):
        agent = tiny_agent(rng, train_interval=4)
        feats = rng.normal(size=(4, 4))
        mask = np.array([1, 1, 0, 1], dtype=bool)
        for _ in range(8):
            a = agent.act(feats, ring(4), mask)
            agent.record(Transition(feats, ring(4), mask, a, 0.5))
        p = agent.action_probs(feats, ring(4), mask)
        assert p[2] == 0.0


#: policy context filters over 7 nodes; "int01" is a 0/1 integer mask
FILTERS = {
    "partial": np.array([1, 0, 1, 1, 0, 0, 1], dtype=bool),
    "all_true": np.ones(7, dtype=bool),
    "all_false": np.zeros(7, dtype=bool),
    "int01": np.array([0, 1, 1, 0, 0, 1, 0]),
}


def score_all_rows(mask):
    """Full-row reference for ``a2c._admitted``: the actor scores every row."""
    return (None if mask is None else np.asarray(mask, dtype=bool)), slice(None)


class TestFilteredRows:
    """The actor runs only on admitted rows, exactly as if it ran on all."""

    @pytest.mark.parametrize("name", sorted(FILTERS))
    def test_matches_full_row_reference(self, name, monkeypatch):
        mask = FILTERS[name]
        cfg = A2CConfig(
            hidden_actor=(16, 8),
            hidden_critic=(16, 8),
            encoder_hidden=(8, 8),
        )
        agent = A2CAgent(4, np.random.default_rng(3), config=cfg)
        ref = copy.deepcopy(agent)
        data = np.random.default_rng(11)
        feats = [data.normal(size=(7, 4)) for _ in range(4)]
        adj = ring(7)
        choices = np.flatnonzero(mask) if mask.any() else np.arange(7)
        batch = [
            Transition(f, adj, mask, int(choices[i % len(choices)]), float(i))
            for i, f in enumerate(feats)
        ]

        probs = [agent.action_probs(f, adj, mask) for f in feats]
        scored = agent.actor.layers[0]._x.shape[0]
        agent.train_on(batch)
        monkeypatch.setattr(a2c, "_admitted", score_all_rows)
        ref_probs = [ref.action_probs(f, adj, mask) for f in feats]
        ref.train_on(batch)

        assert scored == (mask.sum() if mask.any() else 7)
        for got, want in zip(probs, ref_probs):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
            if mask.any():
                assert np.all(got[mask == 0] == 0.0)
        # gradients span many magnitudes: compare each at its own scale
        for got, want in zip(agent.optimizer.grads, ref.optimizer.grads):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert any(np.abs(g).sum() > 0 for g in agent.encoder.grads)


class TestPersistence:
    def test_save_load_roundtrip(self, rng, tmp_path):
        agent = tiny_agent(rng)
        feats = rng.normal(size=(4, 4))
        probs_before = agent.action_probs(feats, ring(4))
        path = agent.save(tmp_path / "ckpt")
        assert path == tmp_path / "ckpt.npz" and path.exists()
        clone = tiny_agent(np.random.default_rng(999))
        clone.load(tmp_path / "ckpt")
        # identical parameters → identical policy (IdentityEncoder-free
        # GraphSAGE resamples, so compare on a deterministic sub-path:
        # the actor applied to the same embeddings)
        for p1, p2 in zip(agent.optimizer.params, clone.optimizer.params):
            assert np.allclose(p1, p2)

    def test_load_shape_mismatch_rejected(self, rng, tmp_path):
        from repro.nn.persistence import CheckpointError

        agent = tiny_agent(rng)
        agent.save(tmp_path / "ckpt")
        other = A2CAgent(4, rng)  # default (larger) architecture
        with pytest.raises(CheckpointError):
            other.load(tmp_path / "ckpt")
