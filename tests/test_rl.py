"""PPO machinery tests: GAE, clipping, losses, and the bandit env criterion 7 trains on."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from airfoilrl.env import LaneResult
from airfoilrl.nnet import MlpModel, Scaler
from airfoilrl.rl import (PolicyAgent, PpoError, TrajectoryBatch,
                          clip_target, collect_batch, entropy_term,
                          gae_advantages, gaussian_log_prob, load_agent,
                          make_agent, ppo_losses, ppo_train, reward_to_go,
                          sample_action, save_agent)


def gae_brute_force(rewards, values, gamma, lam):
    """Literal double summation of the exponentially weighted deltas."""
    T = len(rewards)
    deltas = [rewards[t] + gamma * values[t + 1] - values[t] for t in range(T)]
    return np.array([sum((gamma * lam) ** l * deltas[t + l]
                         for l in range(T - t)) for t in range(T)])


def linear_actor(weight, bias):
    """1-in 1-out linear network with identity scalers."""
    return MlpModel(sizes=[1, 1], weights=[np.array([[weight]])],
                    biases=[np.array([bias])],
                    input_scaler=Scaler.identity(1),
                    output_scaler=Scaler.identity(1))


def test_reward_to_go_hand_case():
    rtg = reward_to_go([1.0, 2.0, 3.0], gamma=0.5)
    assert np.allclose(rtg, [1.0 + 1.0 + 0.75, 2.0 + 1.5, 3.0], atol=0.0)


def test_reward_to_go_unit_gamma():
    rtg = reward_to_go([1.0, 1.0, 1.0], gamma=1.0)
    assert np.array_equal(rtg, [3.0, 2.0, 1.0])


def test_reward_to_go_empty_raises():
    with pytest.raises(PpoError):
        reward_to_go([], 0.9)


def test_gae_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(200):
        T = int(rng.integers(1, 6))
        rewards = rng.standard_normal(T)
        values = rng.standard_normal(T + 1)
        fast = gae_advantages(rewards, values, 0.99, 0.8)
        slow = gae_brute_force(rewards, values, 0.99, 0.8)
        assert np.max(np.abs(fast - slow)) < 1e-10


def test_gae_bootstrap_length_check():
    with pytest.raises(PpoError):
        gae_advantages([1.0, 2.0], [0.0, 0.0], 0.99, 0.8)


def test_clip_target_hand_cases():
    assert clip_target(0.1, 2.0) == 2.2
    assert clip_target(0.1, -1.0) == pytest.approx(-0.9)
    assert clip_target(0.2, 0.0) == 0.0


def test_entropy_term_formula():
    std = np.array([0.1, 0.2, 0.3])
    want = 0.5 + 0.5 * math.log(2 * math.pi) + float(np.sum(np.log(std)))
    assert abs(entropy_term(std) - want) < 1e-12


def test_gaussian_log_prob_standard_normal():
    lp = gaussian_log_prob(np.zeros((1, 2)), np.zeros((1, 2)), np.ones(2))
    assert abs(lp[0] + math.log(2 * math.pi)) < 1e-12


def test_handcrafted_actor_loss():
    """Two-step batch engineered so the clipped objective mean is 0.1.

    Step 1: ratio e^0.5 with advantage 2 clips to 2.2; step 2 has ratio
    exactly 2 with advantage -1, giving the unclipped -2.  Actor loss is
    -(2.2 - 2.0)/2 = -0.1.
    """
    new = PolicyAgent(actor=linear_actor(0.0, 0.0),
                      critic=linear_actor(0.0, 0.0),
                      log_std=np.zeros(1))
    w_old = math.sqrt(2.0 * math.log(2.0)) - 1.0
    old = PolicyAgent(actor=linear_actor(w_old, 1.0),
                      critic=linear_actor(0.0, 0.0),
                      log_std=np.zeros(1))
    states = np.array([[0.0], [1.0]])
    actions = np.zeros((2, 1))
    adv = np.array([2.0, -1.0])
    batch = TrajectoryBatch(states=states, actions=actions,
                            log_probs=np.zeros(2), rewards=np.zeros(2),
                            values=np.zeros(2), rewards_to_go=np.zeros(2),
                            advantages=adv, slices=[(0, 2)])
    actor_loss, entropy, critic_loss = ppo_losses(batch, new, old)
    assert abs(actor_loss + 0.1) < 1e-10
    assert abs(entropy - entropy_term(np.ones(1))) < 1e-12
    assert critic_loss == 0.0


def test_clip_bound_property():
    rng = np.random.default_rng(3)
    eps = 0.1
    adv = rng.standard_normal(200)
    ratio = np.exp(rng.uniform(-0.5, 0.5, 200))
    terms = np.minimum(ratio * adv, clip_target(eps, adv))
    assert np.all(terms <= ratio * adv + 1e-12)
    assert np.all(terms <= clip_target(eps, adv) + 1e-12)


def test_sample_action_seeded():
    agent = make_agent(np.random.default_rng(0), hidden=(8,))
    state = np.array([[0.5, 1.1, 1.1, 1.0]])
    a1, lp1 = sample_action(agent, state, np.random.default_rng(42))
    a2, lp2 = sample_action(agent, state, np.random.default_rng(42))
    assert np.array_equal(a1, a2) and np.array_equal(lp1, lp2)


def test_make_agent_shapes():
    agent = make_agent(np.random.default_rng(1), hidden=(16, 16))
    assert agent.actor.sizes == [4, 16, 16, 3]
    assert agent.critic.sizes == [4, 16, 16, 1]
    assert np.allclose(agent.std, 0.1)


class BanditEnv:
    """Single-state environment with reward -(a - target)^2, one step per
    episode, behind the lane API (reset_lanes, live, block step)."""

    STATE = np.array([0.5, 1.1, 1.15, 1.0])

    def __init__(self, target):
        self.target = np.asarray(target)
        self.live = np.zeros(0, dtype=bool)

    def reset_lanes(self, baselines):
        self.live = np.ones(len(baselines), dtype=bool)
        return np.tile(self.STATE, (len(baselines), 1))

    def step(self, actions_scaled):
        lanes = np.flatnonzero(self.live)
        a = np.clip(np.reshape(actions_scaled, (lanes.size, 3)), 0.0, 1.0)
        self.live[lanes] = False
        return LaneResult(lanes=lanes, next_state=np.tile(self.STATE, (lanes.size, 1)),
                          reward=-np.sum((a - self.target) ** 2, axis=1),
                          done=np.ones(lanes.size, dtype=bool), lane_info={})


def test_collect_batch_shapes():
    agent = make_agent(np.random.default_rng(2), hidden=(8,))
    env = BanditEnv(np.array([0.5, 0.5, 0.5]))
    batch = collect_batch(agent, [None, None], env, 3, np.random.default_rng(0))
    assert batch.size == 6  # 2 baselines x 3 one-step trajectories
    assert len(batch.slices) == 6
    assert batch.states.shape == (6, 4)
    assert batch.actions.shape == (6, 3)
    assert np.all(np.isfinite(batch.advantages))


def test_ppo_train_deterministic():
    target = np.array([0.4, 0.5, 0.6])
    env = BanditEnv(target)
    hists = []
    for _ in range(2):
        agent = make_agent(np.random.default_rng(5), hidden=(8,))
        hists.append(ppo_train(agent, [None], env, [(3, 1e-3)], 2, 8, 9))
    assert repr(hists[0]) == repr(hists[1])  # repr compares NaN losses too


def test_agent_file_round_trip(tmp_path):
    agent = make_agent(np.random.default_rng(4), hidden=(8, 8))
    path = tmp_path / "agent.npz"
    save_agent(path, agent)
    back = load_agent(path)
    state = np.array([[0.5, 1.1, 1.2, 1.0]])
    assert np.array_equal(back.mean_action(state), agent.mean_action(state))
    assert np.array_equal(back.log_std, agent.log_std)


def test_agent_file_in_the_original_layout_loads(tmp_path):
    # the agent file layout as first written, member by member
    agent = make_agent(np.random.default_rng(6), hidden=(8, 8))
    arrays = {"version": np.array([1]), "log_std": agent.log_std,
              "actor_sizes": np.array(agent.actor.sizes),
              "critic_sizes": np.array(agent.critic.sizes),
              "in_lo": agent.actor.input_scaler.lo, "in_hi": agent.actor.input_scaler.hi}
    for tag, model in (("actor", agent.actor), ("critic", agent.critic)):
        for i, (w, b) in enumerate(zip(model.weights, model.biases)):
            arrays[f"{tag}_w{i}"] = w
            arrays[f"{tag}_b{i}"] = b
    np.savez(tmp_path / "original.npz", **arrays)
    back = load_agent(tmp_path / "original.npz")
    for new, old in ((back.actor, agent.actor), (back.critic, agent.critic)):
        assert new.sizes == old.sizes and np.array_equal(new.flat, old.flat)
        assert np.array_equal(new.input_scaler.lo, old.input_scaler.lo)
        assert np.array_equal(new.input_scaler.hi, old.input_scaler.hi)
    assert np.array_equal(back.log_std, agent.log_std)
    save_agent(tmp_path / "saved.npz", agent)
    with np.load(tmp_path / "saved.npz") as saved:
        assert sorted(saved.files) == sorted(arrays)
        for name, value in arrays.items():
            assert np.array_equal(saved[name], value), name


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_advantages_finite_property(seed):
    rng = np.random.default_rng(seed)
    T = int(rng.integers(1, 6))
    adv = gae_advantages(rng.uniform(-5, 5, T), rng.uniform(-5, 5, T + 1),
                         0.99, 0.8)
    assert np.all(np.isfinite(adv))
