"""Pretraining tests: greedy search, dedup, smoothing, imitation."""
import numpy as np
import pytest

from airfoilrl.env import DesignEnv, EnvConfig, proxy_evaluator
from airfoilrl.geometry import BumpAction
from airfoilrl.pretrain import (StateActionSample, dedup_states, greedy_search,
                                imitate_policy, pretrain_critic, read_samples,
                                smooth_samples, write_samples)
from airfoilrl.proxy import seed_airfoils
from airfoilrl.rl import PpoConfig, make_agent
from airfoilrl.surrogate import FEATURE_BOUNDS


def sample(state, t1=0.5, sb=0.3, hb=0.0, reward=0.0):
    return StateActionSample(state=np.asarray(state, dtype=float),
                             action=BumpAction(t1, sb, hb), reward=reward)


@pytest.fixture(scope="module")
def greedy_samples():
    rng = np.random.default_rng(0)
    baseline = seed_airfoils(1, seed=0)[0]
    return greedy_search(baseline, proxy_evaluator(), searches=2, steps=5,
                         candidates=30, rng=rng)


def test_greedy_search_states_in_box(greedy_samples):
    assert greedy_samples
    lows = np.array([FEATURE_BOUNDS[k][0] for k in ("x1", "mw1", "mwl", "mwa")])
    highs = np.array([FEATURE_BOUNDS[k][1] for k in ("x1", "mw1", "mwl", "mwa")])
    for s in greedy_samples:
        assert np.all(s.state >= lows - 1e-12)
        assert np.all(s.state <= highs + 1e-12)


def test_greedy_search_rewards_positive_on_average(greedy_samples):
    # each step keeps the lowest-drag candidate, so most steps improve
    assert np.mean([s.reward for s in greedy_samples]) > 0.0


def test_greedy_search_deterministic():
    baseline = seed_airfoils(1, seed=0)[0]
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(3)
        runs.append(greedy_search(baseline, proxy_evaluator(), 1, 3, 10, rng))
    assert len(runs[0]) == len(runs[1])
    for a, b in zip(runs[0], runs[1]):
        assert np.array_equal(a.state, b.state)
        assert a.action == b.action


def test_greedy_search_evaluates_its_baseline_once():
    baseline = seed_airfoils(1, seed=0)[0]
    proxy = proxy_evaluator()
    rows = []

    def counting(cst):
        rows.append(len(np.reshape(cst, (-1, 14))))
        return proxy(cst)

    samples = greedy_search(baseline, counting, searches=3, steps=2, candidates=30,
                            rng=np.random.default_rng(0))
    assert len(samples) == 6
    assert rows.count(1) == 1 and rows[0] == 1


def test_dedup_keeps_highest_reward():
    s1 = sample([0.5, 1.1, 1.1, 1.0], reward=1.0)
    s2 = sample([0.5, 1.1, 1.1, 1.0], hb=0.01, reward=3.0)
    s3 = sample([0.6, 1.1, 1.1, 1.0], reward=2.0)
    out = dedup_states([s1, s2, s3])
    assert len(out) == 2
    assert out[0].reward == 3.0
    assert out[1].reward == 2.0


def test_dedup_idempotent():
    rng = np.random.default_rng(1)
    samples = [sample(rng.uniform(0.0, 1.0, 4), reward=float(i))
               for i in range(30)]
    samples += samples[:10]  # exact duplicates
    once = dedup_states(samples)
    twice = dedup_states(once)
    assert len(once) == len(twice)
    for a, b in zip(once, twice):
        assert np.array_equal(a.state, b.state) and a.reward == b.reward


def test_dedup_tolerance():
    s1 = sample([0.5, 1.1, 1.1, 1.0], reward=1.0)
    s2 = sample([0.5 + 1e-10, 1.1, 1.1, 1.0], reward=2.0)
    assert len(dedup_states([s1, s2])) == 1


def test_smooth_requires_enough_samples():
    with pytest.raises(ValueError):
        smooth_samples([sample([0.5, 1.1, 1.1, 1.0])] * 5)


def test_smooth_contracts_action_spread():
    rng = np.random.default_rng(2)
    samples = [sample(rng.uniform(0.0, 1.0, 4), t1=rng.uniform(0.1, 0.9),
                      sb=rng.uniform(0.2, 0.4), hb=rng.uniform(-0.05, 0.05))
               for _ in range(40)]

    def spread(batch):
        acts = np.stack([[s.action.t1, s.action.s_b, s.action.h_b]
                         for s in batch])
        return np.max(np.ptp(acts, axis=0))

    smoothed = smooth_samples(samples)
    assert spread(smoothed) <= spread(samples) + 1e-12
    # states and rewards pass through untouched
    for a, b in zip(samples, smoothed):
        assert np.array_equal(a.state, b.state)
        assert a.reward == b.reward


def test_smooth_preserves_constant_actions():
    rng = np.random.default_rng(4)
    samples = [sample(rng.uniform(0.0, 1.0, 4), t1=0.4, sb=0.3, hb=-0.01)
               for _ in range(15)]
    for s in smooth_samples(samples):
        assert abs(s.action.t1 - 0.4) < 1e-12
        assert abs(s.action.s_b - 0.3) < 1e-12
        assert abs(s.action.h_b + 0.01) < 1e-12


def test_smooth_handles_duplicate_states():
    rng = np.random.default_rng(5)
    samples = [sample(rng.uniform(0.0, 1.0, 4), t1=rng.uniform(0.2, 0.8))
               for _ in range(14)]
    samples.append(sample(samples[0].state, t1=0.9))  # zero-distance pair
    smoothed = smooth_samples(samples)
    acts = np.stack([[s.action.t1, s.action.s_b, s.action.h_b]
                     for s in smoothed])
    assert np.all(np.isfinite(acts))


def test_imitate_policy_reduces_loss():
    rng = np.random.default_rng(6)
    samples = [sample(rng.uniform([0.3, 1.0, 1.0, 0.9], [0.7, 1.2, 1.3, 1.1]),
                      t1=rng.uniform(0.3, 0.7), sb=rng.uniform(0.25, 0.35),
                      hb=rng.uniform(-0.02, 0.02)) for _ in range(50)]
    agent = make_agent(np.random.default_rng(0), hidden=(32, 32))
    history = imitate_policy(agent, samples, schedule=[(400, 1e-3)])
    assert history[-1] < history[0]
    assert history[-1] < 0.05


def test_imitate_policy_leaves_std(gent_seed=0):
    samples = [sample(np.random.default_rng(i).uniform(0.0, 1.0, 4))
               for i in range(12)]
    agent = make_agent(np.random.default_rng(gent_seed), hidden=(8,))
    before = agent.log_std.copy()
    imitate_policy(agent, samples, schedule=[(5, 1e-3)])
    assert np.array_equal(agent.log_std, before)


def test_imitate_policy_empty_raises():
    agent = make_agent(np.random.default_rng(0), hidden=(8,))
    with pytest.raises(ValueError):
        imitate_policy(agent, [])


@pytest.mark.slow
def test_pretrain_critic_reduces_value_error():
    baselines = seed_airfoils(3, seed=0)
    agent = make_agent(np.random.default_rng(1), hidden=(16, 16))
    config = PpoConfig(epochs=50, trajectories_per_baseline=2, max_steps=3)
    env_factory = lambda: DesignEnv(proxy_evaluator(), EnvConfig(max_steps=3))
    history = pretrain_critic(agent, baselines, config, env_factory,
                              critic_schedule=[(10, 0.01)], seed=0)
    losses = [h["critic_loss"] for h in history[1:]]
    assert losses[-1] < losses[0]
    # the actor must be untouched by critic-only fitting
    assert np.allclose(agent.std, 0.1)


def test_sample_file_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    samples = [sample(rng.uniform(0.0, 1.0, 4), t1=rng.uniform(0.1, 0.9),
                      reward=float(i)) for i in range(5)]
    path = tmp_path / "samples.csv"
    write_samples(path, samples, stage="smoothed")
    back, stages = read_samples(path)
    assert len(back) == 5
    assert set(stages) == {"smoothed"}
    for a, b in zip(samples, back):
        assert np.array_equal(a.state, b.state)
        assert a.action == b.action
        assert a.reward == b.reward
