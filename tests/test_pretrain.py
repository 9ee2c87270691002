"""Pretraining tests: greedy search, dedup, smoothing, imitation."""
import tracemalloc

import numpy as np
import pytest

from airfoilrl.env import DesignEnv, Evaluation, proxy_evaluator
from airfoilrl.geometry import max_thickness
from airfoilrl.pretrain import (_SMOOTH_BLOCK, DEDUP_TOL, SMOOTH_NEIGHBORS, SMOOTH_PASSES,
                                SMOOTH_RELAXATION, dedup_states, greedy_search,
                                imitate_policy, pretrain_critic, smooth_samples)
from airfoilrl.proxy import seed_airfoils
from airfoilrl.rl import PpoConfig, make_agent
from airfoilrl.tables import (ACTION_COLS, FEATURE_BOUNDS, REWARD_COL, SAMPLE_WIDTH,
                              STATE_COLS)


def sample(state, t1=0.5, sb=0.3, hb=0.0, reward=0.0):
    """One sample-table row."""
    return np.array([*state, t1, sb, hb, reward], dtype=float)


@pytest.fixture(scope="module")
def greedy_samples():
    rng = np.random.default_rng(0)
    baseline = seed_airfoils(1, seed=0)[0]
    return greedy_search(baseline, DesignEnv(proxy_evaluator()), searches=2, steps=5,
                         candidates=30, rng=rng)


def test_greedy_search_states_in_box(greedy_samples):
    assert len(greedy_samples)
    lows = np.array([FEATURE_BOUNDS[k][0] for k in ("x1", "mw1", "mwl", "mwa")])
    highs = np.array([FEATURE_BOUNDS[k][1] for k in ("x1", "mw1", "mwl", "mwa")])
    for s in greedy_samples:
        assert np.all(s[STATE_COLS] >= lows - 1e-12)
        assert np.all(s[STATE_COLS] <= highs + 1e-12)


def test_greedy_search_rewards_positive_on_average(greedy_samples):
    # each step keeps the lowest-drag candidate, so most steps improve
    assert np.mean(greedy_samples[:, REWARD_COL]) > 0.0


def test_greedy_search_deterministic():
    baseline = seed_airfoils(1, seed=0)[0]
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(3)
        runs.append(greedy_search(baseline, DesignEnv(proxy_evaluator()), 1, 3, 10, rng))
    assert len(runs[0]) == len(runs[1])
    for a, b in zip(runs[0], runs[1]):
        assert np.array_equal(a[STATE_COLS], b[STATE_COLS])
        assert np.array_equal(a[ACTION_COLS], b[ACTION_COLS])


def test_greedy_search_evaluates_its_baseline_once():
    baseline = seed_airfoils(1, seed=0)[0]
    proxy = proxy_evaluator()
    rows = []

    def counting(cst):
        rows.append(len(np.reshape(cst, (-1, 14))))
        return proxy(cst)

    samples = greedy_search(baseline, DesignEnv(counting), searches=3, steps=2, candidates=30,
                            rng=np.random.default_rng(0))
    assert len(samples) == 6
    assert rows.count(1) == 1 and rows[0] == 1


def test_greedy_search_candidates_hold_its_t_max():
    rows = []
    evaluate = proxy_evaluator()

    def recording(cst):
        rows.extend(np.reshape(cst, (-1, 14)))
        return evaluate(cst)

    baseline = seed_airfoils(1, seed=0, t_max=0.09)[0]
    samples = greedy_search(baseline, DesignEnv(recording, t_max=0.09), searches=2, steps=3,
                            candidates=10, rng=np.random.default_rng(0))
    assert len(samples) > 0 and len(rows) > 10
    assert all(abs(max_thickness(row) - 0.09) < 1e-6 for row in rows)


def test_greedy_search_that_finds_nothing_is_an_empty_table():
    proxy = proxy_evaluator()

    def shockless(cst):
        ev = proxy(cst)
        return Evaluation(cd=ev.cd, state=ev.state, no_shock=np.ones_like(ev.no_shock))

    samples = greedy_search(seed_airfoils(1, seed=0)[0], DesignEnv(shockless), searches=2,
                            steps=3, candidates=10, rng=np.random.default_rng(0))
    assert samples.shape == (0, SAMPLE_WIDTH)


def test_dedup_keeps_highest_reward():
    s1 = sample([0.5, 1.1, 1.1, 1.0], reward=1.0)
    s2 = sample([0.5, 1.1, 1.1, 1.0], hb=0.01, reward=3.0)
    s3 = sample([0.6, 1.1, 1.1, 1.0], reward=2.0)
    out = dedup_states([s1, s2, s3])
    assert len(out) == 2
    assert out[0][REWARD_COL] == 3.0
    assert out[1][REWARD_COL] == 2.0


def test_dedup_compares_with_each_groups_first_state():
    # the second row replaces the first but not its group's state, so the
    # third, 1.6e-9 from the first, starts a group of its own
    rows = [sample([0.5 + k * 0.8e-9, 1.1, 1.1, 1.0], reward=r)
            for k, r in enumerate((1.0, 2.0, 0.5))]
    out = dedup_states(rows)
    assert out.tobytes() == np.array(rows[1:]).tobytes()


def test_dedup_takes_a_list_of_rows_or_a_table():
    rng = np.random.default_rng(1)
    rows = [sample(rng.integers(0, 2, 4), reward=float(i)) for i in range(30)]
    assert dedup_states(rows).tobytes() == dedup_states(np.array(rows)).tobytes()


def test_dedup_idempotent():
    rng = np.random.default_rng(1)
    samples = [sample(rng.uniform(0.0, 1.0, 4), reward=float(i))
               for i in range(30)]
    samples += samples[:10]  # exact duplicates
    once = dedup_states(samples)
    twice = dedup_states(once)
    assert len(once) == len(twice)
    for a, b in zip(once, twice):
        assert np.array_equal(a[STATE_COLS], b[STATE_COLS]) and a[REWARD_COL] == b[REWARD_COL]


def test_dedup_tolerance():
    s1 = sample([0.5, 1.1, 1.1, 1.0], reward=1.0)
    s2 = sample([0.5 + 1e-10, 1.1, 1.1, 1.0], reward=2.0)
    assert len(dedup_states([s1, s2])) == 1


def ref_dedup_states(samples):
    kept = []
    kept_states = []
    for s in samples:
        if kept_states:
            d = np.linalg.norm(np.stack(kept_states) - s[STATE_COLS], axis=1)
            hits = np.nonzero(d <= DEDUP_TOL)[0]
        else:
            hits = np.array([], dtype=int)
        if hits.size == 0:
            kept.append(s)
            kept_states.append(np.asarray(s[STATE_COLS], dtype=float))
        else:
            k = int(hits[0])
            if s[REWARD_COL] > kept[k][REWARD_COL]:
                kept[k] = s
    return kept


def test_dedup_matches_reference_on_many_duplicates():
    # 600 samples over 40 distinct states, some nudged within the
    # tolerance, with repeated rewards: the same kept rows in order
    rng = np.random.default_rng(3)
    states = rng.uniform(0.0, 1.0, (40, 4))
    nudge = np.where(rng.random((600, 1)) < 0.3, 0.4 * DEDUP_TOL, 0.0)
    samples = [sample(states[k] + nudge[i], reward=float(rng.integers(0, 5)))
               for i, k in enumerate(rng.integers(0, 40, 600))]
    out, ref = dedup_states(samples), ref_dedup_states(samples)
    assert 0 < len(out) <= 40
    assert out.tobytes() == np.array(ref).tobytes()
    assert dedup_states([]).shape == (0, SAMPLE_WIDTH)


def test_smooth_requires_enough_samples():
    with pytest.raises(ValueError):
        smooth_samples(np.array([sample([0.5, 1.1, 1.1, 1.0])] * 5))


def test_smooth_contracts_action_spread():
    rng = np.random.default_rng(2)
    samples = np.array([sample(rng.uniform(0.0, 1.0, 4), t1=rng.uniform(0.1, 0.9),
                               sb=rng.uniform(0.2, 0.4), hb=rng.uniform(-0.05, 0.05))
                        for _ in range(40)])

    def spread(batch):
        return np.max(np.ptp(batch[:, ACTION_COLS], axis=0))

    smoothed = smooth_samples(samples)
    assert spread(smoothed) <= spread(samples) + 1e-12
    # states and rewards pass through untouched
    for a, b in zip(samples, smoothed):
        assert np.array_equal(a[STATE_COLS], b[STATE_COLS])
        assert a[REWARD_COL] == b[REWARD_COL]


def ref_smooth_actions(samples):
    """smooth_samples' actions from the (n, n, 4) difference tensor."""
    states = np.stack([s[STATE_COLS] for s in samples])
    actions = np.stack([s[ACTION_COLS] for s in samples])
    diff = states[:, None, :] - states[None, :, :]
    dist = np.sqrt(np.sum(diff**2, axis=2))
    np.fill_diagonal(dist, np.inf)
    neighbor_idx = np.argsort(dist, axis=1, kind="stable")[:, :SMOOTH_NEIGHBORS]
    with np.errstate(divide="ignore"):
        weights = 1.0 / np.take_along_axis(dist, neighbor_idx, axis=1)
    finite = np.isfinite(weights)
    if not np.all(finite):
        weights = np.where(finite, weights, weights[finite].max() if np.any(finite) else 1.0)
    for _ in range(SMOOTH_PASSES):
        avg = (weights[:, :, None] * actions[neighbor_idx]).sum(axis=1) \
            / weights.sum(axis=1)[:, None]
        actions = actions + (avg - actions) * SMOOTH_RELAXATION
    return actions


# the last n's duplicated states, rows n // 2 to n // 2 + 9, straddle the
# boundary of two distance blocks
@pytest.mark.parametrize("n", [50, 500, 4 * _SMOOTH_BLOCK - 10])
def test_smooth_matches_difference_tensor(n):
    # distances summed column by column give the tensor sum's floats,
    # so the neighbours and smoothed actions are the same, duplicates too
    rng = np.random.default_rng(n)
    states = rng.uniform([0.2, 1.0, 1.0, 0.9], [0.8, 1.2, 1.3, 1.1], size=(n, 4))
    states[n // 2:n // 2 + 10] = states[:10]  # duplicated states
    samples = np.array([sample(st, t1=rng.uniform(0.1, 0.9), sb=rng.uniform(0.2, 0.4),
                               hb=rng.uniform(-0.05, 0.05)) for st in states])
    got = smooth_samples(samples)[:, ACTION_COLS]
    assert np.array_equal(got, ref_smooth_actions(samples))


def test_smooth_matches_difference_tensor_on_integer_tied_states():
    # states on a small integer grid: many exactly equal distances, which
    # order lowest index first; three blocks and a one-row tail
    n = 2 * _SMOOTH_BLOCK + 1
    rng = np.random.default_rng(8)
    samples = np.array([sample(st, t1=rng.uniform(0.1, 0.9))
                        for st in rng.integers(0, 3, (n, 4))])
    got = smooth_samples(samples)[:, ACTION_COLS]
    assert np.array_equal(got, ref_smooth_actions(samples))


def test_smooth_memory_is_linear_in_the_samples():
    # an n x n distance matrix would be 30.5 MiB here, its argsort as much
    n = 2000
    rng = np.random.default_rng(9)
    samples = np.array([sample(st, t1=rng.uniform(0.1, 0.9))
                        for st in rng.uniform([0.2, 1.0, 1.0, 0.9], [0.8, 1.2, 1.3, 1.1], (n, 4))])
    tracemalloc.start()
    try:
        smooth_samples(samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * _SMOOTH_BLOCK * n * 8


def test_smooth_preserves_constant_actions():
    rng = np.random.default_rng(4)
    samples = np.array([sample(rng.uniform(0.0, 1.0, 4), t1=0.4, sb=0.3, hb=-0.01)
                        for _ in range(15)])
    for s in smooth_samples(samples):
        t1, s_b, h_b = s[ACTION_COLS]
        assert abs(t1 - 0.4) < 1e-12
        assert abs(s_b - 0.3) < 1e-12
        assert abs(h_b + 0.01) < 1e-12


def test_smooth_handles_duplicate_states():
    rng = np.random.default_rng(5)
    samples = [sample(rng.uniform(0.0, 1.0, 4), t1=rng.uniform(0.2, 0.8))
               for _ in range(14)]
    samples.append(sample(samples[0][STATE_COLS], t1=0.9))  # zero-distance pair
    smoothed = smooth_samples(np.array(samples))
    assert np.all(np.isfinite(smoothed[:, ACTION_COLS]))


def test_imitate_policy_reduces_loss():
    rng = np.random.default_rng(6)
    samples = np.array([sample(rng.uniform([0.3, 1.0, 1.0, 0.9], [0.7, 1.2, 1.3, 1.1]),
                               t1=rng.uniform(0.3, 0.7), sb=rng.uniform(0.25, 0.35),
                               hb=rng.uniform(-0.02, 0.02)) for _ in range(50)])
    agent = make_agent(np.random.default_rng(0), hidden=(32, 32))
    history = imitate_policy(agent, samples, schedule=[(400, 1e-3)])
    assert history[-1] < history[0]
    assert history[-1] < 0.05


def test_imitate_policy_leaves_std(gent_seed=0):
    samples = np.array([sample(np.random.default_rng(i).uniform(0.0, 1.0, 4))
                        for i in range(12)])
    agent = make_agent(np.random.default_rng(gent_seed), hidden=(8,))
    before = agent.log_std.copy()
    imitate_policy(agent, samples, schedule=[(5, 1e-3)])
    assert np.array_equal(agent.log_std, before)


def test_imitate_policy_empty_raises():
    agent = make_agent(np.random.default_rng(0), hidden=(8,))
    with pytest.raises(ValueError):
        imitate_policy(agent, [], [(5, 1e-3)])


@pytest.mark.slow
def test_pretrain_critic_reduces_value_error():
    baselines = seed_airfoils(3, seed=0)
    agent = make_agent(np.random.default_rng(1), hidden=(16, 16))
    config = PpoConfig(epochs=50, trajectories_per_baseline=2)
    env = DesignEnv(proxy_evaluator(), max_steps=3)
    actor, log_std = agent.actor.flat.copy(), agent.log_std.copy()
    history = pretrain_critic(agent, baselines, config, env, critic_schedule=[(10, 0.01)], seed=0)
    losses = [h["critic_loss"] for h in history[1:]]
    assert losses[-1] < losses[0]
    # the actor must be untouched by critic-only fitting, so every row
    # repeats row 0's evaluation and std but for its iteration and loss
    assert actor.tobytes() == agent.actor.flat.tobytes()
    assert log_std.tobytes() == agent.log_std.tobytes()
    for k, row in enumerate(history):
        assert repr({**row, "iteration": 0, "critic_loss": history[0]["critic_loss"]}) \
            == repr(history[0])
        assert row["iteration"] == k
