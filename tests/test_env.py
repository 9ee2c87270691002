"""Design environment tests: action mapping, reward telescoping, termination."""
import re

import numpy as np
import pytest

from airfoilrl.env import (ACTION_BOUNDS, REWARD_SCALE, DesignEnv,
                           EnvProtocolError, physical_to_scaled,
                           proxy_evaluator, scaled_to_physical, ROLLOUT_COLUMNS)
from airfoilrl.geometry import apply_action, max_thickness, solve_t2
from airfoilrl.proxy import seed_airfoils
from airfoilrl.tables import write_rows


@pytest.fixture(scope="module")
def baseline():
    return seed_airfoils(1, seed=0)[0]


@pytest.fixture()
def env():
    return DesignEnv(proxy_evaluator())


def test_scaled_to_physical_midpoint():
    (t1, s_b, h_b), clamped = scaled_to_physical(np.array([0.5, 0.5, 0.5]))
    assert abs(t1 - 0.5) < 1e-12
    assert abs(s_b - 0.3) < 1e-12
    assert abs(h_b) < 1e-12
    assert not clamped


def test_scaled_to_physical_clamps():
    (t1, s_b, h_b), clamped = scaled_to_physical(np.array([1.4, -0.2, 2.0]))
    assert clamped
    assert t1 == ACTION_BOUNDS[0, 1]
    assert s_b == ACTION_BOUNDS[1, 0]
    assert h_b == ACTION_BOUNDS[2, 1]


def test_action_scaling_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(20):
        scaled = rng.uniform(0.0, 1.0, 3)
        phys, _ = scaled_to_physical(scaled)
        back = physical_to_scaled(phys)
        assert np.max(np.abs(back - scaled)) < 1e-12


def test_step_before_reset_raises(env):
    with pytest.raises(EnvProtocolError):
        env.step(np.array([0.5, 0.5, 0.5]))


@pytest.mark.parametrize("block", [np.array([[0.5, 0.45], [0.5, 0.6], [0.5, 0.5]]),
                                   np.full(6, 0.5), np.full(3, 0.5)],
                         ids=["transposed", "flat", "one-lane vector"])
def test_step_takes_only_an_n_by_3_block(env, block):
    """With two live lanes, a (3, 2), a (6,) or a (3,) action raises,
    naming its shape, and steps no lane."""
    env.reset_lanes(seed_airfoils(2, seed=0))
    with pytest.raises(ValueError, match=re.escape(f"(2, 3) action block, got {block.shape}")):
        env.step(block)
    assert env._steps.tolist() == [0, 0] and env.live.all()


def test_reset_returns_state(env, baseline):
    state = env.reset(baseline)
    assert state.shape == (4,)
    assert np.all(np.isfinite(state))
    assert env._cd[0] > 0.0


def test_reward_telescopes(env, baseline):
    env.reset(baseline)
    cd0 = env._cd[0]
    total = 0.0
    actions = [np.array([0.5, 0.5, 0.48]), np.array([0.35, 0.4, 0.52]),
               np.array([0.6, 0.5, 0.49])]
    for a in actions:
        result = env.step(a)
        assert not result.lane_info["shock_lost"][0]
        total += result.reward[0]
    assert abs(total - REWARD_SCALE * (cd0 - env._cd[0])) < 1e-9


def test_thickness_invariant_after_steps(env, baseline):
    env.reset(baseline)
    rng = np.random.default_rng(2)
    done = False
    while not done:
        result = env.step(rng.uniform(0.4, 0.6, 3))
        assert abs(max_thickness(env._cst[0]) - env.t_max) < 1e-6
        done = result.done[0]


def test_episode_length_capped(env, baseline):
    env.reset(baseline)
    steps = 0
    done = False
    while not done:
        result = env.step(np.array([0.5, 0.5, 0.5001]))
        steps += 1
        done = result.done[0]
    assert steps <= env.max_steps
    with pytest.raises(EnvProtocolError):
        env.step(np.array([0.5, 0.5, 0.5]))


def test_modify_failure_terminates_episode(env, baseline):
    env.reset(baseline)
    # a full-range positive bump exceeds what lower rescaling can absorb
    result = env.step(np.array([0.5, 0.5, 1.0]))
    assert result.done[0]
    assert result.reward[0] == 0.0
    assert result.lane_info["modify_failed"][0]


def test_a_reused_env_leaks_nothing():
    """reset_lanes starts every lane anew: an env stepped partway through
    three lanes, then reset on two other baselines, steps them bit for
    bit as a fresh env does."""
    rng = np.random.default_rng(4)
    reused = DesignEnv(proxy_evaluator(), max_steps=3)
    reused.reset_lanes(seed_airfoils(3, seed=0))
    # lane 0's full-range bump fails, so one lane ends early
    first = reused.step(np.array([[0.5, 0.5, 1.0], [0.45, 0.5, 0.49], [0.55, 0.6, 0.51]]))
    assert first.lane_info["modify_failed"].tolist() == [True, False, False]
    reused.step(rng.uniform(0.4, 0.6, (np.count_nonzero(reused.live), 3)))
    assert reused.live.tolist() == [False, True, True]

    baselines = seed_airfoils(2, seed=1)
    fresh = DesignEnv(proxy_evaluator(), max_steps=3)
    assert reused.reset_lanes(baselines).tobytes() == fresh.reset_lanes(baselines).tobytes()
    assert reused.live.tobytes() == fresh.live.tobytes()
    steps = 0
    while fresh.live.any():
        actions = rng.uniform(0.4, 0.6, (np.count_nonzero(fresh.live), 3))
        got, want = reused.step(actions), fresh.step(actions)
        for name in ("lanes", "next_state", "reward", "done"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.lane_info.keys() == want.lane_info.keys()
        for name, value in want.lane_info.items():
            assert got.lane_info[name].tobytes() == value.tobytes(), name
        assert reused.live.tobytes() == fresh.live.tobytes()
        steps += 1
    assert steps == 3  # the reused lanes get the full episode length
    assert not reused.live.any()


def test_environment_deterministic(baseline):
    actions = [np.array([0.45, 0.5, 0.49]), np.array([0.55, 0.6, 0.51])]
    traces = []
    for _ in range(2):
        env = DesignEnv(proxy_evaluator())
        env.reset(baseline)
        trace = []
        for a in actions:
            r = env.step(a)
            trace.append((tuple(r.next_state[0]), r.reward[0], r.done[0]))
        traces.append(trace)
    assert traces[0] == traces[1]


def test_rollout_log_round_trip(tmp_path):
    rows = [{"episode": 0, "step": 1, "t1": 0.5, "sb": 0.3, "hb": -0.001,
             "cd_before": 0.0101, "cd_after": 0.0100, "reward": 1.0,
             "x1": 0.6, "mw1": 1.1, "mwl": 1.1, "mwa": 0.95,
             "shock_lost": False, "clamped": False}]
    rows[0] = {k: rows[0].get(k, 0) for k in ROLLOUT_COLUMNS}
    path = tmp_path / "rollout.csv"
    write_rows(path, rows)
    text = path.read_text().splitlines()
    assert text[0] == ",".join(ROLLOUT_COLUMNS)
    assert len(text) == 2


def test_width_clamped_reported_apart_from_action_clipping(env, baseline):
    # t1 = 0.99, s_b = 0.4 (the scaled box corner) asks for a width the
    # bump cannot reach: solve_t2 clamps t2 to its bracket end 0.2
    t2, clamped = solve_t2(np.array([0.99, 0.5]), np.array([0.4, 0.3]))
    assert t2[0] == 0.2 and clamped.tolist() == [True, False]
    _, bump_clamped, failed = apply_action(np.tile(baseline, (2, 1)), env.t_max,
                                           [[0.99, 0.4, 0.01], [0.5, 0.3, 0.01]])
    assert bump_clamped.tolist() == [True, False] and not failed.any()
    for action, clipped, width_clamped in (([1.0, 1.0, 0.55], False, True),
                                           ([0.5, 0.5, 0.55], False, False),
                                           ([1.2, 1.0, 0.55], True, True)):
        env.reset(baseline)
        info = env.step(np.array(action)).lane_info
        assert not info["modify_failed"][0]
        assert (info["clamped"][0], info["width_clamped"][0]) == (clipped, width_clamped)


def test_steps_hold_the_env_t_max():
    # every airfoil the env evaluates, baselines and built steps alike,
    # is at its t_max, not the default 0.095
    rows = []
    evaluate = proxy_evaluator()

    def recording(cst):
        rows.extend(np.reshape(cst, (-1, 14)))
        return evaluate(cst)

    env = DesignEnv(recording, t_max=0.09)
    env.reset_lanes(seed_airfoils(3, seed=0, t_max=0.09))
    rng = np.random.default_rng(5)
    while env.live.any():
        env.step(rng.uniform(0.3, 0.7, (np.count_nonzero(env.live), 3)))
    assert len(rows) > 3
    assert all(abs(max_thickness(row) - 0.09) < 1e-6 for row in rows)
