"""Design environment tests: action mapping, reward telescoping, termination."""
import numpy as np
import pytest

from airfoilrl.cli import _write_rows_csv
from airfoilrl.env import (ACTION_BOUNDS, REWARD_SCALE, DesignEnv, EnvConfig,
                           EnvProtocolError, physical_to_scaled,
                           proxy_evaluator, scaled_to_physical, ROLLOUT_COLUMNS)
from airfoilrl.geometry import (AirfoilGeom, BumpAction, apply_action, max_thickness,
                                solve_t2)
from airfoilrl.proxy import seed_airfoils


@pytest.fixture(scope="module")
def baseline():
    return seed_airfoils(1, seed=0)[0]


@pytest.fixture()
def env():
    return DesignEnv(proxy_evaluator(), EnvConfig())


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
        back = physical_to_scaled(BumpAction(*phys))
        assert np.max(np.abs(back - scaled)) < 1e-12


def test_step_before_reset_raises(env):
    with pytest.raises(EnvProtocolError):
        env.step(np.array([0.5, 0.5, 0.5]))


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
        foil = AirfoilGeom(cst_upper=env._upper[0], cst_lower=env._lower[0],
                           t_max=float(env._t_max[0]))
        assert abs(max_thickness(foil) - foil.t_max) < 1e-6
        done = result.done[0]


def test_episode_length_capped(env, baseline):
    env.reset(baseline)
    steps = 0
    done = False
    while not done:
        result = env.step(np.array([0.5, 0.5, 0.5001]))
        steps += 1
        done = result.done[0]
    assert steps <= env.config.max_steps
    with pytest.raises(EnvProtocolError):
        env.step(np.array([0.5, 0.5, 0.5]))


def test_modify_failure_terminates_episode(env, baseline):
    env.reset(baseline)
    # a full-range positive bump exceeds what lower rescaling can absorb
    result = env.step(np.array([0.5, 0.5, 1.0]))
    assert result.done[0]
    assert result.reward[0] == 0.0
    assert result.lane_info["modify_failed"][0]


def test_environment_deterministic(baseline):
    actions = [np.array([0.45, 0.5, 0.49]), np.array([0.55, 0.6, 0.51])]
    traces = []
    for _ in range(2):
        env = DesignEnv(proxy_evaluator(), EnvConfig())
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
    _write_rows_csv(path, rows)
    text = path.read_text().splitlines()
    assert text[0] == ",".join(ROLLOUT_COLUMNS)
    assert len(text) == 2


def test_width_clamped_reported_apart_from_action_clipping(env, baseline):
    # t1 = 0.99, s_b = 0.4 (the scaled box corner) asks for a width the
    # bump cannot reach: solve_t2 clamps t2 to its bracket end 0.2
    assert solve_t2(0.99, 0.4) == (0.2, True) and not solve_t2(0.5, 0.3)[1]
    lanes = (np.tile(baseline.cst_upper, (2, 1)), np.tile(baseline.cst_lower, (2, 1)),
             np.full(2, baseline.t_max))
    _, _, bump_clamped, failed = apply_action(lanes, [[0.99, 0.4, 0.01], [0.5, 0.3, 0.01]])
    assert bump_clamped.tolist() == [True, False] and not failed.any()
    for action, clipped, width_clamped in (([1.0, 1.0, 0.55], False, True),
                                           ([0.5, 0.5, 0.55], False, False),
                                           ([1.2, 1.0, 0.55], True, True)):
        env.reset(baseline)
        info = env.step(np.array(action)).lane_info
        assert not info["modify_failed"][0]
        assert (info["clamped"][0], info["width_clamped"][0]) == (clipped, width_clamped)
