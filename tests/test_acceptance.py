"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria are property-based plus directional end-to-end checks at desk
scale; the published headline drag-reduction numbers require a CFD
dataset and are out of scope here.
"""
import itertools
import math
import time

import numpy as np
import pytest

from airfoilrl import pretrain as pt
from airfoilrl import rl
from airfoilrl.cli import main
from airfoilrl.env import DesignEnv, proxy_evaluator
from airfoilrl.geometry import (apply_action, bump_y, cosine_stations,
                                cst_evaluate, cst_fit, max_thickness, measure_bump_width,
                                solve_t2)
from airfoilrl.nnet import MlpModel, Scaler, make_mlp, mlp_backward, mlp_forward
from airfoilrl.proxy import T_MAX_DEFAULT, generate_pool, seed_airfoils
from airfoilrl.rl import (PolicyAgent, TrajectoryBatch, clip_target,
                          gae_advantages, make_agent, ppo_losses, ppo_train,
                          reward_to_go)
from airfoilrl.surrogate import (DESK_BATCH, DESK_HIDDEN, DESK_SCHEDULE,
                                 select_samples, train_surrogate)

from test_nnet import finite_difference_grads
from test_rl import BanditEnv, gae_brute_force, linear_actor


def report(number, label, passed):
    print(f"[criterion {number:2d}] {'PASS' if passed else 'FAIL'} - {label}",
          flush=True)
    assert passed, f"criterion {number} failed: {label}"


def test_criterion_1_geometry_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    ok = True
    # bump peak and endpoint identities
    for _ in range(200):
        t1 = rng.uniform(0.06, 0.94)
        t2 = rng.uniform(0.3, 50.0)
        h = rng.uniform(-0.05, 0.05)
        ok &= abs(bump_y(t1, t2, h, np.array([t1]))[0] - h) < 1e-12
        ends = bump_y(t1, t2, h, np.array([0.0, 1.0]))
        ok &= bool(np.all(np.abs(ends) < 1e-12))
    # CST fit round trip
    x = cosine_stations(101)
    for _ in range(50):
        coeffs = rng.uniform(0.05, 0.4, 7)
        ok &= float(np.max(np.abs(cst_fit(x, cst_evaluate(coeffs, x))
                                  - coeffs))) < 1e-8
    # thickness conservation over 1,000 random modifications
    baselines = seed_airfoils(4, seed=0)
    applied = 0
    attempts = 0
    while applied < 1000 and attempts < 1500:
        attempts += 1
        foil = baselines[attempts % len(baselines)]
        action = [[rng.uniform(0.05, 0.95), rng.uniform(0.2, 0.4),
                   rng.uniform(-0.02, 0.02)]]
        new, _, failed = apply_action(foil[None], T_MAX_DEFAULT, action)
        if failed[0]:
            continue
        applied += 1
        ok &= abs(max_thickness(new[0]) - 0.095) < 1e-6
    ok &= applied >= 1000
    ok &= (time.perf_counter() - t0) < 10.0
    report(1, "geometry identities and thickness conservation", ok)


def test_criterion_2_bump_width_solver():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    ok = True
    solved = 0
    while solved < 100:
        t1 = rng.uniform(0.2, 0.8)
        s_b = rng.uniform(0.2, 0.4)
        t2, clamped = solve_t2(np.array([t1]), np.array([s_b]))
        if clamped[0]:
            continue
        solved += 1
        ok &= abs(measure_bump_width(t1, t2[0]) - s_b) < 1e-6
    ok &= (time.perf_counter() - t0) < 5.0
    report(2, "solve_t2 width property on 100 random pairs", ok)


def test_criterion_3_feature_recovery():
    from conftest import features_of_one, synthetic_distribution
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    ok = True
    cell = 1.0 / 200
    for case in range(50):
        x1 = rng.uniform(0.3, 0.8)
        mw1 = rng.uniform(1.0, 1.2)
        mwl = rng.uniform(1.0, 1.3)
        # half the family re-accelerates past Mach 1 behind the shock
        mwa = rng.uniform(1.0, 1.1) if case % 2 else rng.uniform(0.9, 1.0)
        feats = features_of_one(synthetic_distribution(x1, mw1, mwl, mwa))
        ok &= abs(feats.x1 - x1) <= cell
        ok &= abs(feats.mw1 - mw1) < 1e-3
        ok &= abs(feats.mwl - mwl) < 1e-3
        ok &= abs(feats.mwa - mwa) < 1e-3
    ok &= (time.perf_counter() - t0) < 5.0
    report(3, "synthetic feature recovery incl. secondary acceleration", ok)


def test_criterion_4_gradient_check():
    t0 = time.perf_counter()
    ok = True
    rng = np.random.default_rng(3)
    for k in range(20):
        depth = int(rng.integers(1, 4))
        sizes = [int(rng.integers(2, 5))] \
            + [int(rng.integers(3, 8)) for _ in range(depth)] \
            + [int(rng.integers(1, 4))]
        model = make_mlp(sizes, np.random.default_rng(100 + k))
        # zero-init biases put relu pre-activations exactly on the kink,
        # where central differences are one-sided; perturb them off it
        model.biases = [rng.uniform(0.01, 0.05, b.shape) for b in model.biases]
        x = rng.uniform(-1.0, 1.0, size=(4, sizes[0]))
        grad_out = rng.standard_normal((4, sizes[-1]))
        _, cache = mlp_forward(model, x, scaled=False, with_cache=True)
        analytic = mlp_backward(model, cache, grad_out)
        numeric = finite_difference_grads(model, x, grad_out)
        for a, n in zip(analytic, numeric):
            denom = np.maximum(np.abs(n), 1e-6)
            ok &= float(np.max(np.abs(a - n) / denom)) < 1e-4
    ok &= (time.perf_counter() - t0) < 30.0
    report(4, "backprop vs central differences on 20 random models", ok)


def test_criterion_5_gae_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(1000):
        T = int(rng.integers(1, 6))
        rewards = rng.standard_normal(T)
        values = rng.standard_normal(T + 1)
        fast = gae_advantages(rewards, values, 0.99, 0.8)
        slow = gae_brute_force(rewards, values, 0.99, 0.8)
        ok &= float(np.max(np.abs(fast - slow))) < 1e-10
    # reward-to-go hand cases, exact
    ok &= bool(np.array_equal(reward_to_go([1.0, 1.0, 1.0], 1.0),
                              [3.0, 2.0, 1.0]))
    ok &= bool(np.array_equal(reward_to_go([2.0], 0.5), [2.0]))
    ok &= bool(np.array_equal(reward_to_go([1.0, 2.0], 0.5), [2.0, 2.0]))
    ok &= (time.perf_counter() - t0) < 5.0
    report(5, "GAE equals brute-force double sum; reward-to-go exact", ok)


def test_criterion_6_ppo_clip_unit_math():
    t0 = time.perf_counter()
    ok = abs(clip_target(0.1, 2.0) - 2.2) < 1e-15
    ok &= abs(clip_target(0.1, -1.0) + 0.9) < 1e-15
    # handcrafted two-step batch: clipped 2.2 and unclipped -2.0
    new = PolicyAgent(actor=linear_actor(0.0, 0.0),
                      critic=linear_actor(0.0, 0.0), log_std=np.zeros(1))
    w_old = math.sqrt(2.0 * math.log(2.0)) - 1.0
    old = PolicyAgent(actor=linear_actor(w_old, 1.0),
                      critic=linear_actor(0.0, 0.0), log_std=np.zeros(1))
    batch = TrajectoryBatch(states=np.array([[0.0], [1.0]]),
                            actions=np.zeros((2, 1)), log_probs=np.zeros(2),
                            rewards=np.zeros(2), values=np.zeros(2),
                            rewards_to_go=np.zeros(2),
                            advantages=np.array([2.0, -1.0]),
                            slices=[(0, 2)])
    actor_loss, _, _ = ppo_losses(batch, new, old)
    ok &= abs(actor_loss + 0.1) < 1e-10
    ok &= (time.perf_counter() - t0) < 1.0
    report(6, "clip branch values and handcrafted actor loss -0.1", ok)


@pytest.mark.slow
def test_criterion_7_bandit_convergence():
    t0 = time.perf_counter()
    target = np.array([0.3, 0.6, 0.45])
    ok = True
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        agent = make_agent(rng, hidden=(16, 16))
        ppo_train(agent, [None], BanditEnv(target), [(200, 3e-3)], 5, 128, seed)
        mean = agent.mean_action(BanditEnv.STATE[None])[0]
        ok &= float(np.max(np.abs(mean - target))) < 0.05
    ok &= (time.perf_counter() - t0) < 120.0
    report(7, "bandit actor mean within 0.05 of optimum, 3/3 seeds", ok)


@pytest.mark.slow
def test_criterion_8_imitation_ordering():
    t0 = time.perf_counter()
    env = DesignEnv(proxy_evaluator())
    schedule = [(250, 1e-3), (250, 1e-4)]
    ok = True
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        samples = pt.greedy_search(seed_airfoils(5, seed=seed), env, 2, 5, 30, rng)
        raw = pt.dedup_states(samples)
        smoothed = pt.smooth_samples(raw)
        agent_raw = make_agent(np.random.default_rng(100 + seed),
                               hidden=(32, 32))
        agent_smooth = make_agent(np.random.default_rng(100 + seed),
                                  hidden=(32, 32))
        loss_raw = pt.imitate_policy(agent_raw, raw, schedule=schedule)[-1]
        loss_smooth = pt.imitate_policy(agent_smooth, smoothed,
                                        schedule=schedule)[-1]
        ok &= loss_smooth < loss_raw
    ok &= (time.perf_counter() - t0) < 120.0
    report(8, "smoothed samples regress to a smaller loss, 3/3 seeds", ok)


@pytest.mark.slow
def test_criterion_9_end_to_end_directional():
    t0 = time.perf_counter()
    env = DesignEnv(proxy_evaluator())

    def run(seed, pretrained):
        rng = np.random.default_rng(seed)
        baselines = seed_airfoils(10, seed=seed)
        agent = rl.make_agent(rng, hidden=(64, 64))
        if pretrained:
            samples = pt.greedy_search(baselines, env, 2, 5, 30, rng)
            smoothed = pt.smooth_samples(pt.dedup_states(samples))
            pt.imitate_policy(agent, smoothed, pt.IMITATION_SCHEDULE)
            pt.pretrain_critic(agent, baselines, env, [(15, 0.01), (15, 0.001)], 200, 4,
                               seed)
        history = ppo_train(agent, baselines, env, [(50, 1e-3)], 200, 4, seed)
        return history[0]["mean_cum_reward"], history[-1]["mean_cum_reward"]

    pre = [run(seed, True) for seed in (0, 1, 2)]
    rand_finals = [run(seed, False)[1] for seed in (0, 1, 2)]
    improved = sum(final - first >= 0.5 for first, final in pre)
    pretrained_mean_final = float(np.mean([final for _, final in pre]))
    random_median = float(np.median(rand_finals))
    elapsed = time.perf_counter() - t0
    ok = improved >= 2
    ok &= pretrained_mean_final >= random_median
    ok &= elapsed < 900.0
    report(9, f"end-to-end: {improved}/3 seeds gain >= 0.5 counts, "
              f"pretrained mean {pretrained_mean_final:.2f} vs random "
              f"median {random_median:.2f}, {elapsed:.0f}s", ok)


@pytest.mark.slow
def test_criterion_10_surrogate_pipeline():
    t0 = time.perf_counter()
    ok = True
    # exhaustive C(8,5) check: greedy subset attains the max-min optimum
    outs = dict(cd=0.01, x1=0.5, mw1=1.1, mwl=1.1, mwa=1.0)
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        coords = rng.uniform(0.0, 1.0, (8, 14))
        pool = np.hstack((coords, np.tile(list(outs.values()), (8, 1))))
        sel = select_samples(pool, [5])[5]
        keys = {tuple(s[:14]) for s in sel}
        chosen = [i for i, c in enumerate(coords) if tuple(c) in keys]

        def min_pair(sub):
            return min(np.linalg.norm(coords[a] - coords[b])
                       for a, b in itertools.combinations(sub, 2))

        best = max(min_pair(s) for s in itertools.combinations(range(8), 5))
        ok &= bool(np.isclose(min_pair(chosen), best))
    # desk surrogate quality on a proxy-generated 2,000-sample set
    data = generate_pool(2200, seed=0)
    model, history = train_surrogate(data[:2000], data[2000:],
                                     hidden=DESK_HIDDEN,
                                     schedule=DESK_SCHEDULE,
                                     batch_size=DESK_BATCH, seed=0)
    final_rsme = history[-1]["test_cd"]
    ok &= final_rsme < 0.05
    ok &= (time.perf_counter() - t0) < 300.0
    report(10, f"selection brute-force optimum; test RSME(cd) "
               f"{final_rsme:.4f} < 0.05", ok)


@pytest.mark.slow
def test_criterion_11_determinism(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    ini = tmp_path / "tiny.ini"
    ini.write_text("[ppo]\nhidden = 8,8\nbaselines = 2\nepochs = 2\n"
                   "trajectories_per_baseline = 2\nmax_steps = 2\n"
                   "actor_schedule = 2:0.001\n"
                   "[surrogate]\nhidden = 16,16\nschedule = 10:0.01\n"
                   "batch_size = 16\n")
    for d in dirs:
        assert main(["--out-dir", str(d), "--seed", "5",
                     "generate-pool", "--n", "60"]) == 0
        assert main(["--out-dir", str(d), "--seed", "5",
                     "select-samples", "--keep", "40,10"]) == 0
        assert main(["--out-dir", str(d), "--seed", "5", "--config", str(ini),
                     "train-surrogate", "--train", "selected_40.csv",
                     "--test", "selected_10.csv"]) == 0
        assert main(["--out-dir", str(d), "--seed", "5", "--config", str(ini),
                     "train-ppo"]) == 0
    ok = True
    for name in ("pool.csv", "selected_40.csv", "selected_10.csv",
                 "surrogate_history.csv", "ppo_history.csv"):
        ok &= (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    report(11, "re-runs with identical config and seed are byte-identical", ok)
