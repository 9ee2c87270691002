#!/usr/bin/env python3
"""Compare pretrained against random-initialized PPO runs.

Trains a pretrained agent and several random-init agents on the same
proxy baselines, then prints initial and final deterministic mean
cumulative rewards (drag counts) per run.
"""
import argparse

import numpy as np

from airfoilrl import pretrain as pt
from airfoilrl import rl
from airfoilrl.env import DesignEnv, proxy_evaluator
from airfoilrl.proxy import seed_airfoils
from airfoilrl.rl import PpoConfig


def run(seed, pretrained, iterations, baselines_n):
    rng = np.random.default_rng(seed)
    baselines = seed_airfoils(baselines_n, seed=seed)
    evaluator = proxy_evaluator()
    env = DesignEnv(evaluator)
    config = PpoConfig(epochs=200, trajectories_per_baseline=4,
                       actor_schedule=[(iterations, 1e-3)])
    agent = rl.make_agent(rng, hidden=(64, 64))
    if pretrained:
        samples = np.concatenate([pt.greedy_search(foil, evaluator, 2, 5, 30, rng)
                                  for foil in baselines])
        smoothed = pt.smooth_samples(pt.dedup_states(samples))
        pt.imitate_policy(agent, smoothed)
        pt.pretrain_critic(agent, baselines, config, env,
                           critic_schedule=[(15, 0.01), (15, 0.001)],
                           seed=seed)
    history = rl.ppo_train(agent, baselines, config, env, seed=seed)
    return history[0]["mean_cum_reward"], history[-1]["mean_cum_reward"]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="0,1,2")
    parser.add_argument("--iterations", type=int, default=50)
    parser.add_argument("--baselines", type=int, default=10)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    for label, flag in (("pretrained", True), ("random-init", False)):
        for seed in seeds:
            first, final = run(seed, flag, args.iterations, args.baselines)
            print(f"{label} seed {seed}: {first:7.3f} -> {final:7.3f} counts")
