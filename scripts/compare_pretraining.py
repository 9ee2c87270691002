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
from airfoilrl.config import desk_config
from airfoilrl.env import DesignEnv, proxy_evaluator
from airfoilrl.proxy import seed_airfoils


def run(seed, pretrained, iterations, baselines_n):
    """The desk profile's run, but `iterations` PPO iterations over `baselines_n` baselines."""
    cfg = desk_config()
    rng = np.random.default_rng(seed)
    baselines = seed_airfoils(baselines_n, seed, cfg.t_max, cfg.m_inf)
    env = DesignEnv(proxy_evaluator(cfg.m_inf), cfg.t_max, cfg.max_steps)
    cfg.ppo.actor_schedule = [(iterations, cfg.ppo.actor_schedule[0][1])]
    agent = rl.make_agent(rng, hidden=cfg.ppo_hidden)
    if pretrained:
        samples = np.concatenate([pt.greedy_search(foil, env, cfg.greedy_searches,
                                                   cfg.greedy_steps, cfg.greedy_candidates, rng)
                                  for foil in baselines])
        smoothed = pt.smooth_samples(pt.dedup_states(samples))
        pt.imitate_policy(agent, smoothed, cfg.imitation_schedule)
        pt.pretrain_critic(agent, baselines, cfg.ppo, env,
                           critic_schedule=cfg.critic_schedule, seed=seed)
    history = rl.ppo_train(agent, baselines, cfg.ppo, env, seed=seed)
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
