#!/usr/bin/env python3
"""Run the full desk-scale pipeline end to end.

Stages: pool generation, sample selection, surrogate training,
greedy-search pretraining, PPO against the proxy oracle, evaluation,
and a reward-history plot.  All artifacts land in --out-dir.
"""
import argparse
import sys
import time

from airfoilrl.cli import main as cli


def stage(label, argv):
    t0 = time.perf_counter()
    code = cli(argv)
    print(f"== {label}: exit {code} in {time.perf_counter() - t0:.1f}s ==")
    if code != 0:
        sys.exit(code)


def run(out_dir, seed, skip_surrogate=False):
    base = ["--out-dir", out_dir, "--seed", str(seed)]
    if not skip_surrogate:
        stage("generate pool", base + ["generate-pool"])
        stage("select samples", base + ["select-samples"])
        stage("train surrogate", base + ["train-surrogate"])
    stage("pretrain", base + ["pretrain"])
    stage("train ppo", base + ["train-ppo", "--agent", "pretrained_agent.npz"])
    stage("evaluate", base + ["evaluate", "--agent", "trained_agent.npz"])
    stage("plot", base + ["plot"])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="artifacts")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--skip-surrogate", action="store_true",
                        help="skip the surrogate stages (PPO uses the proxy)")
    args = parser.parse_args()
    run(args.out_dir, args.seed, args.skip_surrogate)
