#!/usr/bin/env python3
"""Run the seven-command pipeline on a small INI and print the digest of
every artifact it writes.

Commands, in order: generate-pool, select-samples, train-surrogate,
pretrain --surrogate, train-ppo --surrogate, evaluate and plot, all in
--out-dir with --seed and the config pipeline_digests.ini next to this
script.  Each output line is ``<file> <digest>`` for a file of
--out-dir (give a fresh one), in name order, the digest from
``config.artifact_digest``; manifests (``*_manifest.json``) are left
out, as they hold wall-clock times, and the commands' own messages go
to stderr.  Run it at two commits and ``diff`` the outputs to see which
artifacts a change moved:

    PYTHONPATH=src python scripts/pipeline_digests.py --seed 3 > after.txt
"""
import argparse
import contextlib
import os
import sys

from airfoilrl.cli import main as cli
from airfoilrl.config import artifact_digest

CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pipeline_digests.ini")
COMMANDS = (
    ["generate-pool"],
    ["select-samples"],
    ["train-surrogate"],
    ["pretrain", "--surrogate", "surrogate.npz"],
    ["train-ppo", "--agent", "pretrained_agent.npz", "--surrogate", "surrogate.npz"],
    ["evaluate", "--agent", "trained_agent.npz"],
    ["plot"],
)


def run(out_dir: str, seed: int) -> list[str]:
    """Run the pipeline; returns its ``<artifact> <digest>`` lines."""
    for command in COMMANDS:
        argv = ["--out-dir", out_dir, "--seed", str(seed), "--config", CONFIG, *command]
        with contextlib.redirect_stdout(sys.stderr):
            code = cli(argv)
        if code != 0:
            sys.exit(f"failed: airfoilrl {' '.join(argv)}")
    return [f"{name} {artifact_digest(os.path.join(out_dir, name))}"
            for name in sorted(os.listdir(out_dir)) if not name.endswith("_manifest.json")]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out-dir", default="digests")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    print("\n".join(run(args.out_dir, args.seed)))
