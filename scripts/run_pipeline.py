#!/usr/bin/env python3
"""Run the pipeline in --out-dir; print one ``<file> <sha256>`` line per artifact.

The commands, through ``airfoilrl.cli.main`` with --seed and the optional
--config INI: generate-pool, select-samples, train-surrogate, pretrain and
train-ppo on that surrogate, evaluate, plot.  --skip-surrogate drops the first
three and runs pretrain and train-ppo on the proxy.  The commands' messages go
to stderr; the digest lines, in name order from the ``sha256`` maps of the
manifests this run wrote, to stdout.  A failing command is named on stderr and
its exit code is the script's.  ``diff`` the output of two commits on
scripts/pipeline_digests.ini to see which artifacts a change moved.
"""
import argparse
import contextlib
import json
import os
import sys

from airfoilrl.cli import main as cli


def run(out_dir: str, seed: int, config: str | None, skip_surrogate: bool) -> list[str]:
    """Run the commands; returns their ``<artifact> <digest>`` lines."""
    base = ["--out-dir", out_dir, "--seed", str(seed), *(["--config", config] if config else [])]
    build = [] if skip_surrogate else [["generate-pool"], ["select-samples"], ["train-surrogate"]]
    on = [] if skip_surrogate else ["--surrogate", "surrogate.npz"]
    train = [["pretrain", *on], ["train-ppo", "--agent", "pretrained_agent.npz", *on]]
    digests = {}
    for command in [*build, *train, ["evaluate", "--agent", "trained_agent.npz"], ["plot"]]:
        argv = [*base, *command]
        with contextlib.redirect_stdout(sys.stderr):
            code = cli(argv)
        if code != 0:
            print(f"failed: airfoilrl {' '.join(argv)}", file=sys.stderr)
            sys.exit(code)
        manifest = os.path.join(out_dir, f"{command[0].replace('-', '_')}_manifest.json")
        with open(manifest) as fh:
            digests.update((os.path.basename(path), digest)
                           for path, digest in json.load(fh)["sha256"].items())
    return [f"{name} {digests[name]}" for name in sorted(digests)]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out-dir", default="artifacts")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--config", default=None, help="INI config file (default: desk profile)")
    parser.add_argument("--skip-surrogate", action="store_true",
                        help="skip the surrogate commands; pretrain and train-ppo use the proxy")
    args = parser.parse_args()
    print("\n".join(run(args.out_dir, args.seed, args.config, args.skip_surrogate)))
