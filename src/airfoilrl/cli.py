"""Command-line front end tying the pipeline stages together.

Subcommands: generate-pool, select-samples, train-surrogate, pretrain,
train-ppo, evaluate, modify, extract-features, plot.  Each ``cmd_*``
takes the parsed arguments, the resolved config and the run record (a
Counter of counts and seconds keyed by manifest field, which its stages
fill) and returns the artifacts it wrote; `main` then writes
``<command>_manifest.json`` with the config hash, seed, artifact
digests, the record and the command's wall time ``command_s``.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import fields, replace

import numpy as np

from . import pretrain as pt
from . import rl
from .config import (ExperimentConfig, load_config, parse_count, parse_counts, parse_seed,
                     write_manifest)
from .env import DesignEnv, proxy_evaluator, surrogate_evaluator
from .features import FeatureError, extract_features, read_distribution
from .geometry import (BRACKET_ERROR, AirfoilGeom, GeometryError, action_error, apply_action,
                       max_thickness, read_cst_file, write_coordinates, write_cst_file)
from .plotsvg import plot_history
from .proxy import generate_pool, seed_airfoils
from .surrogate import (HISTORY_COLUMNS, read_dataset, select_samples, train_surrogate,
                        write_dataset)
from .tables import write_csv, write_rows
from .nnet import load_model, save_model


def _build_config(args) -> ExperimentConfig:
    """The --config and --profile config (see load_config) with --seed, --n and --keep set."""
    cfg = load_config(args.config, args.profile)
    for name in ("seed", "pool_size", "keep_counts"):
        if getattr(args, name, None) is not None:
            setattr(cfg, name, getattr(args, name))
    return cfg


def _out(args, name: str) -> str:
    out_dir = os.environ.get("AIRFOILRL_OUT", args.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


@contextmanager
def _timed(record: Counter, field: str):
    """Add the with-block's wall time to record[field]."""
    start = time.perf_counter()
    yield
    record[field] += time.perf_counter() - start


def _env(args, cfg: ExperimentConfig, record: Counter) -> DesignEnv:
    """The command's one environment, on the --surrogate model under
    --out-dir, else the proxy; counts its steps and evaluator calls into `record`."""
    if args.surrogate:
        evaluator = surrogate_evaluator(load_model(_out(args, args.surrogate)), record)
    else:
        evaluator = proxy_evaluator(cfg.proxy, record)
    # the step fields of every command that steps, greedy search or not
    record.update(env_lane_steps=0, env_step_s=0.0, greedy_candidates=0)
    return DesignEnv(evaluator, cfg.ppo.max_steps, record)


def cmd_generate_pool(args, cfg: ExperimentConfig, record: Counter) -> list[str]:
    pool = generate_pool(cfg.pool_size, cfg.seed, cfg.t_max, config=cfg.proxy, record=record)
    out = _out(args, args.out)
    write_dataset(out, pool)
    print(f"wrote {len(pool)} samples to {out}")
    return [out]


def cmd_select_samples(args, cfg: ExperimentConfig, record: Counter) -> list[str]:
    pool = read_dataset(_out(args, args.pool))
    sets = select_samples(pool, cfg.keep_counts)
    artifacts = []
    for count, table in sorted(sets.items(), reverse=True):
        out = _out(args, f"{args.out_prefix}_{count}.csv")
        write_dataset(out, table)
        artifacts.append(out)
        print(f"wrote {count} samples to {out}")
    return artifacts


def _sample_set(args, cfg: ExperimentConfig, flag: str, entry: int) -> str:
    """The --train (entry 0) or --test (entry 1) file: the flag's value,
    else selected_<that [surrogate] keep_counts entry>.csv."""
    if getattr(args, flag):
        return _out(args, getattr(args, flag))
    keep = ",".join(map(str, cfg.keep_counts))
    if len(cfg.keep_counts) <= entry:
        raise ValueError(f"--{flag} not given and [surrogate] keep_counts = {keep} "
                         f"has no entry {entry + 1} to name its default; pass --{flag}")
    path = _out(args, f"selected_{cfg.keep_counts[entry]}.csv")
    if not os.path.exists(path):
        raise ValueError(f"--{flag} not given and its default {path}, from [surrogate] "
                         f"keep_counts = {keep}, does not exist; pass --train and --test")
    return path


def cmd_train_surrogate(args, cfg: ExperimentConfig, record: Counter) -> list[str]:
    train = read_dataset(_sample_set(args, cfg, "train", 0))
    test = read_dataset(_sample_set(args, cfg, "test", 1))
    model, history = train_surrogate(
        train, test, hidden=list(cfg.surrogate_hidden),
        schedule=cfg.surrogate_schedule, batch_size=cfg.surrogate_batch,
        seed=cfg.seed)
    model_out = _out(args, args.out)
    save_model(model_out, model)
    hist_out = _out(args, args.history)
    # the header even when the schedule ended before the first record
    write_csv(hist_out, HISTORY_COLUMNS, (row.values() for row in history))
    if history:
        print(f"final test RSME(cd) = {history[-1]['test_cd']:.4f}")
    print(f"wrote {model_out} and {hist_out}")
    return [model_out, hist_out]


def cmd_pretrain(args, cfg: ExperimentConfig, record: Counter) -> list[str]:
    rng = np.random.default_rng(cfg.seed)
    baselines = seed_airfoils(cfg.pretrain_baselines, seed=cfg.seed,
                              t_max=cfg.t_max, config=cfg.proxy)
    env = _env(args, cfg, record)
    with _timed(record, "greedy_search_s"):
        samples = np.concatenate([pt.greedy_search(foil, env.evaluator, cfg.greedy_searches,
                                                   cfg.greedy_steps, cfg.greedy_candidates,
                                                   rng, record=record) for foil in baselines])
    raw_out = _out(args, f"{args.out_prefix}_samples_raw.csv")
    pt.write_samples(raw_out, samples, stage="raw")
    deduped = pt.dedup_states(samples)
    smoothed = pt.smooth_samples(deduped)
    smooth_out = _out(args, f"{args.out_prefix}_samples_smoothed.csv")
    pt.write_samples(smooth_out, smoothed, stage="smoothed")
    agent = rl.make_agent(rng, hidden=cfg.ppo_hidden, std_init=cfg.ppo.std_init)
    with _timed(record, "imitation_s"):
        losses = pt.imitate_policy(agent, smoothed, schedule=cfg.imitation_schedule)
    with _timed(record, "critic_fit_s"):
        critic_history = pt.pretrain_critic(agent, baselines, cfg.ppo, env,
                                            critic_schedule=cfg.critic_schedule,
                                            seed=cfg.seed)
    critic_out = _out(args, f"{args.out_prefix}_critic_history.csv")
    write_rows(critic_out, critic_history)
    agent_out = _out(args, f"{args.out_prefix}_agent.npz")
    rl.save_agent(agent_out, agent)
    # a zero-epoch imitation schedule leaves the actor as initialised
    imitation = f"final imitation loss {losses[-1]:.3g}" if losses else "no imitation epochs"
    print(f"{len(samples)} raw samples -> {len(deduped)} deduped; {imitation}")
    print(f"wrote {agent_out} and {critic_out}")
    return [raw_out, smooth_out, critic_out, agent_out]


def cmd_train_ppo(args, cfg: ExperimentConfig, record: Counter) -> list[str]:
    rng = np.random.default_rng(cfg.seed)
    baselines = seed_airfoils(cfg.ppo_baselines, seed=cfg.seed,
                              t_max=cfg.t_max, config=cfg.proxy)
    env = _env(args, cfg, record)
    if args.agent:
        agent = rl.load_agent(_out(args, args.agent))
    else:
        agent = rl.make_agent(rng, hidden=cfg.ppo_hidden, std_init=cfg.ppo.std_init)
    history = rl.ppo_train(agent, baselines, cfg.ppo, env, seed=cfg.seed)
    agent_out = _out(args, args.out)
    rl.save_agent(agent_out, agent)
    hist_out = _out(args, args.history)
    write_rows(hist_out, history)
    print(f"mean cumulative reward: {history[0]['mean_cum_reward']:.3f} -> "
          f"{history[-1]['mean_cum_reward']:.3f} counts")
    print(f"wrote {agent_out} and {hist_out}")
    return [agent_out, hist_out]


def cmd_evaluate(args, cfg: ExperimentConfig, record: Counter) -> list[str]:
    baselines = seed_airfoils(cfg.ppo_baselines, seed=cfg.seed,
                              t_max=cfg.t_max, config=cfg.proxy)
    env = _env(args, cfg, record)
    agent = rl.load_agent(_out(args, args.agent))
    steps: list[dict] = []
    mean, per_airfoil = rl.evaluate_policy(agent, baselines, env, rollout=steps)
    out = _out(args, args.report)
    write_csv(out, ["airfoil", "cum_reward"], [*enumerate(per_airfoil), ("mean", mean)])
    rollout_out = _out(args, args.rollout)
    write_rows(rollout_out, steps)
    print(f"mean cumulative reward {mean:.3f} counts over "
          f"{len(per_airfoil)} airfoils; wrote {out} and {rollout_out}")
    return [out, rollout_out]


def cmd_modify(args, cfg: ExperimentConfig, record: Counter) -> list[str]:
    foil = read_cst_file(args.airfoil)
    # the one airfoil and action, run as a lane of one
    upper, lower, _, failed = apply_action(
        (foil.cst_upper[None], foil.cst_lower[None], np.array([foil.t_max])), args.action[None])
    if failed[0]:
        raise GeometryError(action_error(*args.action[:2]) or BRACKET_ERROR)
    modified = AirfoilGeom(cst_upper=upper[0], cst_lower=lower[0], t_max=foil.t_max)
    out = _out(args, args.out)
    write_coordinates(out, modified)
    cst_out = _out(args, args.out + ".cst")
    write_cst_file(cst_out, modified)
    print(f"max thickness {max_thickness(modified):.6f}; wrote {out}")
    return [out, cst_out]


def cmd_extract_features(args, cfg: ExperimentConfig, record: Counter) -> list[str]:
    dist = read_distribution(args.dist)
    # the file's one distribution, run as a block of one
    try:
        feats = extract_features(replace(dist, mw_upper=dist.mw_upper[None],
                                         mw_lower=dist.mw_lower[None]))
    except FeatureError as exc:
        raise FeatureError(f"{args.dist}: {exc}") from None
    row = {f.name: getattr(feats, f.name)[0].item() for f in fields(feats)}
    out = _out(args, args.out)
    write_rows(out, [{**row, "no_shock": int(row["no_shock"])}])
    print(f"X1={row['x1']!r} Mw1={row['mw1']!r} MwL={row['mwl']!r} "
          f"MwA={row['mwa']!r} Err={row['err']!r} no_shock={row['no_shock']}")
    return [out]


def cmd_plot(args, cfg: ExperimentConfig, record: Counter) -> list[str]:
    out = _out(args, args.out)
    plot_history(_out(args, args.history), out, x_col=args.x, y_col=args.y)
    print(f"wrote {out}")
    return [out]


def _flag_type(parse):
    """`parse` as an argparse type whose ValueError message names the
    reason; argparse reports a plain ValueError by the function's name."""
    def flag_type(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None
    return flag_type


def _bump_action(text: str) -> np.ndarray:
    try:
        t1, s_b, h_b = (float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected three numbers t1,s_b,h_b, got {text!r}") from None
    if not np.all(np.isfinite((t1, s_b, h_b))):
        raise argparse.ArgumentTypeError(f"expected finite t1,s_b,h_b, got {text!r}")
    return np.array([t1, s_b, h_b])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airfoilrl",
        description="Airfoil drag-reduction policy learning pipeline")
    parser.add_argument("--profile", default=None, choices=["desk", "paper"],
                        help="default: the config file's [run] profile, else desk")
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--seed", type=_flag_type(parse_seed), default=None)
    parser.add_argument("--out-dir", default="artifacts")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-pool", help="proxy-evaluate random airfoils")
    p.add_argument("--n", dest="pool_size", type=_flag_type(parse_count), metavar="N",
                   help="pool size (default: the config's pool_size)")
    p.add_argument("--out", default="pool.csv")
    p.set_defaults(func=cmd_generate_pool)

    p = sub.add_parser("select-samples", help="thin a pool to spread-out sets")
    p.add_argument("--pool", default="pool.csv")
    p.add_argument("--keep", dest="keep_counts", type=_flag_type(parse_counts), metavar="KEEP",
                   help="comma-separated set sizes (default: the config's keep_counts)")
    p.add_argument("--out-prefix", default="selected")
    p.set_defaults(func=cmd_select_samples)

    p = sub.add_parser("train-surrogate", help="fit the CST->features model")
    p.add_argument("--train", default=None,
                   help="default: selected_<first keep_counts entry>.csv")
    p.add_argument("--test", default=None,
                   help="default: selected_<second keep_counts entry>.csv")
    p.add_argument("--out", default="surrogate.npz")
    p.add_argument("--history", default="surrogate_history.csv")
    p.set_defaults(func=cmd_train_surrogate)

    p = sub.add_parser("pretrain",
                       help="greedy search, smoothing, imitation, critic fit")
    p.add_argument("--surrogate", default=None,
                   help="surrogate model file; omit for the proxy oracle")
    p.add_argument("--out-prefix", default="pretrained")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train-ppo", help="PPO-clip policy training")
    p.add_argument("--agent", default=None, help="initial agent file")
    p.add_argument("--surrogate", default=None)
    p.add_argument("--out", default="trained_agent.npz")
    p.add_argument("--history", default="ppo_history.csv")
    p.set_defaults(func=cmd_train_ppo)

    p = sub.add_parser("evaluate", help="deterministic mean-action evaluation")
    p.add_argument("--agent", required=True)
    p.add_argument("--surrogate", default=None)
    p.add_argument("--report", default="evaluation.csv")
    p.add_argument("--rollout", default="rollout.csv", help="per-step rollout log")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("modify", help="apply one bump action to an airfoil")
    p.add_argument("--airfoil", required=True, help="CST coefficient file")
    p.add_argument("--action", required=True, type=_bump_action, help="t1,s_b,h_b")
    p.add_argument("--out", default="modified.dat")
    p.set_defaults(func=cmd_modify)

    p = sub.add_parser("extract-features", help="features of a distribution file")
    p.add_argument("--dist", required=True)
    p.add_argument("--out", default="features.csv")
    p.set_defaults(func=cmd_extract_features)

    p = sub.add_parser("plot", help="SVG line chart from a history CSV")
    p.add_argument("--history", default="ppo_history.csv")
    p.add_argument("--x", default="iteration")
    p.add_argument("--y", default="mean_cum_reward")
    p.add_argument("--out", default="history.svg")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _build_config(args)
        record = Counter()  # counts and seconds, keyed by manifest field
        with _timed(record, "command_s"):
            artifacts = args.func(args, cfg, record)
        fields = dict(record)
        if "env_step_s" in record:  # the rate of the lane steps
            fields["env_steps_per_s"] = (record["env_lane_steps"] / record["env_step_s"]
                                         if record["env_step_s"] > 0.0 else 0.0)
        # a command that raised leaves no manifest
        write_manifest(_out(args, f"{args.command.replace('-', '_')}_manifest.json"),
                       cfg, args.command, artifacts, fields)
        return 0
    except Exception as exc:  # surfaced as a message + nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
