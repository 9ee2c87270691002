"""Command-line front end tying the pipeline stages together.

Subcommands: generate-pool, select-samples, train-surrogate, pretrain,
train-ppo, evaluate, modify, extract-features, plot.  Every command
writes its artifacts plus a manifest recording the config hash and
seed.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import asdict

import numpy as np

from . import pretrain as pt
from . import rl
from .config import (ExperimentConfig, config_hash, from_profile,
                     load_config, write_manifest)
from .env import (DesignEnv, EnvConfig, StepStats, proxy_evaluator,
                  surrogate_evaluator)
from .features import extract_features, read_distribution
from .geometry import (BumpAction, apply_action, max_thickness,
                       read_cst_file, write_coordinates, write_cst_file)
from .plotsvg import plot_history
from .proxy import PoolStats, generate_pool, seed_airfoils
from .surrogate import (read_dataset, select_samples, train_surrogate,
                        write_dataset)
from .nnet import load_model, save_model


def _build_config(args) -> ExperimentConfig:
    """--profile's config (desk by default) or, with --config, the INI's
    overrides on the profile the INI names unless --profile is given;
    the two may not disagree."""
    base = from_profile(args.profile) if args.profile else None
    if args.config:
        cfg = load_config(args.config, base=base)
    else:
        cfg = base or from_profile("desk")
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _out(args, name: str) -> str:
    out_dir = os.environ.get("AIRFOILRL_OUT", args.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _finish(args, cfg: ExperimentConfig, command: str, artifacts: list[str],
            extra: dict | None = None) -> int:
    manifest = _out(args, f"{command.replace('-', '_')}_manifest.json")
    write_manifest(manifest, cfg, command, artifacts, extra)
    return 0


def _env_factory(cfg: ExperimentConfig, surrogate_path: str | None,
                 stats: StepStats | None = None):
    if surrogate_path:
        model = load_model(surrogate_path)
        evaluator = surrogate_evaluator(model)
    else:
        evaluator = proxy_evaluator(cfg.proxy)
    env_cfg = EnvConfig(max_steps=cfg.ppo.max_steps)
    return lambda: DesignEnv(evaluator, env_cfg, stats)


def cmd_generate_pool(args) -> int:
    cfg = _build_config(args)
    n = cfg.pool_size if args.n is None else args.n
    stats = PoolStats()
    pool = generate_pool(n, seed=cfg.seed, config=cfg.proxy, t_max=cfg.t_max, stats=stats)
    out = _out(args, args.out)
    write_dataset(out, pool)
    print(f"wrote {len(pool)} samples to {out}")
    return _finish(args, cfg, "generate-pool", [out], asdict(stats))


def cmd_select_samples(args) -> int:
    cfg = _build_config(args)
    pool = read_dataset(_out(args, args.pool))
    keep = (list(cfg.keep_counts) if args.keep is None
            else [int(k) for k in args.keep.split(",")])
    sets = select_samples(pool, keep)
    artifacts = []
    for count, records in sorted(sets.items(), reverse=True):
        out = _out(args, f"{args.out_prefix}_{count}.csv")
        write_dataset(out, records)
        artifacts.append(out)
        print(f"wrote {count} samples to {out}")
    return _finish(args, cfg, "select-samples", artifacts)


def cmd_train_surrogate(args) -> int:
    cfg = _build_config(args)
    keep = cfg.keep_counts
    train = read_dataset(_out(args, args.train or f"selected_{keep[0]}.csv"))
    test = read_dataset(_out(args, args.test or f"selected_{keep[1]}.csv"))
    model, history = train_surrogate(
        train, test, hidden=list(cfg.surrogate_hidden),
        schedule=cfg.surrogate_schedule, batch_size=cfg.surrogate_batch,
        seed=cfg.seed)
    model_out = _out(args, args.out)
    save_model(model_out, model)
    hist_out = _out(args, args.history)
    _write_rows_csv(hist_out, history)
    if history:
        last = history[-1]
        print(f"final test RSME(cd) = {last['test_cd']:.4f}")
    print(f"wrote {model_out} and {hist_out}")
    return _finish(args, cfg, "train-surrogate", [model_out, hist_out])


def cmd_pretrain(args) -> int:
    cfg = _build_config(args)
    rng = np.random.default_rng(cfg.seed)
    baselines = seed_airfoils(cfg.pretrain_baselines, seed=cfg.seed,
                              t_max=cfg.t_max, config=cfg.proxy)
    stats = StepStats()
    env_factory = _env_factory(cfg, args.surrogate, stats)
    evaluator = env_factory().evaluator
    samples = []
    for foil in baselines:
        samples.extend(pt.greedy_search(foil, evaluator, cfg.greedy_searches,
                                        cfg.greedy_steps, cfg.greedy_candidates,
                                        rng, stats=stats))
    raw_out = _out(args, f"{args.out_prefix}_samples_raw.csv")
    pt.write_samples(raw_out, samples, stage="raw")
    deduped = pt.dedup_states(samples)
    smoothed = pt.smooth_samples(deduped)
    smooth_out = _out(args, f"{args.out_prefix}_samples_smoothed.csv")
    pt.write_samples(smooth_out, smoothed, stage="smoothed")
    agent = rl.make_agent(rng, hidden=cfg.ppo_hidden,
                          std_init=cfg.ppo.std_init)
    losses = pt.imitate_policy(agent, smoothed, schedule=cfg.imitation_schedule)
    critic_history = pt.pretrain_critic(agent, baselines, cfg.ppo, env_factory,
                                        critic_schedule=cfg.critic_schedule,
                                        seed=cfg.seed)
    critic_out = _out(args, f"{args.out_prefix}_critic_history.csv")
    _write_rows_csv(critic_out, critic_history)
    agent_out = _out(args, f"{args.out_prefix}_agent.npz")
    rl.save_agent(agent_out, agent)
    print(f"{len(samples)} raw samples -> {len(deduped)} deduped; "
          f"final imitation loss {losses[-1]:.3g}")
    print(f"wrote {agent_out} and {critic_out}")
    return _finish(args, cfg, "pretrain", [raw_out, smooth_out, critic_out, agent_out],
                   stats.manifest())


def cmd_train_ppo(args) -> int:
    cfg = _build_config(args)
    rng = np.random.default_rng(cfg.seed)
    baselines = seed_airfoils(cfg.ppo_baselines, seed=cfg.seed,
                              t_max=cfg.t_max, config=cfg.proxy)
    stats = StepStats()
    env_factory = _env_factory(cfg, args.surrogate, stats)
    if args.agent:
        agent = rl.load_agent(_out(args, args.agent))
    else:
        agent = rl.make_agent(rng, hidden=cfg.ppo_hidden,
                              std_init=cfg.ppo.std_init)
    history = rl.ppo_train(agent, baselines, cfg.ppo, env_factory,
                           seed=cfg.seed)
    agent_out = _out(args, args.out)
    rl.save_agent(agent_out, agent)
    hist_out = _out(args, args.history)
    _write_rows_csv(hist_out, history)
    print(f"mean cumulative reward: {history[0]['mean_cum_reward']:.3f} -> "
          f"{history[-1]['mean_cum_reward']:.3f} counts")
    print(f"wrote {agent_out} and {hist_out}")
    return _finish(args, cfg, "train-ppo", [agent_out, hist_out], stats.manifest())


def cmd_evaluate(args) -> int:
    cfg = _build_config(args)
    baselines = seed_airfoils(cfg.ppo_baselines, seed=cfg.seed,
                              t_max=cfg.t_max, config=cfg.proxy)
    env_factory = _env_factory(cfg, args.surrogate)
    agent = rl.load_agent(_out(args, args.agent))
    steps: list[dict] = []
    mean, per_airfoil = rl.evaluate_policy(agent, baselines, env_factory, rollout=steps)
    out = _out(args, args.report)
    rows = [{"airfoil": i, "cum_reward": r} for i, r in enumerate(per_airfoil)]
    rows.append({"airfoil": "mean", "cum_reward": mean})
    _write_rows_csv(out, rows)
    rollout_out = _out(args, args.rollout)
    _write_rows_csv(rollout_out, steps)
    print(f"mean cumulative reward {mean:.3f} counts over "
          f"{len(per_airfoil)} airfoils; wrote {out} and {rollout_out}")
    return _finish(args, cfg, "evaluate", [out, rollout_out])


def cmd_modify(args) -> int:
    cfg = _build_config(args)
    foil = read_cst_file(args.airfoil)
    t1, sb, hb = (float(v) for v in args.action.split(","))
    modified = apply_action(foil, BumpAction(t1=t1, s_b=sb, h_b=hb))
    out = _out(args, args.out)
    write_coordinates(out, modified)
    cst_out = _out(args, args.out + ".cst")
    write_cst_file(cst_out, modified)
    print(f"max thickness {max_thickness(modified):.6f}; wrote {out}")
    return _finish(args, cfg, "modify", [out, cst_out])


def cmd_extract_features(args) -> int:
    cfg = _build_config(args)
    dist = read_distribution(args.dist)
    feats = extract_features(dist)
    out = _out(args, args.out)
    _write_rows_csv(out, [{
        "x1": feats.x1, "mw1": feats.mw1, "mwl": feats.mwl,
        "mwa": feats.mwa, "mw_lower": feats.mw_lower, "err": feats.err,
        "no_shock": int(feats.no_shock)}])
    print(f"X1={feats.x1!r} Mw1={feats.mw1!r} MwL={feats.mwl!r} "
          f"MwA={feats.mwa!r} Err={feats.err!r} no_shock={feats.no_shock}")
    return _finish(args, cfg, "extract-features", [out])


def cmd_plot(args) -> int:
    cfg = _build_config(args)
    out = _out(args, args.out)
    plot_history(_out(args, args.history), out, x_col=args.x, y_col=args.y)
    print(f"wrote {out}")
    return _finish(args, cfg, "plot", [out])


def _write_rows_csv(path, rows: list[dict]) -> None:
    fieldnames: list[str] = []
    for row in rows:
        for k in row:
            if k not in fieldnames:
                fieldnames.append(k)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (repr(float(v)) if isinstance(v, float) else v)
                             for k, v in row.items()})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airfoilrl",
        description="Airfoil drag-reduction policy learning pipeline")
    parser.add_argument("--profile", default=None, choices=["desk", "paper"],
                        help="default: the config file's [run] profile, else desk")
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out-dir", default="artifacts")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-pool", help="proxy-evaluate random airfoils")
    p.add_argument("--n", type=int, default=None,
                   help="pool size (default: the config's pool_size)")
    p.add_argument("--out", default="pool.csv")
    p.set_defaults(func=cmd_generate_pool)

    p = sub.add_parser("select-samples", help="thin a pool to spread-out sets")
    p.add_argument("--pool", default="pool.csv")
    p.add_argument("--keep", default=None,
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
    p.add_argument("--action", required=True, help="t1,s_b,h_b")
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
        return args.func(args)
    except Exception as exc:  # surfaced as a message + nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
