"""Experiment configuration: desk and paper profiles, INI overrides.

The config file is standard INI (configparser) with sections [run],
[proxy], [surrogate], [pretrain], and [ppo].  Learning-rate schedules
are written as comma-separated ``count:rate`` pairs, e.g.
``200:0.01,200:0.001``; pool, sample set and layer sizes as
comma-separated integers of at least 1.  The counts of
``actor_schedule`` and ``critic_schedule`` are PPO iterations, each
one ``collect_batch`` and then ``epochs`` gradient epochs on that
batch; those of the surrogate and imitation schedules are training epochs.
A section or key the loader does not know is an error, not ignored.
"""
from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace

from .pretrain import IMITATION_SCHEDULE
from .proxy import T_MAX_DEFAULT, ProxyConfig
from .rl import PpoConfig
from .surrogate import DESK_BATCH, DESK_HIDDEN, DESK_SCHEDULE


def parse_schedule(text: str) -> list[tuple[int, float]]:
    """Comma-separated ``count:rate`` pairs; a count may be zero, not
    negative."""
    out = []
    for part in text.split(","):
        count, sep, rate = part.strip().partition(":")
        if not sep:
            raise ValueError(f"{part.strip()!r} is not a count:rate pair")
        if int(count) < 0:
            raise ValueError(f"negative count in {part.strip()!r}")
        out.append((int(count), float(rate)))
    return out


def parse_count(text: str) -> int:
    """An integer of at least 1: a pool, sample set or layer size."""
    if int(text) < 1:
        raise ValueError(f"count {int(text)} is not at least 1")
    return int(text)


def parse_counts(text: str) -> tuple:
    return tuple(parse_count(v) for v in text.split(","))


@dataclass
class ExperimentConfig:
    profile: str = "desk"
    seed: int = 0
    t_max: float = T_MAX_DEFAULT

    proxy: ProxyConfig = field(default_factory=ProxyConfig)

    # surrogate stage
    surrogate_hidden: tuple = tuple(DESK_HIDDEN)
    surrogate_schedule: list = field(default_factory=lambda: list(DESK_SCHEDULE))
    surrogate_batch: int = DESK_BATCH
    pool_size: int = 3000
    keep_counts: tuple = (2000, 200)

    # pretraining stage
    pretrain_baselines: int = 10
    greedy_searches: int = 2
    greedy_steps: int = 5
    greedy_candidates: int = 30
    imitation_schedule: list = field(default_factory=lambda: list(IMITATION_SCHEDULE))
    # (PPO iterations, critic learning rate) segments of the critic fit
    critic_schedule: list = field(default_factory=lambda: [(15, 0.01), (15, 0.001)])

    # PPO stage
    ppo_hidden: tuple = (64, 64)
    ppo_baselines: int = 10
    ppo: PpoConfig = field(default_factory=PpoConfig)


def paper_config() -> ExperimentConfig:
    """Published-scale settings (hours of runtime; not used by tests)."""
    cfg = ExperimentConfig(profile="paper")
    cfg.surrogate_hidden = (1024, 1024, 1024)
    cfg.surrogate_schedule = [(200, 0.01), (200, 0.001), (400, 1e-4), (400, 1e-5)]
    cfg.surrogate_batch = 128
    cfg.pool_size = 10000
    cfg.keep_counts = (5000, 200)
    cfg.pretrain_baselines = 200
    cfg.greedy_searches = 4
    cfg.greedy_steps = 5
    cfg.greedy_candidates = 200
    cfg.critic_schedule = [(10000, 0.01), (10000, 0.001)]
    cfg.ppo_hidden = (512, 512)
    cfg.ppo_baselines = 50
    cfg.ppo = PpoConfig(epochs=2000, trajectories_per_baseline=20, max_steps=5,
                        actor_schedule=[(200, 1e-6), (100, 1e-7), (100, 1e-8)])
    return cfg


def desk_config() -> ExperimentConfig:
    return ExperimentConfig(profile="desk")


def from_profile(name: str) -> ExperimentConfig:
    if name == "paper":
        return paper_config()
    if name == "desk":
        return desk_config()
    raise ValueError(f"unknown profile {name!r}")


def _boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


# every INI key: section -> key -> (attribute, parser); "ppo.x" and
# "proxy.x" name fields of the nested PpoConfig and ProxyConfig
_KEYS = {
    "run": {"profile": ("profile", lambda name: from_profile(name).profile),
            "seed": ("seed", int), "t_max": ("t_max", float)},
    "proxy": {f.name: ("proxy." + f.name, type(f.default)) for f in fields(ProxyConfig)},
    "surrogate": {"hidden": ("surrogate_hidden", parse_counts),
                  "schedule": ("surrogate_schedule", parse_schedule),
                  "batch_size": ("surrogate_batch", int),
                  "pool_size": ("pool_size", parse_count),
                  "keep_counts": ("keep_counts", parse_counts)},
    "pretrain": {"baselines": ("pretrain_baselines", int),
                 "searches": ("greedy_searches", int),
                 "steps": ("greedy_steps", int),
                 "candidates": ("greedy_candidates", int),
                 "imitation_schedule": ("imitation_schedule", parse_schedule),
                 "critic_schedule": ("critic_schedule", parse_schedule)},
    "ppo": {"hidden": ("ppo_hidden", parse_counts),
            "baselines": ("ppo_baselines", int),
            **{k: ("ppo." + k, parse) for k, parse in (
                ("clip_eps", float), ("gamma", float), ("gae_lambda", float),
                ("entropy_coef", float), ("epochs", int),
                ("trajectories_per_baseline", int), ("max_steps", int),
                ("std_init", float), ("normalize_advantages", _boolean),
                ("actor_schedule", parse_schedule))}},
}


def load_config(path=None, profile: str | None = None) -> ExperimentConfig:
    """The run's config: the INI file's overrides (when `path` is given)
    on a profile's defaults.

    The profile is `profile` when given, else the one the file's
    ``[run] profile`` names, else desk.  A file naming a profile other
    than `profile` raises ValueError, as do a section or key not in
    _KEYS (a [DEFAULT] section included) and a value its parser rejects.
    """
    parser = configparser.ConfigParser()
    if path is not None:
        with open(path) as fh:
            parser.read_file(fh)
    if parser.defaults():
        raise ValueError(f"{path}: unknown config section [{parser.default_section}]")
    named = parser.get("run", "profile", fallback=None)
    if profile is not None and named is not None and named != profile:
        raise ValueError(f"{path}: [run] profile = {named} contradicts "
                         f"the {profile} profile it is applied to")
    values = []  # (attribute, value) of every key, all parsed before any applies
    for section in parser.sections():
        if section not in _KEYS:
            raise ValueError(f"{path}: unknown config section [{section}]")
        for key, text in parser[section].items():
            if key not in _KEYS[section]:
                raise ValueError(f"{path}: unknown config key {key!r} in [{section}]")
            attr, parse = _KEYS[section][key]
            try:
                values.append((attr, parse(text)))
            except ValueError as exc:
                raise ValueError(f"{path}: [{section}] {key} = {text}: {exc}") from None
    cfg = from_profile(profile or named or "desk")
    for attr, value in values:
        owner, _, name = attr.rpartition(".")
        if owner:
            setattr(cfg, owner, replace(getattr(cfg, owner), **{name: value}))
        else:
            setattr(cfg, name, value)
    return cfg


def config_hash(cfg: ExperimentConfig) -> str:
    """Stable hash of the full configuration."""
    blob = json.dumps(asdict(cfg), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def write_manifest(path, cfg: ExperimentConfig, command: str,
                   artifacts: list[str], extra: dict | None = None) -> None:
    """Run manifest: command, config hash, seed, profile, artifacts, and
    the command's own fields (`extra`)."""
    payload = {"command": command, "config_hash": config_hash(cfg),
               "seed": cfg.seed, "profile": cfg.profile,
               "artifacts": sorted(artifacts), **(extra or {})}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
