"""Experiment configuration: desk and paper profiles, INI overrides.

The config file is INI with the sections and keys of _KEYS, each value
read by the parser named there; a section or key the loader does not
know is an error.  The counts of ``actor_schedule`` and
``critic_schedule`` are PPO iterations, each one ``collect_batch`` and
then ``epochs`` gradient epochs on that batch; those of the surrogate and
imitation schedules are training epochs.
"""
from __future__ import annotations

import configparser
import hashlib
import json
import math
import os
import platform
import zipfile
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .env import MAX_STEPS
from .pretrain import IMITATION_SCHEDULE
from .proxy import M_INF_DEFAULT, T_MAX_DEFAULT
from .rl import PpoConfig
from .surrogate import DESK_BATCH, DESK_HIDDEN, DESK_SCHEDULE


def parse_positive(text: str) -> float:
    """A finite float greater than 0: a schedule's rate."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{text.strip()} is not finite and greater than 0")
    return value


def parse_unit(text: str) -> float:
    """A float in (0, 1): t_max (a fraction of the chord) or m_inf."""
    value = float(text)
    if not 0.0 < value < 1.0:
        raise ValueError(f"{text.strip()} is not in (0, 1)")
    return value


def parse_schedule(text: str) -> list[tuple[int, float]]:
    """Comma-separated ``count:rate`` pairs, e.g. ``200:0.01,200:0.001``;
    a count is at least 0 and a rate as parse_positive."""
    out = []
    for part in text.split(","):
        count, sep, rate = part.strip().partition(":")
        if not sep:
            raise ValueError(f"{part.strip()!r} is not a count:rate pair")
        if int(count) < 0:
            raise ValueError(f"negative count in {part.strip()!r}")
        out.append((int(count), parse_positive(rate)))
    return out


def parse_seed(text: str) -> int:
    """A random seed: an integer of at least 0."""
    if int(text) < 0:
        raise ValueError(f"seed {int(text)} is negative")
    return int(text)


def parse_count(text: str) -> int:
    """An integer of at least 1: a size, a batch or an iteration count."""
    if int(text) < 1:
        raise ValueError(f"count {int(text)} is not at least 1")
    return int(text)


def parse_counts(text: str) -> tuple:
    """Comma-separated parse_count values: layer sizes or keep counts."""
    return tuple(parse_count(v) for v in text.split(","))


@dataclass
class ExperimentConfig:
    profile: str = "desk"
    seed: int = 0
    t_max: float = T_MAX_DEFAULT
    m_inf: float = M_INF_DEFAULT  # the proxy's free-stream Mach number

    surrogate_hidden: tuple = tuple(DESK_HIDDEN)
    surrogate_schedule: list = field(default_factory=lambda: list(DESK_SCHEDULE))
    surrogate_batch: int = DESK_BATCH
    pool_size: int = 3000
    keep_counts: tuple = (2000, 200)

    pretrain_baselines: int = 10
    greedy_searches: int = 2
    greedy_steps: int = 5
    greedy_candidates: int = 30
    imitation_schedule: list = field(default_factory=lambda: list(IMITATION_SCHEDULE))
    # (PPO iterations, critic learning rate) segments of the critic fit
    critic_schedule: list = field(default_factory=lambda: [(15, 0.01), (15, 0.001)])

    ppo_hidden: tuple = (64, 64)
    ppo_baselines: int = 10
    max_steps: int = MAX_STEPS  # episode length of the command's DesignEnv
    ppo: PpoConfig = field(default_factory=PpoConfig)


def paper_config() -> ExperimentConfig:
    """Published-scale settings (hours of runtime; not used by tests)."""
    cfg = ExperimentConfig(profile="paper")
    cfg.surrogate_hidden = (1024, 1024, 1024)
    cfg.surrogate_schedule = [(200, 0.01), (200, 0.001), (400, 1e-4), (400, 1e-5)]
    cfg.pool_size = 10000
    cfg.keep_counts = (5000, 200)
    cfg.pretrain_baselines = 200
    cfg.greedy_searches = 4
    cfg.greedy_candidates = 200
    cfg.critic_schedule = [(10000, 0.01), (10000, 0.001)]
    cfg.ppo_hidden = (512, 512)
    cfg.ppo_baselines = 50
    cfg.ppo = PpoConfig(epochs=2000, trajectories_per_baseline=20,
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


# every INI key: section -> key -> (attribute, parser); "ppo.x" names a
# field of the nested PpoConfig
_KEYS = {
    "run": {"profile": ("profile", lambda name: from_profile(name).profile),
            "seed": ("seed", parse_seed), "t_max": ("t_max", parse_unit)},
    "proxy": {"m_inf": ("m_inf", parse_unit)},
    "surrogate": {"hidden": ("surrogate_hidden", parse_counts),
                  "schedule": ("surrogate_schedule", parse_schedule),
                  "batch_size": ("surrogate_batch", parse_count),
                  "pool_size": ("pool_size", parse_count),
                  "keep_counts": ("keep_counts", parse_counts)},
    "pretrain": {"baselines": ("pretrain_baselines", parse_count),
                 "searches": ("greedy_searches", parse_count),
                 "steps": ("greedy_steps", parse_count),
                 "candidates": ("greedy_candidates", parse_count),
                 "imitation_schedule": ("imitation_schedule", parse_schedule),
                 "critic_schedule": ("critic_schedule", parse_schedule)},
    "ppo": {"hidden": ("ppo_hidden", parse_counts),
            "baselines": ("ppo_baselines", parse_count),
            "max_steps": ("max_steps", parse_count),
            **{k: ("ppo." + k, parse) for k, parse in (
                ("epochs", parse_count), ("trajectories_per_baseline", parse_count),
                ("actor_schedule", parse_schedule))}},
}


def load_config(path=None, profile: str | None = None) -> ExperimentConfig:
    """The run's config: the INI file's overrides (when `path` is given) on
    the defaults of `profile`, else of the file's ``[run] profile``, else
    desk.  ValueError for a file naming a profile other than `profile`, a
    section or key not in _KEYS ([DEFAULT] included), or a value its
    parser rejects."""
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


def artifact_digest(path) -> str:
    """sha256 hex digest of an artifact: an .npz by its sorted member
    names and contents, as np.savez stamps zip entries with the wall
    clock; any other file by its bytes."""
    h = hashlib.sha256()
    if str(path).endswith(".npz"):
        with zipfile.ZipFile(path) as zf:
            for name in sorted(zf.namelist()):
                h.update(name.encode())
                h.update(zf.read(name))
    else:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def numeric_environment() -> dict:
    """The Python, numpy and BLAS a run computed with, and the BLAS
    thread settings it ran under (None where unset): a threaded GEMM
    rounds differently, so artifact bytes can depend on each."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def write_manifest(path, cfg: ExperimentConfig, command: str,
                   artifacts: list[str], extra: dict | None = None) -> None:
    """Run manifest: command, config hash, seed, profile, artifacts, each
    artifact's digest (`sha256`; not the manifest's own), the numeric
    environment (`environment`) and the fields of its run record (`extra`)."""
    payload = {"command": command, "config_hash": config_hash(cfg),
               "seed": cfg.seed, "profile": cfg.profile,
               "artifacts": sorted(artifacts),
               "sha256": {a: artifact_digest(a) for a in artifacts},
               "environment": numeric_environment(),
               **(extra or {})}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
