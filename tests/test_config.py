"""Configuration parsing, profiles, hashing, manifests."""
import json
import re

import pytest

from airfoilrl.config import (ExperimentConfig, config_hash, desk_config,
                              from_profile, load_config, paper_config,
                              parse_schedule, write_manifest)
from airfoilrl.pretrain import IMITATION_SCHEDULE
from airfoilrl.rl import PpoConfig
from airfoilrl.surrogate import DESK_BATCH, DESK_HIDDEN, DESK_SCHEDULE


def test_parse_schedule():
    assert parse_schedule("200:0.01,200:0.001") == [(200, 0.01), (200, 0.001)]
    assert parse_schedule("50:1e-4") == [(50, 1e-4)]


def test_unknown_profile_raises():
    with pytest.raises(ValueError):
        from_profile("huge")


def test_paper_profile_exact_sizes():
    cfg = paper_config()
    assert cfg.surrogate_hidden == (1024, 1024, 1024)
    assert cfg.surrogate_batch == 128
    assert cfg.ppo_hidden == (512, 512)
    assert cfg.ppo.clip_eps == 0.1
    assert cfg.ppo.gamma == 0.99
    assert cfg.ppo.gae_lambda == 0.8
    assert cfg.ppo.entropy_coef == 0.001
    assert cfg.ppo.std_init == 0.1
    assert cfg.ppo.max_steps == 5


def test_desk_profile_defaults():
    cfg = from_profile("desk")
    assert cfg.profile == "desk"
    assert cfg.surrogate_hidden == (128, 128, 128)
    assert cfg.keep_counts == (2000, 200)


def test_desk_profile_reads_the_stage_defaults():
    cfg = desk_config()
    assert cfg.surrogate_hidden == tuple(DESK_HIDDEN)
    assert cfg.surrogate_schedule == DESK_SCHEDULE
    assert cfg.surrogate_batch == DESK_BATCH
    assert cfg.imitation_schedule == IMITATION_SCHEDULE
    assert cfg.ppo == PpoConfig()


def test_load_config_overrides(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[run]\nseed = 7\nt_max = 0.09\n"
        "[proxy]\nm_inf = 0.73\n"
        "[surrogate]\nhidden = 64,64\nschedule = 10:0.01\npool_size = 100\n"
        "[pretrain]\nbaselines = 3\ncritic_schedule = 5:0.01\n"
        "[ppo]\nhidden = 32,32\nepochs = 11\nactor_schedule = 4:0.001\n"
        "normalize_advantages = false\n")
    cfg = load_config(path)
    assert cfg.seed == 7
    assert cfg.t_max == 0.09
    assert cfg.proxy.m_inf == 0.73
    assert cfg.surrogate_hidden == (64, 64)
    assert cfg.surrogate_schedule == [(10, 0.01)]
    assert cfg.pool_size == 100
    assert cfg.pretrain_baselines == 3
    assert cfg.critic_schedule == [(5, 0.01)]
    assert cfg.ppo_hidden == (32, 32)
    assert cfg.ppo.epochs == 11
    assert cfg.ppo.actor_schedule == [(4, 0.001)]
    assert cfg.ppo.normalize_advantages is False


def test_load_config_profile_selection(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nprofile = paper\n")
    cfg = load_config(path)
    assert cfg.profile == "paper"
    assert cfg.surrogate_hidden == (1024, 1024, 1024)


def test_config_hash_stable_and_sensitive():
    a = ExperimentConfig()
    b = ExperimentConfig()
    assert config_hash(a) == config_hash(b)
    b.seed = 99
    assert config_hash(a) != config_hash(b)
    assert len(config_hash(a)) == 16


def test_write_manifest(tmp_path):
    cfg = ExperimentConfig(seed=5)
    path = tmp_path / "manifest.json"
    write_manifest(path, cfg, "generate-pool", ["b.csv", "a.csv"])
    payload = json.loads(path.read_text())
    assert payload["command"] == "generate-pool"
    assert payload["seed"] == 5
    assert payload["artifacts"] == ["a.csv", "b.csv"]
    assert payload["config_hash"] == config_hash(cfg)


@pytest.mark.parametrize("text, named", [
    ("[ppo]\nepoch = 10\n", "'epoch' in [ppo]"),
    ("[proxy]\nm_infinity = 0.7\n", "'m_infinity' in [proxy]"),
    ("[run]\nseed = 3\n[training]\nepochs = 5\n", "[training]"),
    ("[DEFAULT]\nseed = 3\n", "[DEFAULT]"),
])
def test_load_config_rejects_unknown_names(tmp_path, text, named):
    path = tmp_path / "typo.ini"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(named)):
        load_config(path)
