"""Configuration parsing, profiles, hashing, manifests."""
import json
import re

import pytest

from airfoilrl.config import (ExperimentConfig, config_hash, desk_config,
                              from_profile, load_config, paper_config,
                              parse_counts, parse_schedule, write_manifest)
from airfoilrl.pretrain import IMITATION_SCHEDULE
from airfoilrl.rl import PpoConfig
from airfoilrl.surrogate import DESK_BATCH, DESK_HIDDEN, DESK_SCHEDULE


def test_parse_schedule():
    assert parse_schedule("200:0.01,200:0.001") == [(200, 0.01), (200, 0.001)]
    assert parse_schedule("50:1e-4") == [(50, 1e-4)]


def test_parse_schedule_counts_may_be_zero_not_negative():
    assert parse_schedule("0:0.001") == [(0, 0.001)]
    with pytest.raises(ValueError, match="negative count"):
        parse_schedule("10:0.01,-3:0.001")


def test_parse_counts_takes_integers_of_at_least_one():
    assert parse_counts("2000,200") == (2000, 200)
    assert parse_counts(" 64 , 1") == (64, 1)
    for text, reason in (("10,-5", "count -5 is not at least 1"),
                         ("0", "count 0 is not at least 1"),
                         ("10,,5", "invalid literal"), ("8.5", "invalid literal")):
        with pytest.raises(ValueError, match=reason):
            parse_counts(text)


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


@pytest.mark.parametrize("text, named", [
    ("[ppo]\nactor_schedule = 10\n", "[ppo] actor_schedule = 10: '10' is not a count:rate pair"),
    ("[ppo]\nactor_schedule = -3:0.001\n", "[ppo] actor_schedule = -3:0.001: negative count"),
    ("[ppo]\nhidden = 64,,64\n", "[ppo] hidden = 64,,64: invalid literal"),
    ("[pretrain]\nbaselines = ten\n", "[pretrain] baselines = ten"),
    ("[proxy]\nm_inf = fast\n", "[proxy] m_inf = fast"),
    ("[surrogate]\nkeep_counts = 10,-5\n",
     "[surrogate] keep_counts = 10,-5: count -5 is not at least 1"),
    ("[surrogate]\npool_size = 0\n", "[surrogate] pool_size = 0: count 0 is not at least 1"),
    ("[surrogate]\nhidden = 32,0\n", "[surrogate] hidden = 32,0: count 0 is not at least 1"),
    ("[run]\nprofile = huge\n", "[run] profile = huge: unknown profile 'huge'"),
], ids=["no rate", "negative count", "empty int", "int", "float", "keep count",
        "pool size", "layer width", "profile"])
def test_load_config_names_a_bad_value(tmp_path, text, named):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {named}")):
        load_config(path)


def test_load_config_profile_rule(tmp_path):
    # the INI's [run] profile, else desk; --profile may only agree
    assert load_config() == desk_config()
    assert load_config(profile="paper") == paper_config()
    path = tmp_path / "run.ini"
    path.write_text("[run]\nprofile = paper\n")
    assert load_config(path) == load_config(path, "paper") == paper_config()
    with pytest.raises(ValueError, match="contradicts the desk profile"):
        load_config(path, "desk")
