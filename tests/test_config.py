"""Configuration parsing, profiles, hashing, manifests."""
import hashlib
import json
import math
import os
import platform
import re
import zipfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from airfoilrl import rl
from airfoilrl.config import (_KEYS, ExperimentConfig, artifact_digest, config_hash,
                              desk_config, from_profile, load_config, paper_config,
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
    assert rl.CLIP_EPS == 0.1
    assert rl.GAMMA == 0.99
    assert rl.GAE_LAMBDA == 0.8
    assert rl.ENTROPY_COEF == 0.001
    assert rl.STD_INIT == 0.1
    assert cfg.max_steps == 5


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
        "[ppo]\nhidden = 32,32\nepochs = 11\nmax_steps = 3\nactor_schedule = 4:0.001\n")
    cfg = load_config(path)
    assert cfg.seed == 7
    assert cfg.t_max == 0.09
    assert cfg.m_inf == 0.73
    assert cfg.surrogate_hidden == (64, 64)
    assert cfg.surrogate_schedule == [(10, 0.01)]
    assert cfg.pool_size == 100
    assert cfg.pretrain_baselines == 3
    assert cfg.critic_schedule == [(5, 0.01)]
    assert cfg.ppo_hidden == (32, 32)
    assert cfg.ppo.epochs == 11
    assert cfg.ppo.actor_schedule == [(4, 0.001)]
    # the episode length is the environment's, not the PPO update's
    assert cfg.max_steps == 3
    assert [f.name for f in fields(PpoConfig)] == ["epochs", "trajectories_per_baseline",
                                                   "actor_schedule"]


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
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for name, text in ((a, "x\n1\n"), (b, "y\n2\n")):
        with open(name, "w") as fh:
            fh.write(text)
    write_manifest(path, cfg, "generate-pool", [b, a])
    payload = json.loads(path.read_text())
    assert payload["command"] == "generate-pool"
    assert payload["seed"] == 5
    assert payload["artifacts"] == [a, b]
    assert payload["config_hash"] == config_hash(cfg)
    assert payload["sha256"] == {a: hashlib.sha256(b"x\n1\n").hexdigest(),
                                 b: hashlib.sha256(b"y\n2\n").hexdigest()}
    # the numeric environment the artifact bytes depend on
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert payload["environment"] == {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}


def test_write_manifest_records_the_blas_thread_settings(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    path = tmp_path / "manifest.json"
    write_manifest(path, ExperimentConfig(), "plot", [])
    env = json.loads(path.read_text())["environment"]
    assert (env["OPENBLAS_NUM_THREADS"], env["OMP_NUM_THREADS"]) == ("2", None)


def test_artifact_digest_of_an_npz_ignores_the_zip_timestamps(tmp_path):
    paths = [tmp_path / "early.npz", tmp_path / "late.npz"]
    for path, stamp in zip(paths, [(2020, 1, 1, 0, 0, 0), (2024, 6, 1, 12, 30, 0)]):
        with zipfile.ZipFile(path, "w") as zf:
            for name, data in (("w.npy", b"\x01\x02"), ("b.npy", b"\x03")):
                zf.writestr(zipfile.ZipInfo(name, date_time=stamp), data)
    assert paths[0].read_bytes() != paths[1].read_bytes()
    assert artifact_digest(paths[0]) == artifact_digest(paths[1])
    with zipfile.ZipFile(paths[1], "a") as zf:
        zf.writestr("extra.npy", b"")
    assert artifact_digest(paths[0]) != artifact_digest(paths[1])


@pytest.mark.parametrize("text, named", [
    ("[ppo]\nepoch = 10\n", "'epoch' in [ppo]"),
    ("[proxy]\nm_infinity = 0.7\n", "'m_infinity' in [proxy]"),
    ("[proxy]\nk_wave = 1.2\n", "'k_wave' in [proxy]"),
    # the PPO update's constants live in rl.py
    *[(f"[ppo]\n{key} = 0.5\n", f"unknown config key {key!r} in [ppo]")
      for key in ("clip_eps", "gamma", "gae_lambda", "entropy_coef", "std_init",
                  "normalize_advantages")],
    ("[run]\nseed = 3\n[training]\nepochs = 5\n", "[training]"),
    ("[DEFAULT]\nseed = 3\n", "[DEFAULT]"),
])
def test_load_config_rejects_unknown_names(tmp_path, text, named):
    path = tmp_path / "typo.ini"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(named)):
        load_config(path)


# the count keys beside pool_size, keep_counts and hidden; 0 once loaded
# silently (epochs) or failed later without naming the key (batch_size)
COUNT_KEYS = [("surrogate", "batch_size"), ("pretrain", "baselines"),
              ("pretrain", "searches"), ("pretrain", "steps"), ("pretrain", "candidates"),
              ("ppo", "baselines"), ("ppo", "epochs"),
              ("ppo", "trajectories_per_baseline"), ("ppo", "max_steps")]


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
    *[(f"[{section}]\n{key} = 0\n", f"[{section}] {key} = 0: count 0 is not at least 1")
      for section, key in COUNT_KEYS],
    ("[ppo]\nactor_schedule = 2:-1\n",
     "[ppo] actor_schedule = 2:-1: -1 is not finite and greater than 0"),
    ("[ppo]\nactor_schedule = 2:nan\n",
     "[ppo] actor_schedule = 2:nan: nan is not finite and greater than 0"),
    ("[surrogate]\nschedule = 5:0.01,5:0\n",
     "[surrogate] schedule = 5:0.01,5:0: 0 is not finite and greater than 0"),
    ("[pretrain]\ncritic_schedule = 2:inf\n",
     "[pretrain] critic_schedule = 2:inf: inf is not finite and greater than 0"),
    ("[run]\nseed = -1\n", "[run] seed = -1: seed -1 is negative"),
    # each once loaded: nan outputs, no airfoil built
    ("[proxy]\nm_inf = nan\n", "[proxy] m_inf = nan: nan is not in (0, 1)"),
    ("[run]\nt_max = nan\n", "[run] t_max = nan: nan is not in (0, 1)"),
], ids=["no rate", "negative count", "empty int", "int", "float", "keep count",
        "pool size", "layer width", "profile",
        *[f"{section}.{key}" for section, key in COUNT_KEYS],
        "negative rate", "nan rate", "zero rate", "infinite rate", "seed", "m_inf", "t_max"])
def test_load_config_names_a_bad_value(tmp_path, text, named):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {named}")):
        load_config(path)


def _rates(schedule):
    return all(count >= 0 and math.isfinite(rate) and rate > 0 for count, rate in schedule)


# the domain of each key that has one; any other key takes what its parser reads
DOMAINS = {
    **{key: lambda v: v >= 1 for key in [*COUNT_KEYS, ("surrogate", "pool_size")]},
    **{key: lambda v: min(v) >= 1 for key in [("surrogate", "hidden"),
                                              ("surrogate", "keep_counts"), ("ppo", "hidden")]},
    **{key: _rates for key in [("surrogate", "schedule"), ("pretrain", "imitation_schedule"),
                               ("pretrain", "critic_schedule"), ("ppo", "actor_schedule")]},
    ("run", "seed"): lambda v: v >= 0,
    **{key: lambda v: 0 < v < 1 for key in [("run", "t_max"), ("proxy", "m_inf")]},
}
EDGES = ["0", "-1", "nan", "inf", "1e308", "", "text"]


@given(key=st.sampled_from(sorted((s, k) for s in _KEYS for k in _KEYS[s])),
       text=st.sampled_from([*EDGES, *(f"2:{e}" for e in EDGES), *(f"{e}:0.01" for e in EDGES)]))
@settings(max_examples=300, deadline=None)
def test_a_value_is_in_its_domain_or_named(tmp_path_factory, key, text):
    section, name = key
    path = tmp_path_factory.mktemp("edge") / "edge.ini"
    path.write_text(f"[{section}]\n{name} = {text}\n")
    try:
        cfg = load_config(path)
    except ValueError as exc:
        assert f"{path}: [{section}] {name} = {text}" in str(exc)
        return
    owner, _, attr = _KEYS[section][name][0].rpartition(".")
    value = getattr(getattr(cfg, owner) if owner else cfg, attr)
    assert DOMAINS.get(key, lambda v: True)(value), (key, text, value)


def test_load_config_profile_rule(tmp_path):
    # the INI's [run] profile, else desk; --profile may only agree
    assert load_config() == desk_config()
    assert load_config(profile="paper") == paper_config()
    path = tmp_path / "run.ini"
    path.write_text("[run]\nprofile = paper\n")
    assert load_config(path) == load_config(path, "paper") == paper_config()
    with pytest.raises(ValueError, match="contradicts the desk profile"):
        load_config(path, "desk")


def test_the_readme_ini_example_loads(tmp_path):
    # the docs list only keys the loader takes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = re.findall(r"```ini\n(.*?)```", readme, re.DOTALL)
    assert examples
    for i, text in enumerate(examples):
        path = tmp_path / f"readme_{i}.ini"
        path.write_text(text)
        cfg = load_config(path)
        assert cfg.seed == 7 and cfg.ppo.actor_schedule == [(50, 0.001)]
