"""CLI integration tests on small desk-scale workloads."""
import json
import os

import numpy as np
import pytest

from airfoilrl.cli import main
from airfoilrl.geometry import make_airfoil, read_coordinates, write_cst_file
from airfoilrl.features import write_distribution
from airfoilrl.proxy import BASE_LOWER, BASE_UPPER, T_MAX_DEFAULT
from conftest import synthetic_distribution


def run(tmp_path, *argv):
    return main(["--out-dir", str(tmp_path), *argv])


def test_generate_pool_and_manifest(tmp_path):
    assert run(tmp_path, "generate-pool", "--n", "20") == 0
    pool = tmp_path / "pool.csv"
    assert pool.exists()
    assert len(pool.read_text().splitlines()) == 21
    manifest = json.loads((tmp_path / "generate_pool_manifest.json").read_text())
    assert manifest["command"] == "generate-pool"
    assert str(pool) in manifest["artifacts"]


def test_generate_pool_deterministic(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    for d in (a_dir, b_dir):
        assert run(d, "--seed", "3", "generate-pool", "--n", "15") == 0
    assert (a_dir / "pool.csv").read_bytes() == (b_dir / "pool.csv").read_bytes()


def test_select_samples_pipeline(tmp_path):
    assert run(tmp_path, "generate-pool", "--n", "60") == 0
    assert run(tmp_path, "select-samples", "--keep", "30,10") == 0
    assert (tmp_path / "selected_30.csv").exists()
    assert (tmp_path / "selected_10.csv").exists()
    n30 = len((tmp_path / "selected_30.csv").read_text().splitlines())
    assert n30 == 31


def test_modify_command(tmp_path):
    foil = make_airfoil(BASE_UPPER, BASE_LOWER, T_MAX_DEFAULT)
    cst_path = tmp_path / "base.cst"
    write_cst_file(cst_path, foil)
    assert run(tmp_path, "modify", "--airfoil", str(cst_path),
               "--action", "0.3,0.4,0.02") == 0
    x, y = read_coordinates(tmp_path / "modified.dat")
    assert x.size > 100
    assert (tmp_path / "modified.dat.cst").exists()


def test_modify_rejects_bad_action(tmp_path, capsys):
    foil = make_airfoil(BASE_UPPER, BASE_LOWER, T_MAX_DEFAULT)
    cst_path = tmp_path / "base.cst"
    write_cst_file(cst_path, foil)
    code = run(tmp_path, "modify", "--airfoil", str(cst_path),
               "--action", "0.5,0.3,0.09")
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_extract_features_command(tmp_path):
    dist = synthetic_distribution(0.55, 1.15, 1.2, 1.0)
    dist_path = tmp_path / "dist.txt"
    write_distribution(dist_path, dist)
    assert run(tmp_path, "extract-features", "--dist", str(dist_path)) == 0
    rows = (tmp_path / "features.csv").read_text().splitlines()
    header = rows[0].split(",")
    values = dict(zip(header, rows[1].split(",")))
    assert abs(float(values["mw1"]) - 1.15) < 1e-3
    assert values["no_shock"] == "0"


def test_plot_command_deterministic(tmp_path):
    hist = tmp_path / "ppo_history.csv"
    hist.write_text("iteration,mean_cum_reward\n0,-1.0\n1,0.5\n2,1.25\n")
    assert run(tmp_path, "plot") == 0
    first = (tmp_path / "history.svg").read_bytes()
    assert run(tmp_path, "plot") == 0
    assert (tmp_path / "history.svg").read_bytes() == first


def test_out_dir_env_override(tmp_path, monkeypatch):
    target = tmp_path / "env_dir"
    monkeypatch.setenv("AIRFOILRL_OUT", str(target))
    assert main(["--out-dir", str(tmp_path / "ignored"),
                 "generate-pool", "--n", "5"]) == 0
    assert (target / "pool.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_missing_input_is_reported(tmp_path, capsys):
    code = run(tmp_path, "select-samples", "--pool", "missing.csv")
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_config_file_round_trip(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nseed = 11\n")
    assert main(["--out-dir", str(tmp_path), "--config", str(ini),
                 "generate-pool", "--n", "5"]) == 0
    manifest = json.loads((tmp_path / "generate_pool_manifest.json").read_text())
    assert manifest["seed"] == 11


@pytest.mark.slow
def test_surrogate_training_command(tmp_path):
    assert run(tmp_path, "generate-pool", "--n", "120") == 0
    assert run(tmp_path, "select-samples", "--keep", "80,20") == 0
    ini = tmp_path / "small.ini"
    ini.write_text("[surrogate]\nhidden = 32,32\nschedule = 30:0.01,30:0.001\n"
                   "batch_size = 32\n")
    assert main(["--out-dir", str(tmp_path), "--config", str(ini),
                 "train-surrogate", "--train", "selected_80.csv",
                 "--test", "selected_20.csv"]) == 0
    assert (tmp_path / "surrogate.npz").exists()
    hist = (tmp_path / "surrogate_history.csv").read_text().splitlines()
    assert hist[0].startswith("minibatch")


@pytest.mark.slow
def test_ppo_training_command_smoke(tmp_path):
    ini = tmp_path / "tiny.ini"
    ini.write_text("[ppo]\nhidden = 8,8\nbaselines = 2\nepochs = 2\n"
                   "trajectories_per_baseline = 2\nmax_steps = 2\n"
                   "actor_schedule = 2:0.001\n")
    assert main(["--out-dir", str(tmp_path), "--config", str(ini),
                 "train-ppo"]) == 0
    assert (tmp_path / "trained_agent.npz").exists()
    hist = (tmp_path / "ppo_history.csv").read_text().splitlines()
    assert len(hist) == 4  # header + initial eval + 2 iterations
    assert run(tmp_path, "--config", str(ini), "evaluate",
               "--agent", "trained_agent.npz") == 0
    assert (tmp_path / "evaluation.csv").exists()


def test_surrogate_sizes_default_to_config(tmp_path):
    ini = tmp_path / "sizes.ini"
    ini.write_text("[surrogate]\npool_size = 40\nkeep_counts = 20,5\n"
                   "hidden = 8\nschedule = 2:0.01\n")
    for command in ("generate-pool", "select-samples", "train-surrogate"):
        assert main(["--out-dir", str(tmp_path), "--config", str(ini), command]) == 0
    assert len((tmp_path / "pool.csv").read_text().splitlines()) == 41
    assert len((tmp_path / "selected_20.csv").read_text().splitlines()) == 21
    assert len((tmp_path / "selected_5.csv").read_text().splitlines()) == 6
    assert (tmp_path / "surrogate.npz").exists()
