"""CLI integration tests on small desk-scale workloads."""
import csv
import hashlib
import json
import os
from collections import Counter
from xml.etree import ElementTree

import numpy as np
import pytest

from airfoilrl import pretrain as pt
from airfoilrl.cli import _build_config, _env, build_parser, main
from airfoilrl.config import config_hash
from airfoilrl.env import ROLLOUT_COLUMNS
from airfoilrl.geometry import read_coordinates, write_cst_file
from airfoilrl.features import write_distribution
from airfoilrl.nnet import Scaler, make_mlp, save_model
from airfoilrl.proxy import BASE_CST, T_MAX_DEFAULT
from airfoilrl.rl import PolicyAgent, make_agent, save_agent
from airfoilrl.tables import CSV_COLUMNS, OUTPUT_NAMES
from conftest import built_airfoil, synthetic_distribution


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


def test_generate_pool_manifest_counts_draws_and_proxy_blocks(tmp_path):
    assert run(tmp_path, "--seed", "1", "generate-pool", "--n", "70") == 0
    manifest = json.loads((tmp_path / "generate_pool_manifest.json").read_text())
    # seed 1 draws two geometries that fail to build; 70 rows go to the
    # proxy in blocks of at most 32
    assert {k: manifest[k] for k in ("pool_draws", "build_failures", "proxy_rows",
                                     "proxy_blocks")} \
        == {"pool_draws": 72, "build_failures": 2, "proxy_rows": 70, "proxy_blocks": 3}
    with open(tmp_path / "pool.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == CSV_COLUMNS + ["in_bounds"]


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


def test_pool_size_and_keep_flags_enter_the_config_hash(tmp_path):
    hashes = {}
    for name, argv in (("n20", ["generate-pool", "--n", "20"]),
                       ("n40", ["generate-pool", "--n", "40"]),
                       ("keep", ["select-samples", "--pool", "../n40/pool.csv",
                                 "--keep", "20,5"])):
        assert run(tmp_path / name, *argv) == 0
        manifest = tmp_path / name / f"{argv[0].replace('-', '_')}_manifest.json"
        hashes[name] = json.loads(manifest.read_text())["config_hash"]
    assert hashes["n20"] != hashes["n40"]
    # a flag and the INI key it overrides are one setting
    ini = tmp_path / "sizes.ini"
    for name, key in (("n40", "pool_size = 40"), ("keep", "keep_counts = 20,5")):
        ini.write_text(f"[surrogate]\n{key}\n")
        cfg = _build_config(build_parser().parse_args(["--config", str(ini), "plot"]))
        assert config_hash(cfg) == hashes[name]


@pytest.mark.parametrize("argv, named", [
    (["select-samples", "--keep", "10,-5"], "argument --keep"),
    (["select-samples", "--keep", "10,,5"], "argument --keep"),
    (["select-samples", "--keep", "0"], "argument --keep"),
    (["generate-pool", "--n", "-3"], "argument --n"),
    (["generate-pool", "--n", "0"], "argument --n"),
])
def test_a_count_flag_below_one_is_rejected(tmp_path, capsys, argv, named):
    # --keep 10,-5 once wrote selected_-5.csv, and --n -3 an empty pool;
    # the message gives the parser's reason, not "invalid parse_counts value"
    assert run(tmp_path, "generate-pool", "--n", "30") == 0
    capsys.readouterr()
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    reason = "invalid literal for int()" if ",," in argv[-1] else "is not at least 1"
    assert f"{named}: " in err and argv[-1] in err and reason in err
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["generate_pool_manifest.json", "pool.csv"]


def test_a_negative_seed_flag_is_rejected(tmp_path, capsys):
    # numpy's default_rng once rejected it with "expected non-negative integer"
    assert run(tmp_path, "--seed", "-1", "generate-pool", "--n", "5") == 2
    err = capsys.readouterr().err
    assert "argument --seed: '-1': seed -1 is negative" in err
    assert not tmp_path.exists() or not any(tmp_path.iterdir())


def test_modify_command(tmp_path):
    foil = built_airfoil(BASE_CST, T_MAX_DEFAULT)
    cst_path = tmp_path / "base.cst"
    write_cst_file(cst_path, foil, T_MAX_DEFAULT)
    assert run(tmp_path, "modify", "--airfoil", str(cst_path),
               "--action", "0.3,0.4,0.02") == 0
    x, y = read_coordinates(tmp_path / "modified.dat")
    assert x.size > 100
    assert (tmp_path / "modified.dat.cst").exists()


def test_modify_rejects_bad_action(tmp_path, capsys):
    cst_path = tmp_path / "base.cst"
    write_cst_file(cst_path, built_airfoil(BASE_CST, T_MAX_DEFAULT), T_MAX_DEFAULT)
    for action, message in (("1.5,0.3,0.01", "t1 must be in (0, 1)"),
                            ("0.5,-0.1,0.01", "s_b must be positive"),
                            ("0.5,0.3,0.09", "cannot bracket thickness scale factor")):
        code = run(tmp_path, "modify", "--airfoil", str(cst_path), "--action", action)
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["base.cst"]


@pytest.mark.parametrize("action", ["0.3,0.4", "0.3,x,0.02", "0.3,0.4,0.02,1"])
def test_modify_names_a_malformed_action(tmp_path, capsys, action):
    code = run(tmp_path, "modify", "--airfoil", "base.cst", "--action", action)
    assert code == 2
    assert f"argument --action: expected three numbers t1,s_b,h_b, got {action!r}" \
        in capsys.readouterr().err


@pytest.mark.parametrize("action", ["0.5,nan,0.01", "0.5,inf,0.01", "0.5,0.3,inf",
                                    "0.5,0.3,-inf"])
def test_modify_rejects_a_non_finite_action(tmp_path, capsys, action):
    code = run(tmp_path, "modify", "--airfoil", "base.cst", "--action", action)
    assert code == 2
    assert f"argument --action: expected finite t1,s_b,h_b, got {action!r}" \
        in capsys.readouterr().err
    assert not (tmp_path / "modified.dat").exists()


def test_config_error_names_its_source(tmp_path, capsys):
    # a negative schedule count once ran zero iterations and exited 0
    ini = tmp_path / "bad.ini"
    ini.write_text("[ppo]\nactor_schedule = -3:0.001\n")
    assert main(["--out-dir", str(tmp_path), "--config", str(ini),
                 "generate-pool", "--n", "5"]) == 1
    assert f"{ini}: [ppo] actor_schedule = -3:0.001" in capsys.readouterr().err


def test_proxy_m_inf_moves_the_pool(tmp_path):
    ini = tmp_path / "mach.ini"
    ini.write_text("[proxy]\nm_inf = 0.74\n")
    for name, config in (("default", []), ("mach", ["--config", str(ini)])):
        assert run(tmp_path / name, *config, "generate-pool", "--n", "15") == 0
    assert (tmp_path / "default" / "pool.csv").read_bytes() \
        != (tmp_path / "mach" / "pool.csv").read_bytes()


@pytest.mark.parametrize("t_max", ["0.5", "0.01"])
@pytest.mark.parametrize("argv, gave_up", [
    pytest.param(["generate-pool", "--n", "5"],
                 "pool generator produced 0/5 valid airfoils: none of 100", id="pool"),
    pytest.param(["train-ppo"],
                 "seed generator produced 0/10 valid airfoils: none of 20000", id="seeds"),
])
def test_an_unreachable_t_max_is_named(tmp_path, capsys, t_max, argv, gave_up):
    ini = tmp_path / "thick.ini"
    ini.write_text(f"[run]\nt_max = {t_max}\n")
    assert run(tmp_path, "--config", str(ini), *argv) == 1
    assert f"{gave_up} draws builds an airfoil at t_max = {t_max}\n" in capsys.readouterr().err


def test_t_max_reaches_the_env_and_greedy_search(tmp_path, monkeypatch):
    ini = tmp_path / "thin.ini"
    ini.write_text("[run]\nt_max = 0.09\n[ppo]\nmax_steps = 3\n")
    args = build_parser().parse_args(["--config", str(ini), "pretrain"])
    env = _env(args, _build_config(args), Counter())
    assert (env.t_max, env.max_steps) == (0.09, 3)
    seen = []

    def stop(baseline, env, *args):
        seen.append((env.t_max, env.max_steps))
        raise RuntimeError("stopped")

    monkeypatch.setattr(pt, "greedy_search", stop)
    assert run(tmp_path, "--config", str(ini), "pretrain") == 1
    assert seen == [(0.09, 3)]


def test_a_proxy_model_constant_is_not_a_key(tmp_path, capsys):
    # [proxy] sets only m_inf; the model's constants are fixed in proxy.py
    for key in ("gain_thickness", "gain_slope", "cd_base", "k_wave", "k_err",
                "smooth_halfwidth", "m_post", "blend_cells"):
        ini = tmp_path / f"{key}.ini"
        ini.write_text(f"[proxy]\n{key} = 1\n")
        assert run(tmp_path, "--config", str(ini), "generate-pool", "--n", "5") == 1
        assert f"{ini}: unknown config key {key!r} in [proxy]" in capsys.readouterr().err


def test_a_ppo_update_constant_is_not_a_key(tmp_path, capsys):
    # [ppo] sets sizes, counts and the actor schedule; the update's
    # constants are fixed in rl.py
    for key in ("clip_eps", "gamma", "gae_lambda", "entropy_coef", "std_init",
                "normalize_advantages"):
        ini = tmp_path / f"{key}.ini"
        ini.write_text(f"[ppo]\n{key} = 1\n")
        assert run(tmp_path, "--config", str(ini), "train-ppo") == 1
        assert f"{ini}: unknown config key {key!r} in [ppo]" in capsys.readouterr().err
    assert not (tmp_path / "train_ppo_manifest.json").exists()


def test_only_a_command_that_succeeds_writes_a_manifest(tmp_path):
    assert run(tmp_path, "select-samples", "--pool", "missing.csv") == 1
    assert run(tmp_path, "generate-pool", "--n", "5") == 0
    assert [p.name for p in tmp_path.glob("*_manifest.json")] == \
        ["generate_pool_manifest.json"]


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


def test_extract_features_rejects_a_non_finite_mach(tmp_path, capsys):
    dist_path = tmp_path / "dist.txt"
    write_distribution(dist_path, synthetic_distribution(0.55, 1.15, 1.2, 1.0))
    lines = dist_path.read_text().splitlines()
    dist_path.write_text("\n".join(["# kind=cp m_inf=nan", *lines[1:]]) + "\n")
    assert run(tmp_path, "extract-features", "--dist", str(dist_path)) == 1
    assert "dist.txt, line 1: m_inf must be finite" in capsys.readouterr().err
    assert not (tmp_path / "features.csv").exists()


def test_extract_features_names_the_file_of_a_pressure_above_stagnation(tmp_path, capsys):
    dist_path = tmp_path / "dist.txt"
    dist_path.write_text("# kind=cp m_inf=0.76\n0.1 5.0 0\n")
    assert run(tmp_path, "extract-features", "--dist", str(dist_path)) == 1
    assert f"{dist_path}: pressure above stagnation value" in capsys.readouterr().err


def test_extract_features_names_the_file_of_a_coarse_upper_surface(tmp_path, capsys):
    dist_path = tmp_path / "dist.txt"
    write_distribution(dist_path, synthetic_distribution(0.55, 1.15, 1.2, 1.0, n=19))
    assert run(tmp_path, "extract-features", "--dist", str(dist_path)) == 1
    assert f"{dist_path}: upper surface needs at least 20 stations" in capsys.readouterr().err


@pytest.mark.parametrize("argv, named, kind", [
    (["--agent", "surrogate.npz"], "surrogate.npz", "agent"),
    (["--agent", "agent.npz", "--surrogate", "agent.npz"], "agent.npz", "surrogate model"),
    (["--agent", "text.npz"], "text.npz", "agent"),
])
def test_a_model_reader_names_the_file_and_the_kind_it_expected(tmp_path, capsys, argv, named,
                                                                 kind):
    rng = np.random.default_rng(0)
    save_agent(tmp_path / "agent.npz", make_agent(rng, hidden=(8,)))
    save_model(tmp_path / "surrogate.npz", make_mlp([14, 8, 5], rng))
    (tmp_path / "text.npz").write_text("not an archive\n")
    ini = tmp_path / "tiny.ini"
    ini.write_text(TINY_PPO)
    assert run(tmp_path, "--config", str(ini), "evaluate", *argv) == 1
    err = capsys.readouterr().err
    assert f"{tmp_path / named}: not a valid {kind} file" in err
    assert "allow_pickle" not in err


def _first_set(array, value):
    out = array.astype(float)
    out.flat[0] = value
    return out


@pytest.mark.parametrize("named, member, edit, why", [
    ("agent.npz", "actor_w0", lambda a: a["actor_w0"][:2], "has shape (2, 8), not (4, 8)"),
    ("agent.npz", "actor_w0", lambda a: _first_set(a["actor_w0"], np.nan),
     "holds a value that is not a finite number"),
    ("surrogate.npz", "w1", lambda a: _first_set(a["w1"], np.inf),
     "holds a value that is not a finite number"),
    ("agent.npz", "in_lo", lambda a: a["in_hi"], "is not below 'in_hi'"),
], ids=["shape", "nan", "inf", "scaler"])
def test_a_model_reader_names_the_file_and_the_member(tmp_path, capsys, named, member, edit,
                                                      why):
    rng = np.random.default_rng(0)
    save_agent(tmp_path / "agent.npz", make_agent(rng, hidden=(8,)))
    save_model(tmp_path / "surrogate.npz", make_mlp([14, 8, 5], rng))
    with np.load(tmp_path / named) as data:
        arrays = {key: data[key] for key in data.files}
    np.savez(tmp_path / named, **{**arrays, member: edit(arrays)})
    ini = tmp_path / "tiny.ini"
    ini.write_text(TINY_PPO)
    assert run(tmp_path, "--config", str(ini), "evaluate", "--agent", "agent.npz",
               "--surrogate", "surrogate.npz") == 1
    err = capsys.readouterr().err
    assert f"{tmp_path / named}: not a valid " in err
    assert f"(member {member!r} {why})" in err


def _agent_with(actor_sizes, critic_sizes):
    """An agent file's networks with the given sizes, on one input scaler."""
    rng = np.random.default_rng(0)
    scaler = Scaler(np.zeros(actor_sizes[0]), np.ones(actor_sizes[0]))
    return PolicyAgent(actor=make_mlp(actor_sizes, rng, input_scaler=scaler),
                       critic=make_mlp(critic_sizes, rng, input_scaler=scaler),
                       log_std=np.zeros(actor_sizes[-1]))


@pytest.mark.parametrize("command, agent, surrogate, member, why", [
    ("pretrain", None, [14, 7, 3], "sizes", "maps 14 inputs to 3 outputs, not 14 to 5"),
    ("evaluate", None, [3, 7, 2], "sizes", "maps 3 inputs to 2 outputs, not 14 to 5"),
    ("evaluate", ([5, 8, 3], [5, 8, 1]), None, "actor_sizes",
     "maps 5 inputs to 3 outputs, not 4 to 3"),
    ("evaluate", ([4, 8, 2], [4, 8, 1]), None, "actor_sizes",
     "maps 4 inputs to 2 outputs, not 4 to 3"),
    ("evaluate", ([4, 8, 3], [4, 8, 2]), None, "critic_sizes",
     "maps 4 inputs to 2 outputs, not 4 to 1"),
], ids=["surrogate 14-3", "surrogate 3-2", "actor 5-3", "actor 4-2", "critic 4-2"])
def test_a_model_file_with_the_wrong_network_ends_is_named(tmp_path, capsys, command, agent,
                                                           surrogate, member, why):
    # a consistent network of the wrong sizes once failed deep in a
    # forward pass, naming neither the file nor the sizes it needed
    rng = np.random.default_rng(0)
    save_agent(tmp_path / "agent.npz",
               _agent_with(*agent) if agent else make_agent(rng, hidden=(8,)))
    save_model(tmp_path / "surrogate.npz", make_mlp(surrogate or [14, 8, 5], rng))
    named = "surrogate.npz" if surrogate else "agent.npz"
    ini = tmp_path / "tiny.ini"
    ini.write_text(TINY_PPO)
    argv = ["--surrogate", "surrogate.npz"]
    if command == "evaluate":
        argv += ["--agent", "agent.npz"]
    assert run(tmp_path, "--config", str(ini), command, *argv) == 1
    err = capsys.readouterr().err
    assert f"{tmp_path / named}: not a valid " in err
    assert f"(member {member!r} {why})" in err


def test_plot_command_deterministic(tmp_path):
    hist = tmp_path / "ppo_history.csv"
    hist.write_text("iteration,mean_cum_reward\n0,-1.0\n1,0.5\n2,1.25\n")
    assert run(tmp_path, "plot") == 0
    first = (tmp_path / "history.svg").read_bytes()
    assert run(tmp_path, "plot") == 0
    assert (tmp_path / "history.svg").read_bytes() == first


def test_plot_escapes_its_column_names(tmp_path):
    (tmp_path / "odd.csv").write_text("it,a&b<c\n0,-1.0\n1,0.5\n")
    assert run(tmp_path, "plot", "--history", "odd.csv", "--x", "it", "--y", "a&b<c") == 0
    root = ElementTree.parse(tmp_path / "history.svg").getroot()
    labels = [text.text for text in root.iter("{http://www.w3.org/2000/svg}text")]
    assert labels[:2] == ["it", "a&b<c"]


def test_out_dir_flag_wins_over_the_environment(tmp_path, monkeypatch):
    # no environment variable redirects the artifacts of an explicit --out-dir
    monkeypatch.setenv("AIRFOILRL_OUT", str(tmp_path / "env_dir"))
    assert main(["--out-dir", str(tmp_path / "flag_dir"), "generate-pool", "--n", "5"]) == 0
    assert (tmp_path / "flag_dir" / "pool.csv").exists()
    assert not (tmp_path / "env_dir").exists()


def test_missing_input_is_reported(tmp_path, capsys):
    code = run(tmp_path, "select-samples", "--pool", "missing.csv")
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_train_surrogate_names_a_missing_default_set(tmp_path, capsys):
    # the default sets follow the config's keep_counts, not an earlier --keep
    assert run(tmp_path, "generate-pool", "--n", "60") == 0
    assert run(tmp_path, "select-samples", "--keep", "20,10") == 0
    assert run(tmp_path, "train-surrogate") == 1
    err = capsys.readouterr().err
    assert str(tmp_path / "selected_2000.csv") in err
    assert "[surrogate] keep_counts = 2000,200" in err and "pass --train and --test" in err
    assert run(tmp_path, "train-surrogate", "--train", "selected_20.csv",
               "--test", "selected_10.csv") == 0


def test_train_surrogate_names_a_keep_counts_without_a_test_set(tmp_path, capsys):
    ini = tmp_path / "one.ini"
    ini.write_text("[surrogate]\nkeep_counts = 20\nhidden = 8\nschedule = 2:0.01\n")
    assert run(tmp_path, "generate-pool", "--n", "60") == 0
    assert run(tmp_path, "--config", str(ini), "select-samples") == 0
    assert run(tmp_path, "--config", str(ini), "train-surrogate") == 1
    err = capsys.readouterr().err
    assert "[surrogate] keep_counts = 20 has no entry 2" in err and "pass --test" in err
    assert run(tmp_path, "--config", str(ini), "train-surrogate",
               "--test", "selected_20.csv") == 0


def test_train_surrogate_writes_the_history_header_without_a_record(tmp_path):
    # 20 rows and one epoch of 128-row batches: one minibatch, no record
    ini = tmp_path / "short.ini"
    ini.write_text("[surrogate]\nkeep_counts = 20,10\nhidden = 8\nschedule = 1:0.01\n")
    assert run(tmp_path, "generate-pool", "--n", "60") == 0
    assert run(tmp_path, "--config", str(ini), "select-samples") == 0
    assert run(tmp_path, "--config", str(ini), "train-surrogate") == 0
    header = ["minibatch"] + [f"{part}_{name}" for name in OUTPUT_NAMES
                              for part in ("train", "test")]
    assert (tmp_path / "surrogate_history.csv").read_bytes() == \
        (",".join(header) + "\r\n").encode()


def test_config_file_round_trip(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nseed = 11\n")
    assert main(["--out-dir", str(tmp_path), "--config", str(ini),
                 "generate-pool", "--n", "5"]) == 0
    manifest = json.loads((tmp_path / "generate_pool_manifest.json").read_text())
    assert manifest["seed"] == 11


def test_manifest_digests_repeat_with_one_seed(tmp_path):
    ini = tmp_path / "tiny.ini"
    ini.write_text("[surrogate]\npool_size = 40\nkeep_counts = 20,5\nhidden = 8\n"
                   "schedule = 2:0.01\nbatch_size = 16\n")
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        for command in ("generate-pool", "select-samples", "train-surrogate"):
            assert run(out, "--config", str(ini), command) == 0
        digests.append({os.path.basename(path): digest
                        for manifest in out.glob("*_manifest.json")
                        for path, digest in json.loads(manifest.read_text())["sha256"].items()})
    assert digests[0] == digests[1]
    assert sorted(digests[0]) == ["pool.csv", "selected_20.csv", "selected_5.csv",
                                  "surrogate.npz", "surrogate_history.csv"]
    pool = (tmp_path / "a" / "pool.csv").read_bytes()
    assert digests[0]["pool.csv"] == hashlib.sha256(pool).hexdigest()


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


def test_surrogate_sizes_default_to_config(tmp_path, monkeypatch):
    ini = tmp_path / "sizes.ini"
    ini.write_text("[surrogate]\npool_size = 40\nkeep_counts = 20,5\n"
                   "hidden = 8\nschedule = 2:0.01\n[ppo]\nbaselines = 2\n")
    # like --agent and --pool, a relative --surrogate names a file in
    # --out-dir, not in the working directory
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "runs"
    for command in ("generate-pool", "select-samples", "train-surrogate"):
        assert run(out, "--config", str(ini), command) == 0
    assert len((out / "pool.csv").read_text().splitlines()) == 41
    assert len((out / "selected_20.csv").read_text().splitlines()) == 21
    assert len((out / "selected_5.csv").read_text().splitlines()) == 6
    save_agent(out / "agent.npz", make_agent(np.random.default_rng(0), hidden=(8,)))
    assert run(out, "--config", str(ini), "evaluate", "--agent", "agent.npz",
               "--surrogate", "surrogate.npz") == 0
    assert (out / "evaluation.csv").exists()


def test_pretrain_writes_critic_history(tmp_path):
    ini = tmp_path / "tiny.ini"
    ini.write_text("[pretrain]\nbaselines = 4\nsearches = 3\nsteps = 5\n"
                   "candidates = 10\nimitation_schedule = 5:0.001\n"
                   "critic_schedule = 2:0.01,1:0.001\n"
                   "[ppo]\nhidden = 8,8\nepochs = 2\ntrajectories_per_baseline = 1\n"
                   "max_steps = 2\n")
    assert main(["--out-dir", str(tmp_path), "--config", str(ini), "pretrain"]) == 0
    history = tmp_path / "pretrained_critic_history.csv"
    rows = history.read_text().splitlines()
    assert rows[0].startswith("iteration,mean_cum_reward")
    assert len(rows) == 1 + 1 + 3  # header, initial evaluation, 3 critic iterations
    manifest = json.loads((tmp_path / "pretrain_manifest.json").read_text())
    assert str(history) in manifest["artifacts"]


TINY_PRETRAIN = ("[pretrain]\nbaselines = 4\nsearches = 3\nsteps = 5\ncandidates = 10\n"
                 "critic_schedule = 2:0.01\n"
                 "[ppo]\nhidden = 8,8\nepochs = 2\ntrajectories_per_baseline = 1\n"
                 "max_steps = 2\n")


def test_pretrain_without_imitation_epochs_finishes(tmp_path):
    # a zero-epoch imitation schedule is the un-imitated actor the paper
    # compares against; the command still writes its agent and manifest
    ini = tmp_path / "tiny.ini"
    ini.write_text(TINY_PRETRAIN.replace("[pretrain]\n",
                                         "[pretrain]\nimitation_schedule = 0:0.001\n"))
    assert run(tmp_path, "--config", str(ini), "pretrain") == 0
    manifest = json.loads((tmp_path / "pretrain_manifest.json").read_text())
    assert str(tmp_path / "pretrained_agent.npz") in manifest["artifacts"]


def test_pretrain_manifest_times_its_stages(tmp_path):
    ini = tmp_path / "tiny.ini"
    ini.write_text(TINY_PRETRAIN.replace("[pretrain]\n",
                                         "[pretrain]\nimitation_schedule = 3:0.001\n"))
    csvs = []
    for out in ("a", "b"):
        assert run(tmp_path / out, "--config", str(ini), "pretrain") == 0
        manifest = json.loads((tmp_path / out / "pretrain_manifest.json").read_text())
        for key in ("greedy_search_s", "imitation_s", "critic_fit_s"):
            assert manifest[key] >= 0.0
        csvs.append({name: (tmp_path / out / name).read_bytes() for name in (
            "pretrained_samples_raw.csv", "pretrained_samples_smoothed.csv",
            "pretrained_critic_history.csv")})
    # the wall-clock figures go in the manifest only
    assert csvs[0] == csvs[1]


TINY_PPO = ("[ppo]\nhidden = 8,8\nbaselines = 2\nepochs = 2\n"
            "trajectories_per_baseline = 2\nmax_steps = 2\nactor_schedule = 1:0.001\n")


def test_evaluate_writes_rollout_log(tmp_path):
    ini = tmp_path / "tiny.ini"
    ini.write_text(TINY_PPO)
    assert run(tmp_path, "--config", str(ini), "train-ppo") == 0
    assert run(tmp_path, "--config", str(ini), "evaluate",
               "--agent", "trained_agent.npz") == 0
    with open(tmp_path / "rollout.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ROLLOUT_COLUMNS
    assert {r["episode"] for r in rows} == {"0", "1"}
    for episode in ("0", "1"):
        steps = [int(r["step"]) for r in rows if r["episode"] == episode]
        assert steps == list(range(1, len(steps) + 1)) and len(steps) <= 2
    # each episode's rewards add up to its evaluation.csv total
    with open(tmp_path / "evaluation.csv", newline="") as fh:
        totals = {r["airfoil"]: float(r["cum_reward"]) for r in csv.DictReader(fh)}
    for episode in ("0", "1"):
        total = 0.0
        for r in rows:
            if r["episode"] == episode:
                total += float(r["reward"])
        assert total == totals[episode]
    assert {r["modify_failed"] for r in rows} <= {"True", "False"}
    manifest = json.loads((tmp_path / "evaluate_manifest.json").read_text())
    assert str(tmp_path / "rollout.csv") in manifest["artifacts"]


def test_manifests_report_step_telemetry(tmp_path):
    ini = tmp_path / "tiny.ini"
    ini.write_text(TINY_PPO + "[pretrain]\nbaselines = 4\nsearches = 3\nsteps = 5\n"
                   "candidates = 10\nimitation_schedule = 2:0.001\n"
                   "critic_schedule = 1:0.01\n")
    # episodes: one evaluation, then per iteration a collection (and, for
    # train-ppo, an evaluation); each takes one or two lane steps
    for command, episodes in (("pretrain", 4 + 4 * 2), ("train-ppo", 2 + 2 * 2 + 2)):
        assert run(tmp_path, "--config", str(ini), command) == 0
        manifest = json.loads(
            (tmp_path / f"{command.replace('-', '_')}_manifest.json").read_text())
        assert episodes <= manifest["env_lane_steps"] <= 2 * episodes
        assert manifest["env_steps_per_s"] > 0.0
        greedy = manifest["greedy_candidates"]
        assert (greedy % 10 == 0 and 10 <= greedy <= 4 * 3 * 5 * 10
                if command == "pretrain" else greedy == 0)
    # wall-clock figures stay out of the CSVs compared byte for byte
    for name in ("ppo_history.csv", "pretrained_critic_history.csv",
                 "pretrained_samples_raw.csv"):
        assert "per_s" not in (tmp_path / name).read_text()


def test_ini_profile_picks_the_base_config(tmp_path):
    ini = tmp_path / "paper.ini"
    ini.write_text("[run]\nprofile = paper\n")
    cfg = _build_config(build_parser().parse_args(["--config", str(ini), "generate-pool"]))
    assert cfg.profile == "paper"
    assert (cfg.pool_size, cfg.keep_counts, cfg.surrogate_hidden) == \
        (10000, (5000, 200), (1024, 1024, 1024))
    assert cfg.ppo.epochs == 2000
    same = _build_config(build_parser().parse_args(
        ["--profile", "paper", "--config", str(ini), "generate-pool"]))
    assert same == cfg
    with pytest.raises(ValueError, match="contradicts"):
        _build_config(build_parser().parse_args(
            ["--profile", "desk", "--config", str(ini), "generate-pool"]))
    assert _build_config(build_parser().parse_args(["generate-pool"])).pool_size == 3000


def test_every_manifest_records_command_time_and_evaluator_calls(tmp_path):
    ini = tmp_path / "tiny.ini"
    ini.write_text("[surrogate]\npool_size = 400\nkeep_counts = 150,50\nhidden = 16,16\n"
                   "schedule = 10:0.01\nbatch_size = 16\n"
                   "[pretrain]\nbaselines = 4\nsearches = 3\nsteps = 5\ncandidates = 10\n"
                   "imitation_schedule = 2:0.001\ncritic_schedule = 1:0.01\n" + TINY_PPO)
    base = ["--seed", "3", "--config", str(ini)]
    for command in ("generate-pool", "select-samples", "train-surrogate"):
        assert run(tmp_path, *base, command) == 0
    commands = {"pretrain": ["--surrogate", "surrogate.npz"], "train-ppo": [],
                "evaluate": ["--agent", "trained_agent.npz"]}
    counts = []
    for out in (tmp_path / "a", tmp_path / "b"):
        out.mkdir()
        (out / "surrogate.npz").write_bytes((tmp_path / "surrogate.npz").read_bytes())
        for command, extra in commands.items():
            assert run(out, *base, command, *extra) == 0
        counts.append({})
        for command in commands:
            manifest = json.loads(
                (out / f"{command.replace('-', '_')}_manifest.json").read_text())
            evaluator = "surrogate" if command == "pretrain" else "proxy"
            fields = [f"{evaluator}_blocks", f"{evaluator}_rows", "env_lane_steps"]
            assert all(manifest[k] > 0 for k in fields), command
            assert manifest["command_s"] > 0.0
            counts[-1][command] = {k: manifest[k] for k in fields}
    assert counts[0] == counts[1]
    for manifest in tmp_path.glob("*_manifest.json"):
        assert json.loads(manifest.read_text())["command_s"] > 0.0, manifest.name
