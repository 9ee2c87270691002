"""scripts/run_pipeline.py on the small scripts/pipeline_digests.ini: the
digests of its run do not depend on the BLAS thread count, --skip-surrogate
builds no surrogate, and a failing command is named."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INI = ROOT / "scripts" / "pipeline_digests.ini"
ARTIFACTS = sorted(["pool.csv", "selected_150.csv", "selected_50.csv", "surrogate.npz",
                    "surrogate_history.csv", "pretrained_agent.npz",
                    "pretrained_critic_history.csv", "pretrained_samples_raw.csv",
                    "pretrained_samples_smoothed.csv", "ppo_history.csv", "trained_agent.npz",
                    "evaluation.csv", "rollout.csv", "history.svg"])


def pipeline(out_dir, *argv, threads: int = 1) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "AIRFOILRL_OUT"}
    env.update(OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "run_pipeline.py"),
                           "--out-dir", str(out_dir), "--seed", "3", *argv],
                          env=env, capture_output=True, text=True, timeout=300)


def digests(out_dir, threads: int) -> list[str]:
    run = pipeline(out_dir, "--config", str(INI), threads=threads)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_pipeline_digests_do_not_depend_on_blas_threads(tmp_path):
    one = digests(tmp_path / "one", 1)
    assert [line.split()[0] for line in one] == ARTIFACTS
    assert digests(tmp_path / "two", 2) == one


def test_skip_surrogate_builds_no_surrogate(tmp_path):
    run = pipeline(tmp_path, "--config", str(INI), "--skip-surrogate")
    assert run.returncode == 0, run.stderr
    written = sorted(p.name for p in tmp_path.iterdir())
    assert "pool.csv" not in written
    assert not [name for name in written if name.startswith(("selected_", "surrogate"))]
    assert [line.split()[0] for line in run.stdout.splitlines()] == \
        [name for name in ARTIFACTS if name in written]


def test_a_failing_command_is_named_and_sets_the_exit_code(tmp_path):
    ini = tmp_path / "bad.ini"
    ini.write_text("[ppo]\nbogus = 1\n")
    run = pipeline(tmp_path / "out", "--config", str(ini))
    assert run.returncode == 1
    assert run.stdout == ""
    assert f"failed: airfoilrl --out-dir {tmp_path / 'out'} --seed 3 --config {ini} " \
        "generate-pool" in run.stderr
