"""scripts/pipeline_digests.py: the digests of a small pipeline run do
not depend on the BLAS thread count."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ARTIFACTS = sorted(["pool.csv", "selected_150.csv", "selected_50.csv", "surrogate.npz",
                    "surrogate_history.csv", "pretrained_agent.npz",
                    "pretrained_critic_history.csv", "pretrained_samples_raw.csv",
                    "pretrained_samples_smoothed.csv", "ppo_history.csv", "trained_agent.npz",
                    "evaluation.csv", "rollout.csv", "history.svg"])


def digests(out_dir, threads: int) -> list[str]:
    env = {k: v for k, v in os.environ.items() if k != "AIRFOILRL_OUT"}
    env.update(OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "pipeline_digests.py"),
                          "--out-dir", str(out_dir), "--seed", "3"],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_pipeline_digests_do_not_depend_on_blas_threads(tmp_path):
    one = digests(tmp_path / "one", 1)
    assert [line.split()[0] for line in one] == ARTIFACTS
    assert digests(tmp_path / "two", 2) == one
