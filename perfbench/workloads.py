"""The benchmark's three workloads: CLI commands, configs and checks.

Each workload is a fixed list of ``airfoilrl`` CLI commands (ops) run in
one process, one after the other, plus optional set-up commands whose
products the ops read.  Every op carries an output check and the list
of artifacts that must be byte-identical between runs with one seed.

``desk`` is the benchmarked size; ``tiny`` runs the same commands in a
few seconds for the benchmark's own tests.
"""
from __future__ import annotations

import csv
import hashlib
import math
import os
import zipfile
from dataclasses import dataclass

# PPO iterations per train-ppo op; fixed through an actor_schedule override
PPO_ITERATIONS = {"desk": 4, "tiny": 1}

# criterion 10's bar on the surrogate's final test RSME(cd)
MAX_TEST_RSME_CD = 0.05

CONFIGS = {
    ("ppo_proxy", "desk"): f"[ppo]\nactor_schedule = {PPO_ITERATIONS['desk']}:0.001\n",
    ("ppo_proxy", "tiny"): (
        f"[ppo]\nactor_schedule = {PPO_ITERATIONS['tiny']}:0.001\n"
        "baselines = 2\nepochs = 5\ntrajectories_per_baseline = 1\n"),
    ("pretrain_surrogate", "desk"): (
        "[pretrain]\nbaselines = 4\ncritic_schedule = 6:0.01,6:0.001\n"),
    ("pretrain_surrogate", "tiny"): (
        "[surrogate]\nhidden = 32,32\nschedule = 150:0.01\nbatch_size = 32\n"
        "[pretrain]\nbaselines = 4\nsearches = 3\nsteps = 5\ncandidates = 10\n"
        "imitation_schedule = 20:0.001\ncritic_schedule = 2:0.01\n"
        "[ppo]\nepochs = 5\ntrajectories_per_baseline = 1\n"),
    ("surrogate_build", "desk"): "",
    ("surrogate_build", "tiny"): (
        "[surrogate]\nhidden = 32,32\nschedule = 100:0.01\nbatch_size = 32\n"),
}

# surrogate_build's commands, and pretrain_surrogate's set-up; at a
# smaller set-up pool (600, keep 300,100) some seeds miss criterion 10's bar
POOL = {"desk": 1200, "tiny": 300}
KEEP = {"desk": (700, 100), "tiny": (150, 50)}

CONFIG_NAME = "bench.ini"


class CheckFailed(Exception):
    """An op's outputs are missing or wrong."""


@dataclass(frozen=True)
class Op:
    """One CLI command, its output check and its deterministic outputs."""

    command: str
    args: tuple[str, ...]
    check: object  # check(workdir) raises CheckFailed
    deterministic: tuple[str, ...]

    def argv(self, seed: int) -> list[str]:
        return ["--out-dir", ".", "--seed", str(seed), "--config", CONFIG_NAME,
                self.command, *self.args]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    setup: tuple[Op, ...] = ()


# ---------------------------------------------------------------------------
# output checks


def _path(workdir, name: str) -> str:
    path = os.path.join(workdir, name)
    if not os.path.isfile(path):
        raise CheckFailed(f"missing artifact {name}")
    return path


def _rows(workdir, name: str) -> list[dict]:
    with open(_path(workdir, name), newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _expect_rows(workdir, name: str, count: int) -> list[dict]:
    rows = _rows(workdir, name)
    if len(rows) != count:
        raise CheckFailed(f"{name} has {len(rows)} rows, expected {count}")
    return rows


def check_history(iterations: int):
    def check(workdir):
        _path(workdir, "trained_agent.npz")
        rows = _expect_rows(workdir, "ppo_history.csv", iterations + 1)
        for row in rows:
            bad = [k for k, v in row.items() if not _finite(v)
                   and not (k in ("actor_loss", "critic_loss") and row["iteration"] == "0")]
            if bad:
                raise CheckFailed(f"ppo_history.csv iteration {row['iteration']} "
                                  f"has non-finite {bad}")
    return check


def check_evaluation(workdir) -> None:
    rows = _rows(workdir, "evaluation.csv")
    mean = [r["cum_reward"] for r in rows if r["airfoil"] == "mean"]
    if len(mean) != 1 or not _finite(mean[0]):
        raise CheckFailed(f"evaluation.csv mean reward is {mean}")


def check_pool(n: int):
    def check(workdir):
        _expect_rows(workdir, "pool.csv", n)
    return check


def check_selected(keep):
    def check(workdir):
        for count in keep:
            _expect_rows(workdir, f"selected_{count}.csv", count)
    return check


def check_surrogate(workdir) -> None:
    _path(workdir, "surrogate.npz")
    rows = _rows(workdir, "surrogate_history.csv")
    if not rows:
        raise CheckFailed("surrogate_history.csv is empty")
    final = rows[-1]["test_cd"]
    if not (_finite(final) and float(final) < MAX_TEST_RSME_CD):
        raise CheckFailed(f"final test RSME(cd) {final} is not below "
                          f"{MAX_TEST_RSME_CD}")


def check_pretrain(workdir) -> None:
    from airfoilrl.rl import load_agent

    for name in ("pretrained_samples_raw.csv", "pretrained_samples_smoothed.csv"):
        if not _rows(workdir, name):
            raise CheckFailed(f"{name} is empty")
    try:
        load_agent(_path(workdir, "pretrained_agent.npz"))
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        raise CheckFailed(f"pretrained_agent.npz does not load: {exc}") from exc


def digest(path: str) -> str:
    """sha256 of a file; for .npz, of member names and contents, so the
    zip timestamps do not count."""
    h = hashlib.sha256()
    if path.endswith(".npz"):
        with zipfile.ZipFile(path) as zf:
            for name in sorted(zf.namelist()):
                h.update(name.encode())
                h.update(zf.read(name))
    else:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# workload definitions


def _surrogate_ops(pool: int, keep: tuple[int, int]) -> tuple[Op, ...]:
    train, test = keep
    return (
        Op("generate-pool", ("--n", str(pool)), check_pool(pool), ("pool.csv",)),
        Op("select-samples", ("--keep", f"{train},{test}"), check_selected(keep),
           (f"selected_{train}.csv", f"selected_{test}.csv")),
        Op("train-surrogate", ("--train", f"selected_{train}.csv",
                               "--test", f"selected_{test}.csv"),
           check_surrogate, ("surrogate_history.csv", "surrogate.npz")),
    )


def build(name: str, size: str = "desk", surrogate_path: str = "surrogate.npz") -> Workload:
    """The workload `name` at `size`; pretrain_surrogate reads the
    surrogate its set-up wrote at surrogate_path, built by the commands
    of surrogate_build."""
    if name == "ppo_proxy":
        iterations = PPO_ITERATIONS[size]
        return Workload(
            name,
            ops=(Op("train-ppo", (), check_history(iterations),
                    ("ppo_history.csv", "trained_agent.npz")),
                 Op("evaluate", ("--agent", "trained_agent.npz"),
                    check_evaluation, ("evaluation.csv",))))
    if name == "pretrain_surrogate":
        return Workload(
            name,
            setup=_surrogate_ops(POOL[size], KEEP[size]),
            ops=(Op("pretrain", ("--surrogate", surrogate_path), check_pretrain,
                    ("pretrained_samples_raw.csv", "pretrained_samples_smoothed.csv",
                     "pretrained_agent.npz")),))
    if name == "surrogate_build":
        return Workload(name, ops=_surrogate_ops(POOL[size], KEEP[size]))
    raise KeyError(f"unknown workload {name!r}; choose from {', '.join(WHY)}")


# why each workload is in the benchmark (also in BENCHMARK.json)
WHY = {
    "ppo_proxy": "PPO on the proxy: env steps run geometry, proxy and features, "
                 "then a full-batch actor and critic update per iteration",
    "pretrain_surrogate": "greedy search, imitation and critic fit on a surrogate "
                          "evaluator: geometry dominates, the proxy is idle",
    "surrogate_build": "bulk proxy pool, O(n^2) sample selection, minibatch MLP "
                       "training and CSV I/O; no env or rl",
}
