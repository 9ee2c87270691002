"""Desk-pipeline benchmark of the airfoilrl CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload pretrain_surrogate --seed 1 --seconds 40 --trace 0

One client runs one workload process at a time (closed loop), and each
CLI command in it starts after the previous one finishes.  The run sets
up the workload several times, then repeats passes of the workload's
commands while another pass is expected to end within --seconds (at
least one pass).

On a shared host the speed of the machine changes by up to 1.5x for
tens of seconds to minutes at a time, as other tenants come and go.
So between workload processes the harness times a fixed reference
workload that does not depend on the program (reference_seconds), and
scales every set-up and pass time by REFERENCE_S over the reference
time measured around it: times are reported at the reference host
speed.  setup_s and wall_s are medians of the scaled times; the raw
times are in the report.  Every command's outputs are checked; outputs
of runs with one seed must be byte-identical.  With --trace 1 one extra pass runs with every layer
wrapped in spans, and the per-layer metrics come from it.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it is a JSON
report with the run environment, per-op records and the stage times.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracing import spans_from_records  # noqa: E402

ROOT = HERE.parent
# set-up runs at least SETUP_REPEATS times and until SETUP_MIN_S have
# passed, so that a set-up of a fraction of a second still has a median
# over several samples
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
# BLAS threads pinned to one: on a 2-core box the default threading
# makes the small matrix products of the PPO update slower and erratic
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# a run must end within 180 s: no set-up after the first and no untraced
# pass starts after LAST_PASS_START_S, and a workload process still
# running at CHILD_DEADLINE_S is killed
LAST_PASS_START_S = 100.0
CHILD_DEADLINE_S = 170.0
# reference_seconds() in a fast stretch of a 2-core shared x86-64 box;
# scaled times are seconds at that speed
REFERENCE_S = 0.020
_GRID = np.linspace(0.0, 1.0, 201)


def reference_work() -> float:
    """Fixed work in the program's mix: small-array numpy calls on a
    201-point grid and small matrix products, driven from Python."""
    acc = 0.0
    for i in range(300):
        t = 0.5 + 0.001 * i
        f = _GRID ** t * (1.0 - _GRID) ** (1.0 + t)
        g = np.gradient(f, _GRID)
        above = np.nonzero(f >= 0.01 * f.max())[0]
        acc += float(g[above[0]]) + float(np.convolve(f, np.ones(5) / 5, mode="same").sum())
    a = np.random.default_rng(0).standard_normal((32, 64))
    w = np.random.default_rng(1).standard_normal((64, 64)) * 0.1
    for _ in range(50):
        a = np.tanh(a @ w)
    return acc + float(a.sum())


def reference_seconds(repeats: int = 9) -> float:
    """Median time of reference_work: the host's current speed."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Run:
    """State of one benchmark run: where it works and what it found."""

    def __init__(self, workload: str, seed: int, size: str, root: Path,
                 work_root: Path):
        self.seed = seed
        self.size = size
        self.src = root / "src"
        self.dir = work_root / f"{workload}-{size}-seed{seed}-{os.getpid()}"
        self.workload = workloads.build(workload, size,
                                        str(self.dir / "setup0" / "surrogate.npz"))
        self.started = time.monotonic()
        self.env = {k: v for k, v in os.environ.items() if k != "AIRFOILRL_OUT"}
        self.env.update(THREAD_ENV)
        self.host_s: float | None = None  # latest reference_seconds()
        self.attempted = 0
        self.failures: list[str] = []
        self.records: list[dict] = []
        self.store = work_root / "digests" / (
            f"{workload}-{size}-seed{seed}-{self.program_hash()}.json")
        self.stored = self.store.is_file()
        self.digests: dict[str, str] = (
            json.loads(self.store.read_text()) if self.stored else {})

    def program_hash(self) -> str:
        """Hash of what decides the artifacts: the airfoilrl sources, the
        commands and config of this workload and seed, and numpy/BLAS."""
        wl = self.workload
        plan = {"src": source_hash(self.src), "numpy": np.__version__,
                "blas": blas_info(),
                "config": workloads.CONFIGS[(wl.name, self.size)],
                "argv": [op.argv(self.seed) for op in (*wl.setup, *wl.ops)]}
        return hashlib.sha256(json.dumps(plan, sort_keys=True).encode()).hexdigest()[:16]

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def spawn(self, workdir: Path, ops, trace: bool) -> tuple[dict | None, float, float, float]:
        """Run ops in one workload process.

        Returns (pass result or None if the process failed, seconds from
        spawn to exit, peak RSS of the process in MiB, the factor that
        scales its times to the reference host speed).
        """
        before = self.host_s if self.host_s is not None else reference_seconds()
        workdir.mkdir(parents=True)
        (workdir / workloads.CONFIG_NAME).write_text(
            workloads.CONFIGS[(self.workload.name, self.size)])
        plan = {"src": str(self.src), "workdir": str(workdir), "trace": trace,
                "run_id": f"{self.dir.name}/{workdir.name}",
                "ops": [{"command": op.command, "argv": op.argv(self.seed)}
                        for op in ops]}
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan))
        t0 = time.perf_counter()
        with open(workdir / "child.log", "w") as log:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(plan_path)],
                env=self.env, stdout=log, stderr=subprocess.STDOUT)
            try:
                status, rusage = self._wait(proc)
            except BaseException:  # interrupted: leave no workload process behind
                proc.kill()
                proc.wait()
                raise
        seconds = time.perf_counter() - t0
        self.host_s = reference_seconds()
        scale = REFERENCE_S / (0.5 * (before + self.host_s))
        result_path = workdir / "pass_result.json"
        result = (json.loads(result_path.read_text())
                  if status == 0 and result_path.is_file() else None)
        return result, seconds, rusage.ru_maxrss / 1024.0, scale  # ru_maxrss is in KiB

    def _wait(self, proc: subprocess.Popen):
        """Wait for the process and return its exit code and its own
        resource usage (os.wait4), killing it at the deadline."""
        while True:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid == proc.pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, rusage
            if self.elapsed() > CHILD_DEADLINE_S:
                proc.kill()
                _, status, rusage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, rusage
            time.sleep(0.01)

    def grade(self, ops, result: dict | None, workdir: Path, label: str) -> None:
        """Count each op and record why it failed, if it did.

        An op fails when its command exits non-zero, its output check
        fails, or a deterministic artifact differs from the one this
        seed produced in an earlier pass or run of the same program.
        """
        for i, op in enumerate(ops):
            self.attempted += 1
            reason = self._grade_op(op, result["ops"][i] if result else None, workdir)
            self.records.append({"pass": label, "command": op.command,
                                 "seconds": result["ops"][i]["seconds"] if result else None,
                                 "ok": reason is None, "reason": reason})
            if reason is not None:
                self.failures.append(f"{label} {op.command}: {reason}")

    def _grade_op(self, op, record: dict | None, workdir: Path) -> str | None:
        if record is None:
            return "workload process failed"
        if record["exit"] != 0:
            return f"exit status {record['exit']}"
        try:
            op.check(str(workdir))
        except workloads.CheckFailed as exc:
            return str(exc)
        for name in op.deterministic:
            path = workdir / name
            if not path.is_file():
                return f"missing artifact {name}"
            d = workloads.digest(str(path))
            if d != self.digests.setdefault(name, d):
                return f"{name} differs from an earlier pass or run with this seed"
        return None

    def save_digests(self) -> None:
        """Record the artifacts' digests for later runs with this seed
        and program, unless recorded already or this run failed."""
        if not self.stored and not self.failures:
            self.store.parent.mkdir(parents=True, exist_ok=True)
            self.store.write_text(json.dumps(self.digests, sort_keys=True))


def source_hash(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "airfoilrl").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def blas_info():
    """numpy's BLAS name, version and configuration (numpy.show_config)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unavailable"
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def run_environment(root: Path, seed: int, env: dict) -> dict:
    """Versions, CPU count, thread settings, git state and seed."""
    stamp = {"python": platform.python_version(), "numpy": np.__version__,
             "blas": blas_info(), "nproc": len(os.sched_getaffinity(0)),
             "threads": {k: v for k, v in sorted(env.items())
                         if k.endswith("_NUM_THREADS")},
             "seed": seed, "source_sha256": source_hash(root / "src"),
             "git_sha": None, "git_dirty": None}
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=20)
        if top.returncode == 0 and Path(top.stdout.strip()).resolve() == root.resolve():
            sha = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=20)
            dirty = subprocess.run(["git", "-C", str(root), "status", "--porcelain"],
                                   capture_output=True, text=True, timeout=20)
            stamp["git_sha"] = sha.stdout.strip() or None
            stamp["git_dirty"] = bool(dirty.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    return stamp


END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "desk",
        root: Path = ROOT, work_root: Path | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, report).

    The result line holds the end-to-end metrics, or with trace the
    per-layer metrics of one traced pass.
    """
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))  # the pretrain check loads an agent
    state = Run(workload, seed, size, root, work_root or root / ".bench_work")
    wl = state.workload
    try:
        setups: list[dict] = []
        while not setups or (
                (len(setups) < SETUP_REPEATS
                 or sum(s["process_s"] for s in setups) < SETUP_MIN_S)
                and state.elapsed() < LAST_PASS_START_S):
            setup_dir = state.dir / f"setup{len(setups)}"
            result, secs, _, scale = state.spawn(setup_dir, wl.setup, trace=False)
            setups.append({"process_s": secs, "scale": scale})
            state.grade(wl.setup, result, setup_dir, setup_dir.name)
        passes: list[dict] = []
        traced = None
        started = state.elapsed()
        while not passes or (trace and traced is None) or (
                state.elapsed() - started + typical_pass(passes) <= seconds
                and state.elapsed() < LAST_PASS_START_S):
            tracing = trace and traced is None and len(passes) >= 1
            pass_dir = state.dir / f"pass{len(passes) + (traced is not None)}"
            result, secs, rss, scale = state.spawn(pass_dir, wl.ops, trace=tracing)
            state.grade(wl.ops, result, pass_dir, pass_dir.name)
            entry = {"result": result, "rss": rss, "process_s": secs, "scale": scale}
            if tracing:
                traced = entry
            else:
                passes.append(entry)
        metrics, report = summarize_run(state, setups, passes, traced)
        state.save_digests()
        if traced is not None and traced["result"] is not None:
            trace_path = state.dir.parent / "traces" / f"{wl.name}-{size}-seed{seed}.json"
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            trace_path.write_text(json.dumps(traced["result"]))
    finally:
        shutil.rmtree(state.dir, ignore_errors=True)
    report["environment"] = run_environment(root, seed, state.env)
    wanted = layers.metric_units() if trace else END_TO_END
    line = {"correct": not state.failures, "attempted": max(state.attempted, 1),
            "failed": len(state.failures),
            "metrics": {name: {"value": finite_or_none(metrics.get(name)), "unit": unit}
                        for name, unit in wanted.items()}}
    return line, report


def finite_or_none(value):
    """A metric a failed run could not measure is null, not NaN."""
    return value if value is not None and math.isfinite(value) else None


def typical_pass(passes: list[dict]) -> float:
    return statistics.median(p["process_s"] for p in passes)


def summarize_run(state: Run, setups, passes, traced) -> tuple[dict, dict]:
    """(metric name -> value, report) of a finished run.  Times are
    medians of times scaled to the reference host speed."""
    done = [p for p in passes if p["result"] is not None]
    metrics = {
        "setup_s": statistics.median(s["process_s"] * s["scale"] for s in setups),
        "wall_s": (statistics.median(p["result"]["wall_s"] * p["scale"] for p in done)
                   if done else float("nan")),
        "peak_rss_mib": statistics.median(p["rss"] for p in passes),
    }
    per_command: dict[str, list[float]] = {}
    for p in done:
        for op in p["result"]["ops"]:
            per_command.setdefault(op["command"], []).append(op["seconds"] * p["scale"])
    stages = {f"{cmd.replace('-', '_')}_s": statistics.median(v)
              for cmd, v in per_command.items()}
    if "train_ppo_s" in stages:
        stages["ppo_iter_s"] = stages["train_ppo_s"] / workloads.PPO_ITERATIONS[state.size]
    if traced is not None and traced["result"] is not None:
        spans = spans_from_records(traced["result"]["spans"])
        traced_wall = traced["result"]["wall_s"]
        metrics.update(layers.layer_metrics(
            spans, traced_wall, traced_wall * traced["scale"] - metrics["wall_s"]))
    report = {
        "workload": state.workload.name, "size": state.size, "seed": state.seed,
        "passes": len(passes), "reference_s": REFERENCE_S,
        "setup_s_raw_each": [s["process_s"] for s in setups],
        "setup_scale_each": [s["scale"] for s in setups],
        "wall_s_raw_each": [p["result"]["wall_s"] for p in done],
        "wall_scale_each": [p["scale"] for p in done],
        "failed_ops_share": len(state.failures) / max(state.attempted, 1),
        "stage_s": stages, "failures": state.failures, "ops": state.records,
        "notes": "closed loop, one client, one workload process at a time; "
                 "times scaled to the reference host speed; "
                 "no layer has a wait-time metric because the pipeline has no queues",
    }
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the workload process is killed and the work
    # directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "airfoilrl" / "cli.py").is_file():
        print(f"error: the airfoilrl sources are not under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    line, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in line["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:45s} {value} {m['unit']}")
    for name, value in report["stage_s"].items():
        print(f"{name:45s} {value:.6g} s (median over passes)")
    print(f"{'failed_ops_share':45s} {report['failed_ops_share']:.6g} fraction")
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({"report": report}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
