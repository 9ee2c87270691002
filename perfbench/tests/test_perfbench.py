"""Fast tests of the benchmark harness itself.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""
import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import layers  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Target, Tracer, install, self_times, summarize  # noqa: E402


def test_self_time_of_nested_and_sibling_spans():
    spans = [Span(0, "root", 0.0, 10.0),
             Span(1, "a", 1.0, 4.0, parent=0),
             Span(2, "b", 5.0, 9.0, parent=0),
             Span(3, "a1", 2.0, 3.0, parent=1),
             Span(4, "a1", 3.0, 3.5, parent=1)]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 3.0, 1: 1.5, 2: 4.0, 3: 1.0, 4: 0.5})
    assert sum(selfs.values()) == pytest.approx(10.0)  # the union of all spans
    stats = summarize(spans)
    assert stats["a1"].calls == 2
    assert stats["a1"].total_s == pytest.approx(1.5)
    assert stats["root"].self_s == pytest.approx(3.0)


@pytest.fixture
def alias_modules(monkeypatch):
    home = types.ModuleType("bench_fake_home")
    exec("def f(x):\n    return 2 * x\n"
         "def boom():\n    raise ValueError('no')\n", home.__dict__)
    caller = types.ModuleType("bench_fake_caller")
    caller.g = home.f  # as after `from bench_fake_home import f as g`
    caller.boom = home.boom
    monkeypatch.setitem(sys.modules, home.__name__, home)
    monkeypatch.setitem(sys.modules, caller.__name__, caller)
    return home, caller


def test_wrapper_under_imported_alias_counts_calls(alias_modules):
    home, caller = alias_modules
    original = home.f
    tracer = Tracer("t")
    uninstall = install(tracer, [Target("bench_fake_home:f"),
                                 Target("bench_fake_home:boom")], [caller])
    assert caller.g(3) == 6
    assert home.f(1) == 2
    with pytest.raises(ValueError):
        caller.boom()
    stats = summarize(tracer.spans)
    assert stats["bench_fake_home.f"].calls == 2
    assert stats["bench_fake_home.boom"].fail == 1
    uninstall()
    assert caller.g is original and home.f is original


def test_airfoilrl_calls_through_imported_names_are_traced():
    import airfoilrl
    from airfoilrl.env import DesignEnv, proxy_evaluator
    from airfoilrl.proxy import seed_airfoils

    modules = [m for n, m in sys.modules.items() if n.startswith("airfoilrl")]
    tracer = Tracer("t")
    uninstall = install(tracer, layers.TARGETS, modules)
    try:
        env = DesignEnv(proxy_evaluator())
        env.reset(seed_airfoils(1, seed=0)[0])
        env.step([0.5, 0.5, 0.5])
    finally:
        uninstall()
    stats = summarize(tracer.spans)
    for name in ("env.DesignEnv.step", "geometry.apply_action", "geometry.solve_t2",
                 "proxy.proxy_evaluate", "features.extract_features"):
        assert stats[name].calls >= 1, name
    assert stats["env.DesignEnv.step"].attrs.keys() == {"clamped", "shock_lost",
                                                        "modify_failed"}
    assert airfoilrl.env.apply_action.__name__ == "apply_action"
    assert not hasattr(airfoilrl.env.apply_action, "__wrapped__")


def test_failing_output_check_is_a_failed_op(tmp_path, monkeypatch):
    def failing(workdir):
        raise workloads.CheckFailed("deliberately failing check")

    monkeypatch.setattr(workloads, "check_evaluation", failing)
    line, report = bench.run("ppo_proxy", seed=2, seconds=0, trace=False,
                             size="tiny", work_root=tmp_path)
    assert line["correct"] is False
    assert (line["attempted"], line["failed"]) == (2, 1)
    assert "deliberately failing check" in report["failures"][0]


def test_digest_mismatch_with_earlier_run_is_a_failed_op(tmp_path):
    line, _ = bench.run("ppo_proxy", seed=4, seconds=0, trace=False, size="tiny",
                        work_root=tmp_path)
    assert line["correct"]
    [stored] = (tmp_path / "digests").glob("*.json")
    digests = json.loads(stored.read_text())
    assert set(digests) == {"ppo_history.csv", "trained_agent.npz", "evaluation.csv"}
    digests["ppo_history.csv"] = "0" * 64
    stored.write_text(json.dumps(digests))
    line, report = bench.run("ppo_proxy", seed=4, seconds=0, trace=False,
                             size="tiny", work_root=tmp_path)
    assert line["failed"] == 1
    assert "ppo_history.csv differs" in report["failures"][0]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_failed_workload_process_gives_a_result_line(trace, monkeypatch, capsys):
    monkeypatch.setattr(bench.Run, "spawn", lambda self, workdir, ops, trace: (None, 0.5, 1.0, 1.0))
    monkeypatch.setattr(bench.signal, "signal", lambda *args: None)
    assert bench.main(["--workload", "pretrain_surrogate", "--seed", "3",
                       "--seconds", "0", "--trace", trace]) == 0
    out = capsys.readouterr().out.splitlines()
    line = json.loads(out[-1])
    assert line["correct"] is False and line["failed"] == line["attempted"] > 0
    assert line["metrics"]["wall_s" if trace == "0" else "trace.wall_s"]["value"] is None
    assert any(row.split()[-2:] == ["n/a", "s"] for row in out[:-2])


def test_workload_process_past_the_deadline_is_killed(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "CHILD_DEADLINE_S", 0.5)
    monkeypatch.setattr(bench, "LAST_PASS_START_S", 1.0)
    line, report = bench.run("pretrain_surrogate", seed=1, seconds=40, trace=False,
                             size="tiny", work_root=tmp_path)
    assert line["correct"] is False and line["failed"] == line["attempted"] > 0
    assert line["metrics"]["wall_s"]["value"] is None
    assert "workload process failed" in report["failures"][-1]


def test_digest_store_key_covers_the_plan(tmp_path, monkeypatch):
    def key():
        return bench.Run("ppo_proxy", 4, "tiny", bench.ROOT, tmp_path).store.name

    before = key()
    monkeypatch.setitem(workloads.CONFIGS, ("ppo_proxy", "tiny"),
                        workloads.CONFIGS[("ppo_proxy", "tiny")] + "epochs = 6\n")
    assert key() != before
    monkeypatch.undo()
    assert key() == before
    monkeypatch.setattr(bench.np, "__version__", "0.0")
    assert key() != before


# modules each workload must exercise in its traced pass
EXERCISED = {
    "ppo_proxy": ("geometry.apply_action", "proxy.proxy_evaluate", "nnet.mlp_forward",
                  "env.DesignEnv.step", "rl.collect_batch", "cli.train-ppo"),
    "pretrain_surrogate": ("geometry.apply_action", "nnet.mlp_forward",
                           "env.DesignEnv.step", "rl._update_agent",
                           "pretrain.greedy_search", "cli.pretrain"),
    "surrogate_build": ("geometry.make_airfoil", "proxy.proxy_evaluate",
                        "nnet.adam_update", "surrogate.select_samples",
                        "cli.train-surrogate"),
}


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_tiny_smoke_run(workload, tmp_path):
    line, report = bench.run(workload, seed=1, seconds=0, trace=True, size="tiny",
                             work_root=tmp_path)
    assert line["correct"], report["failures"]
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert metrics.keys() == layers.metric_units().keys()
    for name in EXERCISED[workload]:
        assert metrics[f"{name}.calls" if f"{name}.calls" in metrics
                       else f"{name}.total_s"] > 0, name
    assert 0 < metrics["trace.self_sum_s"] <= metrics["trace.wall_s"]
    assert report["environment"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert list(tmp_path.iterdir()) and not list(tmp_path.glob(f"{workload}-*"))


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WHY)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WHY[w["name"]]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
