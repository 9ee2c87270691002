"""Which airfoilrl functions the traced run wraps, and the per-layer
metrics it reports from their spans.

Metric names are ``<module>.<function>.<stat>``.  Stats: ``calls``;
``total_s``; ``self_s`` (span time minus the time of its child spans);
``fail`` (exceptions raised); ``p50_ms`` and ``p99_ms`` of the span
durations, reported only where a run makes more than
PERCENTILE_MIN_CALLS calls (so that p99 has at least ten samples
beyond it) and 0 otherwise.  The pipeline has no queues, so no layer
has a wait-time metric.
"""
from __future__ import annotations

import math

from tracing import Target, count_under, summarize

PERCENTILE_MIN_CALLS = 1000

CLI_COMMANDS = ("generate-pool", "select-samples", "train-surrogate", "pretrain",
                "train-ppo", "evaluate")


def _rows(args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return {"rows": 1 if getattr(x, "ndim", 1) == 1 else len(x)}


def _step_outcomes(args, kwargs, result):
    info = result.info
    return {k: int(info[k]) for k in ("clamped", "shock_lost", "modify_failed")}


def _returned(args, kwargs, result):
    return {"returned": len(result)}


TARGETS = (
    Target("airfoilrl.geometry:apply_action"),
    Target("airfoilrl.geometry:solve_t2"),
    Target("airfoilrl.geometry:cst_fit"),
    Target("airfoilrl.geometry:make_airfoil"),
    Target("airfoilrl.proxy:proxy_evaluate"),
    Target("airfoilrl.proxy:proxy_distribution"),
    Target("airfoilrl.proxy:generate_pool"),
    Target("airfoilrl.proxy:seed_airfoils"),
    Target("airfoilrl.features:extract_features"),
    Target("airfoilrl.nnet:mlp_forward", observe=_rows),
    Target("airfoilrl.nnet:mlp_backward"),
    Target("airfoilrl.nnet:adam_update"),
    Target("airfoilrl.nnet:train_minibatch"),
    Target("airfoilrl.surrogate:select_samples", peak_memory=True),
    Target("airfoilrl.surrogate:train_surrogate"),
    Target("airfoilrl.surrogate:write_dataset"),
    Target("airfoilrl.surrogate:read_dataset"),
    Target("airfoilrl.env:DesignEnv.step", observe=_step_outcomes),
    Target("airfoilrl.rl:collect_batch"),
    Target("airfoilrl.rl:_update_agent"),
    Target("airfoilrl.rl:evaluate_policy"),
    Target("airfoilrl.rl:sample_action"),
    Target("airfoilrl.pretrain:greedy_search", observe=_returned),
    Target("airfoilrl.pretrain:dedup_states"),
    Target("airfoilrl.pretrain:smooth_samples"),
    Target("airfoilrl.pretrain:imitate_policy"),
    Target("airfoilrl.pretrain:pretrain_critic"),
)

# span name -> stats reported for it
LAYER_STATS = (
    ("geometry.apply_action", ("calls", "self_s", "fail")),
    ("geometry.solve_t2", ("calls", "self_s")),
    ("geometry.cst_fit", ("calls", "self_s")),
    ("geometry.make_airfoil", ("calls", "self_s")),
    ("proxy.proxy_evaluate", ("calls", "self_s")),
    ("proxy.proxy_distribution", ("self_s",)),
    ("proxy.generate_pool", ("total_s",)),
    ("proxy.seed_airfoils", ("total_s",)),
    ("features.extract_features", ("calls", "self_s")),
    ("nnet.mlp_forward", ("calls", "rows", "self_s")),
    ("nnet.mlp_backward", ("calls", "self_s")),
    ("nnet.adam_update", ("calls", "self_s")),
    ("nnet.train_minibatch", ("total_s",)),
    ("surrogate.select_samples", ("total_s", "peak_mib")),
    ("surrogate.train_surrogate", ("total_s",)),
    ("surrogate.write_dataset", ("total_s",)),
    ("surrogate.read_dataset", ("total_s",)),
    ("env.DesignEnv.step", ("calls", "self_s", "p50_ms", "p99_ms")),
    ("rl.collect_batch", ("calls", "total_s", "self_s")),
    ("rl._update_agent", ("calls", "total_s")),
    ("rl.evaluate_policy", ("calls", "total_s")),
    ("rl.sample_action", ("calls", "self_s")),
    ("pretrain.greedy_search", ("total_s", "self_s")),
    ("pretrain.dedup_states", ("total_s",)),
    ("pretrain.smooth_samples", ("total_s",)),
    ("pretrain.imitate_policy", ("total_s",)),
    ("pretrain.pretrain_critic", ("total_s",)),
    *((f"cli.{c}", ("total_s",)) for c in CLI_COMMANDS),
)

UNITS = {"calls": "count", "rows": "count", "fail": "count", "self_s": "s",
         "total_s": "s", "p50_ms": "ms", "p99_ms": "ms", "peak_mib": "MiB"}

# counts and ratios that are not a plain stat of one span name
EXTRA_UNITS = {
    "env.clamped": "count",
    "env.shock_lost": "count",
    "env.modify_failed": "count",
    "pretrain.greedy_search.accept_ratio": "fraction",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_s": "s",
    "trace.outside_span_share": "fraction",
    "trace.cli_self_share": "fraction",
    "trace.spans": "count",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {f"{name}.{stat}": UNITS[stat]
           for name, stats in LAYER_STATS for stat in stats}
    out.update(EXTRA_UNITS)
    return out


def _percentile_ms(durations: list[float], q: float) -> float:
    if len(durations) <= PERCENTILE_MIN_CALLS:
        return 0.0
    ordered = sorted(durations)
    return 1000.0 * ordered[math.ceil(q * len(ordered)) - 1]


def layer_metrics(spans, traced_wall_s: float, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, named as in metric_units().
    overhead_s is the traced minus the untraced wall time."""
    stats = summarize(spans)
    out: dict[str, float] = {}
    for name, wanted in LAYER_STATS:
        st = stats.get(name)
        for stat in wanted:
            if st is None:
                value = 0.0
            elif stat in ("rows", "peak_mib"):
                value = st.attrs.get(stat, 0)
            elif stat == "p50_ms":
                value = _percentile_ms(st.durations, 0.50)
            elif stat == "p99_ms":
                value = _percentile_ms(st.durations, 0.99)
            else:
                value = getattr(st, stat)
            out[f"{name}.{stat}"] = value
    step = stats.get("env.DesignEnv.step")
    for flag in ("clamped", "shock_lost", "modify_failed"):
        out[f"env.{flag}"] = step.attrs.get(flag, 0) if step else 0
    greedy = stats.get("pretrain.greedy_search")
    tried = count_under(spans, "geometry.apply_action", "pretrain.greedy_search")
    out["pretrain.greedy_search.accept_ratio"] = (
        greedy.attrs["returned"] / tried if greedy and tried else 0.0)
    self_sum = sum(st.self_s for st in stats.values())
    cli_self = sum(st.self_s for name, st in stats.items() if name.startswith("cli."))
    out["trace.wall_s"] = traced_wall_s
    out["trace.overhead_s"] = overhead_s
    out["trace.self_sum_s"] = self_sum
    out["trace.outside_span_share"] = 1.0 - self_sum / traced_wall_s
    out["trace.cli_self_share"] = cli_self / traced_wall_s
    out["trace.spans"] = len(spans)
    return out
