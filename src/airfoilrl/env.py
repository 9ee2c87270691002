"""Drag-reduction environment: bump actions in, state and reward out.

An environment steps N episodes ("lanes") in lockstep, each from a
baseline airfoil for up to max_steps bump modifications.  Actions arrive
in scaled (0,1)^3 space and are clamped, mapped to the physical ranges
and applied by geometry.apply_action over the live lanes.  The reward is
the drag-count reduction REWARD_SCALE * (CD_k - CD_{k+1}); losing the
single shock zeroes it and ends the episode.
"""
from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .features import is_single_shock
from .geometry import apply_action
from .nnet import mlp_forward
from .proxy import M_INF_DEFAULT, T_MAX_DEFAULT, proxy_evaluate

# physical ranges; t1 kept off the bump exponent's singularities at 0 and 1
T1_RANGE = (0.01, 0.99)
SB_RANGE = (0.2, 0.4)
HB_RANGE = (-0.1, 0.1)
ACTION_BOUNDS = np.array([T1_RANGE, SB_RANGE, HB_RANGE])

REWARD_SCALE = 10000.0  # drag counts per unit of drag coefficient
MAX_STEPS = 5  # bump modifications per episode

OUTCOMES = ("clamped", "width_clamped", "shock_lost", "modify_failed")


class EnvProtocolError(RuntimeError):
    """step() called before reset() or after the episode ended."""


@dataclass(frozen=True)
class LaneResult:
    """One lockstep step, a row per lane live before it.  lane_info holds
    (n,) ``cd_before``, ``cd_after`` and OUTCOMES flags and the (n, 3)
    physical ``action``; info counts the lanes that set each flag, so a
    run's counts are the same whether its lanes step together or not."""

    lanes: np.ndarray  # (n,) lane indices
    next_state: np.ndarray  # (n, 4)
    reward: np.ndarray  # (n,)
    done: np.ndarray  # (n,) bool
    lane_info: dict

    @property
    def info(self) -> dict:
        return {k: int(np.count_nonzero(self.lane_info.get(k, ()))) for k in OUTCOMES}


@dataclass(frozen=True)
class Evaluation:
    """An evaluator's answer for N airfoils."""

    cd: np.ndarray  # (N,)
    state: np.ndarray  # (N, 4): X1, Mw1, MwL, MwA
    no_shock: np.ndarray  # (N,) bool

    @property
    def mw1(self) -> np.ndarray:
        return self.state[:, 1]


def scaled_to_physical(actions_scaled) -> tuple[np.ndarray, np.ndarray]:
    """Clamp (n, 3) scaled actions to [0,1]^3 and map them onto the
    physical ranges; returns the physical rows and a per-row clamped flag."""
    a = np.asarray(actions_scaled, dtype=float)
    clamped = np.any(a < 0.0, axis=-1) | np.any(a > 1.0, axis=-1)
    a = np.clip(a, 0.0, 1.0)
    return ACTION_BOUNDS[:, 0] + a * (ACTION_BOUNDS[:, 1] - ACTION_BOUNDS[:, 0]), clamped


def physical_to_scaled(actions) -> np.ndarray:
    """Map (n, 3) physical actions [t1, s_b, h_b] onto [0,1]^3."""
    return (actions - ACTION_BOUNDS[:, 0]) / (ACTION_BOUNDS[:, 1] - ACTION_BOUNDS[:, 0])


class DesignEnv:
    """Episodes on an evaluator, (N, 14) CST -> Evaluation, one lane each,
    held at thickness t_max and ended after max_steps steps.  reset_lanes
    starts a batch, so that one environment serves every rollout of a
    run; `record` receives ``env_lane_steps`` and ``env_step_s``."""

    def __init__(self, evaluator, t_max: float = T_MAX_DEFAULT, max_steps: int = MAX_STEPS,
                 record: Counter | None = None):
        self.evaluator = evaluator
        self.t_max = t_max
        self.max_steps = max_steps
        self.record = Counter() if record is None else record
        self.live = np.zeros(0, dtype=bool)

    def reset_lanes(self, baselines) -> np.ndarray:
        """Start one episode per row of (N, 14) baselines; returns (N, 4) states."""
        self._cst = np.array(baselines, dtype=float)
        ev = self.evaluator(self._cst)
        self._cd, self._state = ev.cd.copy(), ev.state.copy()
        self._steps = np.zeros(len(self._cst), dtype=int)
        self.live = np.ones(len(self._cst), dtype=bool)
        return self._state.copy()

    def reset(self, baseline) -> np.ndarray:
        """reset_lanes for one (14,) baseline; returns its (4,) state."""
        return self.reset_lanes(baseline[None])[0]

    def step(self, action_scaled) -> LaneResult:
        """Apply one scaled action per live lane, an (n, 3) block in lane
        order (a 3-vector is a block of one).  A lane whose modification
        fails, or that loses its shock, ends with zero reward; a failed
        lane keeps its airfoil."""
        lanes = np.flatnonzero(self.live)
        if lanes.size == 0:
            raise EnvProtocolError("step() after episode end or before reset()")
        t0 = time.perf_counter()
        phys, clamped = scaled_to_physical(np.reshape(action_scaled, (lanes.size, 3)))
        cst, width_clamped, failed = apply_action(self._cst[lanes], self.t_max, phys)
        cd_before = self._cd[lanes]
        shock_lost = np.zeros(lanes.size, dtype=bool)
        moved = lanes[~failed]
        if moved.size:
            self._cst[moved] = built = cst[~failed]
            ev = self.evaluator(built)
            self._cd[moved], self._state[moved] = ev.cd, ev.state
            shock_lost[~failed] = ~is_single_shock(ev)
        cd_after = self._cd[lanes]
        reward = np.where(failed | shock_lost, 0.0, REWARD_SCALE * (cd_before - cd_after))
        self._steps[lanes] += 1
        done = failed | shock_lost | (self._steps[lanes] >= self.max_steps)
        self.live[lanes] = ~done
        result = LaneResult(lanes=lanes, next_state=self._state[lanes], reward=reward,
                            done=done, lane_info={
                                "cd_before": cd_before, "cd_after": cd_after,
                                "action": phys, "clamped": clamped,
                                "width_clamped": width_clamped, "shock_lost": shock_lost,
                                "modify_failed": failed})
        self.record["env_lane_steps"] += lanes.size
        self.record["env_step_s"] += time.perf_counter() - t0
        return result


def proxy_evaluator(m_inf: float = M_INF_DEFAULT, record: Counter | None = None):
    """Evaluator closure over the proxy oracle at m_inf: one proxy_evaluate
    call for the whole block, counted into `record` (proxy_blocks, proxy_rows)."""
    record = Counter() if record is None else record

    def evaluate(cst):
        cd, feats = proxy_evaluate(cst, m_inf)
        record["proxy_blocks"] += 1
        record["proxy_rows"] += len(cst)
        return Evaluation(cd=cd, state=feats.state, no_shock=feats.no_shock)

    return evaluate


def surrogate_evaluator(model, record: Counter | None = None):
    """Evaluator closure over a trained surrogate, one forward pass per
    block, counted into `record` (surrogate_blocks, surrogate_rows).  It
    predicts [CD, X1, Mw1, MwL, MwA]; Err and the lower-surface Mach are
    not modelled."""
    record = Counter() if record is None else record

    def evaluate(cst):
        out = mlp_forward(model, cst)
        record["surrogate_blocks"] += 1
        record["surrogate_rows"] += len(out)
        return Evaluation(cd=out[:, 0], state=out[:, 1:5], no_shock=out[:, 2] < 1.0)

    return evaluate


ROLLOUT_COLUMNS = ["episode", "step", "t1", "sb", "hb", "cd_before", "cd_after",
                   "reward", "x1", "mw1", "mwl", "mwa", "clamped", "shock_lost",
                   "width_clamped", "modify_failed"]


def rollout_rows(result: LaneResult, step: int) -> list[dict]:
    """Rollout-log rows (ROLLOUT_COLUMNS) of one lockstep step, the lane
    index as the episode."""
    info = result.lane_info
    return [dict(zip(ROLLOUT_COLUMNS, (
        lane, step, *info["action"][j].tolist(), float(info["cd_before"][j]),
        float(info["cd_after"][j]), float(result.reward[j]), *result.next_state[j].tolist(),
        *(bool(info[k][j]) for k in ROLLOUT_COLUMNS[12:]))))
        for j, lane in enumerate(result.lanes.tolist())]

