"""Drag-reduction environment: bump actions in, state and reward out.

One episode starts from a baseline airfoil and takes up to max_steps
bump modifications.  Actions arrive in scaled (0,1)^3 space, are
clamped, mapped to physical ranges, and applied with CST refit and
thickness rescale.  The reward is the drag-count reduction
10,000 * (CD_k - CD_{k+1}); losing the single shock zeroes the reward
and terminates the episode.  Each step's info says whether the action
was clipped to the box (``clamped``) and whether the bump's width was
clamped by the geometry (``width_clamped``, see AirfoilGeom).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .features import FeatureSet
from .geometry import AirfoilGeom, BumpAction, GeometryError, apply_action

# physical action ranges; t1 narrowed away from the bump-exponent
# singularities at 0 and 1
T1_RANGE = (0.01, 0.99)
SB_RANGE = (0.2, 0.4)
HB_RANGE = (-0.1, 0.1)
ACTION_BOUNDS = np.array([T1_RANGE, SB_RANGE, HB_RANGE])

REWARD_SCALE = 10000.0  # drag counts per unit of drag coefficient


class EnvProtocolError(RuntimeError):
    """step() called before reset() or after the episode ended."""


@dataclass(frozen=True)
class EnvConfig:
    max_steps: int = 5
    t_max: float = 0.095


@dataclass(frozen=True)
class StepResult:
    next_state: np.ndarray
    reward: float
    done: bool
    info: dict


def scaled_to_physical(action_scaled: np.ndarray) -> tuple[BumpAction, bool]:
    """Clamp a scaled action to [0,1]^3 and map onto physical ranges."""
    a = np.asarray(action_scaled, dtype=float)
    clamped = bool(np.any(a < 0.0) or np.any(a > 1.0))
    a = np.clip(a, 0.0, 1.0)
    phys = ACTION_BOUNDS[:, 0] + a * (ACTION_BOUNDS[:, 1] - ACTION_BOUNDS[:, 0])
    return BumpAction(t1=float(phys[0]), s_b=float(phys[1]), h_b=float(phys[2])), clamped


def physical_to_scaled(action: BumpAction) -> np.ndarray:
    phys = np.array([action.t1, action.s_b, action.h_b])
    return (phys - ACTION_BOUNDS[:, 0]) / (ACTION_BOUNDS[:, 1] - ACTION_BOUNDS[:, 0])


class DesignEnv:
    """Episodic airfoil modification driven by an evaluator.

    evaluator(cst14) -> (CD, FeatureSet); either the proxy oracle or a
    trained surrogate wrapped by :func:`surrogate_evaluator`.
    """

    def __init__(self, evaluator, config: EnvConfig = EnvConfig()):
        self.evaluator = evaluator
        self.config = config
        self._airfoil: AirfoilGeom | None = None
        self._cd: float = float("nan")
        self._features: FeatureSet | None = None
        self._steps = 0
        self._done = True

    def reset(self, baseline: AirfoilGeom) -> np.ndarray:
        self._airfoil = baseline
        self._cd, self._features = self.evaluator(baseline.cst14)
        self._steps = 0
        self._done = False
        return self._features.state

    @property
    def cd(self) -> float:
        return self._cd

    @property
    def airfoil(self) -> AirfoilGeom:
        if self._airfoil is None:
            raise EnvProtocolError("reset() has not been called")
        return self._airfoil

    def step(self, action_scaled) -> StepResult:
        if self._done or self._airfoil is None:
            raise EnvProtocolError("step() after episode end or before reset()")
        action, clamped = scaled_to_physical(action_scaled)
        cd_before = self._cd
        try:
            new_airfoil = apply_action(self._airfoil, action)
        except GeometryError:
            # degenerate bump: end the episode with zero reward, keep the
            # current airfoil so the caller can still inspect it
            self._steps += 1
            self._done = True
            info = {
                "cd_before": cd_before,
                "cd_after": cd_before,
                "action": action,
                "clamped": clamped,
                "width_clamped": False,
                "shock_lost": False,
                "modify_failed": True,
            }
            return StepResult(next_state=self._features.state, reward=0.0,
                              done=True, info=info)
        cd_after, feats = self.evaluator(new_airfoil.cst14)
        self._airfoil = new_airfoil
        self._cd = cd_after
        self._features = feats
        self._steps += 1

        shock_lost = feats.no_shock or feats.mw1 < 1.0
        reward = REWARD_SCALE * (cd_before - cd_after)
        if shock_lost:
            reward = 0.0
        done = shock_lost or self._steps >= self.config.max_steps
        self._done = done
        info = {
            "cd_before": cd_before,
            "cd_after": cd_after,
            "action": action,
            "clamped": clamped,
            "width_clamped": new_airfoil.width_clamped,
            "shock_lost": shock_lost,
            "modify_failed": False,
        }
        return StepResult(next_state=feats.state, reward=reward, done=done, info=info)


def proxy_evaluator(config=None):
    """Evaluator closure over the proxy oracle."""
    from .proxy import ProxyConfig, proxy_evaluate

    cfg = config or ProxyConfig()

    def evaluate(cst14):
        return proxy_evaluate(cst14, cfg)

    return evaluate


def surrogate_evaluator(model):
    """Evaluator closure over a trained surrogate model.

    The surrogate predicts [CD, X1, Mw1, MwL, MwA] from the refit CST
    coefficients; Err and the lower-surface Mach are not modeled.
    """
    from .nnet import mlp_forward

    def evaluate(cst14):
        out = mlp_forward(model, np.asarray(cst14, dtype=float))
        cd, x1, mw1, mwl, mwa = (float(v) for v in out)
        feats = FeatureSet(x1=x1, mw1=mw1, mwl=mwl, mwa=mwa,
                           mw_lower=0.0, err=0.0, no_shock=mw1 < 1.0)
        return cd, feats

    return evaluate


ROLLOUT_COLUMNS = ["episode", "step", "t1", "sb", "hb", "cd_before", "cd_after",
                   "reward", "x1", "mw1", "mwl", "mwa", "clamped", "shock_lost"]


def write_rollout_log(path, rows: list[dict]) -> None:
    """Rollout log CSV, one row per environment step."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=ROLLOUT_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (repr(float(v)) if isinstance(v, float) else v)
                             for k, v in row.items()})
